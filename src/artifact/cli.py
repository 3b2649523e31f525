"""Command-line front end.

Subcommands::

    artifact iti SPEC            itinerary of a curve given by a spec file
    artifact section SIGMA       transversal-section polynomials / label maps
    artifact poset W0 W1         order certificates and Hasse diagrams
    artifact group QUERY ...     group-algebra lookups as JSON

Exit codes: 0 ok, 1 usage or parse error, 2 numerical-resolution failure,
3 internal invariant violation.  ``--dump-config`` prints all defaults in
the flat ``key = value`` config format; ``--config FILE`` overrides them.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterator, Optional, Sequence

# polysect and poset load sympy: only the commands that do exact work import them
from . import curvelab, spinalg, symgrp, triang

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    """Malformed input: spec files, word syntax, flag values."""


def _key_value_lines(path: str, what: str) -> Iterator[tuple[int, str, str]]:
    """Yield ``(lineno, key, value)`` for each ``key = value`` line of a
    flat file, in order, so the caller's errors keep their line order.

    ``#`` starts a comment and blank lines are skipped; ``what`` names the
    file in the error for an unreadable one.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


# the smallest accepted value of each int config key; sing_grid has the
# floor of ``section --grid``
_INT_FLOOR = {"n": 1, "sing_grid": 2}


def _config_value(key: str, kind: str, text: str):
    """The config value ``text`` of ``key``: an int at least its floor, a
    positive finite float, or (``grid_radius``) a positive rational."""
    if kind == "str":
        if not _parse_fraction(text) > 0:
            raise UsageError(f"{key} must be a positive rational, got {text!r}")
        return text
    number = int if kind == "int" else float
    value = _spec_number(key, text, number, low=_INT_FLOOR.get(key))
    if not value > 0:
        raise UsageError(f"{key} must be positive, got {value}")
    return value


@dataclass
class RunConfig:
    """Tunable defaults, overridable from a flat key=value config file."""

    n: int = 2
    cluster_tol: float = 1e-6
    zero_rel: float = 1e-8
    sing_grid: int = 1024
    grid_radius: str = "1/16"

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        cfg = cls()
        ftypes = {f.name: f.type for f in fields(cls)}
        for lineno, key, value in _key_value_lines(path, "config"):
            if key not in ftypes:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                setattr(cfg, key, _config_value(key, ftypes[key], value))
            except UsageError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from exc
        return cfg

    def dump(self) -> str:
        return "\n".join(
            f"{f.name} = {getattr(self, f.name)}" for f in fields(self)
        )


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def _scalar_json(c):
    if isinstance(c, spinalg.QSqrt2):
        return {"p": str(c.p), "q": str(c.q)}
    return float(c)


def _clifford_json(z: spinalg.CliffordEven) -> dict:
    return {
        "n": z.n,
        "terms": [
            {"blade": list(blade), "coeff": _scalar_json(c)}
            for blade, c in z.terms
        ],
    }


def _event_json(ev: curvelab.SingularEvent) -> dict:
    return {
        "time": ev.time,
        "letter": symgrp.letter_name(ev.letter),
        "images": list(ev.letter.images),
        "mult": list(symgrp.mult_vector(ev.letter)),
    }


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}") from exc


def _rank(args, cfg: RunConfig) -> int:
    """The rank ``--n``, or the config's n when the flag is absent."""
    n = cfg.n if args.n is None else args.n
    if n < 1:
        raise UsageError(f"--n must be at least 1, got {n}")
    return n


def _parse_word(n: int, text: str):
    """Bracketed word syntax; '()' or '' denotes the empty word."""
    text = text.strip()
    try:
        return symgrp.word_from_name(n, text)
    except (ValueError, KeyError) as exc:  # symgrp.NotReducedBracket too
        raise UsageError(f"bad word {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# iti
# ---------------------------------------------------------------------------


# the keys each spec kind reads
_SPEC_KEYS = {
    "constant": {"kind", "n", "kappa", "t0", "t1"},
    "section": {"kind", "n", "sigma", "point", "t0", "t1", "samples"},
    "word": {"kind", "n", "word", "times"},
}


def _read_spec(path: str) -> dict:
    """The spec's ``key = value`` lines; its kind must be known and every
    key one that the kind reads."""
    lines = list(_key_value_lines(path, "spec"))
    spec = {key: value for _, key, value in lines}
    kind = spec.get("kind")
    if kind is None:
        raise UsageError(f"{path}: missing 'kind'")
    if kind not in _SPEC_KEYS:
        raise UsageError(f"{path}: unknown spec kind {kind!r}")
    for lineno, key, _ in lines:
        if key not in _SPEC_KEYS[kind]:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r} for kind {kind}")
    return spec


def _spec_number(key: str, text, kind: type, low=None):
    """The spec or config value ``text`` of ``key`` as an int or a finite
    float, at least ``low`` when given; anything else is a usage error."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise UsageError(f"bad {key} {text!r}")
    if low is not None and value < low:
        raise UsageError(f"{key} must be at least {low}, got {value}")
    return value


def _spec_domain(spec: dict, t0: float) -> tuple[float, float]:
    """The domain ``(t0, t1)`` of the spec, by default ``(t0, 1)``."""
    t0 = _spec_number("t0", spec.get("t0", t0), float)
    t1 = _spec_number("t1", spec.get("t1", 1.0), float)
    if not 0 < t1 - t0 < math.inf:
        raise UsageError(f"need t0 < t1 at a finite distance, got t0 = {t0}, t1 = {t1}")
    return t0, t1


def _curve_from_spec(spec: dict, cfg: RunConfig) -> curvelab.FrameCurve:
    kind = spec["kind"]
    n = _spec_number("n", spec.get("n", cfg.n), int, low=1)
    if n > len(symgrp.GENERATOR_CHARS):  # letters are named over a..h
        raise UsageError(f"n must be at most {len(symgrp.GENERATOR_CHARS)}, got {n}")
    if kind == "constant":
        kappa = spec.get("kappa", "h")
        if kappa == "h":
            values = [math.pi * math.sqrt(j * (n + 1 - j)) for j in range(1, n + 1)]
        else:
            values = [_spec_number("kappa", v, float) for v in kappa.split(",")]
            if not all(v > 0 for v in values):
                raise UsageError(f"kappa must be positive, got {kappa!r}")
        if len(values) != n:
            raise UsageError(f"need {n} curvatures, got {len(values)}")
        t0, t1 = _spec_domain(spec, 0.0)
        return curvelab.integrate_frame(n, values, t0=t0, t1=t1)
    if kind == "section":
        from . import polysect

        sigma_name = spec.get("sigma")
        if sigma_name is None:
            raise UsageError("section spec needs 'sigma'")
        try:
            sigma = symgrp.letter_from_name(n, sigma_name)
            section = polysect.build_section(sigma)
        except ValueError as exc:  # symgrp.NotReducedBracket is a ValueError
            raise UsageError(str(exc)) from exc
        point_text = spec.get("point", "")
        point = [_parse_fraction(v) for v in point_text.split(",") if v.strip()]
        if len(point) != len(section.x_vars):
            raise UsageError(
                f"need {len(section.x_vars)} coordinates, got {len(point)}"
            )
        mfun = polysect.matrix_path(section, point)
        t0, t1 = _spec_domain(spec, -1.0)
        samples = _spec_number("samples", spec.get("samples", 201), int, low=2)
        ts = [t0 + k * (t1 - t0) / (samples - 1) for k in range(samples)]
        return curvelab.frame_curve_from_matrix_path(n, mfun, ts)
    word = _parse_word(n, spec.get("word", "()"))  # kind = word
    times = None
    if spec.get("times"):
        times = [_spec_number("times", v, float) for v in spec["times"].split(",")]
        bounds = [0.0] + times + [1.0]
        if len(times) != len(word) or any(
            b <= a for a, b in zip(bounds, bounds[1:])
        ):
            raise UsageError(
                f"times must be {len(word)} increasing values inside (0, 1)"
            )
    return curvelab.curve_with_itinerary(word, times=times, n=n)


def cmd_iti(args, cfg: RunConfig) -> int:
    spec = _read_spec(args.spec)
    curve = _curve_from_spec(spec, cfg)
    events = curvelab.singular_events(
        curve,
        grid=cfg.sing_grid,
        cluster_tol=cfg.cluster_tol,
        zero_rel=cfg.zero_rel,
    )
    word = tuple(ev.letter for ev in events)
    endpoint = curve(curve.ts[-1])
    out = {
        "n": curve.n,
        "itinerary": [_event_json(ev) for ev in events],
        "word": symgrp.word_name(word),
        "endpoint": _clifford_json(endpoint),
    }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"m_{j}" for j in range(1, curve.n + 1)])
            lo, hi = curve.ts[0], curve.ts[-1]
            count = cfg.sing_grid
            grid = [lo + k * (hi - lo) / count for k in range(count + 1)]
            for t, row in zip(grid, curve.minors(grid)):
                writer.writerow([t] + list(row))
    return EXIT_OK


# ---------------------------------------------------------------------------
# section
# ---------------------------------------------------------------------------


def _parse_grid(text: str) -> int:
    """The side N of a square ``N`` or ``NxN`` grid, N >= 2."""
    sides = text.split("x")
    try:
        counts = {int(side) for side in sides}
    except ValueError:
        counts = set()
    if len(sides) > 2 or len(counts) != 1 or min(counts) < 2:
        raise UsageError(f"bad grid spec {text!r} (expected N or NxN, N >= 2)")
    return counts.pop()


def cmd_section(args, cfg: RunConfig) -> int:
    from . import polysect

    n = _rank(args, cfg)
    for flag, needs in (("u", "family"), ("radius", "grid"), ("csv", "grid")):
        if getattr(args, flag) is not None and not getattr(args, needs):
            raise UsageError(f"--{flag} needs --{needs}")
    if args.family and args.family not in ("betaprime", "matrix_u"):
        raise UsageError(f"unknown family {args.family!r}")
    if args.family and args.n not in (None, 3):
        raise UsageError(f"--family perturbs the acb section of n = 3, got --n {n}")
    try:  # the families perturb the acb section of n = 3
        sigma = symgrp.letter_from_name(3 if args.family else n, args.sigma or "acb")
        if not args.family:
            section = polysect.build_section(sigma)
    except (ValueError, KeyError) as exc:
        raise UsageError(f"bad letter {args.sigma!r}: {exc}") from exc
    if args.family:
        if sigma != symgrp.letter_from_name(3, "acb"):
            raise UsageError(f"--family perturbs the acb section, not {args.sigma!r}")
        u = _parse_fraction(args.u) if args.u else None
        try:
            section = polysect.build_perturbed_family(args.family, u)
        except ValueError as exc:  # |u| >= 1
            raise UsageError(f"bad --u {args.u!r}: {exc}") from exc
    if args.grid:  # check the grid flags before printing anything
        if len(section.point_vars) != len(section.x_vars):
            raise UsageError("grid classification of a family needs --u")
        count = _parse_grid(args.grid)
        radius = _parse_fraction(
            cfg.grid_radius if args.radius is None else args.radius
        )
        if radius <= 0:
            raise UsageError(f"--radius must be positive, got {radius}")
    ms = polysect.minors(section)
    ds = polysect.discriminants(section)
    rs = polysect.resultants(section)
    out = {
        "sigma": args.sigma,
        "n": section.n,
        "variables": [str(v) for v in section.point_vars],
        "minors": {f"m_{j + 1}": str(m) for j, m in enumerate(ms)},
        "discriminants": {f"d_{j + 1}": str(d) for j, d in enumerate(ds)},
        "resultants": {f"r_{i},{j}": str(r) for (i, j), r in rs.items()},
    }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if args.grid:
        points = polysect.weighted_grid_points(radius, count, section.x_weights)
        table = polysect.stratum_map(section, points)
        sink = (
            open(args.csv, "w", newline="") if args.csv else nullcontext(sys.stdout)
        )
        with sink as fh:
            writer = csv.writer(fh)
            names = [str(v) for v in section.x_vars]
            writer.writerow(names + ["u", "itinerary", "roots"])
            uval = str(section.u) if section.u is not None else ""
            for row in table:
                writer.writerow(
                    [str(v) for v in row["point"]]
                    + [uval, row["label"], ";".join(f"{r:.12g}" for r in row["roots"])]
                )
    return EXIT_OK


# ---------------------------------------------------------------------------
# poset
# ---------------------------------------------------------------------------


def cmd_poset(args, cfg: RunConfig) -> int:
    from . import poset

    n = _rank(args, cfg)
    if args.hasse and not args.below:
        raise UsageError("--hasse needs --below")
    if args.below and args.w0 is not None:
        raise UsageError("--below takes no words W0 W1")
    oracle = poset.oracle_from_sections(n)
    if args.below:
        try:
            sigma = symgrp.letter_from_name(n, args.below.strip("[]"))
        except (ValueError, KeyError) as exc:
            raise UsageError(f"bad letter {args.below!r}: {exc}") from exc
        words = oracle.letter_set(sigma)
        if words is None:
            raise UsageError(f"the section of {args.below!r} cannot be classified")
        g = poset.hasse(words, oracle, n=n)
        dot = poset.hasse_dot(g)
        if args.hasse:
            with open(args.hasse, "w") as fh:
                fh.write(dot + "\n")
        out = {
            "below": symgrp.letter_name(sigma),
            "words": sorted(symgrp.word_name(w) for w in words),
            "covers": sorted(list(e) for e in g.edges),
            "unknown_pairs": g.graph["unknown_pairs"],
        }
        json.dump(out, sys.stdout, indent=2)
        sys.stdout.write("\n")
        if not args.hasse:
            sys.stdout.write(dot + "\n")
        return EXIT_OK
    if args.w1 is None:
        raise UsageError("poset needs either W0 W1 or --below SIGMA")
    w0 = _parse_word(n, args.w0)
    w1 = _parse_word(n, args.w1)
    cert = poset.prec(w0, w1, oracle, n=n)
    out = {
        "w0": symgrp.word_name(w0),
        "w1": symgrp.word_name(w1),
        "status": cert.status,
        "witness": list(cert.witness) if cert.witness is not None else None,
        "reason": cert.reason,
    }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# group
# ---------------------------------------------------------------------------


def cmd_group(args, cfg: RunConfig) -> int:
    n = _rank(args, cfg)
    query, arg = args.query, args.arg
    if query == "rbullet":
        try:
            rank = int(arg)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"rbullet needs an integer, got {arg!r}") from exc
        try:
            out = {"rbullet": symgrp.r_bullet(rank)}
        except ValueError as exc:  # n < 2
            raise UsageError(str(exc)) from exc
    elif query in ("mult", "inv", "acute", "grave", "hat"):
        try:
            sigma = symgrp.letter_from_name(n, arg)
        except (TypeError, ValueError, KeyError) as exc:
            raise UsageError(f"bad letter {arg!r}: {exc}") from exc
        if query == "mult":
            out = {"mult": list(symgrp.mult_vector(sigma))}
        elif query == "inv":
            out = {"inv": symgrp.inversions(sigma)}
        else:
            fn = getattr(spinalg, query)
            out = {query: _clifford_json(fn(sigma))}
    elif query == "qword":
        word = _parse_word(n, arg or "()")
        out = {"qword": _clifford_json(spinalg.q_of_word(word, n))}
    elif query == "btable":
        word = _parse_word(n, arg or "()")
        table = spinalg.word_table(word, n)
        out = {
            "word": symgrp.word_name(word),
            "integer": [_clifford_json(z) for z in table.integer],
            "half": [_clifford_json(z) for z in table.half],
        }
    else:
        raise UsageError(f"unknown group query {query!r}")
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; usage is 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="artifact", description=__doc__.splitlines()[0])
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument(
        "--dump-config", action="store_true", help="print defaults and exit"
    )
    sub = p.add_subparsers(dest="command")

    iti = sub.add_parser("iti", help="itinerary of a curve spec file")
    iti.add_argument("spec", help="flat key = value curve spec")
    iti.add_argument("--csv", help="write minor traces to this CSV file")

    sec = sub.add_parser("section", help="transversal section data")
    sec.add_argument("sigma", nargs="?", default="", help="letter, e.g. aba")
    sec.add_argument("--n", type=int, help="rank (default from config)")
    sec.add_argument("--family", help="perturbed family: betaprime | matrix_u")
    sec.add_argument("--u", help="modulus for --family, e.g. 2/5")
    sec.add_argument("--grid", help="label-map grid, e.g. 100x100")
    sec.add_argument("--radius", help="grid radius (rational)")
    sec.add_argument("--csv", help="write the label map to this CSV file")

    pos = sub.add_parser("poset", help="order certificates / Hasse diagrams")
    pos.add_argument("w0", nargs="?", default=None)
    pos.add_argument("w1", nargs="?", default=None)
    pos.add_argument("--n", type=int)
    pos.add_argument("--below", help="list all words below this letter")
    pos.add_argument("--hasse", help="write the Hasse diagram DOT here")

    grp = sub.add_parser("group", help="group-algebra lookups")
    grp.add_argument(
        "query",
        choices=["mult", "inv", "acute", "grave", "hat", "qword", "btable", "rbullet"],
    )
    grp.add_argument("arg", nargs="?", default=None)
    grp.add_argument("--n", type=int)
    return p


_COMMANDS = {
    "iti": cmd_iti,
    "section": cmd_section,
    "poset": cmd_poset,
    "group": cmd_group,
}

_NUMERIC_ERRORS = (
    curvelab.UnresolvedCluster,
    curvelab.PathNotAccessible,
    spinalg.NoRootInInterval,
    spinalg.NotUnit,
    triang.NotARotation,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        if args.dump_config:
            print(cfg.dump())
            return EXIT_OK
        if args.command is None:
            raise UsageError("missing subcommand (iti, section, poset, group)")
        if args.command == "section" and not args.sigma and not args.family:
            raise UsageError("section needs a letter or --family")
        return _COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as exc:
        print(f"numerical resolution failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (AssertionError, ArithmeticError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
