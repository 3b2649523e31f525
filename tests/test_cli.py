import csv
import json
import warnings
from collections import Counter

import pytest

from artifact import cli, curvelab, poset, spinalg, symgrp


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfig:
    def test_dump_config(self, capsys):
        code, out, _ = run(capsys, "--dump-config")
        assert code == 0
        keys = dict(
            line.split(" = ", 1) for line in out.strip().splitlines()
        )
        assert keys["n"] == "2"

    def test_config_roundtrip(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# run settings\n\nn = 3  # rank\n   \nsing_grid = 256\n")
        code, out, _ = run(capsys, "--config", str(cfg), "--dump-config")
        assert code == 0
        assert "n = 3" in out
        assert "sing_grid = 256" in out

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_key = 1\n")
        code, _, err = run(capsys, "--config", str(cfg), "--dump-config")
        assert code == 1
        assert "unknown key" in err

    @pytest.mark.parametrize("key", ["grid_count", "samples", "seed"])
    def test_retired_keys_are_unknown(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 9\n")
        code, _, err = run(capsys, "--config", str(cfg), "--dump-config")
        assert code == 1
        assert "unknown key" in err


    @pytest.mark.parametrize(
        "line",
        [
            "n = 0",
            "ode_steps = 0",
            "sing_grid = 0",
            "sing_grid = 1",
            "cluster_tol = nan",
            "cluster_tol = 0",
            "zero_rel = -1e-8",
            "zero_rel = inf",
            "grid_radius = -1/16",
            "grid_radius = 0",
            "grid_radius = x",
        ],
    )
    def test_out_of_range_value(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "--config", str(cfg), "--dump-config")
        assert code == 1
        assert err.startswith(f"error: {cfg}:1: ")
        assert out == ""


class TestIti:
    def test_constant_h_empty_itinerary(self, capsys, tmp_path):
        spec = tmp_path / "c.spec"
        spec.write_text("kind = constant\nn = 2\nkappa = h\n")
        code, out, _ = run(capsys, "iti", str(spec))
        assert code == 0
        data = json.loads(out)
        assert data["itinerary"] == []
        assert data["word"] == "()"
        # endpoint is -1 = hat(eta) for n = 2
        scalar = [
            t for t in data["endpoint"]["terms"] if t["blade"] == []
        ][0]
        assert abs(scalar["coeff"] + 1.0) < 1e-6

    def test_top_letters_past_the_first_turn(self, capsys, tmp_path):
        # z z~ = 1 holds for all t: the events of exp(t pi h) at t = 1, 2
        code, out, _ = run_spec(
            capsys, tmp_path, "kind = constant\nn = 3\nt1 = 2.5\n"
        )
        assert code == 0
        events = json.loads(out)["itinerary"]
        assert [ev["letter"] for ev in events] == ["abacba", "abacba"]
        assert abs(events[0]["time"] - 1) < 1e-5
        assert abs(events[1]["time"] - 2) < 1e-5

    def test_section_spec(self, capsys, tmp_path):
        spec = tmp_path / "s.spec"
        spec.write_text(
            "kind = section\nn = 2\nsigma = aba\npoint = 1/3, -1/18\n"
        )
        code, out, _ = run(capsys, "iti", str(spec))
        assert code == 0
        data = json.loads(out)
        assert data["word"] == "[ba]a"

    def test_csv_traces(self, capsys, tmp_path):
        spec = tmp_path / "c.spec"
        spec.write_text("kind = constant\nn = 2\nkappa = h\n")
        csvfile = tmp_path / "m.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sing_grid = 64\n")
        code, _, _ = run(
            capsys, "--config", str(cfg), "iti", str(spec), "--csv", str(csvfile)
        )
        assert code == 0
        lines = csvfile.read_text().strip().splitlines()
        assert lines[0] == "t,m_1,m_2"
        assert len(lines) == 66  # header + 65 samples

    def test_malformed_spec(self, capsys, tmp_path):
        spec = tmp_path / "bad.spec"
        spec.write_text("kind = nonsense\n")
        code, _, err = run(capsys, "iti", str(spec))
        assert code == 1
        assert "nonsense" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "iti", "/nonexistent/path.spec")
        assert code == 1


class TestSection:
    def test_aba_formulas(self, capsys):
        code, out, _ = run(capsys, "section", "aba")
        assert code == 0
        data = json.loads(out)
        assert data["discriminants"]["d_1"] == "-2*x2"
        assert data["discriminants"]["d_2"] == "x1**2 + 2*x2"

    def test_identity_letter(self, capsys):
        code, _, err = run(capsys, "section", "e")
        assert code == 1

    def test_family_grid(self, capsys, tmp_path):
        csvfile = tmp_path / "map.csv"
        code, _, _ = run(
            capsys,
            "section", "acb", "--n", "3",
            "--family", "betaprime", "--u", "2/5",
            "--grid", "6x6", "--radius", "1/5",
            "--csv", str(csvfile),
        )
        assert code == 0
        lines = csvfile.read_text().strip().splitlines()
        assert lines[0].startswith("x1,x2,u,itinerary")
        assert len(lines) == 37

    def test_family_grid_needs_u(self, capsys):
        code, _, err = run(
            capsys, "section", "acb", "--family", "betaprime", "--grid", "4x4"
        )
        assert code == 1
        assert "--u" in err


class TestPoset:
    def test_certificate_yes(self, capsys):
        code, out, _ = run(capsys, "poset", "aa", "[aba]")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "yes"

    def test_empty_word_isolated(self, capsys):
        code, out, _ = run(capsys, "poset", "()", "[aba]")
        assert code == 0
        assert json.loads(out)["status"] == "no"

    def test_below_writes_dot(self, capsys, tmp_path):
        dot = tmp_path / "h.dot"
        code, out, _ = run(
            capsys, "poset", "--below", "aba", "--hasse", str(dot)
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["words"]) == 9
        text = dot.read_text()
        assert text.startswith("digraph hasse {")
        assert '"aa" -> "a[ba]";' in text


class TestGroup:
    def test_mult(self, capsys):
        code, out, _ = run(capsys, "group", "mult", "acb", "--n", "3")
        assert code == 0
        assert json.loads(out)["mult"] == [2, 1, 2]

    def test_rbullet(self, capsys):
        code, out, _ = run(capsys, "group", "rbullet", "3")
        assert code == 0
        assert json.loads(out)["rbullet"] == 4

    def test_qword(self, capsys):
        code, out, _ = run(capsys, "group", "qword", "abab", "--n", "2")
        assert code == 0
        data = json.loads(out)["qword"]
        assert data["terms"] == [
            {"blade": [], "coeff": {"p": "1", "q": "0"}}
        ]

    def test_bad_query_argument(self, capsys):
        code, _, _ = run(capsys, "group", "mult", "zzz")
        assert code == 1


class TestUsage:
    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "--definitely-not-a-flag")
        assert code == 1

    def test_broken_invariant_exits_3(self, capsys, monkeypatch):
        def broken(args, cfg):
            raise AssertionError("broken")

        monkeypatch.setitem(cli._COMMANDS, "group", broken)
        code, out, err = run(capsys, "group", "qword", "abab", "--n", "2")
        assert code == 3
        assert out == ""
        assert err == "internal invariant violation: broken\n"


class TestSectionCsv:
    def test_grid_csv_written_and_closed(self, capsys, tmp_path, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        csvfile = tmp_path / "map.csv"
        code, _, _ = run(
            capsys, "section", "aba", "--grid", "3x3", "--csv", str(csvfile)
        )
        assert code == 0
        assert opened and all(fh.closed for fh in opened)
        with csvfile.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "x2", "u", "itinerary", "roots"]
        assert len(rows) == 1 + 9
        assert all(len(row) == 5 for row in rows)


def run_spec(capsys, tmp_path, text):
    spec = tmp_path / "case.spec"
    spec.write_text(text)
    return run(capsys, "iti", str(spec))


class TestSpecValues:
    """Malformed spec values are usage errors (exit 1), not tracebacks,
    internal errors or silently empty itineraries."""

    SECTION = "kind = section\nn = 2\nsigma = aba\npoint = 1/3, -1/18\n"

    @pytest.mark.parametrize(
        "text",
        [
            "kind = constant\nn = two\n",
            "kind = word\nn = 3\nword = a[cb]a\ntimes = 0.1,x\n",
            SECTION + "samples = x\n",
            SECTION + "samples = 1\n",
            "kind = constant\nn = 2\nsteps = 0\n",
            "kind = constant\nn = 2\nt0 = 0.5\nt1 = 0.5\n",
            SECTION + "t0 = 0.5\nt1 = 0.5\n",
            "kind = word\nn = 3\nword = a[cb]a\ntimes = 0.9,0.1,0.2,0.3\n",
        ],
        ids=[
            "n-not-int", "times-not-float", "samples-not-int", "samples-1",
            "steps-0", "constant-empty-domain", "section-empty-domain",
            "times-unordered",
        ],
    )
    def test_usage_error(self, capsys, tmp_path, text):
        code, out, err = run_spec(capsys, tmp_path, text)
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""

    @pytest.mark.parametrize(
        "text",
        [
            "kind = constant\nn = 2\nkapa = 1, 2\n",
            "kind = constant\nn = 2\nsteps = 800\n",
            SECTION + "kappa = h\n",
            "kind = word\nn = 3\nword = a[cb]a\nt1 = 2\n",
        ],
        ids=["typo", "retired-steps", "section-kappa", "word-t1"],
    )
    def test_unknown_key(self, capsys, tmp_path, text):
        code, out, err = run_spec(capsys, tmp_path, text)
        assert code == 1
        assert err.startswith("error: ")
        assert "unknown key" in err
        assert out == ""


class TestSectionPosetFlags:
    @pytest.mark.parametrize("grid", ["3x7", "0", "-4", "1", "3x", "3x3x3", "ax3"])
    def test_bad_grid(self, capsys, grid):
        code, out, err = run(capsys, "section", "aba", "--grid", grid)
        assert code == 1
        assert err.startswith("error: bad grid spec")

    def test_grid_side_alone(self, capsys):
        code, out, _ = run(capsys, "section", "aba", "--grid", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) - lines.index("x1,x2,u,itinerary,roots") - 1 == 9

    def test_family_u_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "section", "acb", "--n", "3", "--family", "betaprime", "--u", "3/2"
        )
        assert code == 1
        assert err.startswith("error: ")

    def test_below_identity(self, capsys):
        code, _, err = run(capsys, "poset", "--below", "[]")
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("radius", ["--radius=0", "--radius=-1/16"])
    def test_radius_not_positive(self, capsys, radius):
        code, out, err = run(capsys, "section", "aba", "--grid", "3", radius)
        assert code == 1
        assert err.startswith("error: --radius must be positive")
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("poset", "--below", "aba", "--n", "0"),
            ("poset", "aa", "[aba]", "--n", "0"),
            ("section", "aba", "--n", "0"),
            ("group", "mult", "a", "--n", "0"),
        ],
    )
    def test_explicit_rank_zero(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: --n must be at least 1")
        assert out == ""

    def test_group_empty_letter(self, capsys):
        code, out, err = run(capsys, "group", "hat", "")
        assert code == 1
        assert err.startswith("error: bad letter")
        assert out == ""


class TestSectionFlagCombinations:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--family", "betaprime", "--u", "2/5"), "--family perturbs the acb section"),
            (("--u", "2/5"), "--u needs --family"),
            (("--radius", "1/5"), "--radius needs --grid"),
            (("--csv", "map.csv"), "--csv needs --grid"),
            (("--family", "nope"), "unknown family 'nope'"),
        ],
        ids=["family-of-another-letter", "u-alone", "radius-alone", "csv-alone",
             "unknown-family"],
    )
    def test_rejected(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "section", "aba", *argv)
        assert code == 1
        assert err.startswith(f"error: {message}")
        assert out == ""
        assert not (tmp_path / "map.csv").exists()


class TestPosetBelowOracle:
    def test_each_letter_section_classified_once(self, capsys, monkeypatch):
        section_of = poset.letter_oracle_section
        calls = Counter()

        def counted(sigma):
            calls[symgrp.letter_name(sigma)] += 1
            return section_of(sigma)

        monkeypatch.setattr(poset, "letter_oracle_section", counted)
        code, _, _ = run(capsys, "poset", "--below", "aba")
        assert code == 0
        assert calls == {"aba": 1, "ba": 1, "ab": 1}

    def test_below_abcb_json_pinned(self, capsys):
        code, out, _ = run(capsys, "poset", "--below", "abcb", "--n", "3")
        assert code == 0
        assert out.startswith(json.dumps(BELOW_ABCB, indent=2) + "\n")


BELOW_ABCB = {
    "below": "abcb",
    "words": [
        "[abc]c", "[abcb]", "[bc]ac", "[bc]ca", "[bcb]a", "[cb]ba", "a[bc]c",
        "a[bcb]", "a[cb]aba", "a[cb]b", "ab[cb]", "aba[cb]a", "ababa",
        "abacbac", "abacbca", "abb", "abcbc", "ac[bc]", "acbcaba", "acbcb",
        "acc", "b[cb]a", "bba", "bcbac", "bcbca", "c[abc]", "c[bc]a",
        "ca[bc]", "cabcaba", "cabcb", "cac", "cbcba", "cca",
    ],
    "covers": [
        ["[abc]c", "[abcb]"], ["[bc]ac", "[abc]c"], ["[bc]ca", "[bcb]a"],
        ["[bcb]a", "[abcb]"], ["[cb]ba", "[bcb]a"], ["a[bc]c", "[abc]c"],
        ["a[bc]c", "a[bcb]"], ["a[bcb]", "[abcb]"], ["a[cb]aba", "[abcb]"],
        ["a[cb]b", "a[bcb]"], ["ab[cb]", "a[bcb]"], ["aba[cb]a", "[abcb]"],
        ["ababa", "a[cb]aba"], ["ababa", "aba[cb]a"], ["abacbac", "[abc]c"],
        ["abacbca", "aba[cb]a"], ["abb", "a[cb]b"], ["abb", "ab[cb]"],
        ["abcbc", "a[bc]c"], ["abcbc", "ab[cb]"], ["ac[bc]", "a[bcb]"],
        ["acbcaba", "a[cb]aba"], ["acbcb", "a[cb]b"], ["acbcb", "ac[bc]"],
        ["acc", "a[bc]c"], ["acc", "ac[bc]"], ["b[cb]a", "[bcb]a"],
        ["bba", "[cb]ba"], ["bba", "b[cb]a"], ["bcbac", "[bc]ac"],
        ["bcbca", "[bc]ca"], ["bcbca", "b[cb]a"], ["c[abc]", "[abcb]"],
        ["c[bc]a", "[bcb]a"], ["c[bc]a", "c[abc]"], ["ca[bc]", "c[abc]"],
        ["cabcaba", "c[abc]"], ["cabcb", "ca[bc]"], ["cac", "[bc]ac"],
        ["cac", "ca[bc]"], ["cbcba", "[cb]ba"], ["cbcba", "c[bc]a"],
        ["cca", "[bc]ca"], ["cca", "c[bc]a"],
    ],
    "unknown_pairs": [],
}


class TestNonFiniteCurves:
    """Curvatures that are not positive finite floats are usage errors; a
    curve too fast for its floats is a numerical failure (a spinor that is
    not unit, or zeros that cannot be classified), not an empty itinerary
    with NaN coefficients."""

    @pytest.mark.parametrize(
        "line, code",
        [
            ("kappa = nan, 1", 1),
            ("kappa = inf, 1", 1),
            ("kappa = 1, -1", 1),
            ("kappa = 1e308, 1", 2),
            ("t1 = 1e300", 2),
        ],
        ids=["kappa-nan", "kappa-inf", "kappa-negative", "kappa-overflow", "t1-overflow"],
    )
    def test_rejected(self, capsys, tmp_path, line, code):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, out, err = run_spec(
                capsys, tmp_path, f"kind = constant\nn = 2\n{line}\n"
            )
        assert got == code
        assert out == ""
        prefix = "error: " if code == 1 else "numerical resolution failure: "
        assert len(err.splitlines()) == 1
        assert err.startswith(prefix)
        assert caught == []

    def test_dip_events_far_from_zero(self, capsys, tmp_path, monkeypatch):
        # the dip brackets near t = 8192 cannot get 1e-12 narrow
        minors = curvelab.FrameCurve.minors
        calls = []

        def counted(curve, t):
            calls.append(t)
            if len(calls) > 500:
                raise RuntimeError("more than 500 minors calls")
            return minors(curve, t)

        monkeypatch.setattr(curvelab.FrameCurve, "minors", counted)
        code, out, _ = run_spec(
            capsys, tmp_path, "kind = constant\nn = 2\nt0 = 8190\nt1 = 8192.5\n"
        )
        assert code == 0
        assert json.loads(out)["word"] == "[aba][aba]"


class TestRankLimit:
    """A rank beyond the eight named generators is a usage error before any
    spinor table is built (the tables of n = 9 would take about 13 GB)."""

    @pytest.mark.parametrize(
        "spec, config",
        [
            ("kind = constant\nn = 9\n", None),
            ("kind = word\nn = 12\nword = a\n", None),
            ("kind = constant\n", "n = 9\n"),
            ("kind = word\n", "n = 9\n"),
        ],
        ids=["constant", "word", "config-constant", "config-word"],
    )
    def test_rejected(self, capsys, tmp_path, monkeypatch, spec, config):
        def no_tables(n):
            raise AssertionError(f"spinor tables of rank {n} requested")

        monkeypatch.setattr(spinalg, "_tables", no_tables)
        path = tmp_path / "case.spec"
        path.write_text(spec)
        argv = ["iti", str(path)]
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv = ["--config", str(cfg)] + argv
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: n must be at most 8, got ")


class TestHugeDomains:
    """A domain whose length overflows is a usage error; a section path
    whose evaluation overflows is a numerical failure, one line each."""

    @pytest.mark.parametrize(
        "spec, code",
        [
            ("kind = constant\nt0 = -1e308\nt1 = 1e308\n", 1),
            ("kind = section\nsigma = aba\npoint = 0, 0\nt0 = -1e308\nt1 = 1e308\n", 1),
            ("kind = section\nn = 3\nsigma = acb\npoint = 0, 0\nt0 = -1e160\nt1 = 1e160\n", 2),
            ("kind = section\nsigma = aba\npoint = 0, 0\nt0 = -1e160\nt1 = 1e160\n", 2),
            ("kind = section\nsigma = aba\npoint = 0, 0\nt0 = -1e120\nt1 = 1e120\n", 2),
            ("kind = section\nn = 3\nsigma = acb\npoint = 0, 0\nt0 = -1e100\nt1 = 1e100\n", 2),
        ],
        ids=[
            "constant-span",
            "section-span",
            "acb-overflow",
            "aba-overflow",
            "aba-no-warning",
            "acb-no-warning",
        ],
    )
    def test_rejected(self, capsys, tmp_path, spec, code):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, out, err = run_spec(capsys, tmp_path, spec)
        assert got == code
        assert out == ""
        prefix = "error: " if code == 1 else "numerical resolution failure: "
        assert len(err.splitlines()) == 1
        assert err.startswith(prefix)
        assert caught == []


class TestIgnoredFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("poset", "aa", "[aba]", "--hasse", "h.dot"), "--hasse needs --below"),
            (("poset", "aa", "[aba]", "--below", "aba"), "--below takes no words"),
            (
                ("section", "--family", "betaprime", "--u", "2/5", "--n", "2"),
                "--family perturbs the acb section of n = 3",
            ),
            (("group", "rbullet", "1"), "r_bullet requires n >= 2"),
        ],
        ids=["hasse-without-below", "below-with-words", "family-n-2", "rbullet-1"],
    )
    def test_rejected(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error: {message}")
        assert out == ""
        assert not (tmp_path / "h.dot").exists()

    def test_family_accepts_its_own_rank(self, capsys):
        argv = ("section", "--family", "betaprime", "--u", "2/5")
        code, out, _ = run(capsys, *argv, "--n", "3")
        assert code == 0
        assert run(capsys, *argv) == (0, out, "")


class TestLetterNames:
    """A letter name must be a reduced word, and a letter whose section has
    no parameters is the whole diagram below it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("group", "mult", "aa"),
            ("poset", "--below", "abab"),
            ("section", "abab"),
        ],
        ids=["group-aa", "below-abab", "section-abab"],
    )
    def test_non_reduced_name_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "not a reduced word" in err

    @pytest.mark.parametrize(
        "name, n", [("a", 2), ("b", 2), ("b", 3), ("d", 4)]
    )
    def test_below_one_inversion_letter(self, capsys, name, n):
        code, out, _ = run(capsys, "poset", "--below", name, "--n", str(n))
        assert code == 0
        data = json.loads(out[: out.index("digraph")])
        assert data["words"] == [name]
        assert data["covers"] == [] and data["unknown_pairs"] == []


class TestGroupQueries:
    def test_inv(self, capsys):
        code, out, _ = run(capsys, "group", "inv", "acb", "--n", "3")
        assert code == 0
        assert json.loads(out) == {"inv": 3}

    def test_acute_grave_hat(self, capsys):
        half = {"p": "0", "q": "1/2"}
        got = {}
        for query in ("acute", "grave", "hat"):
            code, out, _ = run(capsys, "group", query, "a")
            assert code == 0
            got[query] = [
                (tuple(t["blade"]), t["coeff"]) for t in json.loads(out)[query]["terms"]
            ]
        assert got["acute"] == [((), half), ((1, 2), {"p": "0", "q": "-1/2"})]
        assert got["grave"] == [((), half), ((1, 2), half)]
        assert got["hat"] == [((1, 2), {"p": "-1", "q": "0"})]

    def test_btable(self, capsys):
        code, out, _ = run(capsys, "group", "btable", "a[ba]")
        assert code == 0
        table = json.loads(out)
        assert table["word"] == "a[ba]"
        assert len(table["integer"]) == 4 and len(table["half"]) == 3
        assert table["integer"][0]["terms"] == [
            {"blade": [], "coeff": {"p": "1", "q": "0"}}
        ]
        code, out, _ = run(capsys, "group", "qword", "a[ba]")
        assert table["integer"][-1] == json.loads(out)["qword"]


class TestUntracedOptions:
    def test_word_spec(self, capsys, tmp_path):
        code, out, _ = run_spec(capsys, tmp_path, "kind = word\nn = 2\nword = a[ba]\n")
        assert code == 0
        data = json.loads(out)
        assert data["word"] == "a[ba]"
        assert [ev["letter"] for ev in data["itinerary"]] == ["a", "ba"]

    def test_config_grid_radius(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid_radius = 1/8\n")
        argv = ("section", "aba", "--grid", "3")
        code, out, _ = run(capsys, "--config", str(cfg), *argv)
        assert code == 0
        assert run(capsys, *argv, "--radius", "1/8") == (0, out, "")
        assert run(capsys, *argv)[1] != out

    def test_matrix_u_family(self, capsys):
        code, out, _ = run(capsys, "section", "--family", "matrix_u", "--u", "1/3")
        assert code == 0
        assert json.loads(out)["n"] == 3
