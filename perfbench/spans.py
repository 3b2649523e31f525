"""In-memory span tracing of the library's layer boundaries.

The tracer wraps public module attributes (and two ``FrameCurve`` methods)
of the ``artifact`` package from outside, so the program itself carries no
instrumentation.  Every wrapped call records one span: layer name, start,
end, parent span and task id.  Self time is derived from the spans after
the run: a span's duration minus the durations of its direct children
(the run is single-threaded, so children never overlap).

``LAYERS`` is the single list of traced boundaries; ``DESIGN.md`` says
which end-to-end metric each one should move, on which workload.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter

import numpy as np

# layer name -> (module, attribute path) pairs wrapped under that name
LAYERS = {
    "spinalg.project": [("spinalg", "project")],
    "spinalg.spin_exp_h": [("spinalg", "spin_exp_h")],
    "spinalg.clifford_exp": [("spinalg", "clifford_exp")],
    "spinalg.positive_chart": [("spinalg", "positive_chart")],
    "spinalg.q_of_word": [("spinalg", "q_of_word")],
    "spinalg.word_table": [("spinalg", "word_table")],
    "triang.qr_positive": [("triang", "qr_positive")],
    "triang.lift_step": [("triang", "_lift_rotation_step")],
    "curvelab.singular_events": [("curvelab", "singular_events")],
    "curvelab.minors": [("curvelab", "FrameCurve.minors")],
    "curvelab.eval": [("curvelab", "FrameCurve.__call__")],
    "curvelab.frame_curve_from_matrix_path": [
        ("curvelab", "frame_curve_from_matrix_path")
    ],
    "curvelab.curve_with_itinerary": [("curvelab", "curve_with_itinerary")],
    "polysect.classify_point": [("polysect", "classify_point")],
    "polysect.build": [
        ("polysect", "build_section"),
        ("polysect", "build_perturbed_family"),
    ],
    "poset.hasse": [("poset", "hasse")],
    "poset.prec": [("poset", "prec")],
    "poset.necessary_conditions": [("poset", "necessary_conditions")],
    "poset.letter_oracle_section": [("poset", "letter_oracle_section")],
    # the callable returned by oracle_from_sections (wrapped per oracle)
    "poset.oracle": [],
}

# ratios derived from the spans: name -> (numerator, denominator)
RATIOS = {
    "curvelab.synth.attempts_per_curve": (
        "curvelab.synth.verify_calls", "curvelab.curve_with_itinerary.calls"
    ),
    "poset.oracle.miss_ratio": ("poset.oracle.misses", "poset.oracle.calls"),
    "poset.prec.unknown_frac": ("poset.prec.unknown", "poset.prec.calls"),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [
        ("curvelab.synth.verify_calls", "count"),
        ("poset.oracle.misses", "count"),
        ("poset.prec.unknown", "count"),
    ]
    out += [(name, "ratio") for name in RATIOS]
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Records spans of wrapped calls; ``install``/``uninstall`` patch the
    library in place and restore it exactly."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.task = -1  # -1: set-up
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        nid = self._id(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.task_of.append(self.task)
            self.start.append(clock() - self._t0)
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[idx] = clock() - self._t0
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        on_result = {"poset.prec": self._count_unknown}
        for layer, targets in LAYERS.items():
            for module, path in targets:
                owner = self.modules[module]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr]
                self._patch(owner, attr, self.wrap(layer, fn, on_result.get(layer)))
        poset = self.modules["poset"]
        make_oracle = poset.oracle_from_sections

        def oracle_from_sections(*args, **kwargs):
            return self.wrap("poset.oracle", make_oracle(*args, **kwargs))

        self._patch(poset, "oracle_from_sections", oracle_from_sections)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _count_unknown(self, cert) -> None:
        if cert.status == "unknown":
            self.counts["poset.prec.unknown"] += 1

    def per_layer(self) -> dict[str, float]:
        """``calls`` and ``self_s`` per layer plus the derived counts and
        ratios (a ratio with a zero base reads 0)."""
        k = len(self.names)
        name = np.frombuffer(self.name, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        calls = np.bincount(name, minlength=k)
        out: dict[str, float] = {}
        for layer in LAYERS:
            i = self._ids.get(layer)
            out[f"{layer}.calls"] = int(calls[i]) if i is not None else 0
            out[f"{layer}.self_s"] = float(self_s[i]) if i is not None else 0.0
        out["curvelab.synth.verify_calls"] = self._children_count(
            name, parent, "curvelab.singular_events", "curvelab.curve_with_itinerary"
        )
        out["poset.oracle.misses"] = self._children_count(
            name, parent, "poset.letter_oracle_section", "poset.oracle"
        )
        out["poset.prec.unknown"] = self.counts["poset.prec.unknown"]
        for ratio, (num, den) in RATIOS.items():
            out[ratio] = out[num] / out[den] if out[den] else 0.0
        return out

    def _children_count(self, name, parent, child: str, of: str) -> int:
        if child not in self._ids or of not in self._ids:
            return 0
        mask = (name == self._ids[child]) & (parent >= 0)
        return int(np.count_nonzero(name[parent[mask]] == self._ids[of]))

    def dump(self, path) -> None:
        """Write every span as gzipped JSON columns."""
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "task", "start_s", "end_s"],
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "task": self.task_of.tolist(),
            "start_s": self.start.tolist(),
            "end_s": self.end.tolist(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
