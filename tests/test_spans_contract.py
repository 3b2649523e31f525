"""Every boundary the benchmark tracer wraps exists where it looks for it.

``perfbench/spans.py`` patches ``owner.__dict__[attr]`` for each ``(module,
path)`` of ``LAYERS``; a renamed or moved function, or a ``FrameCurve``
method defined on a subclass, would otherwise break ``--trace 1`` only when
the benchmark runs.  The module is loaded read-only from its file.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from artifact import curvelab

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [
    (layer, module, path)
    for layer, targets in _load_spans().LAYERS.items()
    for module, path in targets
]


@pytest.mark.parametrize("layer, module, path", TARGETS)
def test_traced_boundary_is_an_own_attribute(layer, module, path):
    owner = importlib.import_module(f"artifact.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{layer}: {module}.{path} is not defined there"


def test_frame_curve_methods_are_traced():
    paths = {(module, path) for _, module, path in TARGETS}
    for method in ("minors", "__call__"):
        assert ("curvelab", f"FrameCurve.{method}") in paths
        assert method in vars(curvelab.FrameCurve)
