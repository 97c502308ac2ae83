"""The benchmark's tracer wraps jacsyz functions by name and fails when a
listed function or alias is missing; installing it here makes a rename or a
dropped alias fail the main test suite too."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_name_guard_accepts_the_package():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer._patches  # every layer and alias was found and wrapped
    finally:
        tracer.uninstall()
    import jacsyz.linalg
    assert not hasattr(jacsyz.linalg.rank_mod_np, "__wrapped__")
