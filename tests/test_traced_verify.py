"""The benchmark's traced verify run: every wrapped function keeps working.

``bench/tracer.py`` wraps public spinkit functions by name and reads the
arguments of some of them (``exactlinalg.mat_mul`` must get row sequences),
so a change of call shape breaks the traced run even where the plain one
passes.
"""

import importlib.util
from pathlib import Path

from spinkit import verify

# targets the tracer still names although the functions left the package
STALE_TARGETS = {"spinkit.exactlinalg.rank_mod_p", "spinkit.gammarep.clifford_action"}


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_verify_all_passes():
    tracer = _load_tracer().Tracer()
    missing = tracer.install()
    try:
        results = verify.run_suites("all", 0)
    finally:
        tracer.uninstall()
    assert [r.name for r in results if not r.passed] == []
    assert set(missing) <= STALE_TARGETS
    metrics, unseen = tracer.metrics()
    assert unseen == []
    assert metrics["exactlinalg.mat_mul.mults"][0] > 0
    # validation that no longer runs through SpinElement._validate would
    # leave spingroup.spin_validate.self_s at zero
    assert any(span[3] == "spingroup.spin_validate" for span in tracer.spans)
