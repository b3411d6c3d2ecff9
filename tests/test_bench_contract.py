"""The benchmark in perfbench/ traces berezin_lab from outside: its tracer
wraps named functions and methods, and its worker reports the backend name.
A refactor that renames or removes one of them fails here, not only in a
traced benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_target_exists():
    import berezin_lab._accel
    import berezin_lab.labcli  # noqa: F401  (loads every traced module)
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()        # raises when a declared target is missing
    finally:
        tracer.uninstall()
    assert callable(berezin_lab._accel.backend_name)


def test_tiny_sweep_fires_every_identity_sweep_span(tmp_path):
    from berezin_lab import labcli
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        labcli.run("semi-commutator", {"domain": {"name": "disk"}, "r": 0.0, "N": 8,
                                       "degree": 1, "out": str(tmp_path)})
    finally:
        tracer.uninstall()
    assert tracer.missing("identity-sweep") == []
    n = 3                                   # 1, z, conj(z)
    summary = tracer.summary()
    assert summary["operators.semi_commutator_residual.calls"] == n ** 2
    assert summary["operators.product_decomposition_residual.calls"] == n ** 3
