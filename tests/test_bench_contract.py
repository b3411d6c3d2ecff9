"""The benchmark in perfbench/ traces berezin_lab from outside: its tracer
wraps named functions and methods, and its worker reports the backend name.
A refactor that renames or removes one of them fails here, not only in a
traced benchmark run."""

import importlib.util
import os
import threading
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


def test_tiny_oracles_fires_every_oracles_span(tmp_path):
    from berezin_lab import labcli
    disk = {"name": "disk"}
    runs = [
        ("kernel-check", {"domain": disk, "r": 1.0, "N": 16, "grid_points": 4,
                          "radius": 0.6, "phase": 0.3, "tolerance": 1e-8}),
        ("inflation-check", {"domain": disk, "r": 1.0, "p": 1, "N": 16,
                             "grid_points": 4, "radius": 0.6, "phase": 0.2,
                             "tolerance": 1e-8}),
        ("constants", {"pairs": [[1, 1.0], [2, 0.5]], "samples": 50_000, "seed": 42}),
        ("berezin-profile", {"domain": disk, "r": 0.0, "N": 32, "symbol": "1",
                             "point": [1.0, 0.0], "t_grid": [0.9, 0.95],
                             "mass_outside": {"center": [1.0, 0.0], "radius": 0.3,
                                              "quad_order": 32}}),
    ]
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        for i, (experiment, config) in enumerate(runs):
            labcli.run(experiment, dict(config, out=str(tmp_path / str(i))))
    finally:
        tracer.uninstall()
    assert tracer.missing("oracles") == []


def test_traced_spans_stay_on_the_calling_thread(tmp_path, monkeypatch):
    # the Monte Carlo hit count splits its blocks over worker threads (three
    # here, whatever the host has); the tracer's span stack is not
    # thread-safe, so every traced name must still be entered on this thread
    from berezin_lab import labcli
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    tracer = _load_tracer().Tracer()
    wrap, entered = tracer._wrap, []

    def recording_wrap(span, fn):
        traced = wrap(span, fn)

        def call(*args, **kwargs):
            entered.append(threading.get_ident())
            return traced(*args, **kwargs)
        return call

    tracer._wrap = recording_wrap
    threads = threading.active_count()
    tracer.install()
    try:
        labcli.run("constants", {"pairs": [[1, 1.0], [2, 0.5], [3, 1.5]],
                                 "samples": 50_000, "seed": 42, "out": str(tmp_path)})
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["accel.count_inside.calls"] == 3
    assert all(v >= 0 for k, v in summary.items() if k.endswith(".self_s"))
    assert entered and set(entered) == {threading.get_ident()}
    assert threading.active_count() == threads
