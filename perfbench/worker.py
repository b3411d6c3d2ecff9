"""One workload in one fresh process: closed-loop passes through its runs.

Started by ``run.py``; prints one JSON object as its last stdout line.  A
pass calls ``labcli.run(experiment, config)`` for each run of the workload,
back to back, writing CSV and JSON into a fresh directory as a user run does,
then checks the emitted files.  Untraced passes give wall/CPU seconds, net of
the host speed probe that runs alongside them (``hostspeed.py``); with
``--trace 1`` passes alternate untraced/traced, without the probe, and the
traced ones give the per-layer numbers.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _load_digests():
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(labcli, runs, scratch, digests, probe):
    """One pass through the workload; returns timings, failures and checks.
    Time the host speed ``probe`` spends inside the runs is taken out of the
    timings, and its samples taken during the pass give the pass's ``scale``
    (None when it took none, as when it is not running)."""
    out_root = tempfile.mkdtemp(dir=scratch)
    first_sample = len(probe.samples)
    wall = cpu = 0.0
    problems, margins, mc_margins, csv_digests = [], {}, {}, {}
    failed = set()
    digest_matches = csv_files = 0
    for label, experiment, config, expected in runs:
        cfg = dict(config, out=os.path.join(out_root, label))
        t0, c0 = perf_counter(), _cpu()
        p0, pc0 = probe.spent, probe.spent_cpu
        try:
            report = labcli.run(experiment, cfg)
        except Exception:   # a failed run counts, the loop goes on
            problems.append(f"{label}: raised\n{traceback.format_exc()}")
            failed.add(label)
            continue
        finally:
            wall += perf_counter() - t0 - (probe.spent - p0)
            cpu += _cpu() - c0 - (probe.spent_cpu - pc0)
        prefix = experiment.replace("-", "_")
        try:
            with open(os.path.join(cfg["out"], f"{prefix}_report.json"),
                      encoding="utf-8") as fh:
                emitted = json.load(fh)
            probs, m, mc = workloads.check(label, experiment, config, emitted, expected)
        except Exception:   # missing file or field: the run's output is wrong
            probs, m, mc = [f"{label}: unreadable report\n{traceback.format_exc()}"], {}, {}
        if probs:
            problems += probs
            failed.add(label)
        margins.update({f"{label}.{k}": v for k, v in m.items()})
        mc_margins.update({f"{label}.{k}": v for k, v in mc.items()})
        config_hash = report.metadata["config_hash"]
        known = digests.get(config_hash, {})
        for name in sorted(os.listdir(cfg["out"])):
            if name.endswith(".csv"):
                with open(os.path.join(cfg["out"], name), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                csv_digests.setdefault(config_hash, {})[name] = digest
                csv_files += 1
                digest_matches += known.get(name) == digest
    shutil.rmtree(out_root)
    samples = probe.samples[first_sample:]
    return {"wall_s": wall, "cpu_s": cpu,
            "scale": hostspeed.scale(samples) if samples else None,
            "failed_runs": len(failed), "problems": problems, "margins": margins,
            "mc_margins": mc_margins, "digests": csv_digests, "digest_matches": digest_matches,
            "csv_files": csv_files}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import numpy as np
    import scipy
    from berezin_lab import _accel, labcli
    if not os.path.abspath(labcli.__file__).startswith(os.path.abspath(args.src)):
        raise SystemExit(f"berezin_lab imported from {labcli.__file__}, not {args.src}")

    runs = workloads.configs(args.workload, args.seed)
    digests = _load_digests()
    tracer = Tracer() if args.trace else None
    probe = hostspeed.SpeedProbe(workloads.REFERENCE[args.workload])
    passes, traced = [], []
    start = perf_counter()
    if not args.trace:
        probe.start()
    try:
        while True:
            if tracer is not None and len(passes) > len(traced):
                tracer.reset()
                try:
                    tracer.install()
                    res = run_pass(labcli, runs, args.scratch, digests, probe)
                finally:
                    tracer.uninstall()
                res["layers"] = tracer.summary()
                res["missing_spans"] = tracer.missing(args.workload)
                traced.append(res)
            else:
                passes.append(run_pass(labcli, runs, args.scratch, digests, probe))
            done = perf_counter() - start >= args.seconds
            if done and (tracer is None or traced):
                break
    finally:
        probe.stop()
    if tracer is not None and args.spans_out:
        tracer.dump(args.spans_out)

    every = passes + traced
    margins = every[0]["margins"]
    mc_margins = every[0]["mc_margins"]
    result = {
        "passes": len(passes),
        "runs_per_pass": len(runs),
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "probe_samples": len(probe.samples),
        # passes the probe never fired in take the whole run's scale
        "scale": ([p["scale"] or hostspeed.scale(probe.samples) for p in passes]
                  if probe.samples else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(runs) * len(every),
        "failed": sum(p["failed_runs"] for p in every),
        "problems": [msg for p in every for msg in p["problems"]][:20],
        "accuracy_margin": min(margins.values(), default=0.0),
        "accuracy_argmin": min(margins, key=margins.get, default=None),
        "mc_sigma_margin": min(mc_margins.values()) if mc_margins else None,
        "digest_matches": every[-1]["digest_matches"],
        "csv_files": every[-1]["csv_files"],
        "digests": every[0]["digests"],
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__, "openblas": _openblas_version(np),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                "backend": _accel.backend_name()},
    }
    if traced:
        keys = traced[0]["layers"].keys()
        layers = {k: statistics.median(t["layers"][k] for t in traced) for k in keys}
        layers["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                      - statistics.median(result["wall_s"]))
        result["layers"] = layers
        result["traced_passes"] = len(traced)
        result["missing_spans"] = sorted({s for t in traced for s in t["missing_spans"]})
    print(json.dumps(result))


def _openblas_version(np):
    try:
        cfg = np.show_config(mode="dicts")
        return cfg["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    main()
