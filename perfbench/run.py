#!/usr/bin/env python3
"""berezin-lab benchmark: one workload per call, each in a fresh process.

    python3 perfbench/run.py --workload <identity-sweep|localization|oracles>
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (or any checkout holding ``src/berezin_lab``).
The workload process runs closed-loop passes through its experiments for
``--seconds`` seconds on the numpy path, with OpenBLAS pinned to at most two
threads, and checks every run's emitted CSV/JSON (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics: median wall and CPU seconds per
pass, peak RSS, the accuracy margin in decades, and ``setup_s``, the median
import time of ``berezin_lab`` plus ``berezin_lab.labcli`` over several fresh
processes.  The three times are given at a fixed reference host speed: each
is scaled by how fast a reference loop ran alongside it (``hostspeed.py``),
so a busier host does not read as a slower program; the summary also prints
the seconds as measured.  ``--trace 1`` alternates untraced and traced passes
and reports per-span calls, errors, counters and self-time shares, and
per-layer self-time shares (see ``tracer.py``); spans are written to
``perfbench/out/``.  ``--record-digests`` rewrites the CSV digest table
``digests.json`` from this run.

The human-readable summary goes to stdout; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 1 when the checkout holds no ``src/berezin_lab`` or the workload process
fails, without printing a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7         # fresh-process imports per run; the median is reported
SETUP_SPEED_S = 0.25     # Python reference-loop time after each import, for its scale
TIME_LIMIT_S = 170       # the whole call must end within 180 s
SETUP_CODE = ("import sys, time; t0 = time.perf_counter(); import berezin_lab, "
              "berezin_lab.labcli; t = time.perf_counter() - t0; "
              "sys.path.insert(0, sys.argv[1]); import hostspeed; "
              "print(t, hostspeed.scale(hostspeed.loop_times('python', float(sys.argv[2]))))")
# numpy path, BLAS threads pinned (at most the two cores the numbers were
# taken on), fixed hash seed so set iteration order cannot vary run to run,
# bytecode cached inside the checkout so imports are timed as installed
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
CHILD_ENV = {"BEREZIN_LAB_BACKEND": "numpy", "OPENBLAS_NUM_THREADS": BLAS_THREADS,
             "OMP_NUM_THREADS": BLAS_THREADS, "MKL_NUM_THREADS": BLAS_THREADS,
             "PYTHONHASHSEED": "0", "PYTHONPATH": SRC, "TMPDIR": OUT,
             "PYTHONPYCACHEPREFIX": os.path.join(OUT, "pycache")}


def _env():
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(CHILD_ENV)
    return env


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def _child(cmd, deadline):
    """Run a child process to completion; its last stdout line is returned."""
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        _fail(f"{cmd[1]} did not finish within the run's time limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        _fail(f"{cmd[1]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout.strip().splitlines()[-1]


def _setup_times(deadline):
    """Import time of berezin_lab + labcli in fresh processes (the first one
    warms the bytecode and file caches and is not counted), as measured and
    at the reference host speed."""
    cmd = [sys.executable, "-c", SETUP_CODE, HERE, str(SETUP_SPEED_S)]
    _child(cmd, deadline)
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t, scale = map(float, _child(cmd, deadline).split())
        raw.append(t)
        scaled.append(t * scale)
    return raw, scaled


def _declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _line(name, value, unit, note):
    print(f"  {name:<16} {value:>12.6g} {unit:<6} {note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be in [1, 60]")
    if not os.path.isfile(os.path.join(SRC, "berezin_lab", "labcli.py")):
        _fail(f"no berezin_lab sources under {SRC}")
    os.makedirs(OUT, exist_ok=True)

    t0 = perf_counter()
    deadline = t0 + TIME_LIMIT_S
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", SRC, "--scratch", OUT]
    if args.trace:
        cmd += ["--spans-out", os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")]
    res = json.loads(_child(cmd, deadline))
    env = res["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {res['runs_per_pass']} runs per pass")
    print(f"  env: python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"openblas {env['openblas']}  blas_threads {env['blas_threads']}  "
          f"backend {env['backend']}")
    correct = res["failed"] == 0
    for msg in res["problems"]:
        print(f"  FAILED {msg}")
    print(f"  fail_rate {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} runs)")
    print(f"  CSVs matching digests.json: {res['digest_matches']} of {res['csv_files']} "
          "(informational)")
    if res["mc_sigma_margin"] is not None:
        print(f"  MC sigma margin: {res['mc_sigma_margin']:.4f} decades below 3 sigma")

    if args.trace == 0:
        values = {}
        setup_raw, setup = _setup_times(deadline)
        n = res["passes"]
        scale = res["scale"]
        lo, hi = min(scale), max(scale)
        print(f"  host speed: {res['probe_samples']} probes, pass times scaled by "
              f"{lo:.4g}-{hi:.4g} (reference loop {1e3 * hostspeed.REFERENCE_S / hi:.4g}-"
              f"{1e3 * hostspeed.REFERENCE_S / lo:.4g} ms)")
        for name, samples, raw, what in (
                ("wall_s", [w * k for w, k in zip(res["wall_s"], scale)], res["wall_s"],
                 "passes"),
                ("cpu_s", [c * k for c, k in zip(res["cpu_s"], scale)], res["cpu_s"],
                 "passes"),
                ("setup_s", setup, setup_raw, "imports")):
            med = values[name] = statistics.median(samples)
            lo, hi = _spread(samples)
            _line(name, med, "s", f"median of {len(samples)} {what}, "
                  f"quartiles {lo:.4g}-{hi:.4g}, max {max(samples):.4g}; "
                  f"as measured {statistics.median(raw):.4g}")
        values["peak_rss_mb"] = res["peak_rss_mb"]
        _line("peak_rss_mb", res["peak_rss_mb"], "MB", f"ru_maxrss over {n} passes")
        values["accuracy_margin"] = res["accuracy_margin"]
        _line("accuracy_margin", res["accuracy_margin"], "dec",
              f"smallest log10(tol/err), at {res['accuracy_argmin']}")
    else:
        layers = res["layers"]
        missing = res["missing_spans"]
        if missing:
            correct = False
            print(f"  MISSING spans (declared for this workload, never fired): {missing}")
        layers["labcli.csv_digest_matches"] = res["digest_matches"]
        layers["quadrature.mc.sigma_margin"] = res["mc_sigma_margin"] or 0.0
        total = layers["trace.total_s"]
        layers["operators.identities_per_s"] = (
            layers["operators.semi_commutator_residual.calls"]
            + layers["operators.product_decomposition_residual.calls"]) / total
        print(f"  traced passes {res['traced_passes']}, untraced {res['passes']}, "
              f"traced total {total:.3f} s, overhead {layers['trace.overhead_s']:+.3f} s")
        print("  self time by layer:")
        for key in sorted((k for k in layers
                           if k.endswith(".self_share") and k.count(".") == 1),
                          key=lambda k: -layers[k]):
            layer = key[:-len(".self_share")]
            print(f"    {layer:<12} {layers[layer + '.self_s']:9.4f} s  "
                  f"{100 * layers[key]:5.1f}%")
        print("  top spans by self time:")
        spans = sorted((k for k in layers if k.endswith(".self_s") and k.count(".") >= 2),
                       key=lambda k: -layers[k])
        for key in spans[:8]:
            base = key[:-len(".self_s")]
            print(f"    {base:<44} {layers[key]:9.4f} s self  "
                  f"{layers[base + '.incl_s']:9.4f} s incl  "
                  f"{int(layers[base + '.calls']):>8} calls")
        values = layers

    if args.record_digests:
        path = os.path.join(HERE, "digests.json")
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
        table.update(res["digests"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    # names and units come from BENCHMARK.json, so the two cannot drift apart
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    unknown = [name for name in declared if name not in values]
    if unknown:
        _fail(f"metrics declared in BENCHMARK.json but not measured: {unknown}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items()}
    print(f"  run took {perf_counter() - t0:.1f} s")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
