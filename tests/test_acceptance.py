"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line per criterion (run with -s to stream them).

Criterion configs are module-level constants so the determinism criterion can
replay them byte-for-byte.
"""

import itertools
import os
import time

import numpy as np
import pytest

from berezin_lab import (
    KernelEvaluator,
    WeightedMeasure,
    build_space,
    diagonal_comparability_check,
    make_domain,
)
from berezin_lab import labcli

RESULTS = []


def record(criterion, passed, detail=""):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'}  {detail}"
    RESULTS.append(line)
    print(line)
    assert passed, line


@pytest.fixture(scope="session", autouse=True)
def print_results():
    yield
    print()
    for line in RESULTS:
        print(line)


def _strong_polydisk_points():
    pts = []
    for y2 in (0.05, 0.1):
        b = (1 - y2 ** 8) ** (1 / 8)
        for th1, th2 in ((0.0, 0.0), (np.pi / 2, 0.0), (0.0, np.pi / 2),
                         (np.pi / 4, 3 * np.pi / 4)):
            z1 = b * np.exp(1j * th1)
            z2 = y2 * np.exp(1j * th2)
            pts.append([[z1.real, z1.imag], [z2.real, z2.imag]])
    return pts


CRITERION_CONFIGS = {
    1: [("kernel-check", {"domain": {"name": "disk"}, "r": float(r), "N": 64,
                          "grid_points": 10, "radius": 0.8, "phase": 0.3,
                          "tolerance": 1e-8})
        for r in (0, 1, 2)],
    2: [("inflation-check", {"domain": {"name": "disk"}, "r": 1.0, "p": 1,
                             "N": 48, "grid_points": 8, "radius": 0.6,
                             "tolerance": 1e-8}),
        ("inflation-check", {"domain": {"name": "disk"}, "r": 2.0, "p": 2,
                             "N": 32, "grid_points": 8, "radius": 0.6,
                             "tolerance": 1e-6})],
    3: [("constants", {"pairs": [[1, 1.0], [2, 1.0], [2, 2.0], [3, 2.0],
                                 [2, 0.5]],
                       "samples": 10_000_000, "seed": 42})],
    4: [("semi-commutator", {"domain": {"name": "disk"}, "r": 0.0, "N": 48,
                             "degree": 2, "tolerance": 1e-9}),
        ("semi-commutator", {"domain": {"name": "disk"}, "r": 1.0, "N": 48,
                             "degree": 2, "tolerance": 1e-9}),
        ("semi-commutator", {"domain": {"name": "ball", "n": 2}, "r": 0.0,
                             "N": 32, "degree": 2, "tolerance": 1e-9})],
    5: [("berezin-profile", {"domain": {"name": "disk"}, "r": float(r), "N": 96,
                             "symbol": symbol, "point": [1.0, 0.0],
                             "t_grid": {"start": 0.5, "stop": 0.98, "count": 25},
                             "expect_limit": limit, "tolerance": 0.05})
        for r in (0, 1)
        for symbol, limit in (("re(z)", 1.0), ("abs2(z)", 1.0),
                              ("1-abs2(z)", 0.0))],
    6: [("berezin-profile", {"domain": {"name": "disk"}, "r": 0.0, "N": 192,
                             "symbol": "1", "point": [1.0, 0.0],
                             "t_grid": [0.95, 0.99],
                             "mass_outside": {"center": [1.0, 0.0],
                                              "radius": 0.3,
                                              "quad_order": 256,
                                              "tolerance": 0.1}})],
    7: [("axler-zheng", {"domain": {"name": "disk"}, "r": 0.0, "N": 48,
                         "symbol": "1-abs2(z)",
                         "strong_points": [[1.0, 0.0], [0.0, 1.0],
                                           [-1.0, 0.0], [0.0, -1.0]],
                         "weak_points": []}),
        ("axler-zheng", {"domain": {"name": "disk"}, "r": 0.0, "N": 48,
                         "operator": {"sum": [{"prod": [{"identity": {}}]}]},
                         "strong_points": [[1.0, 0.0], [0.0, 1.0]],
                         "weak_points": []})],
    8: [("axler-zheng", {"domain": {"name": "smoothed_polydisk"}, "r": 0.0,
                         "N": 16, "symbol": "max(0, 1-(1-abs(z2))/0.3)",
                         "strong_points": _strong_polydisk_points(),
                         "weak_points": [[[0.0, 0.0], [1.0, 0.0]],
                                         [[1.0, 0.0], [0.0, 0.0]]],
                         "t_grid": {"start": 0.5, "stop": 0.995, "count": 16},
                         "tail_k": 8,
                         "thresholds": {"berezin": 0.1, "tail": 0.5}})],
}


def run_criterion(crit, out_dir=None):
    reports = []
    for i, (experiment, config) in enumerate(CRITERION_CONFIGS[crit]):
        cfg = dict(config)
        if out_dir is not None:
            cfg["out"] = os.path.join(out_dir, f"c{crit}_{i}")
            reports.append(labcli.run(experiment, cfg))
        else:
            reports.append(labcli.run(experiment, cfg, write=False))
    return reports


def test_criterion_1_disk_kernel_closed_form():
    t0 = time.perf_counter()
    reports = run_criterion(1)
    elapsed = time.perf_counter() - t0
    worst = max(rep.verdicts["max_rel_err"] for rep in reports)
    ok = all(rep.verdicts["pass"] for rep in reports) and elapsed < 5.0
    record(1, ok, f"max rel err {worst:.2e} (tol 1e-8), runtime {elapsed:.1f}s < 5s")


def test_criterion_2_inflation_identity():
    t0 = time.perf_counter()
    reports = run_criterion(2)
    elapsed = time.perf_counter() - t0
    ids = [rep.verdicts["max_identity_residual"] for rep in reports]
    closed = [rep.verdicts["max_closed_form_residual"] for rep in reports]
    ok = (all(rep.verdicts["pass"] for rep in reports) and elapsed < 60.0)
    record(2, ok, f"identity residuals {ids[0]:.1e}/{ids[1]:.1e}, "
                  f"closed-form {closed[0]:.1e}/{closed[1]:.1e}, "
                  f"runtime {elapsed:.1f}s < 60s")


def test_criterion_3_inflation_constant_mc():
    t0 = time.perf_counter()
    (rep,) = run_criterion(3)
    elapsed = time.perf_counter() - t0
    sig = max(row[6] for row in rep.tables["constants"].rows)
    ok = (rep.verdicts["within_3_sigma"] and rep.verdicts["exact_p_eq_r"]
          and elapsed < 60.0)
    record(3, ok, f"worst deviation {sig:.2f} sigma <= 3, c_pp exact to 1e-12, "
                  f"runtime {elapsed:.1f}s < 60s")


def test_criterion_4_semi_commutator_and_decomposition():
    t0 = time.perf_counter()
    reports = run_criterion(4)
    elapsed = time.perf_counter() - t0
    worst = max(rep.verdicts["max_residual"] for rep in reports)
    counts = [len(rep.tables["pairs"].rows) + len(rep.tables["triples"].rows)
              for rep in reports]
    ok = all(rep.verdicts["pass"] for rep in reports) and elapsed < 30.0
    record(4, ok, f"{sum(counts)} identities, max residual {worst:.1e} "
                  f"(tol 1e-9), runtime {elapsed:.1f}s < 30s")


def test_criterion_5_berezin_boundary_limits():
    t0 = time.perf_counter()
    reports = run_criterion(5)
    elapsed = time.perf_counter() - t0
    worst_limit = max(rep.verdicts["limit_error"] for rep in reports)
    ok = all(rep.verdicts["pass"] for rep in reports)
    # harmonic reproduction: r=0, re(z) profile equals t to 1e-6 on the
    # truncation-converged part of the grid (t <= 0.92 at N=96; nearer the
    # boundary the deviation t (N+1) t^{2N} / sum (k+1) t^{2k} ~ 3e-3 is
    # forced by the truncation itself)
    harmonic = reports[0].tables["profile"].rows
    herr = max(abs(row[1] - row[0]) + abs(row[2])
               for row in harmonic if row[0] <= 0.92)
    ok = ok and herr < 1e-6 and elapsed < 30.0
    record(5, ok, f"terminal errors <= {worst_limit:.3f} (tol 0.05), harmonic "
                  f"reproduction {herr:.1e} < 1e-6 for t <= 0.92, "
                  f"runtime {elapsed:.1f}s < 30s")


def test_criterion_6_mass_concentration():
    t0 = time.perf_counter()
    (rep,) = run_criterion(6)
    elapsed = time.perf_counter() - t0
    rows = dict((row[0], row[1]) for row in rep.tables["mass_outside"].rows)
    mass = rows[0.99]
    ok = mass < 0.1 and elapsed < 5.0
    record(6, ok, f"off-neighborhood mass {mass:.4f} < 0.1 at z=0.99, "
                  f"runtime {elapsed:.1f}s < 5s")


def test_criterion_7_compactness_proxy_coherence():
    t0 = time.perf_counter()
    compact_rep, ident_rep = run_criterion(7)
    elapsed = time.perf_counter() - t0
    tails = {k: v for k, v in compact_rep.tables["tails"].rows}
    tail_err = max(abs(tails[k] - 1.0 / (k + 2)) for k in range(49))
    ident_tails = {k: v for k, v in ident_rep.tables["tails"].rows}
    ident_tail_ok = all(abs(v - 1.0) < 1e-12 for v in ident_tails.values())
    ident_berezin_ok = all(abs(complex(row[2], row[3])) < 1e-12 or
                           abs(complex(row[2], row[3]) - 1) < 1e-9
                           for row in ident_rep.tables["strong_profiles"].rows)
    ok = (tail_err < 1e-9
          and compact_rep.verdicts["verdict"] == "consistent"
          and compact_rep.verdicts["classification"] == "compact"
          and ident_rep.verdicts["verdict"] == "consistent"
          and ident_rep.verdicts["classification"] == "noncompact"
          and ident_tail_ok and ident_berezin_ok
          and elapsed < 10.0)
    record(7, ok, f"tail norms match 1/(k+2) to {tail_err:.1e} (tol 1e-9), "
                  f"verdicts consistent, runtime {elapsed:.1f}s < 10s")


def test_criterion_8_localization_experiment():
    t0 = time.perf_counter()
    (rep,) = run_criterion(8)
    elapsed = time.perf_counter() - t0
    v = rep.verdicts
    ok = (v["strong_terminal_sup"] < 0.1 and v["tail_value"] > 0.5
          and v["verdict"] == "consistent" and elapsed < 120.0)
    record(8, ok, f"strong-point Berezin sup {v['strong_terminal_sup']:.4f} < 0.1, "
                  f"tail_norm(8) = {v['tail_value']:.3f} > 0.5, "
                  f"classification {v['classification']}, "
                  f"runtime {elapsed:.1f}s < 120s")


def test_criterion_9_comparable_weights():
    t0 = time.perf_counter()
    sp1 = build_space(WeightedMeasure(make_domain("ellipsoid", exponents=[2.0]), 1.0), 128)
    sp2 = build_space(WeightedMeasure(make_domain("ellipsoid", exponents=[1.0]), 1.0), 128)
    phases = np.exp(2j * np.pi * np.arange(50) / 50)
    samples = [[0.95 * (k / 49) * phases[k]] for k in range(50)]
    chk = diagonal_comparability_check(sp1, sp2, samples, c=2.0)
    elapsed = time.perf_counter() - t0
    ok = (0.5 <= chk.ratio_min and chk.ratio_max <= 2.0
          and chk.within_weight_bounds and elapsed < 10.0)
    record(9, ok, f"kernel ratios in [{chk.ratio_min:.3f}, {chk.ratio_max:.3f}] "
                  f"within [0.5, 2.0], runtime {elapsed:.1f}s < 10s")


def test_criterion_10_determinism(tmp_path):
    mismatches = []
    for crit in sorted(CRITERION_CONFIGS):
        run_criterion(crit, out_dir=str(tmp_path / "a"))
        run_criterion(crit, out_dir=str(tmp_path / "b"))
    for root, _, files in os.walk(tmp_path / "a"):
        for name in sorted(files):
            if not name.endswith(".csv"):
                continue
            a_path = os.path.join(root, name)
            b_path = a_path.replace(str(tmp_path / "a"), str(tmp_path / "b"), 1)
            with open(a_path, "rb") as fa, open(b_path, "rb") as fb:
                if fa.read() != fb.read():
                    mismatches.append(a_path)
    ok = not mismatches
    record(10, ok, "criteria 1-8 configs replayed byte-identically"
           if ok else f"mismatches: {mismatches}")
