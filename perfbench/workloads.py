"""Workload definitions: experiment lists, seed mapping, expected verdicts,
output checks and accuracy margins.

The configs are the benchmark's own copy of the acceptance-criterion configs
(plus the scaled N=40 localization run), so an edit under ``tests/`` cannot
silently change what a workload measures.  ``--seed`` feeds only the config
seeds: the Monte Carlo ``seed`` of ``constants`` and the ray ``phase`` of
``kernel-check``/``inflation-check``.  ``DEFAULT_SEED`` reproduces the
acceptance configs exactly.
"""

import copy
import math

DEFAULT_SEED = 42
_PHASE_STEP = 0.6180339887498949     # golden-ratio step keeps seeds' phases apart


def _strong_polydisk_points():
    pts = []
    for y2 in (0.05, 0.1):
        b = (1 - y2 ** 8) ** (1 / 8)
        for th1, th2 in ((0.0, 0.0), (math.pi / 2, 0.0), (0.0, math.pi / 2),
                         (math.pi / 4, 3 * math.pi / 4)):
            z1 = b * complex(math.cos(th1), math.sin(th1))
            z2 = y2 * complex(math.cos(th2), math.sin(th2))
            pts.append([[z1.real, z1.imag], [z2.real, z2.imag]])
    return pts


def _localization(n):
    return {"domain": {"name": "smoothed_polydisk"}, "r": 0.0, "N": n,
            "symbol": "max(0, 1-(1-abs(z2))/0.3)",
            "strong_points": _strong_polydisk_points(),
            "weak_points": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            "t_grid": {"start": 0.5, "stop": 0.995, "count": 16},
            "tail_k": 8,
            "thresholds": {"berezin": 0.1, "tail": 0.5}}


def _sweep(domain, r, n):
    return {"domain": domain, "r": r, "N": n, "degree": 2, "tolerance": 1e-9}


def _limit(r, symbol, limit):
    return {"domain": {"name": "disk"}, "r": float(r), "N": 96,
            "symbol": symbol, "point": [1.0, 0.0],
            "t_grid": {"start": 0.5, "stop": 0.98, "count": 25},
            "expect_limit": limit, "tolerance": 0.05}


_PASS = {"pass": True}


def _az(classification):
    return {"verdict": "consistent", "classification": classification}


# Each entry: (label, experiment, config, expected verdicts).  Expected
# verdicts are the ones the seed commit produces; every listed key must match.
WORKLOADS = {
    # criterion 4: semi-commutator and product-decomposition sweeps, 4104
    # identities; stresses operators' sparse algebra
    "identity-sweep": [
        ("c4-disk-r0", "semi-commutator", _sweep({"name": "disk"}, 0.0, 48), _PASS),
        ("c4-disk-r1", "semi-commutator", _sweep({"name": "disk"}, 1.0, 48), _PASS),
        ("c4-ball2", "semi-commutator", _sweep({"name": "ball", "n": 2}, 0.0, 32), _PASS),
    ],
    # criterion 8 at N=40 and N=16, criterion 7, criterion 5, plus one dense
    # Hankel-pair operator; stresses tail_norm SVDs and radial assembly
    "localization": [
        ("c8-n40", "axler-zheng", _localization(40), _az("localized")),
        ("c8", "axler-zheng", _localization(16), _az("localized")),
        ("c7-compact", "axler-zheng",
         {"domain": {"name": "disk"}, "r": 0.0, "N": 48, "symbol": "1-abs2(z)",
          "strong_points": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
          "weak_points": []}, _az("compact")),
        ("c7-identity", "axler-zheng",
         {"domain": {"name": "disk"}, "r": 0.0, "N": 48,
          "operator": {"sum": [{"prod": [{"identity": {}}]}]},
          "strong_points": [[1.0, 0.0], [0.0, 1.0]], "weak_points": []},
         _az("noncompact")),
        ("hankel-radial", "axler-zheng",
         {"domain": {"name": "disk"}, "r": 0.0, "N": 48,
          "operator": {"sum": [{"prod": [
              {"hankelpair": {"psi": "abs(z)", "phi": "abs(z)"}}]}]},
          "strong_points": [[1.0, 0.0], [0.0, 1.0]], "weak_points": []},
         _az("compact")),
    ] + [(f"c5-r{r}-{i}", "berezin-profile", _limit(r, s, lim), _PASS)
         for r in (0, 1)
         for i, (s, lim) in enumerate((("re(z)", 1.0), ("abs2(z)", 1.0),
                                       ("1-abs2(z)", 0.0)))],
    # criteria 1, 2, 3 and 6: closed-form kernels, inflation identity (B=6545),
    # MC fiber constants, kernel mass concentration; stresses bergman and
    # quadrature
    "oracles": [
        (f"c1-r{r}", "kernel-check",
         {"domain": {"name": "disk"}, "r": float(r), "N": 64, "grid_points": 10,
          "radius": 0.8, "phase": 0.3, "tolerance": 1e-8}, _PASS)
        for r in (0, 1, 2)
    ] + [
        ("c2-p1", "inflation-check",
         {"domain": {"name": "disk"}, "r": 1.0, "p": 1, "N": 48, "grid_points": 8,
          "radius": 0.6, "phase": 0.2, "tolerance": 1e-8}, _PASS),
        ("c2-p2", "inflation-check",
         {"domain": {"name": "disk"}, "r": 2.0, "p": 2, "N": 32, "grid_points": 8,
          "radius": 0.6, "phase": 0.2, "tolerance": 1e-6}, _PASS),
        ("c3", "constants",
         {"pairs": [[1, 1.0], [2, 1.0], [2, 2.0], [3, 2.0], [2, 0.5]],
          "samples": 10_000_000, "seed": DEFAULT_SEED}, {"exact_p_eq_r": True}),
        ("c6", "berezin-profile",
         {"domain": {"name": "disk"}, "r": 0.0, "N": 192, "symbol": "1",
          "point": [1.0, 0.0], "t_grid": [0.95, 0.99],
          "mass_outside": {"center": [1.0, 0.0], "radius": 0.3,
                           "quad_order": 256, "tolerance": 0.1}}, _PASS),
    ],
}


# Reference loop of the host speed probe (hostspeed.py) for each workload:
# the kind of work that dominates it
REFERENCE = {"identity-sweep": "python", "localization": "blas", "oracles": "python"}


def configs(workload, seed):
    """The workload's runs with ``seed`` applied to the config seeds."""
    out = []
    for label, experiment, config, expected in WORKLOADS[workload]:
        cfg = copy.deepcopy(config)
        if "seed" in cfg:
            cfg["seed"] = int(seed)
        if "phase" in cfg:
            cfg["phase"] = (cfg["phase"] + _PHASE_STEP * (seed - DEFAULT_SEED)) \
                % (2.0 * math.pi)
        out.append((label, experiment, cfg, expected))
    return out


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

MC_SIGMA_GATE = 3.0      # constants' own within-3-sigma gate
MC_SIGMA_LIMIT = 5.0     # beyond this the estimate is wrong, not unlucky


def _decades(tol, err):
    """log10(tol/err): how many decades an error sits below its tolerance."""
    return math.log10(tol / max(abs(err), 1e-300))


def check(label, experiment, config, report, expected):
    """Check one run's emitted JSON report.

    Returns ``(problems, margins, mc_margins)``: a list of failure messages
    (empty when the run is correct), ``{quantity: decades}`` for the
    deterministic gated quantities, and the same for Monte Carlo sigma gates,
    which move with the seed and are kept apart.
    """
    v = report["verdicts"]
    tables = {name: t["rows"] for name, t in report["tables"].items()}
    problems = []
    margins = {}
    mc_margins = {}

    def expect(cond, msg):
        if not cond:
            problems.append(f"{label}: {msg}")

    for key, want in expected.items():
        expect(v.get(key) == want, f"verdict {key}={v.get(key)!r}, expected {want!r}")

    if experiment == "kernel-check":
        margins["max_rel_err"] = _decades(v["tolerance"], v["max_rel_err"])
    elif experiment == "inflation-check":
        margins["identity_residual"] = _decades(v["tolerance"], v["max_identity_residual"])
        margins["closed_form_residual"] = _decades(v["tolerance"],
                                                   v["max_closed_form_residual"])
    elif experiment == "constants":
        # At an arbitrary seed the 3-sigma gate misses ~1.3% of the time over
        # five pairs by design; the run is correct when its verdict agrees
        # with its own table and no estimate is implausibly far off.
        rows = tables["constants"]
        worst = 0.0
        for p, r, cf, mc, se, _, sig, within, exact in rows:
            worst = max(worst, abs(cf - mc) / se)
            expect(bool(within) == (abs(cf - mc) / se <= MC_SIGMA_GATE),
                   f"p={p} r={r}: within_3_sigma disagrees with its sigmas")
            mc_margins[f"p{p}_r{r}"] = _decades(MC_SIGMA_GATE, sig)
            if p == r:
                margins[f"exact_p{p}"] = _decades(1e-12 * cf, exact)
        expect(worst <= MC_SIGMA_LIMIT, f"MC estimate {worst:.2f} sigma off")
        expect(v["pass"] == (v["within_3_sigma"] and v["exact_p_eq_r"]),
               "pass disagrees with its parts")
    elif experiment == "berezin-profile":
        if "limit_error" in v:
            margins["limit_error"] = _decades(v["tolerance"], v["limit_error"])
        if "mass_terminal" in v:
            margins["off_mass"] = _decades(config["mass_outside"]["tolerance"],
                                           v["mass_terminal"])
        if label == "c5-r0-0":
            # harmonic reproduction: re(z) profile equals t where the
            # truncation has converged (t <= 0.92 at N=96)
            herr = max(abs(row[1] - row[0]) + abs(row[2])
                       for row in tables["profile"] if row[0] <= 0.92)
            expect(herr < 1e-6, f"harmonic reproduction error {herr:.2e}")
            margins["harmonic"] = _decades(1e-6, herr)
    elif experiment == "semi-commutator":
        margins["residual"] = _decades(v["tolerance"], v["max_residual"])
        dim, degree = config["domain"].get("n", 1), config["degree"]
        nsym = math.comb(2 * dim + degree, degree)
        expect(len(tables["pairs"]) == nsym ** 2 and len(tables["triples"]) == nsym ** 3,
               "identity table sizes changed")
    elif experiment == "axler-zheng":
        sup, tail = v["strong_terminal_sup"], v["tail_value"]
        margins["berezin"] = (_decades(0.1, sup) if v["berezin_vanishing"]
                              else _decades(sup, 0.1))
        margins["tail"] = (_decades(0.5, tail) if v["tail_vanishing"]
                           else _decades(tail, 0.5))
        if label == "c7-compact":
            # tail norms of T_{1-|z|^2} on the disk are exactly 1/(k+2)
            terr = max(abs(val - 1.0 / (k + 2)) for k, val in tables["tails"])
            expect(terr < 1e-9, f"tail norms off 1/(k+2) by {terr:.2e}")
            margins["tail_closed_form"] = _decades(1e-9, terr)
        elif label == "c7-identity":
            terr = max(abs(val - 1.0) for _, val in tables["tails"])
            expect(terr < 1e-12, f"identity tail norms off 1 by {terr:.2e}")
            margins["identity_tail"] = _decades(1e-12, terr)
    return problems, margins, mc_margins
