"""Fuzzed configs through the CLI for all eight experiments.

Every config, valid or not, ends in exit code 0, 1 or 2; an exit 1 says why
on an ``error:`` or ``config error:`` line, and nothing ever prints a
traceback.  Sizes (N, samples, counts, quadrature order) are capped so the
whole module runs in a few seconds; the examples are derandomized, so a run
is repeatable.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin_lab import labcli

COORD = st.floats(-1.5, 1.5, allow_nan=False)
PAIR = st.tuples(COORD, COORD).map(list)
POINT = st.one_of(COORD, PAIR, st.lists(PAIR, min_size=1, max_size=3))
R = st.sampled_from([0.0, 0.5, 1.0, 2.5])
TOL = st.sampled_from([1e-8, 1e-3, 0.5])
# catalog domains, each with boundary points of its own
DOMAINS = [
    ({"name": "disk"}, [1.0, [0.6, 0.8]]),
    ({"name": "ball", "n": 2}, [[[0.6, 0.0], [0.0, 0.8]], [[1.0, 0.0], [0.0, 0.0]]]),
    ({"name": "egg", "m": 3}, [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]),
    ({"name": "smoothed_polydisk"}, [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
    ({"name": "ellipsoid", "exponents": [2.0, 6.0]}, [[[1.0, 0.0], [0.0, 0.0]]]),
    ({"name": "ball", "n": 3}, [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]),
    ({"name": "disk", "inflate": {"p": 1, "r": 1.0}}, [[[1.0, 0.0], [0.0, 0.0]]]),
]
SYMBOL = st.sampled_from([
    "1", "z", "re(z)", "abs2(z)", "conj(z1)*z2", "abs(z)", "max(re(z), 0)",
    "dist(1, 0)", "1/im(z)", "z +", "sqrt(", "w", "2e", "",
])
T_GRID = st.one_of(
    st.lists(st.floats(-0.5, 1.5, allow_nan=False), min_size=1, max_size=3),
    st.fixed_dictionaries({"start": st.floats(0.0, 1.0), "stop": st.floats(0.0, 1.0),
                           "count": st.integers(1, 3)}))
FACTOR = st.one_of(
    st.fixed_dictionaries({"toeplitz": st.fixed_dictionaries({"symbol": SYMBOL})}),
    st.fixed_dictionaries({"hankelpair": st.fixed_dictionaries(
        {"psi": SYMBOL, "phi": SYMBOL})}),
    st.just({"identity": {}}),
    st.fixed_dictionaries({"scalar": st.one_of(COORD, PAIR)}))
OPERATOR = st.fixed_dictionaries({"sum": st.lists(
    st.fixed_dictionaries({"prod": st.lists(FACTOR, min_size=1, max_size=2)}),
    min_size=1, max_size=2)})
# one field set to a value that the schema, the domain catalog or the runner
# rejects, or a key the experiment does not take
BAD_FIELD = st.sampled_from([
    ("N", 0), ("r", -1.0), ("tolerance", 0.0), ("grid_points", 1), ("samples", 999),
    ("count", 0), ("degree", -1), ("tail_k", -1), ("p", 0), ("radius", -0.1),
    ("pairs", [[1, 2.0]]), ("strong_points", []), ("t_grid", []), ("bogus", 1),
    ("experiment", "moments"), ("domain", {"name": "teapot"}),
    ("domain", {"name": "egg", "q": 1}), ("domain", {"name": "ball", "n": 5}),
])


def _fields(domain, point):
    """Per experiment: (fields always present, which cap the run's size;
    fields that may be left out)."""
    return {
        "constants": (
            {"samples": st.sampled_from([1_000, 20_000])},
            {"pairs": st.lists(st.tuples(st.sampled_from([1, 2, 3]),
                                         st.sampled_from([0.5, 1.0, 1.5])).map(list),
                               min_size=1, max_size=3),
             "p": st.sampled_from([1, 2]), "r": st.sampled_from([0.5, 1.0])}),
        "kernel-check": (
            {"domain": domain, "N": st.sampled_from([8, 3]),
             "grid_points": st.sampled_from([2, 3])},
            {"r": R, "radius": st.sampled_from([0.3, 0.9, 1.2]), "phase": COORD,
             "tolerance": TOL}),
        "inflation-check": (
            {"domain": domain, "r": st.sampled_from([0.5, 1.0, 2.5]),
             "p": st.sampled_from([1, 2]), "N": st.sampled_from([6, 2]),
             "grid_points": st.sampled_from([2, 3])},
            {"radius": st.sampled_from([0.3, 0.9, 1.2]), "phase": COORD,
             "tolerance": TOL}),
        "moments": (
            {"domain": domain, "N": st.sampled_from([3, 0]),
             "samples": st.sampled_from([1_000, 2_000])},
            {"r": R, "alphas": st.lists(st.lists(st.integers(0, 3), min_size=1,
                                                 max_size=3), max_size=3),
             "mc": st.booleans()}),
        "berezin-profile": (
            {"domain": domain, "symbol": SYMBOL, "point": point,
             "N": st.sampled_from([6, 2])},
            {"r": R, "t_grid": T_GRID, "expect_limit": COORD, "tolerance": TOL,
             "snap_points": st.booleans(),
             "mass_outside": st.fixed_dictionaries(
                 {"center": point, "radius": st.sampled_from([0.2, 0.5]),
                  "quad_order": st.integers(8, 12)}, optional={"tolerance": TOL})}),
        "semi-commutator": (
            {"domain": domain, "N": st.sampled_from([5, 2]), "degree": st.sampled_from([1, 0])},
            {"r": R, "margin_pairs": st.integers(0, 3), "margin_triples": st.integers(0, 3),
             "include_triples": st.booleans(), "tolerance": TOL}),
        "axler-zheng": (
            {"domain": domain, "N": st.sampled_from([5, 2]), "symbol": SYMBOL,
             "strong_points": st.lists(point, min_size=1, max_size=2)},
            {"r": R, "operator": OPERATOR,     # the operator wins over the symbol
             "weak_points": st.lists(point, max_size=2), "t_grid": T_GRID,
             "thresholds": st.fixed_dictionaries({}, optional={
                 "berezin": COORD, "tail": COORD, "window": st.integers(2, 3)}),
             "tail_k": st.integers(0, 8), "validate_points": st.booleans(),
             "snap_points": st.booleans()}),
        "classify": (
            {"domain": domain, "count": st.sampled_from([4, 1])},
            {"tolerance": st.sampled_from([1e-8, 0.0, -1.0])}),
    }


def _configs(experiment):
    """Configs whose fields are each of the right type and range, and about
    half of them with one field made bad."""
    def build(case):
        domain, boundary = case
        point = st.one_of(st.sampled_from(boundary), POINT)
        always, optional = _fields(st.just(domain), point)[experiment]
        good = st.fixed_dictionaries(always, optional={**optional,
                                                       "seed": st.integers(0, 3)})
        return st.tuples(good, st.one_of(st.none(), BAD_FIELD))

    def spoil(pair):
        config, bad = pair
        return config if bad is None else {**config, bad[0]: bad[1]}

    return st.sampled_from(DOMAINS).flatmap(build).map(spoil)


@pytest.mark.parametrize("experiment", labcli.EXPERIMENTS)
def test_cli_exit_codes_on_fuzzed_configs(experiment):
    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(_configs(experiment))
    def run(config):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = labcli.main([experiment, "--config", path,
                                    "--out", os.path.join(tmp, "out")])
        text = err.getvalue()
        assert code in (0, 1, 2), text
        assert "Traceback" not in text
        if code == 1:
            assert any(line.startswith(("error:", "config error:"))
                       for line in text.splitlines()), text

    run()
