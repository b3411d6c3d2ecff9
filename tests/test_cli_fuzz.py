"""Fuzzed configs through the CLI for all eight experiments.

Every config, valid or not, ends in exit code 0, 1 or 2; an exit 1 says why
on an ``error:`` or ``config error:`` line, and nothing ever prints a
traceback.  Sizes (N, samples, counts, quadrature order) are capped so the
whole module runs in a few seconds; the examples are derandomized, so a run
is repeatable.  A table of extreme numbers (overflowing products, points and
orders near the largest float, 400-digit literals) goes through the CLI one
config at a time, each with its exit code and at most one line of output.

The same configs, and a list of edge cases, also check the lab's config
schema checker against jsonschema's Draft 2020-12 validator.
"""

import contextlib
import ctypes
import io
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from berezin_lab import labcli



def _ints(ints):
    """The integers of ``ints``, about half of them as whole floats, which
    the schema takes as integers (8.0 is an integer)."""
    return st.one_of(ints, ints.map(float))


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
                           "count": _ints(st.integers(1, 3))}))
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


SEED = _ints(st.integers(0, 3))
NOTHING = st.just({})


def _fields(domain, point):
    """Per experiment: (fields always present, which cap the run's size;
    fields that may be left out; a strategy for a dict of fields that only
    come together, such as moments' samples with "mc": true)."""
    return {
        "constants": (
            {"samples": _ints(st.sampled_from([1_000, 20_000]))},
            {"pairs": st.lists(st.tuples(_ints(st.sampled_from([1, 2, 3])),
                                         st.sampled_from([0.5, 1.0, 1.5])).map(list),
                               min_size=1, max_size=3),
             "p": _ints(st.sampled_from([1, 2])), "r": st.sampled_from([0.5, 1.0]),
             "seed": SEED},
            NOTHING),
        "kernel-check": (
            {"domain": domain, "N": _ints(st.sampled_from([8, 3])),
             "grid_points": _ints(st.sampled_from([2, 3]))},
            {"r": R, "radius": st.sampled_from([0.3, 0.9, 1.2]), "phase": COORD,
             "tolerance": TOL},
            NOTHING),
        "inflation-check": (
            {"domain": domain, "r": st.sampled_from([0.5, 1.0, 2.5]),
             "p": _ints(st.sampled_from([1, 2])), "N": _ints(st.sampled_from([6, 2])),
             "grid_points": _ints(st.sampled_from([2, 3]))},
            {"radius": st.sampled_from([0.3, 0.9, 1.2]), "phase": COORD,
             "tolerance": TOL},
            NOTHING),
        "moments": (
            {"domain": domain, "N": _ints(st.sampled_from([3, 0]))},
            {"r": R, "alphas": st.lists(st.lists(_ints(st.integers(0, 3)), min_size=1,
                                                 max_size=3), max_size=3)},
            st.one_of(NOTHING, st.just({"mc": False}), st.fixed_dictionaries(
                {"mc": st.just(True), "samples": _ints(st.sampled_from([1_000, 2_000]))},
                optional={"seed": SEED}))),
        "berezin-profile": (
            {"domain": domain, "symbol": SYMBOL, "point": point,
             "N": _ints(st.sampled_from([6, 2]))},
            {"r": R, "t_grid": T_GRID,
             "mass_outside": st.fixed_dictionaries(
                 {"center": point, "radius": st.sampled_from([0.2, 0.5]),
                  "quad_order": _ints(st.integers(8, 12))}, optional={"tolerance": TOL})},
            st.one_of(NOTHING, st.fixed_dictionaries({"expect_limit": COORD},
                                                     optional={"tolerance": TOL}))),
        "semi-commutator": (
            {"domain": domain, "N": _ints(st.sampled_from([5, 2])),
             "degree": _ints(st.sampled_from([1, 0]))},
            {"r": R, "tolerance": TOL},
            NOTHING),
        "axler-zheng": (
            {"domain": domain, "N": _ints(st.sampled_from([5, 2])),
             "strong_points": st.lists(point, min_size=1, max_size=2)},
            {"r": R, "weak_points": st.lists(point, max_size=2), "t_grid": T_GRID,
             "thresholds": st.fixed_dictionaries({}, optional={
                 "berezin": COORD, "tail": COORD}),
             "tail_k": _ints(st.integers(0, 8))},
            st.one_of(st.fixed_dictionaries({"symbol": SYMBOL}),
                      st.fixed_dictionaries({"operator": OPERATOR}))),
        "classify": (
            {"domain": domain, "count": _ints(st.sampled_from([4, 1]))},
            {"tolerance": st.sampled_from([1e-8, 0.0, -1.0]), "seed": SEED},
            NOTHING),
    }


def _configs(experiment):
    """Configs whose fields are each of the right type and range, and about
    half of them with one field made bad."""
    def build(case):
        domain, boundary = case
        point = st.one_of(st.sampled_from(boundary), POINT)
        always, optional, group = _fields(st.just(domain), point)[experiment]
        good = st.builds(lambda fields, extra: {**fields, **extra},
                         st.fixed_dictionaries(always, optional=optional), group)
        return st.tuples(good, st.one_of(st.none(), BAD_FIELD))

    def spoil(pair):
        config, bad = pair
        return config if bad is None else {**config, bad[0]: bad[1]}

    return st.sampled_from(DOMAINS).flatmap(build).map(spoil)


# configs the derandomized draws do not reach: whole-float integer fields
# that a run must cast before numpy takes them
EXAMPLES = {
    "berezin-profile": [{"domain": {"name": "disk"}, "N": 6, "symbol": "z",
                         "point": [1.0, 0.0],
                         "t_grid": {"start": 0.5, "stop": 0.9, "count": 3.0}}],
    "axler-zheng": [{"domain": {"name": "disk"}, "N": 5, "symbol": "1-abs2(z)",
                     "strong_points": [1.0], "tail_k": 3.0}],
}


@pytest.mark.parametrize("experiment", labcli.EXPERIMENTS)
def test_cli_exit_codes_on_fuzzed_configs(experiment):
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

    for config in EXAMPLES.get(experiment, ()):
        run = example(config)(run)
    settings(derandomize=True, max_examples=30, deadline=None,
             database=None)(given(_configs(experiment))(run))()


_AZ8 = {"domain": {"name": "disk"}, "N": 8, "strong_points": [[1.0, 0.0]]}
_PROFILE8 = {"domain": {"name": "disk"}, "N": 8, "symbol": "z", "point": [1.0, 0.0]}
_NOT_FINITE = "is not finite: a product of its scalars and weights overflows"
# name: (experiment, config or its JSON text, exit code, the start of the one
# stderr line, or "" for none)
EXTREMES = {
    "overflowing-scalars": (
        "axler-zheng", {**_AZ8, "operator": {"sum": [{"prod": [
            {"scalar": 1e308}, {"scalar": 1e308}, {"toeplitz": {"symbol": "z"}}]}]}},
        1, f"error: operator 1e+308 * 1e+308 * T(z) {_NOT_FINITE}"),
    "overflowing-product": (
        "axler-zheng", {**_AZ8, "operator": {"sum": [{"prod": [
            {"scalar": 1e200}, {"toeplitz": {"symbol": "z"}},
            {"toeplitz": {"symbol": "1e200*conj(z)"}}]}]}},
        1, f"error: operator 1e+200 * T(z) * T(1e200*conj(z)) {_NOT_FINITE}"),
    "t-grid-to-1e308": (
        "berezin-profile", {**_PROFILE8, "t_grid": {"start": 0.5, "stop": 1e308, "count": 2}},
        1, "error: point [1.e+308+0.j] lies outside disk (rho = inf)"),
    "point-at-1e308": (
        "berezin-profile", {**_PROFILE8, "point": [1e308, 0.0]},
        1, "config error: config field $['point']: point [1e+308, 0.0] is not on the "
           "boundary of disk (rho = inf"),
    "quad-order-3e6": (
        "berezin-profile", {**_PROFILE8, "mass_outside": {
            "center": [1.0, 0.0], "radius": 0.3, "quad_order": 3_000_000}},
        1, "config error: config field $['mass_outside']['quad_order']: 3000000 "),
    "r-1e308": (
        "kernel-check", {"domain": {"name": "disk"}, "N": 8, "r": 1e308},
        1, "error: log Gamma(1e+308) is not a finite float"),
    "phase-1e308": (
        "kernel-check", {"domain": {"name": "disk"}, "N": 64, "phase": 1e308}, 0, ""),
    "400-digit-integer": (
        "kernel-check", '{"domain": {"name": "disk"}, "N": 1' + "0" * 399 + "}",
        1, "config parse error in "),
    "alphas-of-wrong-length": (
        "moments", {"domain": {"name": "disk"}, "alphas": [[1], [1, 2]]},
        1, "config error: config field $['alphas'][1]: multiindex (1, 2) has 2 entries, "
           "expected 1 for disk"),
    "kernel-check-on-egg": (
        "kernel-check", {"domain": {"name": "egg", "m": 2}, "N": 8},
        1, "config error: config field $['domain']: kernel-check needs a disk or a ball"),
}


_fflush = ctypes.CDLL(None).fflush
_fflush.argtypes, _fflush.restype = [ctypes.c_void_p], ctypes.c_int


@pytest.mark.parametrize("name", list(EXTREMES))
def test_extreme_numbers_exit_with_at_most_one_line(tmp_path, capfd, name):
    experiment, config, code, line = EXTREMES[name]
    path = tmp_path / "c.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")    # each one a line the CLI would print
        got = labcli.main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])
    _fflush(None)                          # LAPACK writes its complaints to C's stdout
    out, err = capfd.readouterr()
    assert [str(w.message) for w in caught] == []
    for text in (out, err):
        assert not any(bad in text for bad in ("Traceback", "Warning", "DLASCL")), text
    assert (got, out) == (code, "")
    assert len(err.splitlines()) <= 1 and err.startswith(line) and bool(err) == bool(line), err


def _error_paths(errors):
    """The absolute path of every jsonschema error, those in the context of
    a oneOf error included."""
    paths, stack = set(), list(errors)
    while stack:
        error = stack.pop()
        paths.add(tuple(error.absolute_path))
        stack.extend(error.context)
    return paths


def _assert_checker_agrees(experiment, config):
    """The checker rejects ``config`` exactly when jsonschema does, and names
    a field one of jsonschema's errors names."""
    schema = labcli.SCHEMAS[experiment]
    want = _error_paths(Draft202012Validator(schema).iter_errors(config))
    got = labcli._schema_error(config, schema)
    if got is None:
        assert not want, (config, want)
    else:
        assert got[0] in want, (config, got, want)


@pytest.mark.parametrize("experiment", labcli.EXPERIMENTS)
def test_schema_checker_agrees_with_jsonschema_on_fuzzed_configs(experiment):
    Draft202012Validator.check_schema(labcli.SCHEMAS[experiment])

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(_configs(experiment))
    def run(config):
        _assert_checker_agrees(experiment, config)

    run()


DISK = {"name": "disk"}
_AZ = {"domain": DISK, "strong_points": [1.0]}


def _factors(*factors):
    return {**_AZ, "operator": {"sum": [{"prod": list(factors)}]}}


@pytest.mark.parametrize("experiment,config", [
    ("kernel-check", {"domain": DISK, "r": True}),            # a bool is no number
    ("kernel-check", {"domain": DISK, "N": True}),
    ("kernel-check", {"domain": DISK, "N": 8.0}),             # a whole float is an integer
    ("kernel-check", {"domain": DISK, "N": 8.5}),
    ("kernel-check", {"domain": DISK, "N": math.inf}),
    ("kernel-check", {"domain": DISK, "N": math.nan}),
    ("kernel-check", {"domain": DISK, "r": math.nan}),        # NaN passes minimum
    ("kernel-check", {"domain": DISK, "radius": math.nan}),   # and exclusiveMinimum
    ("kernel-check", {"domain": DISK, "r": -math.inf}),
    ("kernel-check", {"domain": DISK, "radius": 0}),
    ("kernel-check", {"domain": [DISK]}),
    ("kernel-check", {"domain": {"name": 3, "n": 2.0}}),
    ("kernel-check", {"domain": {"name": "disk", "inflate": {"p": 1}}}),
    ("kernel-check", {"domain": {"name": "disk", "exponents": (2.0,)}}),  # a tuple is no array
    ("kernel-check", {"domain": DISK, "experiment": "moments"}),
    ("kernel-check", {"domain": DISK, "experiment": "nosuch"}),
    ("kernel-check", {}),
    ("kernel-check", [DISK]),
    ("moments", {"domain": DISK, "alphas": ((1,),)}),
    ("moments", {"domain": DISK, "alphas": [[1, -1], [2.0]]}),
    ("moments", {"domain": DISK, "mc": 1}),
    ("constants", {"pairs": [[1]]}),
    ("constants", {"pairs": [[1, 1.0, 2.0]]}),
    ("constants", {"pairs": [[1.5, 1.0]]}),
    ("constants", {"pairs": [[1, "x"]]}),           # items applies only past the prefix
    ("constants", {"pairs": [[1, 0.5], (1, 0.5)]}),
    ("constants", {"pairs": [[0, 0.0]]}),
    ("constants", {"pairs": [], "p": 1}),
    ("berezin-profile", {"domain": DISK, "symbol": "z", "point": [1.0]}),
    ("berezin-profile", {"domain": DISK, "symbol": "z", "point": []}),
    ("berezin-profile", {"domain": DISK, "symbol": "z", "point": [[1.0]]}),
    ("berezin-profile", {"domain": DISK, "symbol": "z", "point": [[1.0, 0.0], 2.0]}),
    ("berezin-profile", {"domain": DISK, "symbol": "z", "point": "1"}),
    ("berezin-profile", {"domain": DISK, "symbol": "z", "point": True}),
    ("berezin-profile", {"domain": DISK, "symbol": "z", "point": 1.0, "t_grid": []}),
    ("berezin-profile", {"domain": DISK, "symbol": "z", "point": 1.0,
                         "t_grid": {"start": 0.0}}),
    ("berezin-profile", {"domain": DISK, "symbol": "z", "point": 1.0,
                         "t_grid": {"start": 0.0, "stop": 1.0, "count": 0}}),
    ("berezin-profile", {"domain": DISK, "symbol": "z", "point": 1.0,
                         "mass_outside": {"center": 0.5}}),
    ("berezin-profile", {"domain": DISK, "symbol": "z", "point": 1.0,
                         "mass_outside": {"center": [0.5], "radius": 0.1}}),
    ("axler-zheng", _factors({"identity": {}, "scalar": 1.0})),  # a factor with two keys
    ("axler-zheng", _factors({})),
    ("axler-zheng", _factors({"identity": {"x": 1}})),
    ("axler-zheng", _factors({"scalar": [1.0]})),
    ("axler-zheng", _factors({"scalar": [1.0, True]})),
    ("axler-zheng", _factors({"toeplitz": {"symbol": 1}})),
    ("axler-zheng", _factors({"hankelpair": {"psi": "z"}})),
    ("axler-zheng", {**_AZ, "operator": {"sum": []}}),
    ("axler-zheng", {**_AZ, "operator": {"sum": [{"prod": []}]}}),
    ("axler-zheng", {**_AZ, "strong_points": []}),
    ("axler-zheng", {**_AZ, "thresholds": {"tail": "x", "bogus": 0}}),
    ("classify", {"domain": DISK, "count": 0, "tolerance": "x"}),
])
def test_schema_checker_agrees_with_jsonschema_on_edge_cases(experiment, config):
    _assert_checker_agrees(experiment, config)
