"""Experiment runner: config parsing, orchestration, CSV/JSON reports.

All experiments are byte-deterministic: identical configs (seeds included)
produce identical CSV output.  No timestamps or environment-dependent values
enter the tables; floats are written as shortest round-trip decimals.

CLI: ``berezin-lab <experiment> --config file.json [--out dir] [--seed n]``,
with flags overriding config-file keys (``--seed`` only where a seed is
read).  Exit codes: 0 success, 2 when a verdict comes back failing/
inconsistent, 1 on any error (including command line usage errors, and
config schema violations, which are reported with their JSON path on stderr).

Each experiment's config is checked against its JSON Schema in ``SCHEMAS``
by a small checker in this module.  It implements exactly the Draft 2020-12
keywords those schemas use, and refuses at import a schema that uses any
other, so the lab needs only numpy at run time.  A config carries only keys
its run reads: a runner refuses one that another key makes moot.
"""

import argparse
import csv
import hashlib
import itertools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, _accel
from .bergman import (build_inflated_space, build_space,
                      inflation_kernel_residuals, kernel_mass_outside,
                      multiindices)
from .domains import (PointKind, boundary_point, classify_boundary,
                      domain_from_config, sample_boundary)
from .errors import LabError, ParameterError, SchemaError
from .operators import (DEFAULT_T_GRID, OperatorExpr, axler_zheng_report,
                        boundary_profile, expr_from_json,
                        product_decomposition_residual,
                        semi_commutator_residual, toeplitz)
from .quadrature import (WeightedMeasure, _lgamma, inflation_constant,
                         inflation_constant_mc, inflation_hits, monomial_moment,
                         monomial_moment_mc, polar_tensor_rule)
from .symbols import Symbol

EXPERIMENTS = ("kernel-check", "inflation-check", "moments", "berezin-profile",
               "semi-commutator", "axler-zheng", "classify", "constants")


# ---------------------------------------------------------------------------
# report containers
# ---------------------------------------------------------------------------

@dataclass
class Table:
    columns: list
    rows: list


@dataclass
class Report:
    experiment: str
    metadata: dict
    tables: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    @property
    def failed(self):
        if self.verdicts.get("verdict") == "inconsistent":
            return True
        return self.verdicts.get("pass") is False


def canonical_config_hash(config):
    """sha256 over the canonical (sorted, compact) JSON serialization.

    The run-location key ``out`` does not affect results and is excluded,
    so reruns of the same experiment hash identically wherever they write.
    """
    semantic = {k: v for k, v in config.items() if k != "out"}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_NATIVE = (str, float, int)     # exact types only: bool is an int subclass


def _jsonify(obj):
    """JSON-native copy of a report value: containers recursively, numpy
    scalars as Python ones, anything else that is not a number as text.
    Items that are already str, float or int (not bool) are taken as they
    are, without a call."""
    if isinstance(obj, dict):
        return {k: v if type(v) in _NATIVE else _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _NATIVE else _jsonify(v) for v in obj]
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return str(obj)


def _fmt_cell(x):
    """CSV text of a JSON-native cell; the csv writer writes a str, float or
    int (not bool) cell as this does."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def emit(report, out_dir):
    """Write one CSV file per table and a JSON report mirroring them all;
    returns every path written.  A table whose cells are all str, float or
    int (not bool) is written as it is; in any other table each cell is
    converted once, to its JSON value, and the CSV text is made from that."""
    os.makedirs(out_dir, exist_ok=True)
    prefix = report.experiment.replace("-", "_")
    tables, written = {}, []
    for name, t in report.tables.items():
        native = all(type(x) in _NATIVE for row in t.rows for x in row)
        rows = t.rows if native else _jsonify(t.rows)
        tables[name] = {"columns": t.columns, "rows": rows}
        path = os.path.join(out_dir, f"{prefix}_{name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(t.columns)
            writer.writerows(rows if native else ([_fmt_cell(x) for x in row] for row in rows))
        written.append(path)
    path = os.path.join(out_dir, f"{prefix}_report.json")
    payload = {
        "metadata": _jsonify(report.metadata),
        "tables": tables,
        "verdicts": _jsonify(report.verdicts),
        "warnings": list(report.warnings),
    }
    # compact, so that json's C encoder writes it (indent forces pure Python);
    # rows hold only scalars, so the payload has no cycle to check for
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, check_circular=False) + "\n")
    written.append(path)
    return written


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

def _object(props, required=None):
    """Object schema with exactly ``props``, all required unless listed."""
    return {"type": "object", "properties": props,
            "required": list(props if required is None else required),
            "additionalProperties": False}


_NUMBERS = {"type": "array", "items": {"type": "number"}}
_PAIR = dict(_NUMBERS, minItems=2, maxItems=2)
_P = {"type": "integer", "minimum": 1}
_R = {"type": "number", "exclusiveMinimum": 0}
_POINT = {"oneOf": [{"type": "number"}, _PAIR, {"type": "array", "items": _PAIR}]}
_TGRID = {"oneOf": [dict(_NUMBERS, minItems=1), _object(
    {"start": {"type": "number"}, "stop": {"type": "number"},
     "count": {"type": "integer", "minimum": 1}})]}
_INFLATE = _object({"p": _P, "r": _R})
_DOMAIN = _object({"name": {"type": "string"}, "inflate": _INFLATE,
                   "n": {"type": "integer"}, "m": {"type": "integer"},
                   "exponents": _NUMBERS}, required=["name"])

# operator wire format (``operators.expr_from_json``): a sum of products of
# factors, each factor an object with exactly one of these keys
_TEXT = {"type": "string"}
_FACTOR = dict(_object({"toeplitz": _object({"symbol": _TEXT}),
                        "hankelpair": _object({"psi": _TEXT, "phi": _TEXT}),
                        "identity": _object({}),
                        "scalar": {"oneOf": [{"type": "number"}, _PAIR]}},
                       required=()), minProperties=1, maxProperties=1)
_OPERATOR = _object({"sum": {"type": "array", "minItems": 1, "items": _object(
    {"prod": {"type": "array", "minItems": 1, "items": _FACTOR}})}})

_COMMON = {
    "experiment": {"type": "string", "enum": list(EXPERIMENTS)},
    "out": {"type": "string"},
}


def _schema(props, required=()):
    return _object({**_COMMON, **props}, required)


SCHEMAS = {
    "constants": _schema({
        "pairs": {"type": "array", "items": dict(_PAIR, prefixItems=[_P, _R])},
        "p": _P,
        "r": _R,
        "samples": {"type": "integer", "minimum": 1000},
        "seed": {"type": "integer"},
    }),
    "kernel-check": _schema({
        "domain": _DOMAIN,
        "r": {"type": "number", "minimum": 0},
        "N": {"type": "integer", "minimum": 1},
        "grid_points": {"type": "integer", "minimum": 2},
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "phase": {"type": "number"},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
    }, required=("domain",)),
    "inflation-check": _schema({
        "domain": _DOMAIN,
        "r": _R,
        "p": _P,
        "N": {"type": "integer", "minimum": 1},
        "grid_points": {"type": "integer", "minimum": 2},
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "phase": {"type": "number"},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
    }, required=("domain", "r", "p")),
    "moments": _schema({
        "domain": _DOMAIN,
        "r": {"type": "number", "minimum": 0},
        "N": {"type": "integer", "minimum": 0},
        "alphas": {"type": "array",
                   "items": {"type": "array", "items": {"type": "integer", "minimum": 0}}},
        "mc": {"type": "boolean"},
        "samples": {"type": "integer", "minimum": 1000},
        "seed": {"type": "integer"},
    }, required=("domain",)),
    "berezin-profile": _schema({
        "domain": _DOMAIN,
        "r": {"type": "number", "minimum": 0},
        "N": {"type": "integer", "minimum": 1},
        "symbol": {"type": "string"},
        "point": _POINT,
        "t_grid": _TGRID,
        "expect_limit": {"type": "number"},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "mass_outside": _object({"center": _POINT,
                                 "radius": {"type": "number", "exclusiveMinimum": 0},
                                 "quad_order": {"type": "integer", "minimum": 8},
                                 "tolerance": {"type": "number", "exclusiveMinimum": 0}},
                                required=["center", "radius"]),
    }, required=("domain", "symbol", "point")),
    "semi-commutator": _schema({
        "domain": _DOMAIN,
        "r": {"type": "number", "minimum": 0},
        "N": {"type": "integer", "minimum": 1},
        "degree": {"type": "integer", "minimum": 0},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
    }, required=("domain",)),
    "axler-zheng": _schema({
        "domain": _DOMAIN,
        "r": {"type": "number", "minimum": 0},
        "N": {"type": "integer", "minimum": 1},
        "operator": _OPERATOR,
        "symbol": {"type": "string"},
        "strong_points": {"type": "array", "items": _POINT, "minItems": 1},
        "weak_points": {"type": "array", "items": _POINT},
        "t_grid": _TGRID,
        "thresholds": _object({"berezin": {"type": "number"},
                               "tail": {"type": "number"}}, required=()),
        "tail_k": {"type": "integer", "minimum": 0},
    }, required=("domain", "strong_points")),
    "classify": _schema({
        "domain": _DOMAIN,
        "count": {"type": "integer", "minimum": 1},
        "tolerance": {"type": "number"},
        "seed": {"type": "integer"},
    }, required=("domain",)),
}


# The checker below implements exactly the JSON Schema (Draft 2020-12)
# keywords the schemas above use, with that draft's semantics; a schema with
# any other keyword is refused when this module is imported, not skipped.
_KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties", "items",
    "prefixItems", "minItems", "maxItems", "minProperties", "maxProperties",
    "minimum", "exclusiveMinimum", "enum", "oneOf"})
_TYPES = ("object", "array", "string", "boolean", "integer", "number")


def _check_schemas(schemas):
    """Raise ValueError unless every schema in ``schemas``, and every schema
    nested in one, uses only what ``_schema_error`` implements: the keywords
    of ``_KEYWORDS``, a single ``type`` name of ``_TYPES``,
    ``additionalProperties`` only as false, and an ``enum`` of strings."""
    stack = list(schemas)
    while stack:
        schema = stack.pop()
        unknown = set(schema) - _KEYWORDS
        if unknown:
            raise ValueError(f"schema keywords {sorted(unknown)} are not implemented")
        if schema.get("type", "object") not in _TYPES:
            raise ValueError(f"schema type {schema['type']!r} is not implemented")
        if schema.get("additionalProperties", False) is not False:
            raise ValueError("'additionalProperties' other than false is not implemented")
        if not all(isinstance(v, str) for v in schema.get("enum", ())):
            raise ValueError("an enum of other than strings is not implemented")
        stack.extend(schema.get("properties", {}).values())
        stack.extend(schema.get("prefixItems", ()))
        stack.extend(schema.get("oneOf", ()))
        if "items" in schema:
            stack.append(schema["items"])


_check_schemas(SCHEMAS.values())


def _is_type(value, name):
    """JSON Schema's type test on a Python value: only a dict is an object
    and only a list an array, a bool is no number, and a float with a whole
    value (8.0) is an integer."""
    if name == "number":
        return isinstance(value, numbers.Number) and not isinstance(value, bool)
    if name == "integer":
        return (isinstance(value, int) and not isinstance(value, bool)
                or isinstance(value, float) and value.is_integer())
    if name == "object":
        return isinstance(value, dict)
    if name == "array":
        return isinstance(value, list)
    if name == "string":
        return isinstance(value, str)
    return isinstance(value, bool)


def _schema_error(value, schema, path=()):
    """The first violation of ``schema`` by ``value``, as (path, reason), where
    path is the tuple of keys and indices leading to the offending field;
    None when ``value`` is valid."""
    kind = schema.get("type")
    if kind is not None and not _is_type(value, kind):
        return path, f"{value!r} is not of type {kind!r}"
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                return path, f"{key!r} is a required property"
        if "additionalProperties" in schema:
            extra = sorted((k for k in value if k not in props), key=str)
            if extra:
                verb = "was" if len(extra) == 1 else "were"
                return path, ("Additional properties are not allowed "
                              f"({', '.join(map(repr, extra))} {verb} unexpected)")
        if len(value) < schema.get("minProperties", 0):
            return path, f"{value!r} does not have enough properties"
        if len(value) > schema.get("maxProperties", math.inf):
            return path, f"{value!r} has too many properties"
        for key, sub in props.items():
            if key in value:
                error = _schema_error(value[key], sub, path + (key,))
                if error is not None:
                    return error
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{value!r} is too short"
        if len(value) > schema.get("maxItems", math.inf):
            return path, f"{value!r} is too long"
        prefix = schema.get("prefixItems", ())
        for i, item in enumerate(value):
            sub = prefix[i] if i < len(prefix) else schema.get("items")
            if sub is None:
                break
            error = _schema_error(item, sub, path + (i,))
            if error is not None:
                return error
    elif _is_type(value, "number"):
        # NaN compares false, so it passes both bounds
        if "minimum" in schema and value < schema["minimum"]:
            return path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return path, (f"{value!r} is less than or equal to the minimum of "
                          f"{schema['exclusiveMinimum']!r}")
    if "oneOf" in schema:
        return _one_of_error(value, schema["oneOf"], path)
    return None


def _one_of_error(value, branches, path):
    """``_schema_error`` for ``oneOf``: None when exactly one branch holds.
    When none holds and exactly one branch's type admits ``value``, that
    branch's error names the field more closely than the oneOf does."""
    errors = [_schema_error(value, b, path) for b in branches]
    matched = errors.count(None)
    if matched == 1:
        return None
    if matched > 1:
        return path, f"{value!r} is valid under more than one of the given schemas"
    typed = [e for b, e in zip(branches, errors)
             if "type" not in b or _is_type(value, b["type"])]
    if len(typed) == 1:
        return typed[0]
    return path, f"{value!r} is not valid under any of the given schemas"


def validate_config(experiment, config):
    if experiment not in EXPERIMENTS:
        raise SchemaError(f"unknown experiment {experiment!r}")
    if "experiment" in config and config["experiment"] != experiment:
        raise SchemaError(
            f"config experiment {config['experiment']!r} does not match {experiment!r}")
    error = _schema_error(config, SCHEMAS[experiment])
    if error is not None:
        path, reason = error
        field = "$" + "".join(f"[{p!r}]" for p in path)
        raise SchemaError(f"config field {field}: {reason}")


# ---------------------------------------------------------------------------
# config helpers
# ---------------------------------------------------------------------------

def _refuse(config, keys, reason):
    """Raise SchemaError naming the first of ``keys`` set in ``config``,
    where the run would otherwise ignore it."""
    for key in keys:
        if key in config:
            raise SchemaError(f"config field $[{key!r}]: not allowed {reason}")


def _to_point(spec, dim, field):
    """Decode a point: number, [re, im], or [[re, im], ...].  ``field`` is
    its config path, such as ``$['point']``, which an error names."""
    if isinstance(spec, (int, float)):
        vec = [complex(spec)]
    elif spec and isinstance(spec[0], (int, float)):
        vec = [complex(spec[0], spec[1])]
    else:
        vec = [complex(p[0], p[1]) for p in spec]
    if len(vec) != dim:
        raise SchemaError(f"config field {field}: point {spec} has {len(vec)} "
                          f"coordinates, expected {dim}")
    return np.array(vec, dtype=np.complex128)


def _boundary_point(dom, spec, field, band=0.01):
    """Decode the config point at path ``field`` and rescale it onto the
    boundary along its ray.

    Config files cannot carry boundary coordinates to the 1e-10 membership
    band, so points within |rho| <= band are projected; a point farther
    inside or outside raises :class:`SchemaError` naming ``field``.
    """
    point = _to_point(spec, dom.dim, field)
    rho = float(dom.rho(point))
    if not abs(rho) <= band:       # NaN fails too
        raise SchemaError(f"config field {field}: point {spec} is not on the "
                          f"boundary of {dom.name} (rho = {rho:.6g}, outside "
                          f"|rho| <= {band})")
    return boundary_point(dom, point)


def _to_tgrid(spec):
    if spec is None:
        return DEFAULT_T_GRID
    if isinstance(spec, dict):
        return np.linspace(spec["start"], spec["stop"], int(spec["count"]))
    return np.asarray(spec, dtype=float)


def _monomial_symbols(dim, degree):
    """All z^gamma zbar^delta with total degree <= degree, deterministic order."""
    syms = []
    for combo in multiindices(2 * dim, degree):
        gamma = tuple(int(x) for x in combo[:dim])
        delta = tuple(int(x) for x in combo[dim:])
        syms.append(Symbol.from_monomials({(gamma, delta): 1.0}, dim))
    return syms


def _ray_pairs(dim, radius, phase, n_grid):
    """(t_z, t_w, z, w) over all pairs of an n_grid-point ray grid on
    [0, radius] along the unit direction of the given phase, t_z slowest."""
    ts = radius * np.arange(n_grid) / (n_grid - 1)
    u = np.exp(1j * phase) * np.ones(dim) / np.sqrt(dim)
    tz, tw = (g.ravel() for g in np.meshgrid(ts, ts, indexing="ij"))
    return tz, tw, tz[:, None] * u, tw[:, None] * u


def _ray_radius(dom, config, default):
    """The config's ``radius``, refused unless the far end of the ray grid
    (``_ray_pairs``) lies inside ``dom``, where rho does not depend on the
    phase."""
    radius = float(config.get("radius", default))
    rho = float(dom.rho(radius * (np.ones(dom.dim) / np.sqrt(dom.dim))))
    if not rho < 0:       # NaN fails too
        raise SchemaError(f"config field $['radius']: the ray grid's far point "
                          f"is not inside {dom.name} (rho = {rho:.6g})")
    return radius


def _abs(d):
    """|d| by libm's hypot, as Python's abs rounds it (numpy's vectorized
    complex abs differs in the last bit on some values)."""
    return np.hypot(d.real, d.imag)


def _closed_form_kernel(domain, r):
    """(z, w) -> K^r(z, w) for disk and balls, else None."""
    if any(q != 2.0 for q in domain.exponents):
        return None
    n = domain.dim
    const = np.exp(_lgamma(n + 1 + r) - _lgamma(r + 1)) / np.pi ** n

    def closed(z, w):
        inner = np.sum(np.atleast_2d(z) * np.conj(np.atleast_2d(w)), axis=1)
        return const * (1.0 - inner) ** (-(n + 1 + r))

    return closed


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _run_constants(config, report):
    pairs = config.get("pairs")
    if pairs is None:
        if "p" not in config or "r" not in config:
            raise SchemaError("constants needs either 'pairs' or both 'p' and 'r'")
        pairs = [[config["p"], config["r"]]]
    else:
        _refuse(config, ("p", "r"), "next to 'pairs'")
    samples = int(config.get("samples", 10_000_000))
    seed = int(config.get("seed", 42))
    rows = []
    all_within = True
    exact_ok = True
    for (p, r), hits in zip(pairs, inflation_hits(pairs, samples, seed)):
        p = int(p)
        cf = inflation_constant(p, r)
        mc = inflation_constant_mc(p, r, samples=samples, seed=seed, hits=hits)
        sigmas = abs(cf - mc.value) / mc.stderr if mc.stderr > 0 else 0.0
        within = sigmas <= 3.0
        all_within &= within
        exact_err = abs(cf - np.pi ** p / math.factorial(p)) if p == r else ""
        if p == r:
            exact_ok &= exact_err <= 1e-12 * cf
        rows.append([p, float(r), cf, mc.value, mc.stderr, abs(cf - mc.value),
                     sigmas, within, exact_err])
    report.tables["constants"] = Table(
        ["p", "r", "closed_form", "mc_estimate", "mc_stderr", "abs_diff",
         "sigmas", "within_3_sigma", "exact_check_p_eq_r"], rows)
    report.verdicts = {"pass": bool(all_within and exact_ok),
                       "within_3_sigma": bool(all_within),
                       "exact_p_eq_r": bool(exact_ok)}


def _run_kernel_check(config, report):
    dom = domain_from_config(config["domain"])
    r = float(config.get("r", 0.0))
    n_grid = int(config.get("grid_points", 10))
    radius = _ray_radius(dom, config, 0.8)
    phase = float(config.get("phase", 0.3))
    tol = float(config.get("tolerance", 1e-8))
    nn = int(config.get("N", 64))
    closed = _closed_form_kernel(dom, r)
    if closed is None:
        raise ParameterError(
            f"kernel-check requires a disk/ball domain with a closed-form kernel, "
            f"got {dom.name}")
    space = build_space(WeightedMeasure(dom, r), nn)
    # ray grid: phases aligned so z wbar >= 0; anti-aligned pairs at these
    # truncations sit below the closed-form magnitude and fail the relative
    # tolerance for structural (not numerical) reasons
    tz, tw, z, w = _ray_pairs(dom.dim, radius, phase, n_grid)
    kc = closed(z, w)
    err = _abs(space.kernel(z, w) - kc) / _abs(kc)
    worst = float(np.max(err))
    report.tables["residuals"] = Table(["t_z", "t_w", "rel_err"],
                                       np.column_stack([tz, tw, err]).tolist())
    report.verdicts = {"pass": bool(worst < tol), "max_rel_err": worst,
                       "tolerance": tol}


def _run_inflation_check(config, report):
    dom = domain_from_config(config["domain"])
    r = float(config["r"])
    p = int(config["p"])
    nn = int(config.get("N", 32))
    n_grid = int(config.get("grid_points", 8))
    radius = _ray_radius(dom, config, 0.6)
    phase = float(config.get("phase", 0.2))
    tol = float(config.get("tolerance", 1e-8))
    space = build_space(WeightedMeasure(dom, r), nn)
    infl_space = build_inflated_space(space, p)
    tz, tx, zs, xis = _ray_pairs(dom.dim, radius, phase, n_grid)
    resid, kb, ki = inflation_kernel_residuals(space, p, zs, xis, infl_space=infl_space)
    closed = _closed_form_kernel(dom, r)
    c = inflation_constant(p, r)
    cerr = np.full(len(zs), np.nan)
    worst_closed = 0.0
    if closed is not None:
        kc = closed(zs, xis)
        cerr = _abs(c * ki - kc) / _abs(kc)
        worst_closed = float(np.max(cerr))
    report.tables["residuals"] = Table(
        ["t_z", "t_xi", "identity_residual", "closed_form_residual"],
        np.column_stack([tz, tx, resid, cerr]).tolist())
    ok = float(np.max(resid)) < tol and (closed is None or worst_closed < tol)
    report.verdicts = {"pass": bool(ok),
                       "max_identity_residual": float(np.max(resid)),
                       "max_closed_form_residual": worst_closed if closed else None,
                       "constant": c, "tolerance": tol}


def _run_moments(config, report):
    dom = domain_from_config(config["domain"])
    r = float(config.get("r", 0.0))
    measure = WeightedMeasure(dom, r)
    if "alphas" in config:
        alphas = [tuple(int(x) for x in a) for a in config["alphas"]]
        for a in alphas:
            if len(a) != dom.dim:
                raise SchemaError(f"multiindex {a} has wrong length for {dom.name}")
    else:
        alphas = [tuple(int(x) for x in a)
                  for a in multiindices(dom.dim, int(config.get("N", 8)))]
    mc = bool(config.get("mc", False))
    if not mc:
        _refuse(config, ("samples", "seed"), "without 'mc': true")
    samples = int(config.get("samples", 1_000_000))
    seed = int(config.get("seed", 42))
    rows = []
    ok = True
    for i, a in enumerate(alphas):
        m = monomial_moment(measure, a)
        if mc:
            est = monomial_moment_mc(measure, a, samples=samples, seed=seed + i)
            sig = abs(m - est.value) / est.stderr if est.stderr > 0 else 0.0
            ok &= sig <= 4.0
            rows.append([";".join(map(str, a)), m, est.value, est.stderr, sig])
        else:
            rows.append([";".join(map(str, a)), m, "", "", ""])
    report.tables["moments"] = Table(
        ["alpha", "moment", "mc_estimate", "mc_stderr", "sigmas"], rows)
    report.verdicts = {"pass": bool(ok)}


def _run_berezin_profile(config, report):
    if "expect_limit" not in config:
        _refuse(config, ("tolerance",), "without 'expect_limit'")
    dom = domain_from_config(config["domain"])
    r = float(config.get("r", 0.0))
    nn = int(config.get("N", 96 if dom.dim == 1 else 16))
    if dom.dim != 1:
        _refuse(config, ("mass_outside",), f"on a {dom.dim}-dimensional domain")
    if "mass_outside" in config:
        # on the disk the rule sums |k_z|^2 exactly iff 2 order - 1 >= N
        order = int(config["mass_outside"].get("quad_order", 256))
        need = nn // 2 + 1
        if order < need:
            raise SchemaError(f"config field $['mass_outside']['quad_order']: "
                              f"{order} cannot integrate |k_z|^2 at N={nn}; "
                              f"need >= {need}")
        center = _to_point(config["mass_outside"]["center"], dom.dim,
                           "$['mass_outside']['center']")
    p0 = _boundary_point(dom, config["point"], "$['point']")
    space = build_space(WeightedMeasure(dom, r), nn)
    sym = Symbol.parse(config["symbol"], dom.dim)
    t_grid = _to_tgrid(config.get("t_grid"))
    op = toeplitz(space, sym)
    prof = boundary_profile(op, p0, t_grid)
    rows = [[s.t, s.value.real, s.value.imag, s.trunc_flag] for s in prof]
    report.tables["profile"] = Table(
        ["t", "re_berezin", "im_berezin", "trunc_flag"], rows)
    for s in prof:
        if s.trunc_flag:
            report.warnings.append(
                f"t={s.t!r}: -rho below interior accuracy contract; "
                f"top-degree kernel share {s.tail_fraction:.3e}")
    verdicts = {"terminal": abs(prof[-1].value)}
    if "expect_limit" in config:
        tol = float(config.get("tolerance", 0.05))
        err = abs(prof[-1].value - config["expect_limit"])
        verdicts.update({"pass": bool(err < tol), "limit_error": err,
                         "tolerance": tol})
    if "mass_outside" in config:
        mo = config["mass_outside"]
        radius = float(mo["radius"])
        rule = polar_tensor_rule(space.measure, radial_order=order,
                                 angular_order=2 * order)
        pts = np.array([float(t) * p0 for t in t_grid])
        masses = kernel_mass_outside(space, pts, center, radius, rule)
        rows = [[float(t), float(m)] for t, m in zip(t_grid, masses)]
        report.tables["mass_outside"] = Table(["t", "off_mass"], rows)
        if "tolerance" in mo:
            mtol = float(mo["tolerance"])
            verdicts["mass_terminal"] = rows[-1][1]
            verdicts["pass"] = bool(verdicts.get("pass", True)
                                    and rows[-1][1] < mtol)
    report.verdicts = verdicts


def _run_semi_commutator(config, report):
    dom = domain_from_config(config["domain"])
    r = float(config.get("r", 0.0))
    nn = int(config.get("N", 32))
    degree = int(config.get("degree", 2))
    tol = float(config.get("tolerance", 1e-9))
    if nn < 3 * degree:
        # the triples' margin 3 * degree must leave indices of degree <= N - margin
        raise SchemaError(f"config field $['N']: {nn} leaves no truncation-safe index "
                          f"for the degree-{degree} triples; need >= {3 * degree}")
    space = build_space(WeightedMeasure(dom, r), nn)
    syms = _monomial_symbols(dom.dim, degree)
    rows = []
    worst = 0.0
    for s2, s1 in itertools.product(syms, syms):
        resid = semi_commutator_residual(space, s2, s1, degree)
        worst = max(worst, resid)
        rows.append([s2.text, s1.text, resid])
    report.tables["pairs"] = Table(["sym2", "sym1", "residual"], rows)
    rows = []
    for s3, s2, s1 in itertools.product(syms, syms, syms):
        resid = product_decomposition_residual(space, [s3, s2, s1], 3 * degree)
        worst = max(worst, resid)
        rows.append([s3.text, s2.text, s1.text, resid])
    report.tables["triples"] = Table(["sym3", "sym2", "sym1", "residual"], rows)
    report.verdicts = {"pass": bool(worst < tol), "max_residual": worst,
                       "tolerance": tol}


def _run_axler_zheng(config, report):
    dom = domain_from_config(config["domain"])
    r = float(config.get("r", 0.0))
    nn = int(config.get("N", 16))
    strong = [_boundary_point(dom, p, f"$['strong_points'][{i}]")
              for i, p in enumerate(config["strong_points"])]
    weak = [_boundary_point(dom, p, f"$['weak_points'][{i}]")
            for i, p in enumerate(config.get("weak_points", []))]
    space = build_space(WeightedMeasure(dom, r), nn)
    if "operator" in config:
        _refuse(config, ("symbol",), "next to 'operator'")
        expr = expr_from_json(config["operator"], dom.dim)
    elif "symbol" in config:
        expr = OperatorExpr.toeplitz(Symbol.parse(config["symbol"], dom.dim))
    else:
        raise SchemaError("axler-zheng needs 'operator' or 'symbol'")
    pt_rows = []
    for role, pts, want in (("strong", strong, PointKind.STRONGLY_PSEUDOCONVEX),
                            ("weak", weak, PointKind.WEAKLY_PSEUDOCONVEX)):
        for i, p in enumerate(pts):
            cls = classify_boundary(dom, p)
            if cls.kind is not want:
                raise ParameterError(f"{role} point #{i} {p} classified {cls.kind.value}")
            pt_rows.append([role, i, cls.kind.value, cls.min_tangential_eigenvalue])
    tail_k = config.get("tail_k")
    rep = axler_zheng_report(
        expr, space, strong, weak, t_grid=_to_tgrid(config.get("t_grid")),
        tail_k=None if tail_k is None else int(tail_k),
        **{f"{name}_threshold": float(v)
           for name, v in config.get("thresholds", {}).items()})
    for name, profs in (("strong_profiles", rep.strong_profiles),
                        ("weak_profiles", rep.weak_profiles)):
        rows = []
        for i, (_, prof) in enumerate(profs):
            for s in prof:
                rows.append([i, s.t, s.value.real, s.value.imag, s.trunc_flag])
        report.tables[name] = Table(
            ["point_index", "t", "re_berezin", "im_berezin", "trunc_flag"], rows)
    report.tables["tails"] = Table(
        ["k", "tail_norm"], [[k, v] for k, v in rep.tail_curve])
    report.tables["points"] = Table(
        ["role", "index", "kind", "min_tangential_eigenvalue"], pt_rows)
    report.verdicts = {
        "verdict": rep.verdict,
        "classification": rep.classification,
        "strong_terminal_sup": rep.strong_terminal_sup,
        "berezin_vanishing": rep.berezin_vanishing,
        "tail_k": rep.tail_k,
        "tail_value": rep.tail_value,
        "tail_vanishing": rep.tail_vanishing,
    }


def _run_classify(config, report):
    dom = domain_from_config(config["domain"])
    count = int(config.get("count", 64))
    seed = int(config.get("seed", 0))
    tol = config.get("tolerance")
    pts = sample_boundary(dom, count, seed=seed)
    rows = []
    for p in pts:
        cls = classify_boundary(dom, p, tol=tol)
        row = []
        for c in p:
            row.extend([c.real, c.imag])
        row.extend([cls.kind.value, cls.min_tangential_eigenvalue,
                    cls.tolerance_used])
        rows.append(row)
    cols = []
    for j in range(dom.dim):
        cols.extend([f"p{j+1}_re", f"p{j+1}_im"])
    cols.extend(["kind", "min_tangential_eigenvalue", "tolerance_used"])
    report.tables["points"] = Table(cols, rows)
    n_weak = sum(1 for row in rows if row[-3] == PointKind.WEAKLY_PSEUDOCONVEX.value)
    report.verdicts = {"pass": True, "n_points": len(rows), "n_weak": n_weak}


_RUNNERS = {
    "constants": _run_constants,
    "kernel-check": _run_kernel_check,
    "inflation-check": _run_inflation_check,
    "moments": _run_moments,
    "berezin-profile": _run_berezin_profile,
    "semi-commutator": _run_semi_commutator,
    "axler-zheng": _run_axler_zheng,
    "classify": _run_classify,
}


def run(experiment, config, write=True):
    """Validate, execute, and (optionally) write one experiment.

    Returns the Report; files go to config['out'] (default 'reports') in both
    CSV and JSON forms.
    """
    validate_config(experiment, config)
    report = Report(experiment, metadata={
        "experiment": experiment,
        "config_hash": canonical_config_hash(config),
        "version": __version__,
        "backend": _accel.backend_name(),
    })
    _RUNNERS[experiment](config, report)
    if write:
        emit(report, config.get("out", "reports"))
    return report


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class _ArgParser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 (2 means a failing verdict)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _ArgParser(
        prog="berezin-lab",
        description="Weighted Bergman-space experiment runner")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", help="output directory (overrides config)")
        if "seed" in SCHEMAS[name]["properties"]:
            sp.add_argument("--seed", type=int, help="seed override")
    return parser


def _refuse_constant(name):
    """``json`` reads NaN, Infinity and -Infinity; RFC 8259 JSON has none."""
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text):
    """``json`` reads 1e309 as inf; a config number must be finite."""
    if math.isinf(float(text)):
        raise ValueError(f"{text} is not a finite JSON number")
    return float(text)


def _float_sized_int(text):
    """An integer literal too large for a float is refused like 1e309."""
    _finite_float(text)
    return int(text)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh, parse_constant=_refuse_constant, parse_float=_finite_float,
                               parse_int=_float_sized_int)
    except json.JSONDecodeError as exc:
        print(f"config parse error in {args.config}: line {exc.lineno} "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config parse error in {args.config}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
        return 1
    if not isinstance(config, dict):
        print("config must be a JSON object", file=sys.stderr)
        return 1
    for key in ("out", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    try:
        report = run(args.experiment, config)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 2 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
