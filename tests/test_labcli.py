import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from berezin_lab import labcli
from berezin_lab.errors import SchemaError


def read_files(out_dir):
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


CHEAP_CONFIGS = [
    ("constants", {"pairs": [[1, 1.0]], "samples": 100_000, "seed": 42}),
    ("kernel-check", {"domain": {"name": "disk"}, "r": 1.0, "N": 32}),
    ("inflation-check", {"domain": {"name": "disk"}, "r": 1.0, "p": 1, "N": 24}),
    ("moments", {"domain": {"name": "egg", "m": 2}, "r": 0.5, "N": 4}),
    ("berezin-profile", {"domain": {"name": "disk"}, "r": 0.0, "N": 48,
                         "symbol": "re(z)", "point": [1.0, 0.0],
                         "t_grid": {"start": 0.4, "stop": 0.9, "count": 6},
                         "mass_outside": {"center": [1.0, 0.0], "radius": 0.4,
                                          "quad_order": 64}}),
    ("semi-commutator", {"domain": {"name": "disk"}, "r": 0.0, "N": 16,
                         "degree": 1}),
    ("classify", {"domain": {"name": "egg", "m": 2}, "count": 12}),
]


@pytest.mark.parametrize("experiment,config", CHEAP_CONFIGS)
def test_determinism_byte_identical(tmp_path, experiment, config):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    labcli.run(experiment, {**config, "out": str(out_a)})
    labcli.run(experiment, {**config, "out": str(out_b)})
    blobs_a = read_files(out_a)
    blobs_b = read_files(out_b)
    assert blobs_a.keys() == blobs_b.keys()
    for name in blobs_a:
        assert blobs_a[name] == blobs_b[name], f"{name} differs between runs"


def test_config_hash_recomputable(tmp_path):
    config = {"domain": {"name": "disk"}, "r": 0.0, "N": 16, "out": str(tmp_path)}
    report = labcli.run("kernel-check", config)
    semantic = {k: v for k, v in config.items() if k != "out"}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":")).encode()
    assert report.metadata["config_hash"] == hashlib.sha256(blob).hexdigest()
    payload = json.load(open(tmp_path / "kernel_check_report.json"))
    assert payload["metadata"]["config_hash"] == report.metadata["config_hash"]


def test_json_mirrors_csv_numeric_values(tmp_path):
    config = {"domain": {"name": "disk"}, "r": 0.0, "N": 48, "symbol": "re(z)",
              "point": [1.0, 0.0],
              "t_grid": {"start": 0.4, "stop": 0.9, "count": 6},
              "out": str(tmp_path)}
    labcli.run("berezin-profile", config)
    payload = json.load(open(tmp_path / "berezin_profile_report.json"))
    with open(tmp_path / "berezin_profile_profile.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "re_berezin", "im_berezin", "trunc_flag"]
    json_rows = payload["tables"]["profile"]["rows"]
    assert len(rows) - 1 == len(json_rows)
    for csv_row, json_row in zip(rows[1:], json_rows):
        assert float(csv_row[0]) == json_row[0]
        assert float(csv_row[1]) == json_row[1]
        assert float(csv_row[2]) == json_row[2]
        assert bool(int(csv_row[3])) == json_row[3]


def test_axler_zheng_thresholds_override_only_what_they_set(tmp_path):
    # T_{1-|z|^2} has tail norms 1/(k+2): 0.1 at the default tail_k = N // 2
    base = {"domain": {"name": "disk"}, "r": 0.0, "N": 16, "symbol": "1-abs2(z)",
            "strong_points": [[1.0, 0.0]], "weak_points": [], "out": str(tmp_path)}
    report = labcli.run("axler-zheng", base)
    assert report.verdicts["classification"] == "compact"
    assert len(report.tables["strong_profiles"].rows) == 16   # default t grid
    tight = labcli.run("axler-zheng", {**base, "thresholds": {"tail": 0.0}})
    assert tight.verdicts["classification"] == "localized"


def test_profile_row_count_matches_grid(tmp_path):
    config = {"domain": {"name": "disk"}, "r": 0.0, "N": 32, "symbol": "1",
              "point": [1.0, 0.0], "t_grid": [0.05 * k for k in range(1, 21)],
              "out": str(tmp_path)}
    rep = labcli.run("berezin-profile", config)
    table = rep.tables["profile"]
    assert len(table.rows) == 20
    # identity-symbol profile: re_berezin all 1.0
    assert all(row[1] == pytest.approx(1.0, abs=1e-12) for row in table.rows)


def test_schema_violations():
    with pytest.raises(SchemaError):
        labcli.run("kernel-check", {"r": 0.0})                    # missing domain
    with pytest.raises(SchemaError):
        labcli.run("kernel-check", {"domain": {"name": "disk"}, "N": "ten"})
    with pytest.raises(SchemaError):
        labcli.run("kernel-check", {"domain": {"name": "disk"}, "bogus": 1})
    with pytest.raises(SchemaError):
        labcli.run("nosuch", {})
    with pytest.raises(SchemaError):
        labcli.run("classify", {"domain": {"name": "disk"},
                                "experiment": "constants"})


@pytest.mark.parametrize("schema", [
    {"type": "number", "maximum": 1},
    {"type": "object", "properties": {"a": {"type": "string", "pattern": "x"}}},
    {"type": "array", "items": {"oneOf": [{"type": "null"}]}},
    {"type": ["number", "string"]},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"enum": [1, 2]},
])
def test_schema_checker_refuses_what_it_does_not_implement(schema):
    # a keyword the checker skipped would let configs through unchecked
    with pytest.raises(ValueError, match="not implemented"):
        labcli._check_schemas([schema])


def test_classify_includes_weak_axis_point(tmp_path):
    config = {"domain": {"name": "egg", "m": 2}, "count": 8, "out": str(tmp_path)}
    rep = labcli.run("classify", config)
    rows = rep.tables["points"].rows
    kinds = {(round(r[0], 6), round(r[2], 6)): r[4] for r in rows}
    # axis points come first: (1, 0) weak, (0, 1) strong
    assert rows[0][4] == "WeaklyPseudoconvex"
    assert rows[1][4] == "StronglyPseudoconvex"
    assert rep.verdicts["n_weak"] >= 1


def test_classify_disk_all_strong(tmp_path):
    rep = labcli.run("classify", {"domain": {"name": "disk"}, "count": 64,
                                  "out": str(tmp_path)})
    assert all(row[2] == "StronglyPseudoconvex" for row in rep.tables["points"].rows)


def test_smoothed_polydisk_axis_weak(tmp_path):
    rep = labcli.run("classify", {"domain": {"name": "smoothed_polydisk"},
                                  "count": 6, "out": str(tmp_path)})
    rows = rep.tables["points"].rows
    assert rows[0][4] == "WeaklyPseudoconvex"   # (1, 0)
    assert rows[1][4] == "WeaklyPseudoconvex"   # (0, 1)


def test_main_exit_codes(tmp_path, capsys):
    # malformed JSON -> 1 with nonempty stderr
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert labcli.main(["classify", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.strip()

    # schema violation -> 1
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"domain": {"name": "disk"}, "bogus": 2}))
    assert labcli.main(["classify", "--config", str(wrong)]) == 1
    assert "bogus" in capsys.readouterr().err

    # missing file -> 1
    assert labcli.main(["classify", "--config", str(tmp_path / "nope.json")]) == 1
    capsys.readouterr()

    # success -> 0
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"domain": {"name": "disk"}, "count": 4}))
    assert labcli.main(["classify", "--config", str(good),
                        "--out", str(tmp_path / "out")]) == 0

    # failing verdict -> 2 (absurd tolerance)
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps({"domain": {"name": "disk"}, "r": 0.0,
                                   "N": 16, "tolerance": 1e-30}))
    assert labcli.main(["kernel-check", "--config", str(failing),
                        "--out", str(tmp_path / "out2")]) == 2


@pytest.mark.parametrize("inflate", [{"p": 1}, {"r": 1.0}, {"p": 0, "r": 1.0},
                                     {"p": 1, "r": 1.0, "q": 2}])
def test_main_rejects_bad_inflate(tmp_path, capsys, inflate):
    cfg = tmp_path / "infl.json"
    cfg.write_text(json.dumps({"domain": {"name": "disk", "inflate": inflate},
                               "N": 8}))
    assert labcli.main(["kernel-check", "--config", str(cfg),
                        "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "inflate" in err


@pytest.mark.parametrize("domain", [{"name": "egg", "M": 3},
                                    {"name": "disk", "M": 3, "inflate": {"p": 1, "r": 1.0}}])
def test_main_rejects_unknown_domain_key(tmp_path, capsys, domain):
    cfg = tmp_path / "dom.json"
    cfg.write_text(json.dumps({"domain": domain, "count": 4}))
    assert labcli.main(["classify", "--config", str(cfg),
                        "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'M'" in err


def test_flag_overrides(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"domain": {"name": "disk"}, "count": 4,
                               "seed": 1, "out": "ignored"}))
    out = tmp_path / "cli_out"
    code = labcli.main(["classify", "--config", str(cfg), "--out", str(out),
                        "--seed", "7"])
    assert code == 0
    payload = json.load(open(out / "classify_report.json"))
    want = labcli.canonical_config_hash({"domain": {"name": "disk"}, "count": 4,
                                         "seed": 7})
    assert payload["metadata"]["config_hash"] == want


def test_threads_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"domain": {"name": "disk"}, "count": 4,
                               "threads": 2}))
    assert labcli.main(["classify", "--config", str(cfg),
                        "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'threads'" in err


@pytest.mark.parametrize("flags", [["--bogus", "1"], ["--threads", "4"]])
def test_usage_error_exits_1(tmp_path, capsys, flags):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"domain": {"name": "disk"}, "count": 4}))
    with pytest.raises(SystemExit) as info:
        labcli.main(["classify", "--config", str(cfg), *flags])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert "error: unrecognized arguments: " + " ".join(flags) in err
    with pytest.raises(SystemExit) as info:
        labcli.main(["classify", "--help"])
    assert info.value.code == 0


def test_symbol_not_finite_at_node_exits_1(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"domain": {"name": "disk"}, "r": 0.0, "N": 16,
                               "symbol": "1/im(z)", "point": [1.0, 0.0],
                               "t_grid": {"start": 0.4, "stop": 0.9, "count": 3}}))
    out = tmp_path / "out"
    assert labcli.main(["berezin-profile", "--config", str(cfg),
                        "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: symbol not finite at node")
    assert not out.exists()


@pytest.mark.parametrize("mass", [False, True])
def test_profile_point_outside_domain_exits_1(tmp_path, capsys, mass):
    config = {"domain": {"name": "disk"}, "r": 0.0, "N": 16, "symbol": "re(z)",
              "point": [1.0, 0.0], "t_grid": [0.5, 1.5]}
    if mass:
        config["mass_outside"] = {"center": [1.0, 0.0], "radius": 0.3, "quad_order": 32}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert labcli.main(["berezin-profile", "--config", str(cfg),
                        "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: point [1.5+0.j] lies outside disk")
    assert "Traceback" not in err
    assert not out.exists()


def _factor(f):
    return {"operator": {"sum": [{"prod": [f]}]}}


@pytest.mark.parametrize("extra", [
    _factor({"toeplitz": {}}), _factor({"toeplitz": "z"}),
    _factor({"scalar": [1]}), _factor({"scalar": "a"}),
    {"operator": {"sum": [{"prod": 5}]}},
    _factor({"hankelpair": {"psi": "z"}}),
    {"symbol": "1e"},
    {"symbol": "1-abs2(z)", "tail_k": 99},
])
def test_axler_zheng_bad_operator_symbol_or_tail_k_exits_1(tmp_path, capsys, extra):
    config = {"domain": {"name": "disk"}, "r": 0.0, "N": 8,
              "strong_points": [[1.0, 0.0]], "weak_points": [], **extra}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert labcli.main(["axler-zheng", "--config", str(cfg),
                        "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(("config error: config field $['operator']", "error:"))
    assert "Traceback" not in err


def test_constants_single_pair_form(tmp_path):
    rep = labcli.run("constants", {"p": 1, "r": 1.0, "samples": 50_000,
                                   "out": str(tmp_path)})
    row = rep.tables["constants"].rows[0]
    assert row[2] == pytest.approx(np.pi, rel=1e-12)
    assert rep.verdicts["pass"]
    with pytest.raises(SchemaError):
        labcli.run("constants", {"p": 1})


def _cli(tmp_path, name, experiment, config):
    """Exit code, stderr and the CSVs written by a CLI run of ``config``."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / name
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = labcli.main([experiment, "--config", str(path), "--out", str(out)])
    csvs = {k: v for k, v in read_files(out).items() if k.endswith(".csv")} \
        if out.exists() else {}
    return code, err.getvalue(), csvs


def test_constants_pairs_count_as_single_pair_runs(tmp_path):
    # one pass over the stream counts all five pairs; each row is the one a
    # run of that pair alone writes
    pairs = [[1, 1.0], [2, 1.0], [2, 2.0], [3, 2.0], [2, 0.5]]
    config = {"samples": 20_011, "seed": 7}
    code, err, csvs = _cli(tmp_path, "all", "constants", {**config, "pairs": pairs})
    assert (code, err) == (0, "")
    [table] = csvs.values()
    header, *rows = table.splitlines(keepends=True)
    assert len(rows) == len(pairs)
    for i, pair in enumerate(pairs):
        code, err, single = _cli(tmp_path, str(i), "constants", {**config, "pairs": [pair]})
        assert (code, err) == (0, "")
        assert list(single.values()) == [header + rows[i]]


@pytest.mark.parametrize("experiment,config,field", [
    ("berezin-profile", {"domain": {"name": "disk"}, "r": 0.0, "N": 16, "symbol": "re(z)",
                         "point": [1.0, 0.0],
                         "t_grid": {"start": 0.5, "stop": 0.9, "count": 3}},
     ("t_grid", "count")),
    ("axler-zheng", {"domain": {"name": "disk"}, "r": 0.0, "N": 8, "symbol": "1-abs2(z)",
                     "strong_points": [[1.0, 0.0]], "tail_k": 3}, ("tail_k",)),
    ("moments", {"domain": {"name": "disk"}, "alphas": [[1], [2]]}, ("alphas", 1, 0)),
])
def test_whole_float_integer_fields_run_as_their_int_twin(tmp_path, experiment,
                                                           config, field):
    # the schema takes 8.0 as an integer, so the run must too
    twin = json.loads(json.dumps(config))
    *keys, last = field
    holder = twin
    for key in keys:
        holder = holder[key]
    holder[last] = float(holder[last])
    want = _cli(tmp_path, "int", experiment, config)
    got = _cli(tmp_path, "float", experiment, twin)
    assert want[0] in (0, 2) and want[2]
    assert "Traceback" not in got[1]
    assert got == want


@pytest.mark.parametrize("config,field", [
    ({"pairs": [[1, 1.0]], "p": 2, "r": 1.0}, "$['p']"),
    ({"pairs": [[1, 1.0]], "r": 1.0}, "$['r']"),
    ({"pairs": [[1.5, 1.0]]}, "$['pairs'][0]"),
    ({"pairs": [[0, 1.0]]}, "$['pairs'][0]"),
    ({"pairs": [[1, 0.0]]}, "$['pairs'][0]"),
])
def test_constants_rejects_stray_keys_and_bad_pairs(tmp_path, capsys, config, field):
    # p and r next to pairs would be ignored; a non-integer p would be truncated
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**config, "samples": 1000}))
    out = tmp_path / "out"
    assert labcli.main(["constants", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: config field {field}")
    assert not out.exists()


DISK = {"name": "disk"}
_AZ = {"domain": DISK, "N": 8, "symbol": "1-abs2(z)", "strong_points": [[1.0, 0.0]]}
_PROFILE = {"domain": DISK, "N": 8, "symbol": "z", "point": [1.0, 0.0]}
_SWEEP = {"domain": DISK, "N": 8, "degree": 1}


@pytest.mark.parametrize("experiment,config,key", [
    ("axler-zheng", {**_AZ, "validate_points": False}, "validate_points"),
    ("axler-zheng", {**_AZ, "snap_points": False}, "snap_points"),
    ("berezin-profile", {**_PROFILE, "snap_points": False}, "snap_points"),
    ("semi-commutator", {**_SWEEP, "margin_pairs": 2}, "margin_pairs"),
    ("semi-commutator", {**_SWEEP, "margin_triples": 4}, "margin_triples"),
    ("semi-commutator", {**_SWEEP, "include_triples": False}, "include_triples"),
    ("axler-zheng", {**_AZ, "thresholds": {"window": 3}}, "window"),
    ("kernel-check", {"domain": DISK, "N": 8, "seed": 1}, "seed"),
    ("inflation-check", {"domain": DISK, "N": 8, "r": 1.0, "p": 1, "seed": 1}, "seed"),
    ("berezin-profile", {**_PROFILE, "seed": 1}, "seed"),
    ("semi-commutator", {**_SWEEP, "seed": 1}, "seed"),
    ("axler-zheng", {**_AZ, "seed": 1}, "seed"),
])
def test_keys_a_run_does_not_read_exit_1_naming_the_key(tmp_path, experiment, config,
                                                        key):
    # switches that only skipped or loosened a check, and seeds of runs
    # that draw no random numbers, are not config keys
    code, err, csvs = _cli(tmp_path, "c", experiment, config)
    assert (code, csvs) == (1, {})
    assert err.startswith("config error:") and f"{key!r} was unexpected" in err


_MASS = {"center": [1.0, 0.0], "radius": 0.3}


@pytest.mark.parametrize("config,message", [
    ({**_PROFILE, "domain": {"name": "ball", "n": 2}, "point": [[1.0, 0.0], [0.0, 0.0]],
      "mass_outside": _MASS},
     "config field $['mass_outside']: not allowed on a 2-dimensional domain"),
    ({**_PROFILE, "N": 300, "mass_outside": {**_MASS, "quad_order": 8}},
     "config field $['mass_outside']['quad_order']: 8 cannot integrate |k_z|^2 "
     "at N=300; need >= 151"),
    ({**_PROFILE, "N": 48, "mass_outside": {**_MASS, "quad_order": 24}},
     "config field $['mass_outside']['quad_order']: 24 cannot integrate |k_z|^2 "
     "at N=48; need >= 25"),
    ({**_PROFILE, "N": 600, "mass_outside": _MASS},       # the default order, 256
     "config field $['mass_outside']['quad_order']: 256 cannot integrate |k_z|^2 "
     "at N=600; need >= 301"),
])
def test_mass_outside_it_cannot_compute_exits_1_before_any_work(tmp_path, monkeypatch,
                                                                config, message):
    def build_space(*args, **kwargs):
        raise AssertionError("the space was built")

    monkeypatch.setattr(labcli, "build_space", build_space)
    code, err, _ = _cli(tmp_path, "c", "berezin-profile", config)
    assert code == 1
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "c").exists()


_BALL2 = {"name": "ball", "n": 2}
_ON_BALL2 = [[1.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("experiment,config,message", [
    ("berezin-profile", {**_PROFILE, "mass_outside": {**_MASS, "center": _ON_BALL2}},
     "config field $['mass_outside']['center']: point [[1.0, 0.0], [0.0, 0.0]] "
     "has 2 coordinates, expected 1"),
    ("berezin-profile", {**_PROFILE, "point": _ON_BALL2},
     "config field $['point']: point [[1.0, 0.0], [0.0, 0.0]] has 2 coordinates, "
     "expected 1"),
    ("axler-zheng", {**_AZ, "domain": _BALL2},
     "config field $['strong_points'][0]: point [1.0, 0.0] has 1 coordinates, "
     "expected 2"),
    ("axler-zheng", {**_AZ, "domain": _BALL2, "strong_points": [_ON_BALL2],
                     "weak_points": [_ON_BALL2, [1.0, 0.0]]},
     "config field $['weak_points'][1]: point [1.0, 0.0] has 1 coordinates, "
     "expected 2"),
])
def test_point_of_the_wrong_dimension_exits_1_naming_its_field_before_any_work(
        tmp_path, monkeypatch, experiment, config, message):
    _assert_refused_before_any_work(tmp_path, monkeypatch, experiment, config, message)


@pytest.mark.parametrize("experiment,config,message", [
    ("berezin-profile", {**_PROFILE, "point": [0.5, 0.0]},
     "config field $['point']: point [0.5, 0.0] is not on the boundary of disk "
     "(rho = -0.75, outside |rho| <= 0.01)"),
    ("berezin-profile", {**_PROFILE, "point": [2.0, 0.0]},
     "config field $['point']: point [2.0, 0.0] is not on the boundary of disk "
     "(rho = 3, outside |rho| <= 0.01)"),
    ("axler-zheng", {**_AZ, "strong_points": [[1.0, 0.0], [0.5, 0.0]]},
     "config field $['strong_points'][1]: point [0.5, 0.0] is not on the boundary "
     "of disk (rho = -0.75, outside |rho| <= 0.01)"),
    ("axler-zheng", {**_AZ, "weak_points": [[0.0, 1.2]]},
     "config field $['weak_points'][0]: point [0.0, 1.2] is not on the boundary "
     "of disk (rho = 0.44, outside |rho| <= 0.01)"),
])
def test_point_off_the_boundary_exits_1_naming_its_field_before_any_work(
        tmp_path, monkeypatch, experiment, config, message):
    _assert_refused_before_any_work(tmp_path, monkeypatch, experiment, config, message)


_ON_EGG2 = {"domain": {"name": "egg", "m": 2}, "r": 1.0, "p": 1}


@pytest.mark.parametrize("experiment,config,message", [
    ("kernel-check", {"domain": DISK, "radius": 1.0},
     "config field $['radius']: the ray grid's far point is not inside disk (rho = 0)"),
    ("kernel-check", {"domain": DISK, "radius": 1.5},
     "config field $['radius']: the ray grid's far point is not inside disk (rho = 1.25)"),
    ("kernel-check", {"domain": _BALL2, "radius": 1.2},
     "config field $['radius']: the ray grid's far point is not inside ball2 (rho = 0.44)"),
    ("inflation-check", {**_ON_EGG2, "radius": 1.2},
     "config field $['radius']: the ray grid's far point is not inside egg2 "
     "(rho = 0.2384)"),
])
def test_ray_grid_outside_the_domain_exits_1_naming_radius_before_any_work(
        tmp_path, monkeypatch, experiment, config, message):
    _assert_refused_before_any_work(tmp_path, monkeypatch, experiment, config, message)


@pytest.mark.parametrize("experiment,config,message", [
    ("berezin-profile", {**_PROFILE, "point": [float("nan"), 0.0]},
     "config field $['point']: point [nan, 0.0] is not on the boundary of disk "
     "(rho = nan, outside |rho| <= 0.01)"),
    ("kernel-check", {"domain": DISK, "radius": float("nan")},
     "config field $['radius']: the ray grid's far point is not inside disk (rho = nan)"),
    ("inflation-check", {**_ON_EGG2, "radius": float("nan")},
     "config field $['radius']: the ray grid's far point is not inside egg2 (rho = nan)"),
])
def test_nan_from_a_python_caller_is_refused_naming_its_field_before_any_work(
        monkeypatch, experiment, config, message):
    # a config file cannot carry NaN (it is no JSON number); a caller of run can
    calls = _spy_on_work(monkeypatch)
    with pytest.raises(SchemaError) as err:
        labcli.run(experiment, config, write=False)
    assert str(err.value) == message
    assert calls == []


def _spy_on_work(monkeypatch):
    """Make every entry point of a run's work record its name and raise;
    returns the list of names called."""
    calls = []

    def spy(name):
        def called(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} was called")
        return called

    for name in ("build_space", "boundary_profile", "axler_zheng_report",
                 "semi_commutator_residual", "product_decomposition_residual"):
        monkeypatch.setattr(labcli, name, spy(name))
    return calls


def _assert_refused_before_any_work(tmp_path, monkeypatch, experiment, config, message):
    calls = _spy_on_work(monkeypatch)
    code, err, _ = _cli(tmp_path, "c", experiment, config)
    assert (code, err) == (1, f"config error: {message}\n")
    assert calls == []
    assert not (tmp_path / "c").exists()


# Python's json reads NaN, Infinity and -Infinity, which RFC 8259 JSON does
# not have, reads 1e309 as inf, and reads integers of any size
_BIG_INT = "1" + "0" * 400
_NOT_NUMBERS = {"NaN": "a JSON number", "Infinity": "a JSON number",
                "-Infinity": "a JSON number", "1e309": "a finite JSON number",
                "-1e309": "a finite JSON number", _BIG_INT: "a finite JSON number",
                "-" + _BIG_INT: "a finite JSON number"}


@pytest.mark.parametrize("constant", list(_NOT_NUMBERS),
                         ids=lambda c: c.replace(_BIG_INT, "1e400-integer"))
@pytest.mark.parametrize("experiment,config", [
    ("axler-zheng", {**_AZ, "t_grid": {"start": 0.5, "stop": "@", "count": 3}}),
    ("berezin-profile", {**_PROFILE, "t_grid": ["@"]}),
    ("axler-zheng", {**_AZ, "thresholds": {"berezin": "@"}}),
])
def test_non_json_number_constants_exit_1_at_parse(tmp_path, capsys, experiment, config,
                                                   constant):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config).replace('"@"', constant))
    code = labcli.main([experiment, "--config", str(path), "--out", str(tmp_path / "c")])
    err = capsys.readouterr().err
    assert (code, err) == (1, f"config parse error in {path}: {constant} is not "
                              f"{_NOT_NUMBERS[constant]}\n")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("symbol", ["1e309*abs2(z)", "1e200*1e200*z", "0*1e309 + z"])
def test_polynomial_symbol_with_a_non_finite_coefficient_exits_1(tmp_path, symbol):
    code, err, _ = _cli(tmp_path, "c", "axler-zheng", {**_AZ, "symbol": symbol})
    assert (code, err) == (1, f"error: symbol {symbol!r} has a non-finite coefficient\n")


@pytest.mark.parametrize("symbol", [
    "(" * 500 + "z" + ")" * 500, "+".join(["z"] * 3000), "-" * 3000 + "z",
    "abs(" * 400 + "z" + ")" * 400, "z²", "dist(1/0)",
], ids=["parentheses", "long-sum", "unary-chain", "nested-calls", "superscript", "zero-div"])
def test_symbol_outside_the_grammar_exits_1_with_one_error_line(tmp_path, symbol):
    code, err, _ = _cli(tmp_path, "c", "berezin-profile", {**_PROFILE, "symbol": symbol})
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_not_in_utf8_exits_1_at_parse(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_bytes(b'{"domain": {"name": "disk\xff"}, "count": 4}')
    assert labcli.main(["classify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config parse error in {path}: 'utf-8' codec can't decode")
    assert "Traceback" not in err


@pytest.mark.parametrize("config,message", [
    ({"domain": DISK, "N": 5, "degree": 2},
     "config field $['N']: 5 leaves no truncation-safe index for the degree-2 "
     "triples; need >= 6"),
    ({"domain": {"name": "ball", "n": 2}, "N": 2, "degree": 1},
     "config field $['N']: 2 leaves no truncation-safe index for the degree-1 "
     "triples; need >= 3"),
])
def test_semi_commutator_n_below_three_degrees_exits_1_naming_n_before_any_work(
        tmp_path, monkeypatch, config, message):
    _assert_refused_before_any_work(tmp_path, monkeypatch, "semi-commutator", config,
                                    message)


def test_semi_commutator_at_n_equal_to_three_degrees_runs(tmp_path):
    code, err, csvs = _cli(tmp_path, "c", "semi-commutator",
                           {"domain": DISK, "N": 6, "degree": 2})
    assert (code, err) == (0, "")
    assert sorted(csvs) == ["semi_commutator_pairs.csv", "semi_commutator_triples.csv"]


def test_emit_writes_native_and_numpy_cells_byte_for_byte(tmp_path):
    report = labcli.Report("moments", {"experiment": "moments"})
    report.tables["mixed"] = labcli.Table(
        ["flag", "x", "k", "none", "name", "y"],
        [[True, np.float64(0.1), np.int64(-3), None, "a,b", 1e-300],
         [False, np.float64("nan"), np.int64(7), None, 'q"x', -0.0],
         [np.bool_(True), np.float32(0.5), 2 ** 70, "", "plain", float("inf")]])
    paths = labcli.emit(report, str(tmp_path))
    assert [os.path.basename(p) for p in paths] == ["moments_mixed.csv",
                                                    "moments_report.json"]
    assert read_files(tmp_path) == {
        "moments_mixed.csv":
            b'flag,x,k,none,name,y\n1,0.1,-3,None,"a,b",1e-300\n'
            b'0,nan,7,None,"q""x",-0.0\n1,0.5,1180591620717411303424,,plain,inf\n',
        "moments_report.json":
            b'{"metadata": {"experiment": "moments"}, "tables": {"mixed": '
            b'{"columns": ["flag", "x", "k", "none", "name", "y"], "rows": '
            b'[[true, 0.1, -3, null, "a,b", 1e-300], [false, NaN, 7, null, '
            b'"q\\"x", -0.0], [true, 0.5, 1180591620717411303424, "", "plain", '
            b'Infinity]]}}, "verdicts": {}, "warnings": []}\n'}


@pytest.mark.parametrize("domain,point", [
    pytest.param({"name": "ball", "n": 3}, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                 id="ball3"),
    # a point on the base's axis classifies as weak; this one is strong
    pytest.param({"name": "disk", "inflate": {"p": 2, "r": 1}},
                 [[0.935414, 0.0], [0.5, 0.0], [0.5, 0.0]], id="disk^(2,1)"),
])
def test_radial_symbol_in_dimension_3_runs_to_a_report(tmp_path, domain, point):
    # sum |z_j|^2 >= 1 near the whole boundary of both domains, so the
    # symbol vanishes there and compact is the right verdict at every N
    config = {"domain": domain, "N": 6,
              "symbol": "max(0, 0.8 - abs2(z1) - abs2(z2) - abs2(z3))",
              "strong_points": [point], "out": str(tmp_path)}
    report = labcli.run("axler-zheng", config)
    assert report.verdicts["verdict"] == "consistent"
    assert report.verdicts["classification"] == "compact"
    assert (tmp_path / "axler_zheng_report.json").exists()


@pytest.mark.parametrize("experiment", ["kernel-check", "axler-zheng"])
def test_seed_flag_is_a_usage_error_where_no_seed_is_read(tmp_path, capsys, experiment):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"domain": DISK, "N": 8}))
    with pytest.raises(SystemExit) as info:
        labcli.main([experiment, "--config", str(cfg), "--seed", "7"])
    assert info.value.code == 1
    assert "error: unrecognized arguments: --seed 7" in capsys.readouterr().err


@pytest.mark.parametrize("experiment,config,field,reason", [
    ("axler-zheng", {**_AZ, "symbol": "this is not parsed",
                     "operator": {"sum": [{"prod": [{"identity": {}}]}]}},
     "symbol", "next to 'operator'"),
    ("berezin-profile", {**_PROFILE, "tolerance": 0.1}, "tolerance",
     "without 'expect_limit'"),
    ("moments", {"domain": DISK, "N": 2, "samples": 1000}, "samples",
     "without 'mc': true"),
    ("moments", {"domain": DISK, "N": 2, "seed": 3}, "seed", "without 'mc': true"),
    ("moments", {"domain": DISK, "N": 2, "mc": False, "samples": 1000}, "samples",
     "without 'mc': true"),
])
def test_keys_another_key_makes_moot_exit_1_naming_the_field(tmp_path, experiment, config,
                                                             field, reason):
    assert _cli(tmp_path, "c", experiment, config) == (
        1, f"config error: config field $[{field!r}]: not allowed {reason}\n", {})


@pytest.mark.parametrize("experiment", ["moments", "kernel-check"])
def test_huge_weight_exponent_exits_1_without_traceback(tmp_path, capsys, experiment):
    # log Gamma(r + 1) overflows a float
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"domain": {"name": "disk"}, "r": 1e306, "N": 4}))
    out = tmp_path / "out"
    assert labcli.main([experiment, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: log Gamma(")
    assert "Traceback" not in err
    assert not out.exists()


def test_runs_never_import_scipy(tmp_path):
    # scipy and jsonschema are test-only dependencies: importing the lab,
    # validating configs and running the experiments that use moments,
    # Gauss-Jacobi rules, log-gamma and the threaded Monte Carlo count must not
    # load them, lazily or otherwise, nor concurrent.futures (with the logging
    # it pulls in)
    runs = [(e, {**c, "out": str(tmp_path / e)}) for e, c in CHEAP_CONFIGS
            if e in ("moments", "kernel-check", "constants", "berezin-profile")]
    assert len(runs) == 4 and "mass_outside" in dict(runs)["berezin-profile"]
    code = ("import json, sys; import berezin_lab, berezin_lab.labcli as cli; "
            "[cli.run(e, c) for e, c in json.loads(sys.argv[1])]; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'jsonschema') or m.startswith('concurrent.futures')))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_moments_with_mc(tmp_path):
    rep = labcli.run("moments", {"domain": {"name": "disk"}, "r": 1.0,
                                 "alphas": [[0], [1]], "mc": True,
                                 "samples": 100_000, "out": str(tmp_path)})
    assert rep.verdicts["pass"]
    assert rep.tables["moments"].rows[0][1] == pytest.approx(np.pi / 2, rel=1e-12)


def test_axler_zheng_point_validation(tmp_path):
    cfg = {"domain": {"name": "smoothed_polydisk"}, "r": 0.0, "N": 8,
           "symbol": "1", "strong_points": [[[0.0, 0.0], [1.0, 0.0]]],
           "out": str(tmp_path)}
    with pytest.raises(Exception):
        labcli.run("axler-zheng", cfg)   # (0, 1) is weak, not strong
