import csv
import hashlib
import json
import os

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


def test_profile_row_count_matches_grid(tmp_path):
    config = {"domain": {"name": "disk"}, "r": 0.0, "N": 32, "symbol": "1",
              "point": [1.0, 0.0], "t_grid": [0.1 * k for k in range(1, 21)],
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


def test_constants_single_pair_form(tmp_path):
    rep = labcli.run("constants", {"p": 1, "r": 1.0, "samples": 50_000,
                                   "out": str(tmp_path)})
    row = rep.tables["constants"].rows[0]
    assert row[2] == pytest.approx(np.pi, rel=1e-12)
    assert rep.verdicts["pass"]
    with pytest.raises(SchemaError):
        labcli.run("constants", {"p": 1})


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
