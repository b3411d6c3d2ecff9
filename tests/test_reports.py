"""Report bytes: ``labcli.emit`` against the stdlib writers it replaced, and
the sha256 of every file that small runs of all eight experiments write.

The property test keeps the earlier writer (``csv.writer`` on each row, one
``json.dumps`` of the whole report) as its oracle, over derandomized reports
whose columns mix every kind of cell a runner may put in a table.
"""

import csv
import hashlib
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from berezin_lab import labcli


def _read(out_dir):
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


_NATIVE = (str, float, int)


def _fmt_cell(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _stdlib_emit(report, out_dir):
    """The writer ``emit`` replaced: csv.writer row by row, then one
    json.dumps of the whole report."""
    os.makedirs(out_dir, exist_ok=True)
    prefix = report.experiment.replace("-", "_")
    tables, written = {}, []
    for name, t in report.tables.items():
        native = all(type(x) in _NATIVE for row in t.rows for x in row)
        rows = t.rows if native else labcli._jsonify(t.rows)
        tables[name] = {"columns": t.columns, "rows": rows}
        path = os.path.join(out_dir, f"{prefix}_{name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(t.columns)
            writer.writerows(rows if native else ([_fmt_cell(x) for x in row] for row in rows))
        written.append(path)
    path = os.path.join(out_dir, f"{prefix}_report.json")
    payload = {
        "metadata": labcli._jsonify(report.metadata),
        "tables": tables,
        "verdicts": labcli._jsonify(report.verdicts),
        "warnings": list(report.warnings),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, check_circular=False) + "\n")
    written.append(path)
    return written


FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-17, 0.1]),
    st.floats())
INTS = st.one_of(st.sampled_from([0, -3, 2 ** 70, -2 ** 70]), st.integers())
STRINGS = st.one_of(
    st.sampled_from(["", ",", '"', "\n", "\r", " lead", "é", "a,b", 'q"x', "None", "z1*zbar2"]),
    st.text(max_size=6))
FLOAT32 = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-17, 0.1]),
                    st.floats(width=32))
NUMPY = st.one_of(FLOAT32.map(np.float32), FLOATS.map(np.float64),
                  INTS.filter(lambda i: -2 ** 63 <= i < 2 ** 63).map(np.int64),
                  st.booleans().map(np.bool_))
ANY = st.one_of(FLOATS, INTS, st.booleans(), st.none(), NUMPY, STRINGS)
# a column is all Python floats, all str, or any mix of cells
COLUMN = st.sampled_from([FLOATS, FLOATS.filter(math.isfinite), STRINGS, ANY])


@st.composite
def tables(draw):
    columns = draw(st.lists(COLUMN, min_size=1, max_size=6))
    rows = draw(st.lists(st.tuples(*columns).map(list), max_size=12))
    # a few tables run past one block of the writer
    repeat = draw(st.sampled_from([1, 1, 1, labcli._EMIT_BLOCK_ROWS // max(len(rows), 1) + 1]))
    return labcli.Table([f"c{j}" for j in range(len(columns))],
                        [list(row) for row in rows * repeat])


@st.composite
def reports(draw):
    names = draw(st.lists(st.text("abcxyz_", min_size=1, max_size=4), min_size=1,
                          max_size=4, unique=True))
    report = labcli.Report("semi-commutator", {"experiment": "semi-commutator",
                                               "x": draw(NUMPY), "y": draw(ANY)})
    report.tables = {name: draw(tables()) for name in names}
    report.verdicts = {"pass": draw(st.booleans().map(np.bool_)), "worst": draw(ANY)}
    report.warnings = draw(st.lists(STRINGS, max_size=2))
    return report


def _one_column_of_empty_strings():
    # csv.writer quotes a row's only field when it is empty
    report = labcli.Report("moments", {})
    report.tables["z"] = labcli.Table(["c0"], [[""], ["x"], [""], [None]])
    report.tables["a"] = labcli.Table(["c0", "c1"], [["", ""], ["", 1.5]])
    return report


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(reports(), st.sampled_from([1, 2, 5, labcli._EMIT_BLOCK_ROWS]))
@example(_one_column_of_empty_strings(), 1)
@example(_one_column_of_empty_strings(), labcli._EMIT_BLOCK_ROWS)
def test_emit_writes_the_bytes_of_the_stdlib_writers(report, block_rows):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(labcli, "_EMIT_BLOCK_ROWS", block_rows):
        want = _stdlib_emit(report, os.path.join(tmp, "want"))
        got = labcli.emit(report, os.path.join(tmp, "got"))
        assert [os.path.basename(p) for p in got] == [os.path.basename(p) for p in want]
        assert _read(os.path.join(tmp, "got")) == _read(os.path.join(tmp, "want"))


def test_emit_refuses_a_row_that_does_not_fit_its_columns(tmp_path):
    report = labcli.Report("moments", {})
    report.tables["t"] = labcli.Table(["a", "b"], [[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError, match="table 't': every row must have one cell per column"):
        labcli.emit(report, str(tmp_path))


DISK = {"name": "disk"}
EGG = {"name": "egg", "m": 2}
# sha256 of every file of small runs of all eight experiments, recorded with
# the row-by-row csv.writer and whole-report json.dumps writer
_REPORT_DIGESTS = {
    "constants": ("constants", {"pairs": [[1, 1.0], [2, 0.5], [2, 2.0]], "samples": 2000,
                                "seed": 42}, {
        "constants_constants.csv":
            "d4a5afeecbe458f63adbaf17801a3b8221f39802f05127bb933a2b9bd5378a64",
        "constants_report.json":
            "7eb419cfb979bec389fdea77aee3cabf0f8297ade9bdcd2e7ce4b6162f40bee8"}),
    "kernel-check": ("kernel-check", {"domain": DISK, "r": 1.0, "N": 16, "grid_points": 4}, {
        "kernel_check_report.json":
            "ab413f1d29b88fb9ab598ee4b8c237e881112405ad688e9b0a9b118177782e5d",
        "kernel_check_residuals.csv":
            "5742d761d2407f74bf63926e441140ed444f0d7caeb608e9c496f0da6a85248a"}),
    "inflation-check": ("inflation-check", {"domain": EGG, "r": 0.5, "p": 1, "N": 6,
                                            "grid_points": 3}, {
        "inflation_check_report.json":
            "709600ae4c59e2424b44b3288f6b47d320f8550a627d88b0a2e431c6a8c46a39",
        "inflation_check_residuals.csv":
            "ba1a03d5900148fcc3f68345764aa0114d444114c031c0a642b9309f8fb71758"}),
    "moments": ("moments", {"domain": EGG, "r": 0.5, "N": 3}, {
        "moments_moments.csv":
            "3872f641ed377e011f0c777d2b838ae16894ee066c47f26e988a191b5d8ecdc1",
        "moments_report.json":
            "8ce71749d671c685580ca913c4fcd0188debecc3928d8b538aafe4c125afad8c"}),
    "moments-mc": ("moments", {"domain": DISK, "r": 1.0, "alphas": [[0], [3]], "mc": True,
                               "samples": 2000}, {
        "moments_moments.csv":
            "3512fa3ccc7527c68af6eddc06082c8c17eb29decacc80fa23cb1ed53c660508",
        "moments_report.json":
            "a5bf73b19d4c7cfff9959c543ce0a2067791fe656873a18c40fbae4ee671af1f"}),
    "berezin-profile": ("berezin-profile", {
        "domain": DISK, "N": 24, "symbol": "re(z)", "point": [1.0, 0.0],
        "t_grid": [0.5, 0.9, 0.999], "expect_limit": 1.0,
        "mass_outside": {"center": [1.0, 0.0], "radius": 0.4, "quad_order": 16}}, {
        "berezin_profile_mass_outside.csv":
            "16db50a7abbf38d5248ef1e52f15af8e029b5f79867c56324f96995b83d0c6ec",
        "berezin_profile_profile.csv":
            "664fae980d414d47a5fc08ab73b68f5b37ece9ce11a131901e7359e9b016dd3b",
        "berezin_profile_report.json":
            "e41be776604e82e33e3c85bfe6b4097e1f81a5378929bfe321365c426d0f514e"}),
    "semi-commutator": ("semi-commutator", {"domain": DISK, "N": 6, "degree": 2}, {
        "semi_commutator_pairs.csv":
            "813f98b930a6c5fb5f204274bc22e129054d5d34aa1bbbf03746dfeb4d47f386",
        "semi_commutator_report.json":
            "a875db0d0b8de53ca0bfb106f8045744c582014eac75770913ddb84b3909460b",
        "semi_commutator_triples.csv":
            "8675ef379a24e95489fda7cbb61b20db0142ef3869a1caca32f943276e2e4d98"}),
    "axler-zheng": ("axler-zheng", {"domain": DISK, "N": 8, "symbol": "1-abs2(z)",
                                    "strong_points": [[1.0, 0.0], [0.0, 1.0]],
                                    "tail_k": 2}, {
        "axler_zheng_points.csv":
            "b2988e1469b05b1a015ddd228963905450b4198a3a9e112a200d1b9b3971a465",
        "axler_zheng_report.json":
            "7350287dd5afb9ab134c2c2af649a7cc6e26bf09ba74f7ec8de6222604e922f4",
        "axler_zheng_strong_profiles.csv":
            "e256eadf64e4fad16c4afea5f970b7f7311ef22dc927789aba9b2a1925e51358",
        "axler_zheng_tails.csv":
            "68d0839866471da9b0bbe0ba1f9c3ff048bdd8c05fe11b8243b573efb0757a03",
        "axler_zheng_weak_profiles.csv":
            "b263055e1210aedff3153d19bd9059e507143b59dd5fd9c4cfe9c01d7cc78bca"}),
    "classify": ("classify", {"domain": EGG, "count": 6}, {
        "classify_points.csv":
            "cf980beed41574249c0dd6613406b13e20af6bea3afd07326c2c2e0a162db8a6",
        "classify_report.json":
            "e6027f047a5f58a3ddaa6d81edb598a084ca22c4b6e603d26e1215482a8c2f7a"}),
}


@pytest.mark.parametrize("label", sorted(_REPORT_DIGESTS))
def test_every_experiment_writes_its_pinned_report_bytes(tmp_path, label):
    experiment, config, digests = _REPORT_DIGESTS[label]
    labcli.run(experiment, {**config, "out": str(tmp_path)})
    assert {name: hashlib.sha256(blob).hexdigest()
            for name, blob in _read(tmp_path).items()} == digests
