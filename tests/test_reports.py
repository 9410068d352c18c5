import json
import os
import stat

import numpy as np
import pytest

from cmlab import SolverConfig, make_regularizer, reference_eigenpairs, solve_cm
from cmlab.reports import (
    eigs_csv,
    fmt,
    json_text,
    modes_csv,
    sweep_csv,
    trace_csv,
    write_atomic,
)
from cmlab.solver import TRACE_COLUMNS


def test_fmt_roundtrips():
    for x in (0.1, -3.5e-17, 2.0, np.pi, 1e300):
        assert float(fmt(x)) == x


def test_eigs_csv_layout(box_eigs):
    text = eigs_csv(box_eigs)
    lines = text.strip().split("\n")
    assert lines[0] == "index,lambda,residual"
    assert len(lines) == 1 + box_eigs.count
    idx, lam, res = lines[1].split(",")
    assert idx == "1"
    assert float(lam) == box_eigs.eigenvalues[0]
    assert float(res) == box_eigs.residual_norms[0]


def test_modes_csv_metadata_and_values(box_eigs):
    modes = box_eigs.modes.take(2)
    text = modes_csv(modes)
    lines = text.strip().split("\n")
    comments = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# dim=1") for l in comments)
    assert any(l.startswith("# boundary=dirichlet") for l in comments)
    header_idx = len(comments)
    assert lines[header_idx] == "mode_1,mode_2"
    data = np.array([[float(v) for v in l.split(",")] for l in lines[header_idx + 1 :]])
    np.testing.assert_array_equal(data, modes.matrix)


def test_trace_csv_layout():
    text = trace_csv([(1.5, 1e-9), (1.25, 2e-10)])
    lines = text.strip().split("\n")
    assert lines[0] == "iter,objective,ortho_defect"
    assert lines[1].startswith("1,1.5,")
    assert lines[2].startswith("2,1.25,")


def test_trace_csv_writes_the_winners_trace_table(box_H, box_eigs):
    # the header is iter and TRACE_COLUMNS; line i is the winner's row i, each value through fmt
    cfg = SolverConfig(mu=10.0, max_iters=60)
    result = solve_cm(box_H, make_regularizer("l1"), 2, cfg, eigs=box_eigs, trace=True)
    lines = trace_csv(result.trace).split("\n")
    assert lines[0] == ",".join(("iter", *TRACE_COLUMNS))
    assert lines[-1] == "" and len(lines) == result.iterations + 2
    for i, row in enumerate(result.runs[result.winner].trace, start=1):
        assert lines[i] == f"{i}," + ",".join(fmt(v) for v in row)


def test_sweep_csv_header_and_rows(reference_sweep):
    text = sweep_csv(reference_sweep)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "mu,E,E0,energy_gap,nu_1,nu_2,max_eig_dev,procrustes_residual,"
        "ortho_defect,iterations,converged"
    )
    assert len(lines) == 1 + len(reference_sweep["records"])
    first = lines[1].split(",")
    assert float(first[0]) == reference_sweep["records"][0]["mu"]
    assert first[-1] in ("true", "false")


def _sweep_json_text(report, config_echo):
    """The text ``cmlab sweep`` writes to sweep.json."""
    return json_text({**report, "config": config_echo})


def test_sweep_json_structure(reference_sweep, reference_config):
    doc = json.loads(_sweep_json_text(reference_sweep, reference_config))
    assert doc["N"] == 2
    assert doc["verdicts"]["monotone_energy"] in ("pass", "fail", "n/a", "degenerate")
    assert len(doc["records"]) == len(reference_sweep["records"])
    assert doc["config"]["domain"]["points"] == [512]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_sweep_json_is_strict_json(reference_sweep, reference_config):
    # a failed alignment stores a NaN residual; the document must still be valid JSON
    records = reference_sweep["records"]
    first = {**records[0], "procrustes_residual": float("nan"), "max_eig_dev": float("inf")}
    report = {**reference_sweep, "records": [first, *records[1:]]}
    doc = json.loads(_sweep_json_text(report, reference_config), parse_constant=_reject_constant)
    assert doc["records"][0]["procrustes_residual"] is None
    assert doc["records"][0]["max_eig_dev"] is None
    assert doc["records"][1]["procrustes_residual"] == records[1]["procrustes_residual"]


def test_sweep_json_start_records_are_strict_json(reference_sweep, reference_config):
    # a start that diverges reports a non-finite best objective
    records = reference_sweep["records"]
    first = {**records[0], "start_objectives": [1.5, float("inf"), float("nan")]}
    report = {**reference_sweep, "records": [first, *records[1:]]}
    doc = json.loads(_sweep_json_text(report, reference_config), parse_constant=_reject_constant)
    assert doc["records"][0]["start_objectives"] == [1.5, None, None]
    assert doc["records"][0]["start_labels"] == first["start_labels"]
    second = records[1]
    assert doc["records"][1]["start_iterations"] == second["start_iterations"]
    assert doc["records"][1]["start_converged"] == second["start_converged"]
    # sweep.csv stays as it was
    assert "start" not in sweep_csv(report).split("\n")[0]


def test_json_text_of_finite_documents_unchanged():
    doc = {"a": 1.5, "b": [1, 2.25, {"c": -0.0}], "d": (3, "x"), "e": True, "f": None}
    assert json_text(doc) == json.dumps(doc, indent=2) + "\n"
    assert json.loads(json_text({"x": [float("-inf"), 2.0]})) == {"x": [None, 2.0]}


def test_write_atomic(tmp_path):
    target = tmp_path / "sub" / "file.csv"
    old_umask = os.umask(0o022)
    try:
        write_atomic(str(target), "a,b\n1,2\n")
    finally:
        os.umask(old_umask)
    assert target.read_text() == "a,b\n1,2\n"
    # the mode a plain open(path, "w") gives, not mkstemp's 0o600
    assert stat.S_IMODE(target.stat().st_mode) == 0o644
    write_atomic(str(target), "other\n")
    assert target.read_text() == "other\n"
    leftovers = [p for p in os.listdir(tmp_path / "sub") if p.startswith(".tmp_")]
    assert leftovers == []


def test_write_atomic_failed_rename_leaves_nothing(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("cmlab.reports.os.replace", refuse)
    target = tmp_path / "file.csv"
    with pytest.raises(OSError, match="rename refused"):
        write_atomic(str(target), "a,b\n")
    assert not target.exists()
    assert os.listdir(tmp_path) == []
