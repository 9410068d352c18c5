"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The reference sweep fixture runs the shipped configs/reference_sweep.json
experiment in process; criteria 2 through 6 read its records.
"""

import json
import time

import numpy as np
import pytest

from cmlab import (
    FreeParticle,
    Grid,
    HamiltonianOperator,
    SolverConfig,
    column_mass_suite,
    gap_bound_suite,
    make_regularizer,
    mu_sweep,
    reference_eigenpairs,
)
from cmlab.cli import main
from conftest import config_path, l1_total


def _verdict(num: int, ok: bool, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"acceptance criterion {num} failed: {name}"


def test_criterion_01_eigensolver_oracle():
    t0 = time.perf_counter()
    H = HamiltonianOperator(Grid(1, (1.0,), (512,), "dirichlet"), FreeParticle())
    eigs = reference_eigenpairs(H, 3)
    elapsed = time.perf_counter() - t0
    analytic = np.array([np.pi**2 / 2, 2 * np.pi**2, 9 * np.pi**2 / 2])
    ok = bool(np.all(np.abs(eigs.eigenvalues - analytic) <= 0.005 * analytic) and elapsed < 10.0)
    _verdict(1, ok, f"box eigenvalues within 0.5% in {elapsed:.2f}s")


def test_criterion_02_energy_floor(reference_sweep):
    ok = all(r.energy_gap >= -1e-8 for r in reference_sweep.records)
    _verdict(2, ok, "E(mu) - E0 >= -1e-8 at every mu")


def test_criterion_03_l1_cap(reference_sweep, box_eigs):
    cap_total = l1_total(box_eigs.modes.take(2))
    ok = all(r.energy_gap <= cap_total / r.mu + 1e-8 for r in reference_sweep.records)
    _verdict(3, ok, "E(mu) - E0 <= (1/mu) sum ||phi_i||_1 + 1e-8 at every mu")


def test_criterion_04_energy_convergence(reference_sweep):
    gaps = [r.energy_gap for r in reference_sweep.records]
    monotone = all(b <= a + 1e-6 for a, b in zip(gaps, gaps[1:]))
    ratio = gaps[-1] / gaps[0]
    ok = monotone and ratio <= 0.2
    _verdict(4, ok, f"energy gap nonincreasing, gap(160)/gap(5) = {ratio:.2e} <= 0.2")


def test_criterion_05_eigenvalue_convergence(reference_sweep):
    recs = reference_sweep.records
    lam_n = reference_sweep.eigenvalues[reference_sweep.N - 1]
    trace_ok = all(abs(sum(r.nu) - r.E) <= 1e-10 for r in recs)
    ok = (
        recs[-1].max_eig_dev <= 0.05 * lam_n
        and recs[-1].max_eig_dev < recs[0].max_eig_dev
        and trace_ok
    )
    _verdict(5, ok, f"max_eig_dev(160) = {recs[-1].max_eig_dev:.2e}, trace identity <= 1e-10")


def test_criterion_06_l2_convergence(reference_sweep):
    recs = reference_sweep.records
    ok = recs[-1].procrustes_residual <= 0.15 and recs[-1].procrustes_residual < recs[0].procrustes_residual
    _verdict(6, ok, f"procrustes_residual(160) = {recs[-1].procrustes_residual:.2e} <= 0.15")


def test_criterion_07_column_mass_property():
    t0 = time.perf_counter()
    worst, violations = column_mass_suite(cases=1000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = not violations and worst <= 1.0 + 1e-10 and elapsed < 5.0
    _verdict(7, ok, f"1000 draws, max column mass = {worst:.12f} in {elapsed:.2f}s")


def test_criterion_08_gap_lower_bound(box_H):
    max_slack, violations = gap_bound_suite(box_H, 2, cases=100, seed=0)
    ok = not violations and max_slack <= 1e-8
    _verdict(8, ok, f"100 frames in span of first 4N, max slack = {max_slack:.2e}")


def test_criterion_09_degenerate_gap_guard(tmp_path, capsys):
    with open(config_path("periodic_degenerate.json")) as fh:
        doc = json.load(fh)
    doc["output"]["dir"] = str(tmp_path / "deg")
    cfg_path = tmp_path / "periodic.json"
    cfg_path.write_text(json.dumps(doc))
    code = main(["sweep", str(cfg_path)])
    stdout = capsys.readouterr().out
    rows = (tmp_path / "deg" / "sweep.csv").read_text().strip().split("\n")
    report = json.loads((tmp_path / "deg" / "sweep.json").read_text())
    ok = (
        code == 0
        and "DEGENERATE" in stdout
        and len(rows) == 1 + len(doc["problem"]["mu_schedule"])
        and set(report["verdicts"].values()) == {"degenerate"}
    )
    _verdict(9, ok, "periodic N=2 flagged degenerate, verdicts suppressed, sweep completed")


def test_criterion_10_unregularized_identity(box_H):
    cfg = SolverConfig(mu=5.0, max_iters=400)
    report = mu_sweep(box_H, make_regularizer("zero"), 2, (5.0, 10.0, 20.0, 40.0, 80.0, 160.0), cfg)
    ok = all(
        abs(r.energy_gap) <= 1e-8 and r.procrustes_residual <= 1e-6 for r in report.records
    )
    _verdict(10, ok, "zero-regularizer sweep reproduces the eigenfunctions")


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    with open(config_path("reference_sweep.json")) as fh:
        doc = json.load(fh)
    outputs = []
    for tag in ("first", "second"):
        doc["output"]["dir"] = str(tmp_path / tag)
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["sweep", str(cfg_path)]) == 0
        outputs.append((tmp_path / tag / "sweep.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1]
    _verdict(11, ok, f"reference sweep rerun byte-identical ({elapsed:.1f}s for both runs)")
