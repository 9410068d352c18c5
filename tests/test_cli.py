import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab import consistency, make_regularizer, objective, reference_eigenpairs, reports
from cmlab.cli import ConfigError, build_operator, load_config, main, parse_config
from conftest import CONFIG_DIR, config_path, l1_total

SHIPPED_CONFIGS = (
    "reference_sweep.json",
    "periodic_degenerate.json",
    "multiwell_solve.json",
    "box_eig.json",
)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def box_config(tmp_path, out_dir, **problem):
    doc = {
        "domain": {"dim": 1, "extent": [1.0], "points": [128], "boundary": "dirichlet"},
        "potential": {"kind": "free"},
        "problem": {"N": 2, "regularizer": "l1", **problem},
        "solver": {"max_iters": 400, "tol": 1e-7, "starts": ["eigen", "random:5"]},
        "output": {"dir": out_dir, "formats": ["csv", "json"]},
        "seed": 3,
    }
    return doc


# --- config parsing -----------------------------------------------------------


def test_parse_rejects_missing_block(tmp_path, capsys):
    doc = box_config(tmp_path, str(tmp_path / "out"), mu=10.0)
    del doc["potential"]
    path = write_config(tmp_path, doc)
    assert main(["eig", path]) == 2
    assert "potential" in capsys.readouterr().err


def test_parse_rejects_unknown_keys(tmp_path, capsys):
    doc = box_config(tmp_path, str(tmp_path / "out"), mu=10.0)
    doc["domain"]["typo_key"] = 1
    path = write_config(tmp_path, doc)
    assert main(["eig", path]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_parse_validates_schedule(tmp_path, capsys):
    doc = box_config(tmp_path, str(tmp_path / "out"), mu_schedule=[5.0, 5.0])
    path = write_config(tmp_path, doc)
    assert main(["sweep", path]) == 2
    assert "ascending" in capsys.readouterr().err


def test_config_round_trip(reference_config):
    assert parse_config(json.loads(json.dumps(reference_config))) == reference_config


# configs that exercise the defaults, the key order and a relative tabulated path
ECHO_CONFIGS = {
    "harmonic_centered": {
        "domain": {"dim": 2, "extent": [2.0, 1], "points": [12, 10], "boundary": "periodic"},
        "potential": {"center": [1, 0.5], "omega": 3, "kind": "harmonic"},
        "problem": {"regularizer": "zero", "mu": 40, "N": 3},
        "solver": {"starts": ["random:4", "eigen"], "tol": 1e-9, "penalty": 2},
        "output": {"trace": True, "dir": "out/h"},
        "seed": 7,
    },
    "harmonic_default_center": {
        "domain": {"dim": 1, "extent": [3], "points": [64]},
        "potential": {"kind": "harmonic"},
        "problem": {"N": 2, "mu": None, "mu_schedule": [1, 2.5]},
    },
    "tabulated_relative": {
        "seed": 5,
        "output": {"formats": ["json"]},
        "solver": {"max_iters": 10, "penalty": None, "starts": None},
        "problem": {"mu": 8, "N": 1},
        "potential": {"path": "pots/v.csv", "kind": "tabulated"},
        "domain": {"points": [16], "extent": [1.0], "dim": 1},
    },
}

# the config echo of each config, byte for byte; {dir} stands for the config's directory
GOLDEN_ECHOES = {
    "box_eig.json": """\
{
  "domain": {
    "dim": 1,
    "extent": [
      1.0
    ],
    "points": [
      512
    ],
    "boundary": "dirichlet"
  },
  "potential": {
    "kind": "free"
  },
  "problem": {
    "N": 3,
    "regularizer": "l1",
    "mu": 100.0
  },
  "solver": {
    "penalty": null,
    "max_iters": 3000,
    "tol": 1e-07,
    "starts": [
      "eigen",
      "random:1",
      "random:2"
    ]
  },
  "output": {
    "dir": "out/box_eig",
    "formats": [
      "csv",
      "json"
    ],
    "trace": false
  },
  "seed": 0
}
""",
    "multiwell_solve.json": """\
{
  "domain": {
    "dim": 1,
    "extent": [
      40.0
    ],
    "points": [
      400
    ],
    "boundary": "dirichlet"
  },
  "potential": {
    "kind": "multiwell",
    "centers": [
      [
        8.0
      ],
      [
        16.0
      ],
      [
        24.0
      ],
      [
        32.0
      ]
    ],
    "depth": 3.0,
    "width": 1.5
  },
  "problem": {
    "N": 4,
    "regularizer": "l1",
    "mu": 10.0
  },
  "solver": {
    "penalty": null,
    "max_iters": 2000,
    "tol": 1e-07,
    "starts": [
      "eigen",
      "random:31",
      "random:32"
    ]
  },
  "output": {
    "dir": "out/multiwell_solve",
    "formats": [
      "csv",
      "json"
    ],
    "trace": true
  },
  "seed": 30
}
""",
    "periodic_degenerate.json": """\
{
  "domain": {
    "dim": 1,
    "extent": [
      1.0
    ],
    "points": [
      256
    ],
    "boundary": "periodic"
  },
  "potential": {
    "kind": "free"
  },
  "problem": {
    "N": 2,
    "regularizer": "l1",
    "mu_schedule": [
      5.0,
      20.0,
      80.0
    ]
  },
  "solver": {
    "penalty": null,
    "max_iters": 800,
    "tol": 1e-07,
    "starts": [
      "eigen",
      "random:21"
    ]
  },
  "output": {
    "dir": "out/periodic_degenerate",
    "formats": [
      "csv",
      "json"
    ],
    "trace": false
  },
  "seed": 20
}
""",
    "reference_sweep.json": """\
{
  "domain": {
    "dim": 1,
    "extent": [
      1.0
    ],
    "points": [
      512
    ],
    "boundary": "dirichlet"
  },
  "potential": {
    "kind": "free"
  },
  "problem": {
    "N": 2,
    "regularizer": "l1",
    "mu_schedule": [
      5.0,
      10.0,
      20.0,
      40.0,
      80.0,
      160.0
    ]
  },
  "solver": {
    "penalty": null,
    "max_iters": 1500,
    "tol": 1e-07,
    "starts": [
      "eigen",
      "random:11",
      "random:12"
    ]
  },
  "output": {
    "dir": "out/reference_sweep",
    "formats": [
      "csv",
      "json"
    ],
    "trace": false
  },
  "seed": 10
}
""",
    "harmonic_centered": """\
{
  "domain": {
    "dim": 2,
    "extent": [
      2.0,
      1.0
    ],
    "points": [
      12,
      10
    ],
    "boundary": "periodic"
  },
  "potential": {
    "kind": "harmonic",
    "omega": 3.0,
    "center": [
      1.0,
      0.5
    ]
  },
  "problem": {
    "N": 3,
    "regularizer": "zero",
    "mu": 40.0
  },
  "solver": {
    "penalty": 2.0,
    "max_iters": 3000,
    "tol": 1e-09,
    "starts": [
      "random:4",
      "eigen"
    ]
  },
  "output": {
    "dir": "out/h",
    "formats": [
      "csv",
      "json"
    ],
    "trace": true
  },
  "seed": 7
}
""",
    "harmonic_default_center": """\
{
  "domain": {
    "dim": 1,
    "extent": [
      3.0
    ],
    "points": [
      64
    ],
    "boundary": "dirichlet"
  },
  "potential": {
    "kind": "harmonic",
    "omega": 1.0
  },
  "problem": {
    "N": 2,
    "regularizer": "l1",
    "mu_schedule": [
      1.0,
      2.5
    ]
  },
  "solver": {
    "penalty": null,
    "max_iters": 3000,
    "tol": 1e-07,
    "starts": [
      "eigen",
      "random:1",
      "random:2"
    ]
  },
  "output": {
    "dir": "out",
    "formats": [
      "csv",
      "json"
    ],
    "trace": false
  },
  "seed": 0
}
""",
    "tabulated_relative": """\
{
  "domain": {
    "dim": 1,
    "extent": [
      1.0
    ],
    "points": [
      16
    ],
    "boundary": "dirichlet"
  },
  "potential": {
    "kind": "tabulated",
    "path": "{dir}/pots/v.csv"
  },
  "problem": {
    "N": 1,
    "regularizer": "l1",
    "mu": 8.0
  },
  "solver": {
    "penalty": null,
    "max_iters": 10,
    "tol": 1e-07,
    "starts": [
      "eigen",
      "random:6",
      "random:7"
    ]
  },
  "output": {
    "dir": "out",
    "formats": [
      "json"
    ],
    "trace": false
  },
  "seed": 5
}
""",
}

@pytest.mark.parametrize("name", sorted(GOLDEN_ECHOES))
def test_config_echo_bytes(name, tmp_path):
    # the echo written into solve.json and sweep.json, byte for byte
    if name in ECHO_CONFIGS:
        path = write_config(tmp_path, ECHO_CONFIGS[name])
    else:
        path = config_path(name)
    expected = GOLDEN_ECHOES[name].replace("{dir}", str(tmp_path))
    assert reports.json_text(load_config(path)) == expected


def test_bare_number_center_is_echoed_as_a_list(tmp_path):
    doc = {**ECHO_CONFIGS["harmonic_default_center"], "potential": {"kind": "harmonic", "center": 0.25}}
    cfg = load_config(write_config(tmp_path, doc))
    assert cfg["potential"] == {"kind": "harmonic", "omega": 1.0, "center": [0.25]}


def test_missing_file_is_config_error(tmp_path, capsys):
    assert main(["eig", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000, b"{", b"[]"],
    ids=["not_utf8", "nested_past_recursion_limit", "unclosed_object", "root_not_object"],
)
def test_unparsable_file_is_config_error(content, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert main(["eig", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(path) in err.splitlines()[0]
    assert "Traceback" not in err


# --- eig ------------------------------------------------------------------------


def test_cmd_eig_box_oracle(tmp_path, capsys):
    out = tmp_path / "out"
    doc = {
        "domain": {"dim": 1, "extent": [1.0], "points": [512], "boundary": "dirichlet"},
        "potential": {"kind": "free"},
        "problem": {"N": 3, "regularizer": "l1", "mu": 100.0},
        "output": {"dir": str(out), "formats": ["csv"]},
        "seed": 0,
    }
    path = write_config(tmp_path, doc)
    assert main(["eig", path]) == 0
    stdout = capsys.readouterr().out
    assert "lambda_1" in stdout and "spectral_gap" in stdout
    assert "GAP_DEGENERATE" not in stdout
    rows = (out / "eigs.csv").read_text().strip().split("\n")[1:]
    lams = np.array([float(r.split(",")[1]) for r in rows])
    analytic = np.array([np.pi**2 / 2, 2 * np.pi**2, 9 * np.pi**2 / 2, 8 * np.pi**2])
    np.testing.assert_allclose(lams, analytic, rtol=5e-3)
    assert (out / "eigenmodes.csv").exists()


def test_cmd_eig_unwritable_output_dir_is_usage_error(tmp_path, capsys):
    # a directory under a regular file cannot be made: exit 2 after the eigensolve, naming the key
    blocker = tmp_path / "file"
    blocker.write_text("")
    with open(config_path("box_eig.json")) as fh:
        doc = json.load(fh)
    doc["output"]["dir"] = str(blocker / "sub")
    assert main(["eig", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "output.dir" in err.splitlines()[0]
    assert "Traceback" not in err


def test_cmd_eig_degenerate_warning(tmp_path, capsys):
    doc = {
        "domain": {"dim": 1, "extent": [1.0], "points": [128], "boundary": "periodic"},
        "potential": {"kind": "free"},
        "problem": {"N": 2, "regularizer": "l1", "mu": 10.0},
        "output": {"dir": str(tmp_path / "out"), "formats": ["csv"]},
    }
    path = write_config(tmp_path, doc)
    assert main(["eig", path]) == 0
    assert "GAP_DEGENERATE" in capsys.readouterr().out


# --- solve ------------------------------------------------------------------------


def test_cmd_solve_zero_matches_eigen_energy(tmp_path, capsys):
    out = tmp_path / "out"
    doc = box_config(tmp_path, str(out), mu=10.0)
    doc["problem"]["regularizer"] = "zero"
    path = write_config(tmp_path, doc)
    assert main(["solve", path]) == 0
    with open(out / "solve.json") as fh:
        report = json.load(fh)
    h = 1.0 / 129
    discrete = [(1 - np.cos(k * np.pi * h)) / h**2 for k in (1, 2)]
    assert report["objective"] == pytest.approx(sum(discrete), abs=1e-8)
    assert report["converged"] is True


def test_cmd_solve_l1_bracket(tmp_path):
    out = tmp_path / "out"
    doc = box_config(tmp_path, str(out), mu=100.0)
    path = write_config(tmp_path, doc)
    assert main(["solve", path]) == 0
    with open(out / "solve.json") as fh:
        report = json.load(fh)
    from cmlab import Grid, HamiltonianOperator, reference_eigenpairs

    eigs = reference_eigenpairs(HamiltonianOperator(Grid(1, (1.0,), (128,))), 2)
    e0 = eigs.eigenvalues[:2].sum()
    cap = l1_total(eigs.modes) / 100.0
    assert e0 - 1e-8 <= report["objective"] <= e0 + cap + 1e-8
    assert report["ortho_defect"] <= 1e-8
    assert len(report["localization"]) == 2


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# the per-start keys of a solve, in the order both solve.json and each
# sweep.json record list them
START_KEYS = [
    "iterations",
    "converged",
    "winner_start",
    "start_labels",
    "start_objectives",
    "start_iterations",
    "start_converged",
    "start_restarts",
    "start_turns",
]


def test_cmd_solve_json_records_each_start(tmp_path):
    # both starts converge; the random start wins after one restart from its
    # re-polished best frame
    out = tmp_path / "out"
    doc = box_config(tmp_path, str(out), mu=10.0)
    path = write_config(tmp_path, doc)
    assert main(["solve", path]) == 0
    report = json.loads((out / "solve.json").read_text(), parse_constant=_reject_constant)
    assert report["start_labels"] == ["eigen", "random:5"]
    assert report["start_converged"] == [True, True]
    assert report["start_iterations"] == [39, 177]
    assert (report["winner_start"], report["iterations"]) == ("random:5", 177)
    assert report["start_restarts"] == [0, 1]
    assert len(report["start_objectives"]) == 2
    assert list(report) == [
        "objective",
        "energy",
        "ortho_defect",
        "localization",
        *START_KEYS,
        "config",
    ]


def test_cmd_solve_requires_mu(tmp_path, capsys):
    doc = box_config(tmp_path, str(tmp_path / "out"), mu_schedule=[5.0, 10.0])
    path = write_config(tmp_path, doc)
    assert main(["solve", path]) == 2
    assert "problem.mu" in capsys.readouterr().err


def test_cmd_solve_indefinite_penalty_is_usage_error(tmp_path, capsys):
    with open(config_path("multiwell_solve.json")) as fh:
        doc = json.load(fh)
    doc["solver"].update(penalty=0.1, max_iters=5)
    doc["output"]["dir"] = str(tmp_path / "out")
    path = write_config(tmp_path, doc)
    assert main(["solve", path]) == 2
    assert "penalty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_solve_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    doc = box_config(tmp_path, str(out_a), mu=20.0)
    doc["output"]["trace"] = True
    path = write_config(tmp_path, doc)
    assert main(["solve", path]) == 0
    doc["output"]["dir"] = str(out_b)
    path = write_config(tmp_path, doc)
    assert main(["solve", path]) == 0
    assert (out_a / "modes.csv").read_bytes() == (out_b / "modes.csv").read_bytes()
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


def test_cmd_solve_mu_override_changes_result(tmp_path):
    out = tmp_path / "out"
    doc = box_config(tmp_path, str(out), mu=10.0)
    path = write_config(tmp_path, doc)
    assert main(["solve", path, "--mu", "80"]) == 0
    with open(out / "solve.json") as fh:
        report = json.load(fh)
    assert report["config"]["problem"]["mu"] == 80.0


def test_cmd_solve_huge_iteration_cap(tmp_path, capsys):
    # the trace buffers follow the iterations run, not the cap
    doc = box_config(tmp_path, str(tmp_path / "out"), mu=10.0)
    doc["solver"].update(max_iters=10**12, starts=["eigen"])
    assert main(["solve", write_config(tmp_path, doc)]) == 0
    assert "converged = true" in capsys.readouterr().out


# N equal to the node count: the accepted edge of the tiny-grid checks, where
# the frame spans the whole space and only the L1 term tells frames apart
FULL_SPAN_BOXES = {
    "dirichlet_1d": ({"dim": 1, "extent": [1.0], "points": [2], "boundary": "dirichlet"}, 2),
    "periodic_1d": ({"dim": 1, "extent": [1.0], "points": [2], "boundary": "periodic"}, 2),
    "dirichlet_2d": (
        {"dim": 2, "extent": [1.0, 1.0], "points": [2, 2], "boundary": "dirichlet"},
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(FULL_SPAN_BOXES))
def test_cmd_solve_n_equal_to_node_count(name, tmp_path):
    domain, N = FULL_SPAN_BOXES[name]
    out = tmp_path / "out"
    doc = {
        "domain": domain,
        "potential": {"kind": "free"},
        "problem": {"N": N, "regularizer": "l1", "mu": 10.0},
        "solver": {"max_iters": 200, "starts": ["eigen", "random:1"]},
        "output": {"dir": str(out), "formats": ["json"]},
    }
    assert main(["solve", write_config(tmp_path, doc)]) == 0
    report = json.loads((out / "solve.json").read_text(), parse_constant=_reject_constant)
    assert report["ortho_defect"] <= 1e-8
    H = build_operator(parse_config(doc))
    eigen = reference_eigenpairs(H, N).modes
    bound = objective(H, make_regularizer("l1"), 10.0, eigen)
    # slack for rounding only: the report and ``objective`` sum in different orders
    assert report["objective"] <= bound + 1e-12 * abs(bound)


# --- sweep ------------------------------------------------------------------------


def test_cmd_sweep_small_box(tmp_path, capsys):
    out = tmp_path / "out"
    doc = box_config(tmp_path, str(out), mu_schedule=[5.0, 20.0])
    path = write_config(tmp_path, doc)
    assert main(["sweep", path]) == 0
    stdout = capsys.readouterr().out
    assert "MONOTONE_ENERGY:" in stdout
    assert (out / "sweep.csv").exists()
    with open(out / "sweep.json") as fh:
        doc_out = json.load(fh)
    assert [r["mu"] for r in doc_out["records"]] == [5.0, 20.0]
    # echoed config reparses to the same experiment
    cfg = load_config(path)
    assert parse_config(doc_out["config"]) == cfg


def test_cmd_sweep_json_records_each_start(tmp_path):
    out = tmp_path / "out"
    doc = box_config(tmp_path, str(out), mu_schedule=[5.0, 20.0])
    assert main(["sweep", write_config(tmp_path, doc)]) == 0
    report = json.loads((out / "sweep.json").read_text(), parse_constant=_reject_constant)
    first, second = report["records"]
    assert first["start_labels"] == ["eigen", "random:5"]
    assert second["start_labels"] == ["eigen", "random:5", "warm"]
    for record in (first, second):
        count = len(record["start_labels"])
        assert len(record["start_objectives"]) == len(record["start_iterations"]) == count
        assert record["start_converged"][0] is True  # the eigen start
        assert record["iterations"] in record["start_iterations"]
        assert list(record) == [
            "mu",
            "E",
            "E0",
            "energy_gap",
            "nu",
            "max_eig_dev",
            "procrustes_residual",
            "ortho_defect",
            "limit_distance",
            "limit_order",
            *START_KEYS,
        ]
        assert record["limit_distance"] > 0.0
    # the order of the winners' approach to the limit frame, from one mu to the next
    assert first["limit_order"] is None
    assert second["limit_order"] == math.log(second["limit_distance"] / first["limit_distance"]) / math.log(4.0)
    assert list(report) == [
        "N",
        "mu_schedule",
        "eigenvalues",
        "E0",
        "spectral_gap",
        "gap_threshold",
        "degenerate",
        "verdicts",
        "records",
        "config",
    ]
    header = (out / "sweep.csv").read_text().split("\n")[0]
    assert "start" not in header and "limit" not in header


def test_cmd_sweep_validates_every_mu_before_solving(tmp_path, capsys, monkeypatch):
    # the last mu makes the shrinkage step underflow: no mu may be solved first
    from cmlab import solver

    entered = []
    for name in ("_lockstep", "_build_shifted_solver", "rotation_polish"):
        monkeypatch.setattr(solver, name, lambda *args, _name=name: entered.append(_name))
    doc = box_config(tmp_path, str(tmp_path / "out"), mu_schedule=[5.0, 1e308])
    assert main(["sweep", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "mu * penalty" in err
    assert entered == []
    assert not (tmp_path / "out").exists()


def test_cmd_sweep_failed_alignment_is_a_nan_residual(tmp_path, capsys, monkeypatch):
    # no rotation aligns the second mu's frame: its residual is NaN, written
    # as null in sweep.json and nan in sweep.csv, and L2 convergence fails
    from cmlab import consistency

    align, calls = consistency.procrustes_align, []

    def align_but_the_second(F, Phi):
        calls.append(F)
        if len(calls) == 2:
            raise consistency.AlignmentError("frames span orthogonal subspaces")
        return align(F, Phi)

    monkeypatch.setattr(consistency, "procrustes_align", align_but_the_second)
    out = tmp_path / "out"
    doc = box_config(tmp_path, str(out), mu_schedule=[5.0, 20.0])
    assert main(["sweep", write_config(tmp_path, doc)]) == 0
    assert "L2_CONVERGENCE: fail" in capsys.readouterr().out
    records = json.loads((out / "sweep.json").read_text(), parse_constant=_reject_constant)["records"]
    first, second = (r["procrustes_residual"] for r in records)
    assert first >= 0.0 and second is None
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    column = header.split(",").index("procrustes_residual")
    assert [row.split(",")[column] for row in rows] == [reports.fmt(first), "nan"]


def test_cmd_sweep_requires_schedule(tmp_path, capsys):
    doc = box_config(tmp_path, str(tmp_path / "out"), mu=10.0)
    path = write_config(tmp_path, doc)
    assert main(["sweep", path]) == 2
    assert "mu_schedule" in capsys.readouterr().err


def test_cmd_sweep_degenerate_verdict(tmp_path, capsys):
    out = tmp_path / "out"
    doc = {
        "domain": {"dim": 1, "extent": [1.0], "points": [96], "boundary": "periodic"},
        "potential": {"kind": "free"},
        "problem": {"N": 2, "regularizer": "l1", "mu_schedule": [5.0, 20.0]},
        "solver": {"max_iters": 200, "starts": ["eigen"]},
        "output": {"dir": str(out), "formats": ["csv", "json"]},
    }
    path = write_config(tmp_path, doc)
    assert main(["sweep", path]) == 0
    assert "DEGENERATE" in capsys.readouterr().out
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(rows) == 3  # header + both mu rows: sweep completes
    # no limit frame without the gap: the eigen frame is not determined there
    records = json.loads((out / "sweep.json").read_text())["records"]
    assert [r["limit_distance"] for r in records] == [None, None]
    assert [r["limit_order"] for r in records] == [None, None]


def test_cmd_sweep_single_point_na(tmp_path, capsys):
    doc = box_config(tmp_path, str(tmp_path / "out"), mu_schedule=[10.0])
    path = write_config(tmp_path, doc)
    assert main(["sweep", path]) == 0
    assert "MONOTONE_ENERGY: n/a" in capsys.readouterr().out


# --- verify -------------------------------------------------------------------------


def test_cmd_verify_passes(capsys):
    assert main(["verify", "--cases", "60", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "column_mass" in out and "gap_bound" in out
    assert "PASS" in out


def test_cmd_verify_zero_cases_usage_error(capsys):
    assert main(["verify", "--cases", "0"]) == 2
    assert "cases" in capsys.readouterr().err
    assert main(["verify", "--cases", "5", "--seed", "-9"]) == 2
    assert "seed" in capsys.readouterr().err


def test_cmd_verify_seed_past_the_philox_key_range_usage_error(capsys):
    # the last case seed, seed + cases - 1, must be a Philox key: below 2**128
    assert main(["verify", "--cases", "2", "--seed", str(2**128 - 1)]) == 2
    assert "2**128" in capsys.readouterr().err
    assert main(["verify", "--cases", "1", "--seed", str(2**128 - 1)]) == 0
    assert capsys.readouterr().out.endswith("verify: PASS\n")


@pytest.mark.parametrize(
    "failing",
    [("column_mass_suite",), ("gap_bound_suite",), ("column_mass_suite", "gap_bound_suite")],
)
def test_cmd_verify_violation_exits_1_naming_its_seeds(monkeypatch, capsys, failing):
    labels = {"column_mass_suite": "column_mass", "gap_bound_suite": "gap_bound"}
    for name in failing:
        monkeypatch.setattr(f"cmlab.cli.consistency.{name}", lambda *args: (2.0, [17]))
    assert main(["verify", "--cases", "20", "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out.endswith("verify: FAIL\n")
    for name, label in labels.items():
        line = f"{label} violations at seeds: [17]"
        assert (line in captured.err) == (name in failing)


def test_cmd_verify_nan_case_exits_1_naming_its_seed(monkeypatch, capsys):
    # the draw of case 8, told by the key of the stream it draws from, is all NaN
    haar_rows = consistency._haar_rows

    def nan_at_seed_8(rows, cols, rng):
        key = rng.bit_generator.state["state"]["key"]
        q = haar_rows(rows, cols, rng)
        return np.full_like(q, math.nan) if key.tolist() == [8, 0] else q

    monkeypatch.setattr("cmlab.consistency._haar_rows", nan_at_seed_8)
    assert main(["verify", "--cases", "20", "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert "max mass = nan" in captured.out
    assert captured.out.endswith("verify: FAIL\n")
    assert "column_mass violations at seeds: [8]" in captured.err
    assert "gap_bound violations" not in captured.err


def test_cmd_verify_deterministic(capsys):
    assert main(["verify", "--cases", "40", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--cases", "40", "--seed", "9"]) == 0
    second = capsys.readouterr().out
    assert first == second


# --- shipped configs ------------------------------------------------------------------


def test_shipped_configs_parse():
    for name in SHIPPED_CONFIGS:
        cfg = load_config(config_path(name))
        assert cfg["problem"]["N"] >= 1


# --- bad input: exit 2 with a message, never a traceback --------------------------------


DELETE = object()


def _edit(doc, path, value):
    """Set the key at ``path`` to ``value``, or remove it when ``value`` is DELETE."""
    for key in path[:-1]:
        doc = doc[key]
    if value is DELETE:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


MULTIWELL_BAD_CENTER = {"kind": "multiwell", "centers": [["a"]], "depth": 3.0, "width": 1.5}
MULTIWELL_TINY_WIDTH = {"kind": "multiwell", "centers": [[0.5]], "depth": 3.0, "width": 1e-300}
MULTIWELL_HUGE_WIDTH = {"kind": "multiwell", "centers": [[0.5]], "depth": 3.0, "width": 1e200}
MULTIWELL_DEEP_PAIR = {"kind": "multiwell", "centers": [[0.5], [0.5]], "depth": 1e308, "width": 0.1}
MULTIWELL_DEEP = {"kind": "multiwell", "centers": [[0.5]], "depth": 1e200, "width": 0.1}
TABULATED = {"kind": "tabulated", "path": "v.csv"}
POINTS_64 = (("domain", "points"), [64])

# the text of the tabulated potential file a probe writes next to its config
PROBE_FILES = {"tabulated_empty": "", "tabulated_comma": "1,2\n", "tabulated_huge": "1e200\n" * 4}

# (subcommand, (path, value) edits of configs/reference_sweep.json, extra CLI arguments,
#  a substring of the error line that names what is wrong)
BAD_INPUT_PROBES = {
    "points_string": ("sweep", [(("domain", "points"), ["a"])], [], "domain.points"),
    "extent_string": ("sweep", [(("domain", "extent"), ["x"])], [], "domain.extent"),
    "center_string": (
        "sweep", [(("potential",), MULTIWELL_BAD_CENTER)], [], "potential.centers"
    ),
    "random_start_negative": (
        "sweep", [(("solver", "starts"), ["random:-1"])], [], "random:-1"
    ),
    "seed_negative": ("sweep", [(("solver", "starts"), DELETE), (("seed",), -9)], [], "seed"),
    "seed_flag_negative": ("sweep", [(("solver", "starts"), DELETE)], ["--seed", "-9"], "seed"),
    "mu_schedule_nan": (
        "sweep", [(("problem", "mu_schedule"), ["nan"])], [], "problem.mu_schedule"
    ),
    "mu_schedule_inf": (
        "sweep", [(("problem", "mu_schedule"), [5, "inf"])], [], "problem.mu_schedule"
    ),
    "sweep_n_plus_one_over_nodes": (
        "sweep",
        [(("domain", "points"), [3]), (("problem", "N"), 3)],
        [],
        "N + 1",
    ),
    "solve_n_over_nodes": (
        "solve",
        [(("domain", "points"), [64]), (("problem", "N"), 65), (("problem", "mu"), 10.0)],
        [],
        "problem.N",
    ),
    "max_iters_bool": ("sweep", [(("solver", "max_iters"), True)], [], "solver.max_iters"),
    "max_iters_float": ("sweep", [(("solver", "max_iters"), 2.7)], [], "solver.max_iters"),
    "n_float": ("sweep", [(("problem", "N"), 2.5)], [], "problem.N"),
    "points_float": ("sweep", [(("domain", "points"), [10.7])], [], "domain.points"),
    "dim_bool": ("sweep", [(("domain", "dim"), True)], [], "domain.dim"),
    "tol_inf": ("sweep", [(("solver", "tol"), "inf")], [], "solver.tol"),
    "tol_zero": ("sweep", [(("solver", "tol"), 0)], [], "solver.tol"),
    "extent_negative": ("sweep", [(("domain", "extent"), [-1.0])], [], "domain.extent"),
    "extent_per_axis": ("sweep", [(("domain", "extent"), [1.0, 1.0])], [], "domain.extent"),
    "mu_flag_huge": ("solve", [], ["--mu", "1e308"], "mu * penalty"),
    "penalty_huge": ("sweep", [(("solver", "penalty"), 1e308)], [], "mu * penalty"),
    "width_underflow": ("sweep", [(("potential",), MULTIWELL_TINY_WIDTH)], [], "width"),
    "width_overflow": ("sweep", [(("potential",), MULTIWELL_HUGE_WIDTH)], [], "potential.width"),
    "depth_sum_overflow": ("sweep", [(("potential",), MULTIWELL_DEEP_PAIR)], [], "potential.depth"),
    "omega_overflow": (
        "sweep", [(("potential",), {"kind": "harmonic", "omega": 1e200})], [], "potential.omega"
    ),
    "center_overflow": (
        "sweep", [(("potential",), {"kind": "harmonic", "center": [1e308]})], [], "potential.center"
    ),
    # finite node values of V too large for the solvers, named by their key
    "omega_huge": (
        "eig", [POINTS_64, (("potential",), {"kind": "harmonic", "omega": 1e100})], [], "potential.omega"
    ),
    "center_huge": (
        "eig", [POINTS_64, (("potential",), {"kind": "harmonic", "center": [1e100]})], [], "potential.center"
    ),
    "depth_huge": ("eig", [POINTS_64, (("potential",), MULTIWELL_DEEP)], [], "potential.depth"),
    "tabulated_huge": (
        "eig", [(("domain", "points"), [4]), (("potential",), TABULATED)], [], "potential.path"
    ),
    "tabulated_empty": ("sweep", [(("potential",), TABULATED)], [], "potential.path"),
    "tabulated_comma": ("sweep", [(("potential",), TABULATED)], [], "potential.path"),
    # node values of unit-norm functions, squared and scaled by the operator,
    # leave the double range: overflow for a tiny box, underflow for a huge one
    "extent_tiny": ("sweep", [(("domain", "extent"), [1e-150])], [], "domain scale"),
    "extent_tiny_solve": (
        "solve",
        [(("domain", "extent"), [1e-150]), (("problem", "mu"), 10.0)],
        [],
        "domain scale",
    ),
    "extent_huge": ("sweep", [(("domain", "extent"), [1e150])], [], "domain scale"),
    # in range, but the default penalty's shrink step zeroes Q and B + F cancels to rank deficiency
    "extent_collapse": ("sweep", [(("domain", "extent"), [1e20])], [], "rank deficient"),
    # 728 TiB of node values: more than a 64-bit process can map, so the first
    # array of the potential (harmonic) or of the operator (free) fails at once
    "points_unallocatable": ("sweep", [(("domain", "points"), [10**14])], [], "domain.points"),
    "points_unallocatable_harmonic": (
        "sweep",
        [(("domain", "points"), [10**14]), (("potential",), {"kind": "harmonic"})],
        [],
        "domain.points",
    ),
    "sweep_mu_flag": ("sweep", [], ["--mu", "7"], "--mu"),
    "eig_mu_flag": ("eig", [], ["--mu", "7"], "--mu"),
}


# a Python warning on the way to the error fails the probe
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("probe", sorted(BAD_INPUT_PROBES))
def test_bad_input_exits_2_without_traceback(probe, tmp_path, capsys):
    command, edits, extra, names = BAD_INPUT_PROBES[probe]
    if probe in PROBE_FILES:
        (tmp_path / "v.csv").write_text(PROBE_FILES[probe])
    with open(config_path("reference_sweep.json")) as fh:
        doc = json.load(fh)
    doc["output"]["dir"] = str(tmp_path / "out")
    for path, value in edits:
        _edit(doc, path, value)
    assert main([command, write_config(tmp_path, doc), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert names in err.splitlines()[0]
    if names.startswith("potential."):
        assert "domain" not in err  # a bad potential is not blamed on the domain
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _paths(doc, prefix=()):
    """Every key path into a JSON document, containers included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


_CONFIG_WORDS = [
    "eigen", "random:1", "random:-1", "random:x", "nan", "inf", "-inf", "1e400", "3", "-2", "2.5",
    "free", "harmonic", "multiwell", "tabulated", "dirichlet", "periodic", "l1", "zero", "csv",
    "kind", "centers", "center", "omega", "depth", "width", "path", "",
]  # fmt: skip
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),  # small: a mutated node count must stay cheap to assemble
    st.floats(),
    st.sampled_from(_CONFIG_WORDS),
    st.text(max_size=6),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_CONFIG_WORDS), inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(SHIPPED_CONFIGS), data=st.data())
def test_mutated_configs_parse_or_raise_config_error(name, data):
    with open(config_path(name)) as fh:
        doc = json.load(fh)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
        _edit(doc, path, data.draw(st.just(DELETE) | _VALUES, label="value"))
    try:
        build_operator(parse_config(doc, base_dir=CONFIG_DIR))
    except ConfigError:
        pass


def test_tabulated_potential_from_csv(tmp_path):
    values = np.linspace(-1.0, 1.0, 64)
    pot_path = tmp_path / "v.csv"
    np.savetxt(pot_path, values)
    out = tmp_path / "out"
    doc = {
        "domain": {"dim": 1, "extent": [1.0], "points": [64], "boundary": "dirichlet"},
        "potential": {"kind": "tabulated", "path": "v.csv"},
        "problem": {"N": 2, "regularizer": "zero", "mu": 10.0},
        "solver": {"max_iters": 200, "starts": ["eigen"]},
        "output": {"dir": str(out), "formats": ["json"]},
    }
    path = write_config(tmp_path, doc)
    assert main(["solve", path]) == 0
    with open(out / "solve.json") as fh:
        report = json.load(fh)
    assert report["converged"] is True


def test_tabulated_potential_size_mismatch(tmp_path, capsys):
    pot_path = tmp_path / "v.csv"
    np.savetxt(pot_path, np.zeros(10))
    doc = {
        "domain": {"dim": 1, "extent": [1.0], "points": [64], "boundary": "dirichlet"},
        "potential": {"kind": "tabulated", "path": str(pot_path)},
        "problem": {"N": 2, "regularizer": "zero", "mu": 10.0},
        "output": {"dir": str(tmp_path / "out")},
    }
    path = write_config(tmp_path, doc)
    assert main(["solve", path]) == 2
    assert "64 nodes" in capsys.readouterr().err
