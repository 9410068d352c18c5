"""Report serialization: stable CSV/JSON layouts, written atomically."""

from __future__ import annotations

import json
import math
import os
import tempfile

from .eigensolver import EigenSystem
from .modes import ModeSet


def fmt(x: float) -> str:
    """Shortest-roundtrip decimal text for a float (stable across runs)."""
    return repr(float(x))


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename.

    The file gets the mode a plain ``open(path, "w")`` would give it
    (0o666 minus the umask), not the 0o600 of ``mkstemp``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        umask = os.umask(0)
        os.umask(umask)
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def eigs_csv(eigs: EigenSystem) -> str:
    lines = ["index,lambda,residual"]
    for i in range(eigs.count):
        lines.append(f"{i + 1},{fmt(eigs.eigenvalues[i])},{fmt(eigs.residual_norms[i])}")
    return "\n".join(lines) + "\n"


def modes_csv(modes: ModeSet) -> str:
    """One column per mode, one row per node; grid metadata in comment lines."""
    g = modes.grid
    lines = [
        f"# dim={g.dim}",
        f"# extent={','.join(fmt(e) for e in g.extent)}",
        f"# points={','.join(str(p) for p in g.points_per_axis)}",
        f"# boundary={g.boundary}",
        f"# spacing={','.join(fmt(h) for h in g.spacing)}",
        f"# ortho_defect={fmt(modes.ortho_defect)}",
        ",".join(f"mode_{j + 1}" for j in range(modes.count)),
    ]
    for row in modes.matrix:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def trace_csv(trace) -> str:
    lines = ["iter,objective,ortho_defect"]
    for i, (obj, defect) in enumerate(trace, start=1):
        lines.append(f"{i},{fmt(obj)},{fmt(defect)}")
    return "\n".join(lines) + "\n"


def sweep_csv(report: dict) -> str:
    """One row per record of a ``mu_sweep`` report: its measures, then the winner's stop state."""
    nu_cols = ",".join(f"nu_{i + 1}" for i in range(report["N"]))
    header = (
        f"mu,E,E0,energy_gap,{nu_cols},max_eig_dev,procrustes_residual,"
        "ortho_defect,iterations,converged"
    )
    lines = [header]
    for r in report["records"]:
        nu = ",".join(fmt(v) for v in r["nu"])
        lines.append(
            f"{fmt(r['mu'])},{fmt(r['E'])},{fmt(r['E0'])},{fmt(r['energy_gap'])},{nu},"
            f"{fmt(r['max_eig_dev'])},{fmt(r['procrustes_residual'])},{fmt(r['ortho_defect'])},"
            f"{r['iterations']},{'true' if r['converged'] else 'false'}"
        )
    return "\n".join(lines) + "\n"


def _finite_or_null(value):
    """``value`` with every non-finite float inside it replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def json_text(doc: dict) -> str:
    """Strict JSON text of ``doc``: a non-finite float is written as null, never as NaN."""
    return json.dumps(_finite_or_null(doc), indent=2, allow_nan=False) + "\n"
