"""Recompute reference_eig_2d_cliff.json independently of cmlab.

Assembles -1/2 Laplacian + V for eig_2d_cliff's config as a sparse matrix
(its own 5-point stencil, not cmlab's operator) and takes the lowest
eigenvalues by shift-invert Lanczos from a fixed start vector.  Run from the
root of a checkout:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

import workloads


def reference_eigenvalues(config: dict) -> list:
    domain, potential = config["domain"], config["potential"]
    if domain["boundary"] != "dirichlet" or potential["kind"] != "multiwell":
        raise ValueError("the reference operator covers Dirichlet multiwell configs only")
    axes, kinetic = [], []
    for length, n in zip(domain["extent"], domain["points"]):
        h = length / (n + 1)
        axes.append(h * np.arange(1, n + 1))
        kinetic.append(scipy.sparse.diags([-0.5, 1.0, -0.5], [-1, 0, 1], shape=(n, n)) / h**2)
    H = scipy.sparse.kronsum(kinetic[1], kinetic[0], format="csc")  # x-major node order
    xx, yy = np.meshgrid(*axes, indexing="ij")
    coords = np.column_stack([xx.ravel(), yy.ravel()])
    v = np.zeros(len(coords))
    for c in potential["centers"]:
        v -= potential["depth"] * np.exp(-((coords - c) ** 2).sum(axis=1) / (2 * potential["width"] ** 2))
    H = H + scipy.sparse.diags(v)
    count = config["problem"]["N"] + 1
    v0 = np.ones(H.shape[0])
    vals = scipy.sparse.linalg.eigsh(H, k=count, sigma=v.min() - 1.0, which="LM", v0=v0, tol=1e-14)[0]
    return sorted(float(x) for x in vals)


def main() -> None:
    config = workloads.eig_2d_cliff_config(workloads.DEFAULT_SEED)
    doc = {
        "eigenvalues": reference_eigenvalues(config),
        "method": "sparse 5-point stencil, scipy eigsh shift-invert, v0 = ones, tol 1e-14",
        "domain": config["domain"],
        "potential": config["potential"],
    }
    with open(workloads.REFERENCE_EIGENVALUES, "w") as handle:
        handle.write(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc["eigenvalues"]))


if __name__ == "__main__":
    main()
