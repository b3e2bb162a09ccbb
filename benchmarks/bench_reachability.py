"""Micro-benchmark of the one-round reachability kernel at paper-scale
representative counts, p = q = (2d-1)f + 1.

The kernel builds each dimension's blocking windows into one lookup
table and gathers it to p x q, with no loop over faulty lines.
"""

import numpy as np

from repro.core.reachability import one_round_reachability_matrix
from repro.mesh import Mesh, random_node_faults
from repro.routing import LineFaultIndex, xyz

from conftest import run_once


def test_one_round_matrix_kernel(benchmark):
    """End-to-end one-round matrix at p = q = (2d-1)f + 1."""
    mesh = Mesh.square(3, 32)
    f = 160
    faults = random_node_faults(mesh, f, np.random.default_rng(1))
    index = LineFaultIndex(faults)
    rng = np.random.default_rng(2)
    good = np.array(
        [v for v in mesh.nodes() if not faults.node_is_faulty(tuple(v))],
        dtype=np.int64,
    )
    p = (2 * mesh.d - 1) * f + 1
    S = good[rng.choice(good.shape[0], size=p, replace=False)]
    D = good[rng.choice(good.shape[0], size=p, replace=False)]
    R = run_once(benchmark, one_round_reachability_matrix, index, xyz(), S, D)
    assert R.shape == (p, p)
