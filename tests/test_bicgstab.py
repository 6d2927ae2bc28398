"""The direct backend's BiCGStab loop, solvers._bicgstab, against
scipy.sparse.linalg.bicgstab, which only this module imports.

The systems are frozen-policy ones, as _Sweeper.evaluate assembles them:
policy iteration's first policy, 0 at every node, on test1_1d, and the
greedy policy of the default initial field on the 2-D and 3-D problems.
Each is solved as evaluated (test1_1d at 321 breaks down with info -10),
with b = 0 and with maxiter = 3, which it exhausts.  The two loops must
give the same bits, the same info and as many iterations as scipy calls
its callback.  The package itself must not import scipy.sparse.linalg.
"""

import functools
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import hjbsolve as h
from hjbsolve.solvers import _bicgstab, _Sweeper

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
# (problem, nodes per axis, info as evaluated)
SYSTEMS = [("test1_1d", 81, 0), ("test1_1d", 161, 0), ("test1_1d", 321, -10),
           ("test4_eik2d", 41, 0), ("test2_vdp", 41, 0), ("test6_eik3d", 11, 0)]


@functools.cache
def frozen_system(name, n):
    """(I - discount * B, rhs, eps / 10, the inner iteration cap) of the
    frozen policy of `name` on its n-node grid."""
    entry = h.catalog(name)
    grid = entry.spec.domain_grid(n)
    config = h.SolverConfig(dt=entry.dt_for(grid), workers=1)
    with _Sweeper(entry.spec, grid, entry.controls, config) as sweeper:
        if grid.dim == 1:
            policy = h.PolicyField.constant(grid, 0)
        else:
            start = sweeper.pinned_copy(h.default_initial_field(entry.spec, grid))
            policy = h.PolicyField(grid, sweeper.bellman_sweep(start.values)[1])
        matrix, rhs = sweeper._direct_system(sweeper.policy_rows(policy))
    return matrix, rhs, config.epsilon(grid) / 10.0, config.inner_cap()


def scipy_bicgstab(matrix, b, atol, maxiter):
    calls = []
    x, info = spla.bicgstab(matrix, b, rtol=0.0, atol=atol, maxiter=maxiter,
                            callback=calls.append)
    return x, info, len(calls)


@pytest.mark.parametrize("variant", ["as_evaluated", "zero_rhs", "three_steps"])
@pytest.mark.parametrize("name,n,info", SYSTEMS)
def test_bicgstab_matches_scipy_bit_for_bit(name, n, info, variant):
    matrix, rhs, atol, maxiter = frozen_system(name, n)
    if variant == "zero_rhs":
        rhs, info = np.zeros_like(rhs), 0
    elif variant == "three_steps":
        maxiter = info = 3
    b = rhs.copy()
    x, got, iterations = _bicgstab(matrix, b, atol, maxiter)
    assert b.tobytes() == rhs.tobytes()  # b is not written
    expected = scipy_bicgstab(matrix, rhs, atol, maxiter)
    assert (x.tobytes(), got, iterations) == (expected[0].tobytes(), *expected[1:])
    assert got == info


def test_solves_do_not_import_scipy_sparse_linalg():
    """hjbsolve, a direct policy_evaluation_direct and a direct api_solve,
    run in a fresh interpreter, leave scipy.sparse.linalg unimported."""
    script = textwrap.dedent("""
        import json
        import sys
        import hjbsolve as h

        def loaded():
            return [m for m in sys.modules if m.startswith("scipy.sparse.linalg")]

        seen = {"import": loaded()}
        entry = h.catalog("test4_eik2d")
        fine, coarse = entry.spec.domain_grid(21), entry.spec.domain_grid(11)
        config = h.SolverConfig(dt=entry.dt_for(fine), eval_backend="direct")
        policy = h.PolicyField.constant(fine, 0)
        h.policy_evaluation_direct(entry.spec, fine, policy, entry.controls, config)
        seen["policy_evaluation_direct"] = loaded()
        coarse_config = h.SolverConfig(dt=entry.dt_for(coarse), stop_constant=5.0)
        h.api_solve(entry.spec, coarse, fine, entry.controls, coarse_config, config)
        seen["api_solve"] = loaded()
        print(json.dumps(seen))
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
    assert json.loads(out) == {"import": [], "policy_evaluation_direct": [], "api_solve": []}
