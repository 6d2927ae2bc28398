"""The direct backend's system and BiCGStab loop against scipy.sparse:
_Sweeper._direct_system against scipy's I - discount * B, and
solvers._bicgstab against scipy.sparse.linalg.bicgstab, which only the
tests import.

The systems are frozen-policy ones, as _Sweeper.evaluate assembles them,
under policy iteration's first policy, 0 at every node, or the greedy
policy of the default initial field.  Every catalog problem's system under
either policy must have the bytes and products of scipy's subtraction.  The
BiCGStab systems are test1_1d's under the first policy and the 2-D and 3-D
problems' under the greedy one.  Each is solved as evaluated (test1_1d at
321 breaks down with info -10), with b = 0 and with maxiter = 3, which it
exhausts.  Two hand-built systems break down on omega, one on rv = 0
before its first step ends and one on |omega| < eps^2 in its third.  The
two loops must give the same bits, the same info and as many iterations as
scipy calls its callback.
"""

import functools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import hjbsolve as h
from hjbsolve.solvers import _bicgstab, _CsrRows, _Sweeper

from conftest import CATALOG_CASES

# (problem, nodes per axis, info as evaluated)
SYSTEMS = [("test1_1d", 81, 0), ("test1_1d", 161, 0), ("test1_1d", 321, -10),
           ("test4_eik2d", 41, 0), ("test2_vdp", 41, 0), ("test6_eik3d", 11, 0)]


# the direct systems: every catalog problem under both policies, and the
# system that breaks down
DIRECT_CASES = [(name, n, policy) for name, n in CATALOG_CASES
                for policy in ("first", "greedy")] + [("test1_1d", 321, "first")]


@functools.cache
def frozen_system(name, n, policy):
    """(B, I - discount * B, rhs, discount, eps / 10, the inner iteration
    cap) of `name` on its n-node grid under the `policy` "first" or
    "greedy", B and I - discount * B as _CsrRows."""
    entry = h.catalog(name)
    grid = entry.spec.domain_grid(n)
    config = h.SolverConfig(dt=entry.dt_for(grid), workers=1)
    with _Sweeper(entry.spec, grid, entry.controls, config) as sweeper:
        if policy == "first":
            frozen = h.PolicyField.constant(grid, 0)
        else:
            start = sweeper.pinned_copy(h.default_initial_field(entry.spec, grid))
            frozen = h.PolicyField(grid, sweeper.bellman_sweep(start.values)[1])
        rows = sweeper.policy_rows(frozen)
        matrix, rhs = sweeper._direct_system(rows)
    return (rows.controls[0], matrix, rhs, sweeper.discount, config.epsilon(grid) / 10.0,
            config.inner_cap())


def scipy_csr(rows):
    """The _CsrRows `rows` as a square scipy csr_matrix, on their arrays."""
    n = len(rows.indptr) - 1
    return sp.csr_matrix((rows.data, rows.indices, rows.indptr), shape=(n, n))


def scipy_bicgstab(matrix, b, atol, maxiter):
    calls = []
    x, info = spla.bicgstab(scipy_csr(matrix), b, rtol=0.0, atol=atol, maxiter=maxiter,
                            callback=calls.append)
    return x, info, len(calls)


@pytest.mark.parametrize("name,n,policy", DIRECT_CASES)
def test_direct_system_matches_scipy_subtraction(name, n, policy, rng):
    B, matrix, _, discount, _, _ = frozen_system(name, n, policy)
    expected = sp.identity(len(B.indptr) - 1, format="csr") - discount * scipy_csr(B)
    assert [a.tobytes() for a in matrix] == [
        a.tobytes() for a in (expected.indptr, expected.indices, expected.data)]
    v = rng.standard_normal(len(matrix.indptr) - 1)
    product = np.zeros(len(v))
    matrix.apply(v, None, product, None)
    assert product.tobytes() == (expected @ v).tobytes()


@pytest.mark.parametrize("variant", ["as_evaluated", "zero_rhs", "three_steps"])
@pytest.mark.parametrize("name,n,info", SYSTEMS)
def test_bicgstab_matches_scipy_bit_for_bit(name, n, info, variant):
    # test1_1d under policy iteration's first policy, the others under the
    # default field's greedy one
    policy = "first" if name == "test1_1d" else "greedy"
    _, matrix, rhs, _, atol, maxiter = frozen_system(name, n, policy)
    if variant == "zero_rhs":
        rhs, info = np.zeros_like(rhs), 0
    elif variant == "three_steps":
        maxiter = info = 3
    assert same_as_scipy(matrix, rhs, atol, maxiter)[0] == info


# hand-built systems on which the loop breaks down on omega: (A, b,
# completed iterations)
OMEGA_BREAKDOWNS = {
    # A b is orthogonal to b, so rv = 0 before the first step ends
    "rv_zero": ([[0, 1], [1, 0]], [1, 0], 0),
    # |omega| falls below eps^2 in the third step
    "omega_below_eps_squared": ([[2, -1, -2], [2, 0, 1], [0, 2, 0]], [0, 2, -2], 3),
}


@pytest.mark.parametrize("case", OMEGA_BREAKDOWNS)
def test_bicgstab_omega_breakdown_matches_scipy_bit_for_bit(case):
    A, b, iterations = OMEGA_BREAKDOWNS[case]
    csr = sp.csr_matrix(np.array(A, dtype=float))
    matrix = _CsrRows(csr.indptr, csr.indices, csr.data)
    assert same_as_scipy(matrix, np.array(b, dtype=float), 1e-12, 100) == (-11, iterations)


def same_as_scipy(matrix, rhs, atol, maxiter):
    """(info, iterations) of _bicgstab on `matrix` and `rhs`, after checking
    that it leaves b unwritten and gives scipy's x bytes, info and callback
    count."""
    b = rhs.copy()
    x, info, iterations = _bicgstab(matrix, b, atol, maxiter)
    assert b.tobytes() == rhs.tobytes()  # b is not written
    expected = scipy_bicgstab(matrix, rhs, atol, maxiter)
    assert (x.tobytes(), info, iterations) == (expected[0].tobytes(), *expected[1:])
    return info, iterations
