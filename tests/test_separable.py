"""Operator rows of controls that move every node alike.

When a control's velocity is bitwise the same at every node, the operator
build locates the arrivals per axis and writes the rows of the in-box
sub-box from tensor-product corners: as diagonals when they take fewer
bytes, with the irregular rows as CSR rows, else as CSR rows, or applies
them matrix-free.  The general rows locate all N arrivals and hand the
in-box ones to the row writer as a one-dimensional box: every block, built
into poisoned arrays, must pass conftest's row-set contract against them.
The block argmin of a sweep is checked against numpy's argmax of the
equality mask.
"""

import math
import sys

import numpy as np
import pytest

import hjbsolve as h
from hjbsolve import solvers
from hjbsolve.problems import InfiniteHorizon, ProblemSpec
from hjbsolve.solvers import SolverError, _Block, _Sweeper

from conftest import check_rows, contract_fields, general_rows, oracle_sweep, poison_builds

EIKONAL_CASES = [
    ("test4_eik2d", 15, {"control_count": 12}),
    ("test5_eik2d_disk", 17, {"control_count": 12}),
    ("test6_eik3d", 9, {"control_counts": (6, 4)}),
    ("test7_eik3d_spheres", 13, {"control_counts": (4, 3)}),
    ("test8_min4d", 7, {}),
]


def check_block(sweeper, js, general=None):
    """The block of the controls `js`, built afresh, passes the row-set
    contract (check_rows) against their general rows, by default those of
    general_rows; returns it.  Call poison_builds first."""
    block = sweeper._fill_block(js)[0]
    fields = contract_fields(np.random.default_rng(js.start), sweeper.grid.num_nodes)
    check_rows(sweeper, js, block, general or general_rows(sweeper, js), fields)
    return block


def drift_spec(dim, dynamics):
    """A discounted problem on [-1, 1]^dim with a state-dependent running
    cost, so that c differs from node to node."""
    return ProblemSpec(
        state_dim=dim,
        dynamics=dynamics,
        running_cost=lambda p, a: np.sum(p * p, axis=-1) + a[0],
        kind=InfiniteHorizon(1.0),
        lower=(-1.0,) * dim,
        upper=(1.0,) * dim,
        exterior_value=2.0,
    )


def constant_drift(p, a):
    return np.broadcast_to(a[:p.shape[-1]], p.shape)


@pytest.mark.parametrize("name,n,overrides", EIKONAL_CASES)
@pytest.mark.parametrize("layout", ["stored", "unstored", "one_control"])
def test_eikonal_rows_match_general_builder(name, n, overrides, layout, monkeypatch, rng):
    poison_builds(monkeypatch)
    if layout == "unstored":
        monkeypatch.setattr(solvers, "_OPERATOR_NNZ_LIMIT", 0)
    if layout == "one_control":
        monkeypatch.setattr(solvers, "_BLOCK_ROWS", 1)
    entry = h.catalog(name, **overrides)
    grid = entry.spec.domain_grid(n)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=1)
    values = rng.uniform(0.0, 1.0, grid.num_nodes)
    with _Sweeper(entry.spec, grid, entry.controls, cfg) as sweeper:
        assert sweeper.stored == (layout != "unstored")
        if layout == "one_control":
            assert all(len(js) == 1 for js in sweeper.blocks)
        for js in sweeper.blocks:
            check_block(sweeper, js)
        assert sweeper.separable.all()
        out, policy, _ = sweeper.bellman_sweep(values)
    want, want_policy = oracle_sweep(sweeper, values)
    assert out.tobytes() == want.tobytes()
    assert policy.tobytes() == want_policy.tobytes()


@pytest.mark.parametrize("limit", [solvers._OPERATOR_NNZ_LIMIT, 0])
def test_worker_threads_mark_every_separable_control(limit, monkeypatch):
    """Threads marking `separable` for their own blocks lose no mark, with
    more threads than cores and a short switch interval."""
    monkeypatch.setattr(solvers, "_OPERATOR_NNZ_LIMIT", limit)
    monkeypatch.setattr(solvers, "_BLOCK_ROWS", 1)
    monkeypatch.setattr(solvers, "_MIN_THREAD_ROWS", 1)
    entry = h.catalog("test4_eik2d", control_count=48)
    grid = entry.spec.domain_grid(9)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=8, max_iterations=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _, _, report = h.value_iteration(entry.spec, grid, entry.controls, cfg)
    finally:
        sys.setswitchinterval(interval)
    assert report.workers == 8
    assert report.operator_separable_controls == 48


@pytest.mark.parametrize("slab", [1, 7, 40])
def test_rows_written_in_slabs(slab, monkeypatch):
    """Rows written a few first-axis layers at a time pass the row-set
    contract against the general rows of the default slabs (test_kernel
    checks located rows likewise): the CSR rows of test8_min4d's sub-boxes,
    and the irregular rows of the test6_eik3d controls whose regular ones
    are diagonals."""
    poison_builds(monkeypatch)
    for name, n, overrides in [("test6_eik3d", 11, {"control_counts": (4, 3)}),
                               ("test8_min4d", 7, {})]:
        entry = h.catalog(name, **overrides)
        grid = entry.spec.domain_grid(n)
        sweeper = _Sweeper(entry.spec, grid, entry.controls,
                           h.SolverConfig(dt=entry.dt_for(grid)))
        js = range(len(entry.controls))
        want = general_rows(sweeper, js)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_FILL_ROWS", slab)
            block = check_block(sweeper, js, want)
        assert sweeper.separable.all() and not sweeper.matrix_free
        if name == "test6_eik3d":
            # the three controls nearest each pole keep CSR rows, and some
            # held as diagonals have irregular rows, CSR entries
            assert sweeper.diagonal.tolist() == [False] * 3 + [True] * 6 + [False] * 3
            assert any(rows.nnz for rows in block.controls[3:9])
        else:
            assert not sweeper.diagonal.any()


def test_mixed_block(monkeypatch):
    """Same-velocity and state-dependent controls in one block."""
    check_mixed_block(True, monkeypatch)


def test_mixed_block_matrix_free(monkeypatch):
    """Applied matrix-free, the separable controls of a mixed block hold no
    CSR rows between the others'."""
    check_mixed_block(False, monkeypatch)


def check_mixed_block(store_separable, monkeypatch):

    def dynamics(p, a):
        if a[0] > 0:
            return np.full_like(p, a[0])
        return a[0] * p[..., ::-1] + a[1]

    poison_builds(monkeypatch)
    spec = drift_spec(2, dynamics)
    grid = spec.domain_grid((9, 12))
    controls = h.ControlSet([[0.5, 0.0], [-0.5, 0.1], [2.0, 0.0], [-1.0, -0.3]])
    sweeper = _Sweeper(spec, grid, controls, h.SolverConfig(dt=0.3, workers=1),
                       store_separable=store_separable)
    assert len(sweeper.blocks) == 1
    check_block(sweeper, range(len(controls)))
    assert sweeper.separable.tolist() == [True, False, True, False]
    assert sweeper.matrix_free != store_separable
    # stored, the small shift is held as diagonals; 2.4 cells take most
    # arrivals out of the box, so that CSR rows take fewer bytes
    assert sweeper.diagonal.tolist() == [store_separable, False, False, False]


@pytest.mark.parametrize("store_separable", [True, False])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_arrivals_leaving_the_box(dim, store_separable, monkeypatch):
    """Shifts that stay in the box, leave along the first axis only (by
    less than a cell, exactly one cell or more than two), leave along every
    axis, or leave the box altogether, so that the in-box sub-box is
    empty: stored, and applied matrix-free on the in-box sub-box."""
    poison_builds(monkeypatch)
    spec = drift_spec(dim, constant_drift)
    grid = spec.domain_grid(7)
    h0 = grid.spacing[0]
    rest = [0.0] * (dim - 1)
    shifts = [[0.0] * dim, [0.4 * h0] + rest, [h0] + rest, [-2.5 * h0] + rest,
              [0.1] * dim, [3.0] * dim, [-3.0] + [0.5] * (dim - 1)]
    controls = h.ControlSet(shifts)
    sweeper = _Sweeper(spec, grid, controls, h.SolverConfig(dt=1.0, workers=1),
                       store_separable=store_separable)
    block = check_block(sweeper, range(len(controls)))
    assert sweeper.separable.all() and sweeper.matrix_free != store_separable
    if store_separable:
        # At 7 nodes per axis a control takes diagonals when at least 62%
        # (2-D; 1-D 60%, 3-D 64%) of its rows are in the box and regular.
        # The unshifted control's last row clamps onto the upper face, and
        # rounding puts some rows in the cell below their node: CSR rows
        # beside its diagonals in 1-D, too many for diagonals in 2-D.
        assert sweeper.diagonal.tolist() == {1: [True, True, False, False, True, False, False],
                                             2: [False] * 4 + [True, False, False],
                                             3: [False] * 7}[dim]
    full = np.ones(block.size, dtype=bool)
    full[block.outside] = False
    full = full.reshape(len(controls), grid.num_nodes)
    layer = grid.num_nodes // 7
    assert full[0].all()
    assert np.count_nonzero(~full[1]) == np.count_nonzero(~full[2]) == layer
    assert np.count_nonzero(~full[3]) == 3 * layer
    assert np.count_nonzero(full[4]) == 6 ** dim
    # every arrival of the last two controls leaves the box
    assert not full[-2:].any()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_velocity_raises(bad):
    def dynamics(p, a):
        return np.full_like(p, a[0])

    spec = drift_spec(2, dynamics)
    grid = spec.domain_grid(5)
    controls = h.ControlSet([[0.1], [bad], [0.2]])
    sweeper = _Sweeper(spec, grid, controls, h.SolverConfig(dt=0.1, workers=1))
    with pytest.raises(SolverError, match="non-finite arrival under control 1"):
        sweeper._fill_block(range(3))
    with pytest.raises(SolverError, match="non-finite arrival under control 1"):
        general_rows(sweeper, range(3))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_arrival_raises():
    spec = drift_spec(2, constant_drift)
    grid = spec.domain_grid(5)
    controls = h.ControlSet([[0.1, 0.0], [1e308, 0.0]])
    sweeper = _Sweeper(spec, grid, controls, h.SolverConfig(dt=10.0, workers=1))
    with pytest.raises(SolverError, match="non-finite arrival under control 1"):
        sweeper._fill_block(range(2))


@pytest.mark.parametrize("name", ["test2_vdp", "test4_eik2d"])
def test_one_dynamics_call_per_control(name, monkeypatch):
    entry = h.catalog(name, control_count=8)
    grid = entry.spec.domain_grid(11)
    calls = []
    dynamics = entry.spec.dynamics

    def counted(p, a):
        calls.append(a)
        return dynamics(p, a)

    monkeypatch.setattr(entry.spec, "dynamics", counted)
    sweeper = _Sweeper(entry.spec, grid, entry.controls,
                       h.SolverConfig(dt=entry.dt_for(grid), workers=1))
    sweeper._fill_block(range(8))
    assert len(calls) == 8
    # the headings of test4_eik2d move every node alike, test2_vdp's drift
    # depends on the state
    assert sweeper.separable.tolist() == [name == "test4_eik2d"] * 8


class NoRows:
    """A row set without entries: apply leaves `out` at zero."""

    nnz = held_bytes = 0

    def apply(self, values, transposed, out, buffers):
        pass


@pytest.mark.parametrize("controls", [1, 2, 255, 256, 300])
def test_block_argmin_takes_the_lowest_tied_control(controls, rng):
    """_sweep_block's argmin on a zero operator none of whose rows leaves
    the box, so that q is c itself, with values drawn from {0, 1, 2} so
    most nodes tie."""
    entry = h.catalog("test4_eik2d", control_count=4)
    grid = entry.spec.domain_grid(9)
    n = grid.num_nodes
    sweeper = _Sweeper(entry.spec, grid, entry.controls, h.SolverConfig(dt=0.1, workers=1))
    q = rng.integers(0, 3, (controls, n)).astype(float)
    q[:, 0] = 1.0  # a tie across every control
    js = range(11, 11 + controls)
    block = _Block([NoRows()] * controls, q.reshape(-1).copy(), np.empty(0, dtype=np.int32),
                   controls * n)
    low, low_idx, _, _ = sweeper._sweep_block(js, block, None, np.ones(n), True, None, False)
    assert low.tobytes() == q.min(axis=0).tobytes()
    want = (q == q.min(axis=0)).argmax(axis=0).astype(np.int32) + js.start
    assert low_idx.dtype == np.int32
    assert low_idx.tobytes() == want.tobytes()
    assert low_idx[0] == js.start
