"""Operator rows of controls that move every node alike.

When a control's velocity is bitwise the same at every node, the operator
build locates the arrivals per axis and writes the rows of the in-box
sub-box from tensor-product corners: as diagonals when they take fewer
bytes, with the irregular rows as CSR rows, else as CSR rows.  The oracle
locates all N arrivals and hands the in-box ones to the row writer as a
one-dimensional box: both must give the same rows and per-row constant,
bit for bit, and the block's `outside` must number its empty rows.  The
block argmin of a sweep is checked against numpy's argmax of the equality
mask.
"""

import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import hjbsolve as h
from hjbsolve import solvers
from hjbsolve.problems import InfiniteHorizon, ProblemSpec
from hjbsolve.solvers import (SolverError, _Block, _CsrRows, _DiagonalRows, _ShiftedRows,
                              _Sweeper)

from conftest import block_constant, block_rows, empty_rows, general_rows, oracle_sweep

EIKONAL_CASES = [
    ("test4_eik2d", 15, {"control_count": 12}),
    ("test5_eik2d_disk", 17, {"control_count": 12}),
    ("test6_eik3d", 9, {"control_counts": (6, 4)}),
    ("test7_eik3d_spheres", 13, {"control_counts": (4, 3)}),
    ("test8_min4d", 7, {}),
]


def fill_block(sweeper, js):
    """The block of the controls `js`, built into arrays that hold NaN, so
    that an entry the build should write, or zero, and does not shows."""
    csr, c = arrays = sweeper._block_arrays(js)
    for array in (c,) + (csr or ()):
        if array is not None and array.dtype == np.float64:
            array.fill(np.nan)
    return sweeper._fill_block(js, arrays)[0]


def kinds(block):
    """The type of each control's row set in `block`."""
    return [type(rows) for rows in block.controls]


def assert_same_rows(sweeper, js, block_product):
    """The block's rows are the general rows, bit for bit: as CSR arrays
    when they are stored (each control's CSR rows, and the rows held as
    diagonals read back at their columns), and on every path through their
    products with fields that tie, vary in sign and hold huge values.  So
    is its per-row constant, and `outside` numbers its empty rows."""
    block = fill_block(sweeper, js)
    indptr, indices, data, want_c = general_rows(sweeper, js)
    assert block.size == len(want_c)
    assert block_constant(sweeper, block).tobytes() == want_c.tobytes()
    assert block.outside.dtype == np.int32
    assert np.array_equal(block.outside, empty_rows(sweeper, block))
    assert np.array_equal(block.outside, np.flatnonzero(np.diff(indptr) == 0))
    n = sweeper.grid.num_nodes
    want = sp.csr_matrix((data, indices, indptr), shape=(len(want_c), n))
    if sweeper.matrix_free:
        assert kinds(block) == [_ShiftedRows if sweeper.separable[j] else _CsrRows for j in js]
    else:
        assert kinds(block) == [_DiagonalRows if sweeper.diagonal[j] else _CsrRows for j in js]
        for got, expected in zip(block_rows(sweeper, block), (indptr, indices, data)):
            assert np.array_equal(got, expected)
            assert got.tobytes() == expected.astype(got.dtype).tobytes()
    for t, rows in enumerate(block.controls):
        # a control's CSR rows, whole or the irregular ones beside its
        # diagonals, are the general rows' own
        if type(rows) is _DiagonalRows:
            if rows.irregular is None:
                continue
            rows, at = rows.irregular, rows.nodes
        else:
            at = np.arange(n)
        if type(rows) is _CsrRows:
            expected = want[t * n + at]
            assert rows.indptr.dtype == rows.indices.dtype == np.int32
            assert np.array_equal(rows.indptr, expected.indptr)
            assert rows.indices.tobytes() == expected.indices.astype(np.int32).tobytes()
            assert rows.data.tobytes() == expected.data.tobytes()
    rng = np.random.default_rng(js.start)
    for v in (rng.uniform(0.0, 2.0, n), rng.normal(size=n), np.full(n, 0.5),
              rng.choice([-1e308, 0.0, 1e308], n)):
        assert block_product(sweeper, block, v).tobytes() == (want @ v).tobytes()


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
def test_eikonal_rows_match_general_builder(name, n, overrides, layout, monkeypatch, rng,
                                            block_product):
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
            assert_same_rows(sweeper, js, block_product)
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
    """Rows written a few first-axis layers at a time give the bits of the
    default slabs (test_kernel checks located rows likewise): the CSR rows
    of test8_min4d's sub-boxes, and the irregular rows of the test6_eik3d
    controls whose regular ones are diagonals."""
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
            block = fill_block(sweeper, js)
        assert sweeper.separable.all() and _ShiftedRows not in kinds(block)
        if name == "test6_eik3d":
            # the three controls nearest each pole keep CSR rows
            assert sweeper.diagonal.tolist() == [False] * 3 + [True] * 6 + [False] * 3
            assert any(rows.irregular is not None for rows in block.controls[3:9])
        else:
            assert not sweeper.diagonal.any()
        assert kinds(block) == [_DiagonalRows if d else _CsrRows for d in sweeper.diagonal]
        for got in (block_rows(sweeper, block) + (block_constant(sweeper, block),),
                    general_rows(sweeper, js)):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
                assert a.tobytes() == b.astype(a.dtype).tobytes()


def test_mixed_block(block_product):
    """Same-velocity and state-dependent controls in one block."""
    check_mixed_block(True, block_product)


def test_mixed_block_matrix_free(block_product):
    """Applied matrix-free, the separable controls of a mixed block hold no
    CSR rows between the others'."""
    check_mixed_block(False, block_product)


def check_mixed_block(store_separable, block_product):

    def dynamics(p, a):
        if a[0] > 0:
            return np.full_like(p, a[0])
        return a[0] * p[..., ::-1] + a[1]

    spec = drift_spec(2, dynamics)
    grid = spec.domain_grid((9, 12))
    controls = h.ControlSet([[0.5, 0.0], [-0.5, 0.1], [2.0, 0.0], [-1.0, -0.3]])
    sweeper = _Sweeper(spec, grid, controls, h.SolverConfig(dt=0.3, workers=1),
                       store_separable=store_separable)
    assert len(sweeper.blocks) == 1
    assert_same_rows(sweeper, range(len(controls)), block_product)
    assert sweeper.separable.tolist() == [True, False, True, False]
    block = fill_block(sweeper, range(len(controls)))
    n = grid.num_nodes
    if not store_separable:
        assert kinds(block) == [_ShiftedRows, _CsrRows] * 2
        assert all(np.diff(block.controls[t].indptr).any() for t in (1, 3))
        return
    # the small shift is held as diagonals; 2.4 cells take most arrivals
    # out of the box, so that CSR rows take fewer bytes
    assert kinds(block) == [_DiagonalRows] + [_CsrRows] * 3
    assert sweeper.diagonal.tolist() == [True, False, False, False]
    assert all(len(rows.indptr) == n + 1 for rows in block.controls[1:])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_arrivals_leaving_the_box(dim, block_product):
    """Shifts that stay in the box, leave along the first axis only (by
    less than a cell, exactly one cell or more than two), leave along every
    axis, or leave the box altogether, so that the in-box sub-box is
    empty."""
    check_arrivals_leaving_the_box(dim, True, block_product)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_arrivals_leaving_the_box_matrix_free(dim, block_product):
    """The same shifts applied matrix-free on the in-box sub-box."""
    check_arrivals_leaving_the_box(dim, False, block_product)


def check_arrivals_leaving_the_box(dim, store_separable, block_product):
    spec = drift_spec(dim, constant_drift)
    grid = spec.domain_grid(7)
    h0 = grid.spacing[0]
    rest = [0.0] * (dim - 1)
    shifts = [[0.0] * dim, [0.4 * h0] + rest, [h0] + rest, [-2.5 * h0] + rest,
              [0.1] * dim, [3.0] * dim, [-3.0] + [0.5] * (dim - 1)]
    controls = h.ControlSet(shifts)
    sweeper = _Sweeper(spec, grid, controls, h.SolverConfig(dt=1.0, workers=1),
                       store_separable=store_separable)
    assert_same_rows(sweeper, range(len(controls)), block_product)
    assert sweeper.separable.all()
    block = fill_block(sweeper, range(len(controls)))
    n = grid.num_nodes
    if store_separable:
        full = np.diff(block_rows(sweeper, block)[0]).reshape(len(controls), n) > 0
        # At 7 nodes per axis a control takes diagonals when at least 62%
        # (2-D; 1-D 60%, 3-D 64%) of its rows are in the box and regular.
        # The unshifted control's last row clamps onto the upper face, and
        # rounding puts some rows in the cell below their node: CSR rows
        # beside its diagonals in 1-D, too many for diagonals in 2-D.
        assert sweeper.diagonal.tolist() == {1: [True, True, False, False, True, False, False],
                                             2: [False] * 4 + [True, False, False],
                                             3: [False] * 7}[dim]
        assert kinds(block) == [_DiagonalRows if d else _CsrRows for d in sweeper.diagonal]
    else:
        assert kinds(block) == [_ShiftedRows] * len(controls)
        full = np.zeros((len(controls),) + grid.shape, dtype=bool)
        for t, rows in enumerate(block.controls):
            full[t][rows.box] = True
            assert rows.empty == (not full[t].any())
        full = full.reshape(len(controls), n)
    layer = n // 7
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
    zero = _CsrRows(np.zeros(n + 1, dtype=np.int32), np.empty(0, dtype=np.int32), np.empty(0))
    block = _Block([zero] * controls, q.reshape(-1).copy(), np.empty(0, dtype=np.int32),
                   controls * n)
    low, low_idx, _, _ = sweeper._sweep_block(js, block, None, np.ones(n), True, None, False)
    assert low.tobytes() == q.min(axis=0).tobytes()
    want = (q == q.min(axis=0)).argmax(axis=0).astype(np.int32) + js.start
    assert low_idx.dtype == np.int32
    assert low_idx.tobytes() == want.tobytes()
    assert low_idx[0] == js.start
