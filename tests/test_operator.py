"""The semi-Lagrangian transition operator behind every sweep."""

import math
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import hjbsolve as h
from hjbsolve import solvers
from hjbsolve.grid import interpolate_values
from hjbsolve.problems import InfiniteHorizon, ProblemSpec
from hjbsolve.solvers import _Sweeper

from conftest import (CATALOG_CASES, DIAGONAL_CASES, ORACLE_PATHS, check_policy_rows,
                      check_row_set_contract, contract_fields, general_rows, poison_builds)

SMALL_CASES = [
    ("test1_1d", 21, {}),
    ("test2_vdp", 11, {"control_count": 8}),
    ("test4_eik2d", 11, {"control_count": 8}),
    ("test6_eik3d", 7, {"control_counts": (4, 3)}),
    ("heat3_rom", 7, {}),
    ("test8_min4d", 5, {}),
]


def control_rows(sweeper, j):
    """Control j's rows on every node, as a CSR matrix: its general rows,
    which the row-set contract holds every build to."""
    indptr, indices, data, _ = general_rows(sweeper, [j])
    n = sweeper.grid.num_nodes
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def oracle(sweeper, j, values):
    """discount * interpolate_values(arrivals_j) + stage_j, computed without
    the operator."""
    spec, nodes, dt = sweeper.spec, sweeper.nodes, sweeper.dt
    a = sweeper.controls.vectors[j]
    arrivals = nodes + dt * np.asarray(spec.dynamics(nodes, a))
    if spec.minimum_time:
        stage = -math.expm1(-dt)
    else:
        stage = dt * np.asarray(spec.running_cost(nodes, a), dtype=float)
    interp = interpolate_values(sweeper.grid, values, arrivals, spec.exterior_value)
    return sweeper.discount * interp + stage


def test_catalog_cases_cover_the_catalog():
    assert sorted(name for name, _ in CATALOG_CASES) == h.catalog_names()
    assert sorted(case[0] for case in ORACLE_CASES) == h.catalog_names()


# SMALL_CASES and the catalog problems it leaves out
ORACLE_CASES = SMALL_CASES + [(name, n, {}) for name, n in CATALOG_CASES
                              if name not in {case[0] for case in SMALL_CASES}]


@pytest.mark.parametrize("name,n,overrides", ORACLE_CASES)
def test_rows_match_interpolation_oracle(name, n, overrides, monkeypatch, rng):
    """Whole sweeps against the oracle, node by node, on every path of
    ORACLE_PATHS at 1 and 2 workers: a Bellman sweep gives the per-node
    minimum over the controls, bit for bit, and the lowest control index
    attaining it; a frozen-policy sweep gives the oracle of each node's
    control.  Pinned nodes keep their values and UNSET_POLICY.  Several
    Bellman sweeps run, so that the later ones read the blocks the first
    kept.  With two workers the blocks hold at most two controls, so that
    two threads take them even on these grids.  On the stored paths the
    separable controls of DIAGONAL_CASES are held as diagonals."""
    entry = h.catalog(name, **overrides)
    grid = entry.spec.domain_grid(n)
    for path, workers in product(sorted(ORACLE_PATHS), (1, 2)):
        settings, store_separable = ORACLE_PATHS[path]
        with monkeypatch.context() as patch:
            for attr, value in settings.items():
                patch.setattr(solvers, attr, value)
            if workers > 1:
                patch.setattr(solvers, "_MIN_THREAD_ROWS", 1)
                patch.setattr(solvers, "_BLOCK_ROWS",
                              min(solvers._BLOCK_ROWS, 4 * grid.num_nodes))
            cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=workers)
            with _Sweeper(entry.spec, grid, entry.controls, cfg,
                          store_separable=store_separable) as sweeper:
                where = f"{path} path, {workers} workers"
                assert sweeper.threads == workers, where
                assert sweeper.stored == (path != "over_budget"), where
                assert sweeper.matrix_free == (path in ("matrix_free", "over_budget")), where
                assert (len(sweeper.blocks) == len(entry.controls)) == (path == "one_control")
                check_sweeps_against_oracle(sweeper, rng, where)
                assert sweeper.diagonal.any() == (
                    name in DIAGONAL_CASES and not sweeper.matrix_free), where


def check_sweeps_against_oracle(sweeper, rng, where):
    m, N = len(sweeper.controls), sweeper.grid.num_nodes
    pinned, free = sweeper.pinned, np.flatnonzero(~sweeper.pinned)
    for values in (rng.uniform(0.0, 2.0, N), rng.normal(size=N), np.full(N, 0.5)):
        out, policy, _ = sweeper.bellman_sweep(values)
        q = np.stack([oracle(sweeper, j, values) for j in range(m)])
        low = q.min(axis=0)
        assert out[free].tobytes() == low[free].tobytes(), where
        assert np.array_equal(policy[free], (q == low).argmax(axis=0)[free]), where
        assert out[pinned].tobytes() == sweeper.pin_values.tobytes(), where
        assert (policy[pinned] == solvers.UNSET_POLICY).all(), where
    frozen = rng.integers(0, m, N)
    out = sweeper.evaluation_sweep(values, sweeper.policy_rows(h.PolicyField(sweeper.grid, frozen)))
    assert out[free].tobytes() == q[frozen, np.arange(N)][free].tobytes(), where
    assert out[pinned].tobytes() == sweeper.pin_values.tobytes(), where


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("path", sorted(ORACLE_PATHS))
@pytest.mark.parametrize("name,n", CATALOG_CASES)
def test_row_set_contract(name, n, path, workers, monkeypatch):
    """conftest's row-set contract on each catalog problem, on every path
    of ORACLE_PATHS at 1 and 2 workers: CSR rows, diagonals (on the stored
    paths of DIAGONAL_CASES) and matrix-free rows."""
    entry = h.catalog(name)
    grid = entry.spec.domain_grid(n)
    sweeper, _ = check_row_set_contract(entry.spec, grid, entry.controls, entry.dt_for(grid),
                                        path, workers, monkeypatch)
    assert sweeper.diagonal.any() == (name in DIAGONAL_CASES and not sweeper.matrix_free)


@pytest.mark.parametrize("layout", ["stored", "unstored"])
@pytest.mark.parametrize("name,n", CATALOG_CASES)
def test_policy_rows_are_rows_of_the_operator(name, n, layout, monkeypatch, rng):
    """The frozen-policy rows of a random policy pass the row-set contract
    (check_policy_rows), and row i of them is row policy[i] * N + i of the
    operator the sweeps apply, on the non-pinned nodes: the same products,
    bit for bit, the same stage cost and the same exterior term.  The
    stored operator is taken from its blocks of one control each, kept by
    a sweep; the unstored one is built at once, separable controls
    matrix-free.  Every build is poisoned (poison_builds)."""
    poison_builds(monkeypatch)
    if layout == "stored":
        monkeypatch.setattr(solvers, "_BLOCK_ROWS", 1)
    else:
        monkeypatch.setattr(solvers, "_OPERATOR_NNZ_LIMIT", 0)
    entry = h.catalog(name)
    grid = entry.spec.domain_grid(n)
    m, N = len(entry.controls), grid.num_nodes
    sweeper = _Sweeper(entry.spec, grid, entry.controls,
                       h.SolverConfig(dt=entry.dt_for(grid), workers=1))
    assert sweeper.stored == (layout == "stored")
    policy = rng.integers(0, m, N)
    fields = contract_fields(rng, N)
    frozen = check_policy_rows(sweeper, policy, fields)
    if sweeper.stored:
        sweeper.bellman_sweep(np.zeros(N))
        blocks = sweeper.kept
        assert len(blocks) == m
    else:
        blocks = [sweeper._fill_block(range(m))[0]]
    free = np.flatnonzero(~sweeper.pinned)
    rows = policy[free] * N + free
    for v in fields[:2]:
        transposed = np.ascontiguousarray(v.reshape(grid.shape).T)
        want = np.concatenate([sweeper._product(block, v, transposed) for block in blocks])
        assert sweeper._product(frozen, v, transposed)[free].tobytes() == want[rows].tobytes()
    c = np.concatenate([np.broadcast_to(block.c, block.size) for block in blocks])
    assert np.broadcast_to(frozen.c, N)[free].tobytes() == c[rows].tobytes()
    starts = np.cumsum([0] + [block.size for block in blocks])
    outside = np.concatenate([block.outside + start for block, start in zip(blocks, starts)])
    assert np.array_equal(np.isin(free, frozen.outside), np.isin(rows, outside))


@pytest.mark.parametrize("name,n", CATALOG_CASES)
def test_policy_rows_hold_one_stage_cost_and_number_their_empty_rows(name, n, monkeypatch,
                                                                     rng):
    """The frozen-policy _Block holds its N rows in node order as one row
    set.  Its c is the one number 1 - e^{-dt} for a minimum-time problem
    and, for a discounted one, dt * l(x_i, a_policy[i]) per node with 0 on
    the pinned nodes; its `outside` is, ascending and as int32, the
    non-pinned rows whose weights sum to 0, i.e. that have no entries.
    The rows are built into poisoned arrays (poison_builds)."""
    poison_builds(monkeypatch)
    entry = h.catalog(name)
    spec, grid = entry.spec, entry.spec.domain_grid(n)
    m, N = len(entry.controls), grid.num_nodes
    sweeper = _Sweeper(spec, grid, entry.controls,
                       h.SolverConfig(dt=4 * entry.dt_for(grid), workers=1))
    policy = rng.integers(0, m, N)
    frozen = sweeper.policy_rows(h.PolicyField(grid, policy))
    assert len(frozen.controls) == 1 and frozen.size == N
    free = ~sweeper.pinned
    if spec.minimum_time:
        assert type(frozen.c) is float and frozen.c == -math.expm1(-sweeper.dt)
    else:
        want = np.zeros(N)
        for j in range(m):
            at = free & (policy == j)
            want[at] = sweeper.dt * spec.running_cost(grid.nodes()[at], entry.controls.vectors[j])
        assert frozen.c.dtype == np.float64 and frozen.c.tobytes() == want.tobytes()
    ones = np.ones(N)
    empty = np.flatnonzero((sweeper._product(frozen, ones, ones) == 0) & free)
    assert frozen.outside.dtype == np.int32
    assert np.array_equal(frozen.outside, empty)


def drift_spec(dim, lower, width, drift):
    """A discounted problem with the given constant-plus-wave drift."""
    wave = np.linspace(0.2, 0.7, dim)
    return ProblemSpec(
        state_dim=dim,
        dynamics=lambda pts, a: np.asarray(a) + np.sin(pts * 3.0 + wave) * drift,
        running_cost=lambda pts, a: np.ones(pts.shape[0]),
        kind=InfiniteHorizon(1.0),
        lower=(lower,) * dim,
        upper=(lower + width,) * dim,
        exterior_value=0.0,
    )


@st.composite
def operators(draw):
    dim = draw(st.integers(1, 4))
    nodes = draw(st.integers(2, 6 if dim < 4 else 4))
    lower = draw(st.floats(-3.0, 3.0))
    width = draw(st.floats(0.5, 5.0))
    drift = draw(st.floats(0.0, 2.0))
    dt = draw(st.floats(0.01, 1.5))
    seed = draw(st.integers(0, 2 ** 16))
    controls = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(3, dim))
    spec = drift_spec(dim, lower, width, drift)
    grid = spec.domain_grid(nodes)
    sweeper = _Sweeper(spec, grid, h.ControlSet(controls), h.SolverConfig(dt=dt))
    return sweeper, seed


@settings(max_examples=60, deadline=None)
@given(operators())
def test_rows_are_monotone_and_reproduce_affine_functions(case):
    sweeper, seed = case
    grid = sweeper.grid
    rng = np.random.default_rng(seed)
    alpha, beta = rng.normal(), rng.normal(size=grid.dim)
    affine = alpha + grid.nodes() @ beta
    for j in range(len(sweeper.controls)):
        B = control_rows(sweeper, j)
        assert np.all(B.data >= 0.0)
        sums = np.asarray(B.sum(axis=1)).ravel()
        in_box = np.diff(B.indptr) > 0
        assert np.all(sums <= 1.0 + 1e-12)
        assert np.allclose(sums[in_box], 1.0, rtol=0.0, atol=1e-12)
        a = sweeper.controls.vectors[j]
        nodes = sweeper.nodes
        arrivals = nodes + sweeper.dt * np.asarray(sweeper.spec.dynamics(nodes, a))
        scale = 1.0 + np.abs(alpha) + np.abs(arrivals) @ np.abs(beta)
        error = np.abs((B @ affine) - (alpha + arrivals @ beta))
        assert np.all(error[in_box] <= 1e-12 * scale[in_box])


def test_unstored_and_blocked_sweeps_match_stored(monkeypatch):
    entry = h.catalog("test4_eik2d", control_count=16)
    grid = entry.spec.domain_grid(41)
    cfg = h.SolverConfig(dt=entry.dt_for(grid))

    def solve():
        V, P, rep = h.value_iteration(entry.spec, grid, entry.controls, cfg)
        # a constant field ties every control at interior nodes
        _, ties = h.bellman_update(entry.spec, grid, h.ValueField.full(grid, 0.5),
                                   entry.controls, cfg)
        return V.values, P.indices, rep.outer_iterations, ties.indices

    stored = solve()
    monkeypatch.setattr(solvers, "_OPERATOR_NNZ_LIMIT", 0)
    sweeper = _Sweeper(entry.spec, grid, entry.controls, cfg)
    sweeper.bellman_sweep(np.zeros(grid.num_nodes))
    # every control is separable, so every block is matrix-free and kept
    assert not sweeper.stored and sweeper.matrix_free and sweeper.separable.all()
    assert all(sweeper.kept)
    unstored = solve()
    # one control per block exercises the cross-block merge
    monkeypatch.setattr(solvers, "_BLOCK_ROWS", 1)
    blocked = solve()
    for other in (unstored, blocked):
        assert np.array_equal(stored[0], other[0])
        assert np.array_equal(stored[1], other[1])
        assert stored[2] == other[2]
        assert np.array_equal(stored[3], other[3])


SWEEP_PATHS = {
    "stored": {},
    "unstored": {"_OPERATOR_NNZ_LIMIT": 0},
    # one control per block, so every case with >= 3 controls merges >= 3 blocks
    "blocked": {"_BLOCK_ROWS": 1},
}


@pytest.mark.parametrize("path", sorted(SWEEP_PATHS))
@pytest.mark.parametrize("name,n,overrides", SMALL_CASES)
def test_values_only_sweep_is_bit_identical(name, n, overrides, path, rng,
                                            monkeypatch):
    for attr, value in SWEEP_PATHS[path].items():
        monkeypatch.setattr(solvers, attr, value)
    entry = h.catalog(name, **overrides)
    grid = entry.spec.domain_grid(n)
    sweeper = _Sweeper(entry.spec, grid, entry.controls,
                       h.SolverConfig(dt=entry.dt_for(grid)))
    assert sweeper.stored is (path != "unstored")
    if path == "blocked":
        assert len(sweeper.blocks) == len(entry.controls) >= 3
    fields = [
        rng.uniform(0.0, 2.0, grid.num_nodes),
        rng.normal(size=grid.num_nodes),
        # constant fields tie controls exactly across blocks
        np.full(grid.num_nodes, 0.5),
        np.zeros(grid.num_nodes),
        np.full(grid.num_nodes, -0.0),
    ]
    for values in fields:
        full, pol, evals = sweeper.bellman_sweep(values)
        only, none, evals_only = sweeper.bellman_sweep(values, policy=False)
        assert none is None
        assert only.tobytes() == full.tobytes()
        assert evals_only == evals == sweeper.active_count * len(entry.controls)


MINIMUM_TIME_CASES = [(name, n) for name, n in CATALOG_CASES
                      if h.catalog(name).spec.minimum_time]


def ulp_fields(rng, N):
    """Fields whose neighbouring values lie a few ulps apart, near 0 (signed
    zeros and subnormals) and just below 1, so that distinct products round
    to one update."""
    steps = rng.integers(0, 4, N)
    return [np.where(rng.random(N) < 0.5, -0.0, 0.0),
            steps * np.spacing(0.0),
            1.0 - steps * np.spacing(0.5)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("path", sorted(ORACLE_PATHS))
@pytest.mark.parametrize("name,n", MINIMUM_TIME_CASES)
def test_minimum_time_values_only_sweep_takes_the_minimum_first(name, n, path, workers,
                                                                monkeypatch, rng):
    """A value-only sweep of a minimum-time problem takes the minimum of
    B @ v before discount * min + c, forming no update per row, and gives
    the bits of the policy sweep, which forms them all: on every path of
    ORACLE_PATHS (CSR rows, diagonals, matrix-free rows, rebuilt over the
    budget, one control per block), at 1 and 2 workers, with rows that
    leave the box, from random fields and from fields whose distinct
    products round to one update."""
    entry = h.catalog(name)
    grid = entry.spec.domain_grid(n)
    settings, store_separable = ORACLE_PATHS[path]
    for attr, value in settings.items():
        monkeypatch.setattr(solvers, attr, value)
    if workers > 1:
        monkeypatch.setattr(solvers, "_MIN_THREAD_ROWS", 1)
        monkeypatch.setattr(solvers, "_BLOCK_ROWS", min(solvers._BLOCK_ROWS, 4 * grid.num_nodes))
    stages = []
    add_stage = _Sweeper._add_stage

    def spied(self, q, block):
        stages.append(block.size)
        return add_stage(self, q, block)

    monkeypatch.setattr(_Sweeper, "_add_stage", spied)
    N, m = grid.num_nodes, len(entry.controls)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=workers)
    with _Sweeper(entry.spec, grid, entry.controls, cfg,
                  store_separable=store_separable) as sweeper:
        assert sweeper.threads == workers
        assert len(sweeper._fill_block(range(m))[0].outside)  # rows leave the box
        fields = [rng.uniform(0.0, 2.0, N), rng.normal(size=N), *ulp_fields(rng, N)]
        for values in fields:
            full, _, _ = sweeper.bellman_sweep(values)
            assert sum(stages) == m * N
            stages.clear()
            only, none, _ = sweeper.bellman_sweep(values, policy=False)
            assert none is None and not stages
            assert only.tobytes() == full.tobytes()
    # near 1, distinct products do round to one update
    indptr, indices, data, c = general_rows(sweeper, range(m))
    products = sp.csr_matrix((data, indices, indptr), shape=(m * N, N)) @ fields[-1]
    updates = sweeper.discount * products + c
    assert distinct(products, m) > distinct(updates, m)


def distinct(rows, m):
    """The number of distinct values among a node's m rows, less one,
    summed over the nodes."""
    return int(np.count_nonzero(np.diff(np.sort(rows.reshape(m, -1), axis=0), axis=0)))


@pytest.mark.parametrize("name,n", [("test1_1d", 81), ("test4_eik2d", 41),
                                    ("heat3_rom", 11)])
def test_value_iteration_matches_full_sweep_loop(name, n):
    entry = h.catalog(name)
    grid = entry.spec.domain_grid(n)
    cfg = h.SolverConfig(dt=entry.dt_for(grid))
    V, P, rep = h.value_iteration(entry.spec, grid, entry.controls, cfg)

    # the loop of value_iteration with argmin sweeps throughout
    sweeper = _Sweeper(entry.spec, grid, entry.controls, cfg)
    v = h.default_initial_field(entry.spec, grid).values
    history = []
    for _ in range(cfg.max_iterations):
        new, _, _ = sweeper.bellman_sweep(v)
        r = float(np.max(np.abs(new - v)))
        history.append(r)
        v = new
        if r <= cfg.epsilon(grid):
            break
    _, pol, _ = sweeper.bellman_sweep(v)

    assert rep.converged
    assert V.values.tobytes() == v.tobytes()
    assert np.array_equal(P.indices, pol)
    assert rep.outer_iterations == len(history)
    assert rep.residual_history == history
    assert rep.node_updates == (len(history) + 1) * sweeper.active_count * len(
        entry.controls)


def shift_spec(dim):
    """A discounted problem on [-1, 1]^dim with a state-dependent running
    cost.  Control a moves every node by a[:dim], or, when a[dim] is 1, by a
    drift that depends on the state."""

    def dynamics(p, a):
        if a[dim]:
            return a[0] * p[..., ::-1] + a[1]
        return np.broadcast_to(a[:dim], p.shape)

    return ProblemSpec(
        state_dim=dim,
        dynamics=dynamics,
        running_cost=lambda p, a: np.sum(p * p, axis=-1) + 1.0,
        kind=InfiniteHorizon(1.0),
        lower=(-1.0,) * dim,
        upper=(1.0,) * dim,
        exterior_value=2.0,
    )


# Per case: the dimension, the nodes per axis, the controls in cells (the
# last entry 1 for a state-dependent one) and which take diagonals.
DIAGONAL_LAYOUTS = {
    # unshifted axes: their last node clamps onto the upper face, and
    # rounding puts others in the cell below, so CSR rows remain
    "zero_shift": (2, 21, [[0.0, 0.37, 0], [0.37, 0.0, 0], [0.0, 0.0, 0], [0.3, -0.6, 0]],
                   [True, True, True, True]),
    # arrivals leaving the box by less than a cell, by one cell or by more
    # than two.  The whole-cell shift lands on nodes, where rounding puts
    # arrivals in either cell, and the last three keep too few rows in the
    # box: too few regular rows for diagonals.
    "leaving": (2, 15, [[0.4, 0.0, 0], [1.0, 0.2, 0], [-2.5, 0.3, 0], [3.0, 3.0, 0],
                        [-20.0, 0.0, 0], [0.5, 9.0, 0]],
                [True, False, True, False, False, False]),
    # separable and state-dependent controls in one block
    "mixed": (2, 13, [[0.3, 0.2, 0], [-0.5, 0.1, 1], [-0.45, 0.1, 0], [-1.0, -0.3, 1]],
              [True, False, True, False]),
    # shifts with the same cell offsets, and shifts whose corners share
    # offsets, in one block: one scipy DIA matrix of the block's controls
    # would repeat offsets
    "colliding": (2, 11, [[0.3, 0.3, 0], [0.31, 0.29, 0], [1.3, 0.3, 0], [0.3, 1.3, 0],
                          [-0.7, -0.7, 0]],
                  [True] * 5),
    "three_d": (3, 15, [[0.3, 0.2, 0.1, 0], [0.0, 0.4, -0.2, 0], [0.0, 0.0, 0.5, 0],
                        [-0.7, 0.3, 0.0, 0], [0.2, -0.5, 0.1, 1]],
                [True, True, True, True, False]),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(DIAGONAL_LAYOUTS))
def test_diagonal_rows_match_the_oracle(case, workers, monkeypatch, rng):
    """Bellman and frozen-policy sweeps over rows held as diagonals match
    the interpolation oracle bit for bit, in one block and in blocks of
    one control, with 1 and 2 workers.  Where irregular rows remain, CSR
    rows hold them beside the diagonals."""
    dim, nodes, cells, diagonal = DIAGONAL_LAYOUTS[case]
    spec = shift_spec(dim)
    grid = spec.domain_grid(nodes)
    h0 = grid.spacing[0]
    controls = h.ControlSet([[x * h0 for x in a[:dim]] + a[dim:] for a in cells])
    for one_control in (False, True):
        with monkeypatch.context() as patch:
            if one_control:
                patch.setattr(solvers, "_BLOCK_ROWS", 1)
            if workers > 1:
                patch.setattr(solvers, "_MIN_THREAD_ROWS", 1)
            with _Sweeper(spec, grid, controls, h.SolverConfig(dt=1.0, workers=workers)) as sweeper:
                where = f"{case}, {len(sweeper.blocks)} blocks, {workers} workers"
                assert sweeper.threads == min(workers, len(sweeper.blocks)), where
                check_sweeps_against_oracle(sweeper, rng, where)
                assert sweeper.diagonal.tolist() == diagonal, where
                if case in ("zero_shift", "leaving", "three_d"):
                    # a control held as diagonals with CSR entries has irregular rows
                    assert any(sweeper.diagonal[j] and rows.nnz
                               for js, block in zip(sweeper.blocks, sweeper.kept)
                               for j, rows in zip(js, block.controls)), where


def test_dia_matvec_adds_one_diagonal_at_a_time():
    """solvers applies diagonals with scipy's private DIA kernel,
    dia_matvec(n_row, n_col, n_diags, L, offsets, diags, x, y), which adds
    diags[k, i] * x[i] into y[i - offsets[k]] for each diagonal k in turn,
    into y as given.  A scipy release that renames it or changes what it
    computes fails here rather than in every stored sweep."""
    rng = np.random.default_rng(5)
    n = 7
    offsets = np.array([-2, 0, 3], dtype=np.int32)
    diags = rng.uniform(0.0, 1.0, (len(offsets), n))
    x, y = rng.normal(size=n), rng.normal(size=n)
    want = y.copy()
    for k, offset in enumerate(offsets):
        for i in range(max(0, offset), min(n + offset, n)):
            want[i - offset] += diags[k, i] * x[i]
    solvers.dia_matvec(n, n, len(offsets), n, offsets, diags, x, y)
    assert y.tobytes() == want.tobytes()
