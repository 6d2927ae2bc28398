"""Separable controls applied matrix-free.

bellman_update, policy_iteration with V_init (so API's fine phase) and any
operator over the nnz budget apply the rows of a separable control (one
whose velocity is bitwise the same at every node) without storing them;
value iteration and cold-started policy iteration keep the stored CSR rows.
Both paths must give the same bits.  The reference here stores every row,
for every caller; the operators are small, so the block and thread sizes
are patched to split them into several blocks and to hand those to threads.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import hjbsolve as h
from hjbsolve import solvers
from hjbsolve.problems import InfiniteHorizon, ProblemSpec
from hjbsolve.solvers import _ShiftedRows, _Sweeper

from conftest import PEAK_SOURCE, POISONED_VALUES, poison_builds, poisoned_outcome

CASES = [
    ("test4_eik2d", 15, {"control_count": 12}),
    ("test6_eik3d", 9, {"control_counts": (6, 4)}),
    ("test7_eik3d_spheres", 13, {"control_counts": (4, 3)}),
    ("test8_min4d", 7, {}),
]
# "stored" stores every row, "default" is the shipped rule, "unstored" puts
# every operator over the budget
MODES = ("stored", "default", "unstored")


class StoredSweeper(_Sweeper):
    """A sweeper that stores separable rows whoever asks."""

    def __init__(self, *args, store_separable=True):
        super().__init__(*args)


def set_mode(monkeypatch, mode, grid):
    monkeypatch.setattr(solvers, "_BLOCK_ROWS", 3 * grid.num_nodes)
    monkeypatch.setattr(solvers, "_MIN_THREAD_ROWS", 1)
    if mode == "stored":
        monkeypatch.setattr(solvers, "_Sweeper", StoredSweeper)
    elif mode == "unstored":
        monkeypatch.setattr(solvers, "_OPERATOR_NNZ_LIMIT", 0)


def outcome(V, P, report):
    """Everything a solve returns that must not depend on the path."""
    phases = report.phases or {"": report}
    return (V.values.tobytes(), P.indices.tobytes(), report.outer_iterations,
            report.node_updates, report.converged, report.residual_history,
            report.sub_iteration_history,
            [(key, sub.policy_changes) for key, sub in phases.items()])


def matrix_free_counts(report):
    phases = report.phases or {"": report}
    return {key: sub.operator_matrix_free_controls for key, sub in phases.items()}


def solve_all(spec, controls, fine, coarse, dt, workers, rng):
    """VI, cold and warm PI, API and two Bellman updates on one problem:
    their outcomes, and the matrix-free control counts of their reports."""
    cfg = h.SolverConfig(dt=dt(fine), workers=workers)
    ccfg = h.SolverConfig(dt=dt(coarse), stop_constant=5.0, workers=workers)
    V, P, vi = h.value_iteration(spec, fine, controls, cfg)
    guess = h.ValueField(fine, V.values * rng.uniform(0.8, 1.0, fine.num_nodes))
    runs = {
        "vi": (V, P, vi),
        "cold_pi": h.policy_iteration(spec, fine, controls, cfg),
        "warm_pi": h.policy_iteration(spec, fine, controls, cfg, V_init=guess),
        "api": h.api_solve(spec, coarse, fine, controls, ccfg, cfg),
    }
    results = {key: outcome(*run) for key, run in runs.items()}
    for key, field in (("update", guess), ("ties", h.ValueField.full(fine, 0.5))):
        T, U = h.bellman_update(spec, fine, field, controls, cfg)
        results[key] = T.values.tobytes(), U.indices.tobytes()
    return results, {key: matrix_free_counts(run[2]) for key, run in runs.items()}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name,n,overrides", CASES)
def test_solvers_match_the_stored_operator(name, n, overrides, workers, monkeypatch):
    entry = h.catalog(name, **overrides)
    fine = entry.spec.domain_grid(n)
    coarse = entry.spec.domain_grid((n + 1) // 2)
    m = len(entry.controls)
    runs = {}
    for mode in MODES:
        with monkeypatch.context() as patch:
            set_mode(patch, mode, fine)
            runs[mode] = solve_all(entry.spec, entry.controls, fine, coarse,
                                   entry.dt_for, workers, np.random.default_rng(7))
    results = {mode: result for mode, (result, _) in runs.items()}
    assert results["stored"] == results["default"] == results["unstored"]
    counts = {mode: count for mode, (_, count) in runs.items()}
    assert all(c == 0 for run in counts["stored"].values() for c in run.values())
    assert counts["default"] == {
        "vi": {"": 0}, "cold_pi": {"": 0}, "warm_pi": {"": m},
        "api": {"coarse": 0, "fine": m},
    }
    assert all(c == m for run in counts["unstored"].values() for c in run.values())


def square_spec(dynamics, running_cost=None):
    """A discounted problem on [-1, 1]^2 whose nodes sit at exact binary
    coordinates on a 9-node grid, so that shifts by whole cells land
    exactly on nodes and on the upper face."""
    return ProblemSpec(
        state_dim=2,
        dynamics=dynamics,
        running_cost=running_cost or (lambda p, a: np.sum(p * p, axis=-1) + a[0]),
        kind=InfiniteHorizon(1.0),
        lower=(-1.0, -1.0),
        upper=(1.0, 1.0),
        exterior_value=2.0,
    )


def constant_drift(p, a):
    return np.broadcast_to(a[:2], p.shape)


def mixed_drift(p, a):
    """The constant drift a[:2], except for controls with a[2] = 1, whose
    drift depends on the state."""
    if a[2] == 0:
        return np.full_like(p, a[:2])
    return a[0] * p[..., ::-1] + a[1]


EDGE_SHIFTS = [
    [0.25, 0.0, 0],     # one cell: the last arrival lies on the upper face
    [0.0, -0.5, 0],     # two cells toward the lower face
    [0.5, 0.25, 0],     # whole cells on both axes
    [0.1, -0.3, 0],
    [3.0, 0.0, 0],      # every arrival outside the box
    [-2.5, 2.5, 0],     # every arrival outside the box
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dynamics", [constant_drift, mixed_drift])
def test_edge_controls_match_the_stored_operator(dynamics, workers, monkeypatch):
    controls = h.ControlSet(EDGE_SHIFTS + [[-0.5, 0.2, 1], [-1.0, -0.1, 1]])
    spec = square_spec(dynamics)
    fine, coarse = spec.domain_grid(9), spec.domain_grid(5)
    assert fine.spacing == (0.25, 0.25)
    runs = {}
    for mode in MODES:
        with monkeypatch.context() as patch:
            set_mode(patch, mode, fine)
            runs[mode] = solve_all(spec, controls, fine, coarse, lambda g: 1.0,
                                   workers, np.random.default_rng(3))[0]
    assert runs["stored"] == runs["default"] == runs["unstored"]
    sweeper = _Sweeper(spec, fine, controls, h.SolverConfig(dt=1.0, workers=1),
                       store_separable=False)
    block, _ = sweeper._fill_block(range(len(controls)))
    separable = len(EDGE_SHIFTS) + (2 if dynamics is constant_drift else 0)
    assert sweeper.separable.tolist() == [True] * separable + [False] * (
        len(controls) - separable)
    rows = block.controls
    # the one-cell shift clamps its last arrivals onto the upper face of the
    # first axis, and every arrival of the unshifted second axis lies on a
    # node, so both are gathered; the last two edge shifts have no in-box row
    assert rows[0].gathered == [0, 1] and rows[2].gathered == [0, 1]
    assert rows[3].gathered == []
    assert rows[4].empty and rows[5].empty


@pytest.mark.parametrize("workers", [1, 2])
def test_row_pointers_are_written_before_they_are_read(workers, monkeypatch):
    """_csr_arrays leaves every row pointer unwritten.  With every build
    poisoned (conftest's poison_builds: row pointers, columns, weights and
    stage costs), every mode gives the unpoisoned stored bits.  The first
    control is separable and the second is not, so that a matrix-free block
    of both allocates its CSR arrays at the second."""
    controls = h.ControlSet([[0.1, -0.3, 0], [-0.5, 0.2, 1], [0.25, 0.0, 0],
                             [-1.0, -0.1, 1]])
    spec = square_spec(mixed_drift)
    fine, coarse = spec.domain_grid(9), spec.domain_grid(5)

    def run(mode):
        with monkeypatch.context() as patch:
            set_mode(patch, mode, fine)
            return solve_all(spec, controls, fine, coarse, lambda g: 1.0, workers,
                             np.random.default_rng(5))[0]

    reference = run("stored")
    poison_builds(monkeypatch)
    for mode in MODES:
        assert run(mode) == reference, mode


def matrix_free_rows(spec, grid, controls, dt):
    """The _ShiftedRows of the separable controls that have in-box rows."""
    sweeper = _Sweeper(spec, grid, controls, h.SolverConfig(dt=dt, workers=1),
                       store_separable=False)
    block, _ = sweeper._fill_block(range(len(controls)))
    return [rows for rows in block.controls if type(rows) is _ShiftedRows and not rows.empty]


def chunked_runs(spec, controls, fine, coarse, dt, workers, monkeypatch):
    """solve_all in every mode with _FILL_ROWS at three last-axis planes of
    `fine`, so that every sub-box spans several chunks; also the
    matrix-free rows of `fine`."""
    runs = {}
    for mode in MODES:
        with monkeypatch.context() as patch:
            set_mode(patch, mode, fine)
            patch.setattr(solvers, "_FILL_ROWS", 3 * fine.num_nodes // fine.shape[-1])
            runs[mode] = solve_all(spec, controls, fine, coarse, dt, workers,
                                   np.random.default_rng(11))[0]
            rows = matrix_free_rows(spec, fine, controls, dt(fine))
    # every sub-box spans several chunks, and some end in a smaller one
    planes = [r.factors.shape[1] for r in rows]
    assert rows and all(k > r.chunk for k, r in zip(planes, rows))
    assert any(k % r.chunk for k, r in zip(planes, rows))
    return runs, rows


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name,n,overrides", [CASES[1], CASES[3]])
def test_chunked_sub_boxes_match_the_stored_operator(name, n, overrides, workers,
                                                     monkeypatch):
    entry = h.catalog(name, **overrides)
    fine = entry.spec.domain_grid(n)
    runs, rows = chunked_runs(entry.spec, entry.controls, fine,
                              entry.spec.domain_grid((n + 1) // 2), entry.dt_for, workers,
                              monkeypatch)
    assert runs["stored"] == runs["default"] == runs["unstored"]
    gathered = {axis for r in rows for axis in r.gathered}
    assert {0, 1} <= gathered
    if name == "test8_min4d":
        assert fine.dim - 1 in gathered  # the last axis too


@pytest.mark.parametrize("workers", [1, 2])
def test_one_dimensional_rows_match_the_stored_operator(workers, monkeypatch):
    """A 1-D separable problem on 9 nodes at exact binary coordinates: a
    zero velocity lands every arrival on its node, the last clamped onto
    the upper face's cell, and a one-cell shift clamps the last in-box
    arrival onto the upper face; the axis of both is gathered."""
    spec = ProblemSpec(
        state_dim=1,
        dynamics=lambda p, a: np.broadcast_to(a, p.shape),
        running_cost=lambda p, a: p[:, 0] ** 2 + a[0],
        kind=InfiniteHorizon(1.0),
        lower=(-1.0,),
        upper=(1.0,),
        exterior_value=2.0,
    )
    controls = h.ControlSet([[0.0], [0.25], [-0.1], [0.3], [-0.5]])
    fine = spec.domain_grid(9)
    assert fine.spacing == (0.25,)
    runs, rows = chunked_runs(spec, controls, fine, spec.domain_grid(5), lambda g: 1.0,
                              workers, monkeypatch)
    assert runs["stored"] == runs["default"] == runs["unstored"]
    still, step = rows[:2]
    assert still.gathered == [0] and still.corner_nodes[0][0].tolist() == [*range(8), 7]
    assert step.gathered == [0] and step.corner_nodes[0][0].tolist() == [*range(1, 8), 7]
    assert [r.gathered for r in rows[2:]] == [[], [], []]


@pytest.mark.parametrize("poison", ["cost"] + POISONED_VALUES)
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("mode", MODES)
def test_non_finite_cost_names_the_lowest_node_and_control(mode, workers, poison,
                                                           monkeypatch):
    """A separable control whose running cost is inf at nodes with x > 0.3:
    every path and worker count names the same lowest (node, control).  So
    it does for a minimum-time field with one poisoned value, or gives the
    same bits (poisoned_outcome)."""
    if poison != "cost":
        entry = h.catalog("test4_eik2d", control_count=16)
        grid = entry.spec.domain_grid(9)
        set_mode(monkeypatch, mode, grid)
        monkeypatch.setattr(solvers, "_BLOCK_ROWS", grid.num_nodes)
        cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=workers, max_iterations=5)
        poisoned_outcome(entry.spec, grid, entry.controls, cfg, poison)
        return
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    controls = h.ControlSet(0.2 * np.stack([np.cos(angles), np.sin(angles)], axis=1))

    def poisoned(p, a):
        bad = np.where(p[:, 0] > 0.3, np.inf, 1.0) if a[1] > 0.1 else 1.0
        return np.sum(p * p, axis=-1) * bad

    spec = square_spec(constant_drift, poisoned)
    grid = spec.domain_grid(9)
    first_bad = int(np.flatnonzero(controls.vectors[:, 1] > 0.1)[0])
    first_node = int(np.flatnonzero(grid.nodes()[:, 0] > 0.3)[0])
    assert first_bad > 0
    set_mode(monkeypatch, mode, grid)
    monkeypatch.setattr(solvers, "_BLOCK_ROWS", grid.num_nodes)
    cfg = h.SolverConfig(dt=1.0, workers=workers)
    zero = h.ValueField.full(grid, 0.0)
    for solve in (
        lambda: h.value_iteration(spec, grid, controls, cfg),
        lambda: h.policy_iteration(spec, grid, controls, cfg),
        lambda: h.policy_iteration(spec, grid, controls, cfg, V_init=zero),
        lambda: h.bellman_update(spec, grid, zero, controls, cfg),
    ):
        with pytest.raises(h.SolverError,
                           match=f"^non-finite update at node {first_node} "
                                 f"under control {first_bad}$"):
            solve()


@pytest.mark.parametrize("name", ["test2_vdp", "test4_eik2d", "mixed"])
def test_over_budget_sweeps_set_separable_blocks_up_once(name, monkeypatch):
    """Over the budget, a block of separable controls is set up by the
    first sweep and kept; a block with a state-dependent control is built
    in every sweep."""
    if name == "mixed":
        spec = square_spec(mixed_drift)
        controls = h.ControlSet([row for k in range(1, 5)
                                 for row in ([0.1 * k, 0.0, 0], [-0.5, 0.1 * k, 1])])
    else:
        entry = h.catalog(name, control_count=8)
        spec, controls = entry.spec, entry.controls
    grid = spec.domain_grid(9)
    monkeypatch.setattr(solvers, "_OPERATOR_NNZ_LIMIT", 0)
    monkeypatch.setattr(solvers, "_BLOCK_ROWS", 2 * grid.num_nodes)
    calls = []
    fill = _Sweeper._fill_block

    def counted(self, js, arrays=None):
        calls.append(js)
        return fill(self, js, arrays)

    monkeypatch.setattr(_Sweeper, "_fill_block", counted)
    values = np.random.default_rng(5).uniform(0.0, 1.0, grid.num_nodes)
    with _Sweeper(spec, grid, controls, h.SolverConfig(dt=0.1, workers=1)) as sweeper:
        first = sweeper.bellman_sweep(values)
        for _ in range(2):
            again = sweeper.bellman_sweep(values)
            assert again[0].tobytes() == first[0].tobytes()
            assert again[1].tobytes() == first[1].tobytes()
    sweeps = 1 if name == "test4_eik2d" else 3
    assert len(sweeper.blocks) == 4
    assert calls == sweeper.blocks * sweeps
    assert (sweeper.nnz > 0) == (name != "test4_eik2d")


MEMORY_SCRIPT = PEAK_SOURCE + textwrap.dedent("""
    import numpy as np
    import hjbsolve as h
    from hjbsolve.solvers import _Sweeper

    entry = h.catalog("test6_eik3d")
    grid = entry.spec.domain_grid(41)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=2, max_iterations=2)
    guess = h.ValueField(grid, -np.expm1(-h.minimum_time_reference(entry)(grid.nodes())))
    baseline = peak()
    h.bellman_update(entry.spec, grid, guess, entry.controls, cfg)
    _, _, report = h.policy_iteration(entry.spec, grid, entry.controls, cfg, V_init=guess)
    assert report.operator_matrix_free_controls == len(entry.controls)
    top = peak()
    # the operator's empty rows, counted once the peak is taken
    with _Sweeper(entry.spec, grid, entry.controls, cfg, store_separable=False) as sweeper:
        sweeper.bellman_sweep(guess.values)
        outside = sum(len(block.outside) for block in sweeper.kept)
    print(baseline, top, outside, len(entry.controls), grid.num_nodes, grid.dim)
""")


def test_matrix_free_memory_at_41_cubed():
    """bellman_update and a warm-started PI on test6_eik3d at 41^3 peak at
    no more than the import baseline, plus 4 bytes per empty row for their
    numbers, plus 24 * 2^d bytes per node for the frozen-policy rows and
    the temporaries of the blocks in flight, plus a 48 MB margin: ~63 MB,
    where the stored CSR operator alone is 12 * 2^d * m * N bytes
    (~808 MB).  It measures ~37 MB, and ~102 MB with an 8-byte stage cost
    per row."""
    src = str(pathlib.Path(h.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", MEMORY_SCRIPT], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    baseline, peak, outside, m, n, dim = map(int, out.split())
    bound = baseline + 4 * outside + 24 * 2 ** dim * n + 48 * 2 ** 20
    assert peak <= bound < baseline + 12 * 2 ** dim * m * n / 4


REPEATED_API_SCRIPT = PEAK_SOURCE + textwrap.dedent("""
    import hjbsolve as h

    entry = h.catalog("test6_eik3d")
    fine, coarse = entry.spec.domain_grid(41), entry.spec.domain_grid(21)
    fine_cfg = h.SolverConfig(dt=entry.dt_for(fine), workers=2)
    coarse_cfg = h.SolverConfig(dt=entry.dt_for(coarse), stop_constant=5.0, workers=2)
    baseline = peak()
    for _ in range(3):
        _, _, report = h.api_solve(entry.spec, coarse, fine, entry.controls, coarse_cfg,
                                   fine_cfg)
        assert report.phases["fine"].operator_matrix_free_controls == len(entry.controls)
    print(baseline, peak())
""")


def test_repeated_api_memory_at_41_cubed():
    """Three successive api_solve calls of test6_eik3d at 41^3/21^3 on two
    threads, in one process, peak at no more than 108 MB over the import
    baseline.  The later calls peak 7-13 MB above the first (~91 MB), in
    the heap the earlier ones freed: 97.5-103.4 MB over 20 runs on a
    2-core VM, where an 8-byte stage cost per row peaked at 112-118.6 MB."""
    src = str(pathlib.Path(h.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", REPEATED_API_SCRIPT], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    baseline, peak = map(int, out.split())
    assert peak <= baseline + 108 * 2 ** 20
