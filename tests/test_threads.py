"""Bellman sweeps and operator builds on worker threads.

The operators here are small, so `_BLOCK_ROWS` and `_MIN_THREAD_ROWS` are
patched to split them into at least four blocks of controls for every worker
count and to hand those blocks to threads.
"""

import dataclasses
import os
import sys
import threading

import numpy as np
import pytest

import hjbsolve as h
from hjbsolve import solvers
from hjbsolve.solvers import _Sweeper

from conftest import POISONED_VALUES, poisoned_outcome

WORKERS = (1, 2, 3)
PATHS = {"stored": {}, "unstored": {"_OPERATOR_NNZ_LIMIT": 0}}
NODES = 21
CONTROLS = 16


def small_blocks(monkeypatch, path):
    """Blocks of 4, 2 and 1 of the 16 controls for 1, 2 and 3 workers."""
    monkeypatch.setattr(solvers, "_BLOCK_ROWS", 4 * NODES ** 2)
    monkeypatch.setattr(solvers, "_MIN_THREAD_ROWS", 1)
    for attr, value in PATHS[path].items():
        monkeypatch.setattr(solvers, attr, value)


def problem(name="test4_eik2d"):
    entry = h.catalog(name, control_count=CONTROLS)
    return entry, entry.spec.domain_grid(NODES)


def spied(spec):
    """`spec` with dynamics that record the threads calling them."""
    seen = set()

    def dynamics(pts, a):
        seen.add(threading.get_ident())
        return spec.dynamics(pts, a)

    return dataclasses.replace(spec, dynamics=dynamics), seen


def test_default_workers_are_the_available_cpus():
    cpus = len(os.sched_getaffinity(0))
    assert solvers.default_workers() == cpus
    assert h.SolverConfig(dt=0.1).workers == cpus


@pytest.mark.parametrize("path", sorted(PATHS))
def test_sweeps_are_bit_identical_across_workers(path, monkeypatch, rng):
    entry, grid = problem()
    n = grid.num_nodes
    fields = [
        rng.uniform(0.0, 2.0, n),
        rng.normal(size=n),
        # a constant field ties every in-box control at interior nodes
        np.full(n, 0.5),
    ]
    # the reference: one block, no threads
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=1)
    reference = [_Sweeper(entry.spec, grid, entry.controls, cfg).bellman_sweep(v)
                 for v in fields]
    small_blocks(monkeypatch, path)
    for w in WORKERS:
        cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=w)
        with _Sweeper(entry.spec, grid, entry.controls, cfg) as sweeper:
            assert sweeper.stored is (path == "stored")
            assert len(sweeper.blocks) >= 4
            assert sweeper.threads == w
            for values, (ref_values, ref_policy, _) in zip(fields, reference):
                full, pol, _ = sweeper.bellman_sweep(values)
                only, none, _ = sweeper.bellman_sweep(values, policy=False)
                assert none is None
                assert full.tobytes() == only.tobytes() == ref_values.tobytes()
                assert pol.tobytes() == ref_policy.tobytes()


def signed_zero_problem():
    """A discounted spec on [-1, 1]^2 whose every update is a signed zero,
    with its 16 controls (a 4 x 4 box).  Every arrival leaves the box, the
    exterior value is -0.0 and control a's running cost is a[1] * 0.0, so
    the update is -0.0 under the controls with a[1] < 0 and +0.0 under the
    others: every control ties, and the last one, with a[1] = 1, gives +0."""
    spec = h.ProblemSpec(
        state_dim=2,
        dynamics=lambda pts, a: np.tile(100.0 * a, (len(pts), 1)),
        running_cost=lambda pts, a: np.full(len(pts), a[1] * 0.0),
        kind=h.InfiniteHorizon(1.0),
        lower=(-1.0, -1.0),
        upper=(1.0, 1.0),
        exterior_value=-0.0,
    )
    return spec, h.discretize_control_box([(-1.0, 1.0), (-1.0, 1.0)], [4, 4])


@pytest.mark.parametrize("partition", ["small_blocks", "one_control_per_block"])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_signed_zero_ties_do_not_depend_on_the_block_partition(path, partition,
                                                               monkeypatch):
    """Inside a block and across blocks the controls fold by one rule, so
    the sign of a tied zero is the same for every block partition."""
    spec, controls = signed_zero_problem()
    grid = spec.domain_grid(NODES)
    values = np.full(grid.num_nodes, 0.5)
    cfg = h.SolverConfig(dt=0.08, workers=1)
    with _Sweeper(spec, grid, controls, cfg) as sweeper:
        assert len(sweeper.blocks) == 1
        ref_values, ref_policy, _ = sweeper.bellman_sweep(values)
    # the later control's zero and the lowest index
    assert ref_values.tobytes() == np.zeros(grid.num_nodes).tobytes()
    assert not ref_policy.any()
    small_blocks(monkeypatch, path)
    if partition == "one_control_per_block":
        monkeypatch.setattr(solvers, "_BLOCK_ROWS", NODES ** 2)
    for w in WORKERS:
        cfg = h.SolverConfig(dt=0.08, workers=w)
        with _Sweeper(spec, grid, controls, cfg) as sweeper:
            assert len(sweeper.blocks) == (16 if partition == "one_control_per_block"
                                           else {1: 4, 2: 8, 3: 16}[w])
            full, pol, _ = sweeper.bellman_sweep(values)
            only, _, _ = sweeper.bellman_sweep(values, policy=False)
        assert full.tobytes() == only.tobytes() == ref_values.tobytes()
        assert pol.tobytes() == ref_policy.tobytes()


def test_more_than_255_controls_in_one_block(monkeypatch):
    """One block of 300 controls, with the ties of a constant field, gives
    the bits and the policy of blocks of at most 4."""
    entry = h.catalog("test4_eik2d", control_count=300)
    grid = entry.spec.domain_grid(NODES)
    values = np.full(grid.num_nodes, 0.5)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=1)
    with _Sweeper(entry.spec, grid, entry.controls, cfg) as sweeper:
        assert [len(js) for js in sweeper.blocks] == [300]
        ref_values, ref_policy, _ = sweeper.bellman_sweep(values)
    small_blocks(monkeypatch, "stored")
    for w in WORKERS:
        cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=w)
        with _Sweeper(entry.spec, grid, entry.controls, cfg) as sweeper:
            assert max(len(js) for js in sweeper.blocks) <= 4
            out, pol, _ = sweeper.bellman_sweep(values)
        assert out.tobytes() == ref_values.tobytes()
        assert pol.tobytes() == ref_policy.tobytes()


@pytest.mark.parametrize("path", sorted(PATHS))
def test_solves_are_bit_identical_across_workers(path, monkeypatch):
    entry, grid = problem()
    small_blocks(monkeypatch, path)
    main = threading.main_thread().ident
    runs = {}
    for w in WORKERS:
        cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=w)
        spec, seen = spied(entry.spec)
        before = threading.active_count()
        V, P, vi = h.value_iteration(spec, grid, entry.controls, cfg)
        assert threading.active_count() == before
        # every block of the VI operator was built on a worker thread
        assert (seen == {main}) if w == 1 else (main not in seen)
        W, Q, pi = h.policy_iteration(entry.spec, grid, entry.controls, cfg)
        assert threading.active_count() == before
        ties = h.bellman_update(entry.spec, grid, h.ValueField.full(grid, 0.5),
                                entry.controls, cfg)[1]
        assert threading.active_count() == before
        assert vi.workers == pi.workers == w
        assert vi.converged and pi.converged
        runs[w] = (
            V.values.tobytes(), P.indices.tobytes(), vi.outer_iterations,
            vi.residual_history, vi.node_updates,
            W.values.tobytes(), Q.indices.tobytes(), pi.outer_iterations,
            pi.residual_history, pi.sub_iteration_history, pi.policy_changes,
            pi.node_updates, ties.indices.tobytes(),
        )
    assert runs[1] == runs[2] == runs[3]


@pytest.mark.parametrize("path", sorted(PATHS))
def test_api_is_bit_identical_across_workers(path, monkeypatch):
    entry = h.catalog("test2_vdp", control_count=CONTROLS)
    fine = entry.spec.domain_grid(NODES)
    coarse = entry.spec.domain_grid((NODES + 1) // 2)
    small_blocks(monkeypatch, path)
    runs = {}
    for w in WORKERS:
        fcfg = h.SolverConfig(dt=entry.dt_for(fine), eval_backend="direct", workers=w)
        ccfg = h.SolverConfig(dt=entry.dt_for(coarse), stop_constant=5.0, workers=w)
        before = threading.active_count()
        V, P, rep = h.api_solve(entry.spec, coarse, fine, entry.controls, ccfg, fcfg)
        assert threading.active_count() == before
        assert rep.phases["fine"].workers == w
        runs[w] = (V.values.tobytes(), P.indices.tobytes(), rep.outer_iterations,
                   rep.residual_history, rep.sub_iteration_history, rep.node_updates)
    assert runs[1] == runs[2] == runs[3]


@pytest.mark.parametrize("poison", ["cost"] + POISONED_VALUES)
@pytest.mark.parametrize("path", sorted(PATHS))
def test_non_finite_update_names_the_lowest_failing_control(path, poison, monkeypatch):
    """A running cost that is inf at some nodes, or a minimum-time field
    with one poisoned value (poisoned_outcome): every worker count raises
    the same message, naming the lowest failing control, or returns the
    same bits."""
    if poison != "cost":
        entry, grid = problem()
        small_blocks(monkeypatch, path)
        outcomes = set()
        for w in WORKERS:
            cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=w, max_iterations=5)
            before = threading.active_count()
            outcomes.add(poisoned_outcome(entry.spec, grid, entry.controls, cfg, poison))
            assert threading.active_count() == before
        assert len(outcomes) == 1
        return
    entry, grid = problem("test2_vdp")
    controls = entry.controls
    # controls with a > 0.1 cost inf at nodes with x > 0.3; the first of them
    # lies in a later block for every worker count
    first_bad = int(np.flatnonzero(controls.vectors[:, 0] > 0.1)[0])
    assert first_bad >= 4
    cost = entry.spec.running_cost

    def poisoned(pts, a):
        bad = np.where(pts[:, 0] > 0.3, np.inf, 1.0) if a[0] > 0.1 else 1.0
        return cost(pts, a) * bad

    spec = dataclasses.replace(entry.spec, running_cost=poisoned)
    first_node = int(np.flatnonzero(grid.nodes()[:, 0] > 0.3)[0])
    small_blocks(monkeypatch, path)
    messages = set()
    for w in WORKERS:
        cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=w)
        before = threading.active_count()
        for solve in (
            lambda: h.value_iteration(spec, grid, controls, cfg),
            lambda: h.bellman_update(spec, grid, h.ValueField.full(grid, 0.0),
                                     controls, cfg),
        ):
            with pytest.raises(h.SolverError) as info:
                solve()
            messages.add(str(info.value))
            assert threading.active_count() == before
    assert messages == {
        f"non-finite update at node {first_node} under control {first_bad}"}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_more_threads_than_cores_with_fast_switching(path, monkeypatch, rng):
    entry, grid = problem()
    values = rng.uniform(0.0, 2.0, grid.num_nodes)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=1)
    ref_values, ref_policy, _ = _Sweeper(entry.spec, grid, entry.controls,
                                         cfg).bellman_sweep(values)
    small_blocks(monkeypatch, path)
    workers = 4 * len(os.sched_getaffinity(0))
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _Sweeper(entry.spec, grid, entry.controls, cfg) as sweeper:
            assert sweeper.threads == min(workers, len(sweeper.blocks))
            for _ in range(20):
                out, pol, _ = sweeper.bellman_sweep(values)
                assert out.tobytes() == ref_values.tobytes()
                assert pol.tobytes() == ref_policy.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_one_worker_starts_no_thread(monkeypatch):
    entry, grid = problem()
    small_blocks(monkeypatch, "unstored")

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was created for one worker")

    monkeypatch.setattr(solvers, "ThreadPoolExecutor", no_pool)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=1)
    spec, seen = spied(entry.spec)
    _, _, rep = h.value_iteration(spec, grid, entry.controls, cfg)
    assert rep.workers == 1
    assert seen == {threading.main_thread().ident}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_build_time_is_wall_time_under_threads(path, monkeypatch):
    # test2_vdp's rows depend on the state, so unstored they are rebuilt in
    # every sweep (test_matrix_free covers the setup of separable ones)
    entry, grid = problem("test2_vdp")
    small_blocks(monkeypatch, path)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=3)
    _, _, rep = h.value_iteration(entry.spec, grid, entry.controls, cfg)
    assert rep.workers == 3
    assert rep.operator_stored is (path == "stored") and rep.operator_nnz > 0
    assert 0.0 < rep.operator_build_wall_time_seconds <= rep.wall_time_seconds


def test_covered_seconds_merges_overlapping_spans():
    spans = [(3.0, 4.0), (0.0, 2.0), (1.0, 1.5), (1.5, 2.5), (5.0, 5.0)]
    assert solvers._covered_seconds(spans) == 3.5
    assert solvers._covered_seconds([]) == 0.0
