"""The memory of operator blocks.

A sweep that rebuilds its operator queues every block on the thread pool,
and each block allocates its own CSR arrays where it runs.  Only the rows
of state-dependent controls are rebuilt (separable ones are applied
matrix-free over the budget), so test2_vdp runs that path.  The pool's size
is what bounds the blocks in flight, and so the memory of a sweep: at most
`threads` builds may run at once.  The operator here is small, so the
operator budget and the block and thread sizes are patched as in
test_threads.

A block's matrix keeps the arrays it was built into: scipy copies an index
array whose dtype it would change.  A stored operator's blocks are built on
the pool's threads into arrays that the calling thread allocated.
"""

import threading
import time

import numpy as np
import pytest

import hjbsolve as h
from hjbsolve import solvers
from hjbsolve.solvers import _Sweeper

NODES = 21
CONTROLS = 16


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_unstored_sweep_builds_at_most_one_block_per_thread(workers, monkeypatch, rng):
    entry = h.catalog("test2_vdp", control_count=CONTROLS)
    grid = entry.spec.domain_grid(NODES)
    values = rng.uniform(0.0, 2.0, grid.num_nodes)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=1)
    ref_values, ref_policy, _ = _Sweeper(entry.spec, grid, entry.controls,
                                         cfg).bellman_sweep(values)

    monkeypatch.setattr(solvers, "_BLOCK_ROWS", 4 * NODES ** 2)
    monkeypatch.setattr(solvers, "_MIN_THREAD_ROWS", 1)
    monkeypatch.setattr(solvers, "_OPERATOR_NNZ_LIMIT", 0)
    lock = threading.Lock()
    running = peak = 0
    fill = _Sweeper._fill_block

    def counted(self, js, arrays=None):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
        try:
            # hold the build a while, so that every build the pool lets run
            # at once does overlap
            time.sleep(0.02)
            return fill(self, js, arrays)
        finally:
            with lock:
                running -= 1

    monkeypatch.setattr(_Sweeper, "_fill_block", counted)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=workers)
    with _Sweeper(entry.spec, grid, entry.controls, cfg) as sweeper:
        assert not sweeper.stored
        assert len(sweeper.blocks) >= 4
        assert sweeper.threads == workers
        for policy in (True, False):
            out, pol, _ = sweeper.bellman_sweep(values, policy)
            assert out.tobytes() == ref_values.tobytes()
            if policy:
                assert pol.tobytes() == ref_policy.tobytes()
        assert not sweeper.separable.any()
        assert sweeper.kept == [None] * len(sweeper.blocks)
    assert running == 0
    assert peak <= sweeper.threads
    if workers > 1:
        assert peak > 1
    else:
        assert peak == 1


def test_block_matrix_keeps_its_arrays():
    entry = h.catalog("test4_eik2d", control_count=4)
    grid = entry.spec.domain_grid(NODES)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=1)
    sweeper = _Sweeper(entry.spec, grid, entry.controls, cfg)
    js = range(len(entry.controls))
    arrays = sweeper._block_arrays(js)
    (B, _, c), _ = sweeper._fill_block(js, arrays)
    for kept, allocated in zip((B.indptr, B.indices, B.data, c), arrays):
        assert np.shares_memory(kept, allocated)


def test_kept_blocks_are_allocated_on_the_calling_thread(monkeypatch, rng):
    """A stored operator's blocks are built on the pool's threads, into
    arrays that the calling thread allocated before it queued them: from
    the workers' malloc arenas, freed memory would not be reused."""
    monkeypatch.setattr(solvers, "_BLOCK_ROWS", 4 * NODES ** 2)
    monkeypatch.setattr(solvers, "_MIN_THREAD_ROWS", 1)
    entry = h.catalog("test2_vdp", control_count=CONTROLS)
    grid = entry.spec.domain_grid(NODES)
    allocated, builders = [], set()
    block_arrays, fill = _Sweeper._block_arrays, _Sweeper._fill_block

    def spied_arrays(self, js, csr=True):
        arrays = block_arrays(self, js, csr)
        allocated.append((threading.get_ident(), js, arrays))
        return arrays

    def spied_fill(self, js, arrays=None):
        builders.add(threading.get_ident())
        return fill(self, js, arrays)

    monkeypatch.setattr(_Sweeper, "_block_arrays", spied_arrays)
    monkeypatch.setattr(_Sweeper, "_fill_block", spied_fill)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=2)
    values = rng.uniform(0.0, 2.0, grid.num_nodes)
    with _Sweeper(entry.spec, grid, entry.controls, cfg) as sweeper:
        assert sweeper.stored and sweeper.threads == 2 and len(sweeper.blocks) >= 4
        for _ in range(2):
            sweeper.bellman_sweep(values)
    assert threading.get_ident() not in builders
    assert [(thread, js) for thread, js, _ in allocated] == [
        (threading.get_ident(), js) for js in sweeper.blocks]
    for (B, _, c), (_, _, arrays) in zip(sweeper.kept, allocated):
        for kept, allocated_array in zip((B.indptr, B.indices, B.data, c), arrays):
            assert np.shares_memory(kept, allocated_array)
