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
array whose dtype it would change.  A block's diagonals are kept in the top
of its CSR data array.  A stored operator's blocks are built on the pool's
threads into arrays that the calling thread allocated.
"""

import os
import pathlib
import subprocess
import sys
import textwrap
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


def block_and_arrays(name):
    """A sweeper of 4 controls of `name` at NODES per axis, and the block of
    all of them with the arrays it was built into."""
    entry = h.catalog(name, control_count=4)
    grid = entry.spec.domain_grid(NODES)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=1)
    sweeper = _Sweeper(entry.spec, grid, entry.controls, cfg)
    js = range(len(entry.controls))
    arrays = sweeper._block_arrays(js)
    block, _ = sweeper._fill_block(js, arrays)
    return sweeper, block, arrays


def test_block_matrix_keeps_its_arrays():
    _, block, (indptr, indices, data, c) = block_and_arrays("test2_vdp")
    assert not block.diagonals and block.rows is None
    for kept, allocated in zip((block.B.indptr, block.B.indices, block.B.data, block.c),
                               (indptr, indices, data, c)):
        assert np.shares_memory(kept, allocated)


def check_diagonals_in_the_data_array(block, data, n):
    """Every control of `block` is held as diagonals, the first in the top
    2^d n entries of the CSR data array `data` it was built into, the next
    below it, and so on; B's rows, if any, are in arrays of their own."""
    width = data.size // len(block.c)
    assert [t for t, _, _ in block.diagonals] == list(range(len(block.c) // n))
    for s, (_, _, diagonals) in enumerate(block.diagonals):
        top = data.size - s * width * n
        assert diagonals.shape == (width, n)
        assert np.shares_memory(diagonals, data[top - width * n:top])
        assert not np.shares_memory(diagonals, data[:top - width * n])
    assert block.B is None or not np.shares_memory(block.B.data, data)


def test_block_diagonals_are_kept_in_the_data_array():
    """test4_eik2d's rows are diagonals, kept in the CSR data array they
    were built into, and the CSR rows of the unshifted axes' last node in
    arrays of their length."""
    sweeper, block, (_, _, data, c) = block_and_arrays("test4_eik2d")
    assert np.shares_memory(block.c, c)
    check_diagonals_in_the_data_array(block, data, sweeper.grid.num_nodes)
    assert 0 < block.B.nnz == block.B.data.size


def check_blocks_allocated_on_the_calling_thread(name, monkeypatch, rng):
    """Build the blocks of a stored 2-thread sweeper of `name` and check
    where their arrays were allocated; returns the kept blocks with the
    arrays each was built into."""
    monkeypatch.setattr(solvers, "_BLOCK_ROWS", 4 * NODES ** 2)
    monkeypatch.setattr(solvers, "_MIN_THREAD_ROWS", 1)
    entry = h.catalog(name, control_count=CONTROLS)
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
    here = threading.get_ident()
    assert here not in builders
    assert [(thread, js) for thread, js, _ in allocated] == [(here, js) for js in sweeper.blocks]
    for block, (_, _, arrays) in zip(sweeper.kept, allocated):
        assert np.shares_memory(block.c, arrays[-1])
    return [(block, arrays) for block, (_, _, arrays) in zip(sweeper.kept, allocated)]


def test_kept_blocks_are_allocated_on_the_calling_thread(monkeypatch, rng):
    """A stored operator's blocks are built on the pool's threads, into
    arrays that the calling thread allocated before it queued them: from
    the workers' malloc arenas, freed memory would not be reused."""
    for block, (indptr, indices, data, _) in check_blocks_allocated_on_the_calling_thread(
            "test2_vdp", monkeypatch, rng):
        assert not block.diagonals
        for kept, allocated in zip((block.B.indptr, block.B.indices, block.B.data),
                                   (indptr, indices, data)):
            assert np.shares_memory(kept, allocated)


def test_kept_diagonals_are_allocated_on_the_calling_thread(monkeypatch, rng):
    """Likewise the diagonals of test4_eik2d, in the CSR data arrays that
    the calling thread allocated, as in
    test_block_diagonals_are_kept_in_the_data_array."""
    kept = check_blocks_allocated_on_the_calling_thread("test4_eik2d", monkeypatch, rng)
    for block, (_, _, data, _) in kept:
        check_diagonals_in_the_data_array(block, data, NODES ** 2)


STORED_MEMORY_SCRIPT = textwrap.dedent("""
    import resource
    import hjbsolve as h

    def peak():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    entry = h.catalog("test4_eik2d")
    grid = entry.spec.domain_grid(161)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=2, max_iterations=3)
    baseline = peak()
    _, _, report = h.value_iteration(entry.spec, grid, entry.controls, cfg)
    assert report.operator_diagonal_controls == len(entry.controls)
    print(baseline, peak(), report.operator_bytes, len(entry.controls), grid.num_nodes,
          grid.dim)
""")


def test_stored_memory_at_161_squared():
    """A stored VI of test4_eik2d at 161^2 peaks at no more than the import
    baseline, plus the operator's bytes (diagonals and the CSR rows that
    remain), plus 8 m N bytes of c, plus a 16 MB margin for the blocks in
    flight: ~80 MB over the baseline, where the CSR entries and c alone
    take ~89 MB.  It measures ~68 MB, and ~104 MB with CSR rows."""
    src = str(pathlib.Path(h.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", STORED_MEMORY_SCRIPT], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    baseline, peak, held, m, n, dim = map(int, out.split())
    bound = baseline + held + 8 * m * n + 16 * 2 ** 20
    assert peak <= bound < baseline + 12 * 2 ** dim * m * n + 8 * m * n
