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
threads into arrays that the calling thread allocated, and the numbers of
their empty rows are copied on the calling thread.

A block holds its stage cost, one number for a minimum-time problem, and
the numbers of its empty rows, `outside`.  Expanded to one constant per
row, stage cost plus discount times the exterior value on the empty rows,
they give the bits of the constant the general row builder forms.
"""

import math
import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import time
from itertools import product

import numpy as np
import pytest

import hjbsolve as h
from hjbsolve import solvers
from hjbsolve.problems import InfiniteHorizon, ProblemSpec
from hjbsolve.solvers import _Block, _Sweeper

from conftest import (CATALOG_CASES, DIAGONAL_CASES, ORACLE_PATHS, PEAK_SOURCE, block_constant,
                      empty_rows, general_rows, oracle_sweep)

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
    width = data.size // block.size
    assert [t for t, _, _ in block.diagonals] == list(range(block.size // n))
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
    assert c is None and block.c == -math.expm1(-sweeper.dt)
    check_diagonals_in_the_data_array(block, data, sweeper.grid.num_nodes)
    assert 0 < block.B.nnz == block.B.data.size


def check_blocks_allocated_on_the_calling_thread(name, monkeypatch, rng):
    """Build the blocks of a stored 2-thread sweeper of `name` and check
    where their arrays were allocated, and that `outside` was copied on
    the calling thread; returns the kept blocks with the arrays each was
    built into."""
    monkeypatch.setattr(solvers, "_BLOCK_ROWS", 4 * NODES ** 2)
    monkeypatch.setattr(solvers, "_MIN_THREAD_ROWS", 1)
    entry = h.catalog(name, control_count=CONTROLS)
    grid = entry.spec.domain_grid(NODES)
    allocated, builders, copied = [], set(), []
    block_arrays, fill, replace = _Sweeper._block_arrays, _Sweeper._fill_block, _Block._replace

    def spied_arrays(self, js):
        arrays = block_arrays(self, js)
        allocated.append((threading.get_ident(), js, arrays))
        return arrays

    def spied_fill(self, js, arrays=None):
        builders.add(threading.get_ident())
        return fill(self, js, arrays)

    def spied_replace(self, **fields):
        block = replace(self, **fields)
        copied.append((threading.get_ident(), block.outside))
        return block

    monkeypatch.setattr(_Sweeper, "_block_arrays", spied_arrays)
    monkeypatch.setattr(_Sweeper, "_fill_block", spied_fill)
    monkeypatch.setattr(_Block, "_replace", spied_replace)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=2)
    values = rng.uniform(0.0, 2.0, grid.num_nodes)
    with _Sweeper(entry.spec, grid, entry.controls, cfg) as sweeper:
        assert sweeper.stored and sweeper.threads == 2 and len(sweeper.blocks) >= 4
        for _ in range(2):
            sweeper.bellman_sweep(values)
    here = threading.get_ident()
    assert here not in builders
    assert [(thread, js) for thread, js, _ in allocated] == [(here, js) for js in sweeper.blocks]
    assert len(copied) == len(sweeper.kept)
    for block, (_, _, arrays), (thread, outside) in zip(sweeper.kept, allocated, copied):
        if entry.spec.minimum_time:
            assert arrays[-1] is None and block.c == -math.expm1(-sweeper.dt)
        else:
            assert np.shares_memory(block.c, arrays[-1])
        assert thread == here and block.outside is outside and outside.base is None
        assert len(outside) and np.array_equal(outside, empty_rows(sweeper, block))
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


def check_block_constants(spec, grid, controls, dt, monkeypatch):
    """Two Bellman sweeps on every path of ORACLE_PATHS at 1 and 2
    workers.  Every block built, on any thread, and every block kept has
    the stage cost and `outside` whose expansion (block_constant) is the
    general rows' constant, bit for bit, and `outside` numbers exactly its
    empty rows; the sweeps give the oracle's bits.  Returns the blocks
    built."""
    built = []
    fill = _Sweeper._fill_block

    def recorded(self, js, arrays=None):
        block, span = fill(self, js, arrays)
        built.append((js, block))
        return block, span

    monkeypatch.setattr(_Sweeper, "_fill_block", recorded)
    values = np.random.default_rng(7).uniform(0.0, 2.0, grid.num_nodes)
    every = []
    for path, workers in product(ORACLE_PATHS, (1, 2)):
        settings, store_separable = ORACLE_PATHS[path]
        where = f"{path} path, {workers} workers"
        built.clear()
        with monkeypatch.context() as patch:
            for attr, value in settings.items():
                patch.setattr(solvers, attr, value)
            if workers > 1:
                patch.setattr(solvers, "_MIN_THREAD_ROWS", 1)
                patch.setattr(solvers, "_BLOCK_ROWS",
                              min(solvers._BLOCK_ROWS, 4 * grid.num_nodes))
            cfg = h.SolverConfig(dt=dt, workers=workers)
            with _Sweeper(spec, grid, controls, cfg, store_separable=store_separable) as sweeper:
                assert sweeper.threads == workers, where
                for _ in range(2):
                    out, policy, _ = sweeper.bellman_sweep(values)
        want, want_policy = oracle_sweep(sweeper, values)
        assert out.tobytes() == want.tobytes(), where
        assert policy.tobytes() == want_policy.tobytes(), where
        kept = [(js, block) for js, block in zip(sweeper.blocks, sweeper.kept) if block]
        assert {js for js, _ in built} == set(sweeper.blocks), where
        for js, block in built + kept:
            indptr, _, _, c = general_rows(sweeper, js)
            assert block.size == len(c), where
            assert block_constant(sweeper, block).tobytes() == c.tobytes(), where
            assert block.outside.dtype == np.int32, where
            assert np.array_equal(block.outside, empty_rows(sweeper, block)), where
            assert np.array_equal(block.outside, np.flatnonzero(np.diff(indptr) == 0)), where
            if spec.minimum_time:
                assert block.c == -math.expm1(-dt), where
            else:
                assert block.c.shape == (block.size,), where
            assert bool(block.shifted) == (sweeper.matrix_free and sweeper.separable[js].any())
        every += [block for _, block in built]
    return every


@pytest.mark.parametrize("name,n", CATALOG_CASES)
def test_block_constants_expand_to_the_general_rows(name, n, monkeypatch):
    """check_block_constants on each catalog problem: CSR rows, diagonals
    (the stored path of DIAGONAL_CASES) and matrix-free rows."""
    entry = h.catalog(name)
    grid = entry.spec.domain_grid(n)
    blocks = check_block_constants(entry.spec, grid, entry.controls, entry.dt_for(grid),
                                   monkeypatch)
    assert any(block.diagonals for block in blocks) == (name in DIAGONAL_CASES)


def test_block_constants_when_every_arrival_leaves(monkeypatch):
    """Every arrival leaves the box, so that every row is empty and in
    `outside`: test4_eik2d's headings at a step of 10, and a discounted
    problem whose state-dependent and separable controls all move every
    node 20 or more."""
    entry = h.catalog("test4_eik2d", control_count=8)
    drift = ProblemSpec(
        state_dim=2,
        dynamics=lambda p, a: a[0] * p + a[1],
        running_cost=lambda p, a: np.sum(p * p, axis=-1) + a[1],
        kind=InfiniteHorizon(1.0),
        lower=(-1.0, -1.0),
        upper=(1.0, 1.0),
        exterior_value=2.0,
    )
    for spec, controls in ((entry.spec, entry.controls),
                           (drift, h.ControlSet([[1.0, 3.0], [0.0, 5.0], [1.0, -3.0],
                                                 [0.0, -2.0]]))):
        grid = spec.domain_grid(9)
        for block in check_block_constants(spec, grid, controls, 10.0, monkeypatch):
            assert np.array_equal(block.outside, np.arange(block.size))


STORED_MEMORY_SCRIPT = PEAK_SOURCE + textwrap.dedent("""
    import numpy as np
    import hjbsolve as h
    from hjbsolve.solvers import _Sweeper

    entry = h.catalog("test4_eik2d")
    grid = entry.spec.domain_grid(161)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=2, max_iterations=3)
    baseline = peak()
    _, _, report = h.value_iteration(entry.spec, grid, entry.controls, cfg)
    assert report.operator_diagonal_controls == len(entry.controls)
    top = peak()
    # the operator's empty rows, counted once the peak is taken
    with _Sweeper(entry.spec, grid, entry.controls, cfg) as sweeper:
        sweeper.bellman_sweep(np.zeros(grid.num_nodes))
        outside = sum(len(block.outside) for block in sweeper.kept)
    print(baseline, top, report.operator_bytes, outside, len(entry.controls), grid.num_nodes,
          grid.dim)
""")


def test_stored_memory_at_161_squared():
    """A stored VI of test4_eik2d at 161^2 peaks at no more than the import
    baseline, plus the operator's bytes (diagonals and the CSR rows that
    remain), plus 4 bytes per empty row for their numbers, plus a 16 MB
    margin for the blocks in flight: ~68 MB over the baseline, where the
    CSR entries alone take ~80 MB.  It measures ~61 MB, ~74 MB with an
    8-byte stage cost per row, and ~104 MB with CSR rows as well."""
    src = str(pathlib.Path(h.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", STORED_MEMORY_SCRIPT], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    baseline, peak, held, outside, m, n, dim = map(int, out.split())
    bound = baseline + held + 4 * outside + 16 * 2 ** 20
    assert peak <= bound < baseline + 12 * 2 ** dim * m * n
