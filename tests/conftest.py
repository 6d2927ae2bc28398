import textwrap
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import hjbsolve as h
from hjbsolve.solvers import (_CsrRows, _DiagonalRows, _ShiftedRows, _Sweeper, _csr_arrays,
                              _fill_rows, _located, _step)

# On a failing example hypothesis's pytest plugin imports this module, whose
# libcst import warns (a mypy_extensions DeprecationWarning); under
# filterwarnings = error that ends the whole run with an INTERNALERROR.
# Imported once here with that warning silenced, it is cached by then.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass


class SolveCache:
    """Memoizes the expensive solves shared across test modules."""

    def __init__(self):
        self._store = {}

    def entry(self, name, **overrides):
        key = ("entry", name, tuple(sorted(overrides.items())))
        if key not in self._store:
            self._store[key] = h.catalog(name, **overrides)
        return self._store[key]

    def _config(self, entry, grid, **kw):
        return h.SolverConfig(dt=entry.dt_for(grid), **kw)

    def vi(self, name, n, overrides=None, **cfg_kw):
        key = ("vi", name, n, tuple(sorted((overrides or {}).items())),
               tuple(sorted(cfg_kw.items())))
        if key not in self._store:
            entry = self.entry(name, **(overrides or {}))
            grid = entry.spec.domain_grid(n)
            cfg = self._config(entry, grid, **cfg_kw)
            self._store[key] = h.value_iteration(entry.spec, grid, entry.controls, cfg)
        return self._store[key]

    def pi(self, name, n, overrides=None, **cfg_kw):
        key = ("pi", name, n, tuple(sorted((overrides or {}).items())),
               tuple(sorted(cfg_kw.items())))
        if key not in self._store:
            entry = self.entry(name, **(overrides or {}))
            grid = entry.spec.domain_grid(n)
            cfg = self._config(entry, grid, **cfg_kw)
            self._store[key] = h.policy_iteration(entry.spec, grid, entry.controls, cfg)
        return self._store[key]

    def api(self, name, n, overrides=None, coarse_constant=5.0, **cfg_kw):
        key = ("api", name, n, tuple(sorted((overrides or {}).items())),
               coarse_constant, tuple(sorted(cfg_kw.items())))
        if key not in self._store:
            entry = self.entry(name, **(overrides or {}))
            fine = entry.spec.domain_grid(n)
            coarse = entry.spec.domain_grid((n + 1) // 2)
            fcfg = self._config(entry, fine, **cfg_kw)
            ccfg = h.SolverConfig(dt=entry.dt_for(coarse), stop_constant=coarse_constant,
                                  workers=cfg_kw.get("workers", 1))
            self._store[key] = h.api_solve(entry.spec, coarse, fine, entry.controls,
                                           ccfg, fcfg)
        return self._store[key]


# The source of peak(), for the memory scripts that tests run in a
# subprocess: the process's own high-water mark in bytes.  ru_maxrss would
# start at that of the process that started it, which pytest's may exceed.
PEAK_SOURCE = textwrap.dedent("""
    def peak():
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) * 1024 for line in status
                        if line.startswith("VmHWM:"))
""")
# One small grid per catalog problem, with its default controls.
CATALOG_CASES = [("test1_1d", 21), ("test2_vdp", 11), ("test3_dubins", 7),
                 ("test4_eik2d", 11), ("test5_eik2d_disk", 11), ("test6_eik3d", 7),
                 ("test7_eik3d_spheres", 7), ("test8_min4d", 5), ("heat3_rom", 7)]
# Per sweep path: the module settings it patches and `store_separable`.
ORACLE_PATHS = {
    "stored": ({}, True),
    "matrix_free": ({}, False),
    "over_budget": ({"_OPERATOR_NNZ_LIMIT": 0}, True),
    "one_control": ({"_BLOCK_ROWS": 1}, True),
}
# The problems whose separable controls take diagonals on these grids; the
# 3-D and 4-D ones have too few regular rows at 5-7 nodes per axis.
DIAGONAL_CASES = ("test4_eik2d", "test5_eik2d_disk")


@pytest.fixture(scope="session")
def solved():
    return SolveCache()


@pytest.fixture
def rng():
    return np.random.default_rng(94481)


@pytest.fixture
def block_product():
    """A function giving B @ v of a sweeper's _Block over all its rows, as
    a Bellman sweep forms it: every control's row set, CSR, diagonal or
    matrix-free."""

    def product(sweeper, block, values):
        transposed = np.ascontiguousarray(values.reshape(sweeper.grid.shape).T)
        return sweeper._product(block, values, transposed)

    return product


def csr_rows(rows, width):
    """(cols, vals, full) of the _CsrRows `rows`: per row its 2^d columns
    and weights, 0 for an empty row, and whether it has entries.  Fails
    unless its arrays start at entry 0 and end at its last row's, and every
    row has 0 or 2^d entries."""
    counts = np.diff(rows.indptr)
    assert rows.indptr.dtype == rows.indices.dtype == np.int32
    assert rows.indptr[0] == 0 and rows.indptr[-1] == len(rows.indices) == len(rows.data)
    assert set(counts.tolist()) <= {0, width}
    full = counts == width
    cols = np.zeros((len(counts), width), dtype=np.int64)
    vals = np.zeros((len(counts), width))
    cols[full] = rows.indices.reshape(-1, width)
    vals[full] = rows.data.reshape(-1, width)
    return cols, vals, full


def diagonal_rows(rows, n, in_box):
    """(cols, vals, full) of the _DiagonalRows `rows` of a control whose
    rows have the (n,) mask `in_box`: a row held as diagonals is read at
    its 2^d columns, r + offsets[k], a row whose diagonal entries are all 0
    not being held, and an irregular row from its CSR rows.  Fails unless
    the diagonals are 0 but at the columns of the rows they hold, whose
    columns lie in the grid, and the irregular rows, 2^d entries each, are
    exactly the in-box rows that the diagonals do not hold, and unless
    they hold the rows at the most common flat offset, offsets[0]: an
    in-box row's offset is its lowest corner's column minus the row, no
    offset is shared by more in-box rows than offsets[0], and the held
    rows are exactly the in-box rows at offsets[0]."""
    offsets, data = rows.offsets, rows.diagonals
    width = len(offsets)
    assert data.shape == (width, n) and offsets.dtype == np.int32
    r = np.arange(n)
    col = r[:, None] + offsets[None, :]
    valid = (col >= 0) & (col < n)
    w = np.where(valid, data[np.arange(width)[None, :], np.clip(col, 0, n - 1)], 0.0)
    held = (w != 0.0).any(axis=1)
    assert valid[held].all() and in_box[held].all()
    # every other entry of the diagonals is 0
    for k in range(width):
        other = np.ones(n, dtype=bool)
        other[col[held, k]] = False
        assert not data[k, other].any()
    cols = np.where(held[:, None], col, 0)
    vals = np.where(held[:, None], w, 0.0)
    skipped = np.flatnonzero(in_box & ~held)
    if rows.irregular is None:
        assert rows.nodes is None and not len(skipped)
    else:
        assert rows.nodes.dtype == np.int32 and np.array_equal(rows.nodes, skipped)
        assert len(rows.irregular.indptr) == len(skipped) + 1
        irregular_cols, irregular_vals, irregular_full = csr_rows(rows.irregular, width)
        assert irregular_full.all()
        cols[skipped], vals[skipped] = irregular_cols, irregular_vals
    offset = cols[:, 0] - r
    assert np.unique(offset[in_box], return_counts=True)[1].max() == (
        np.count_nonzero(offset[in_box] == offsets[0]))
    assert np.array_equal(held, in_box & (offset == offsets[0]))
    return cols, vals, in_box


def block_rows(sweeper, block):
    """(indptr, indices, data) of every row of a _Block without matrix-free
    rows, of the m-control operator or of the frozen-policy rows, laid out
    as the general row writer lays them out: 2^d entries per in-box row in
    corner order, none for a row outside the box.  Each control's N rows
    are read from its row set, CSR (csr_rows) or diagonals (diagonal_rows,
    whose in-box rows are those not in `outside`)."""
    n, width = sweeper.grid.num_nodes, 2 ** sweeper.grid.dim
    assert block.size == len(block.controls) * n
    parts = []
    for t, rows in enumerate(block.controls):
        assert not isinstance(rows, _ShiftedRows)
        if isinstance(rows, _CsrRows):
            assert len(rows.indptr) == n + 1
            parts.append(csr_rows(rows, width))
        else:
            assert isinstance(rows, _DiagonalRows)
            in_box = np.ones(n, dtype=bool)
            in_box[block.outside[(block.outside >= t * n) & (block.outside < (t + 1) * n)]
                   - t * n] = False
            parts.append(diagonal_rows(rows, n, in_box))
    cols, vals, full = (np.concatenate(arrays) for arrays in zip(*parts))
    indptr = np.concatenate(([0], np.cumsum(full * width)))
    return indptr, cols[full].reshape(-1), vals[full].reshape(-1)


def block_constant(sweeper, block):
    """The constant of every row of a _Block, of the m-control operator or
    of the frozen-policy rows, as one float64 vector: its stage cost plus,
    on the rows in `outside`, discount times the exterior value, as the
    direct backend's right-hand side holds it off the pinned nodes."""
    c = np.empty(block.size)
    c[:] = block.c
    c[block.outside] += sweeper.discount * sweeper.spec.exterior_value
    return c


def empty_rows(sweeper, block):
    """The numbers of a _Block's rows without entries, ascending: those of
    block_rows, and for a control applied matrix-free, its rows outside
    its in-box sub-box."""
    if not any(isinstance(rows, _ShiftedRows) for rows in block.controls):
        return np.flatnonzero(np.diff(block_rows(sweeper, block)[0]) == 0)
    grid, width = sweeper.grid, 2 ** sweeper.grid.dim
    full = []
    for rows in block.controls:
        if isinstance(rows, _ShiftedRows):
            in_box = np.zeros(grid.shape, dtype=bool)
            in_box[rows.box] = True
            full.append(in_box.reshape(-1))
        else:
            full.append(csr_rows(rows, width)[2])
    return np.flatnonzero(~np.concatenate(full))


def general_rows(sweeper, js):
    """indptr, indices, data and the per-row constant c of the controls
    `js`, built by locating every node's arrival: c is the stage cost plus,
    for an arrival outside the box, discount times the exterior value."""
    grid, n = sweeper.grid, sweeper.grid.num_nodes
    c = np.empty(len(js) * n)
    parts = []
    for t, j in enumerate(js):
        lo = t * n
        arrivals, c[lo:lo + n] = _step(sweeper.spec, sweeper.nodes,
                                       sweeper.controls.vectors[j], sweeper.dt, j)
        bases, locals_, inside = _located(grid, arrivals)
        c[lo:lo + n][~inside] += sweeper.discount * sweeper.spec.exterior_value
        parts.append(_fill_rows(grid, bases, locals_, inside, *_csr_arrays((n,), grid)))
    ends = np.cumsum([0] + [rows.nnz for rows in parts])
    indptr = np.concatenate([[0]] + [rows.indptr[1:] + end for rows, end in zip(parts, ends)],
                            dtype=np.int32)
    return (indptr, np.concatenate([rows.indices for rows in parts]),
            np.concatenate([rows.data for rows in parts]), c)


def oracle_updates(sweeper, values):
    """discount * (B @ values) + c over the general rows of every control,
    as an (m, N) array, every update formed, finite or not."""
    m, n = len(sweeper.controls), sweeper.grid.num_nodes
    indptr, indices, data, c = general_rows(sweeper, range(m))
    q = sp.csr_matrix((data, indices, indptr), shape=(m * n, n)) @ values
    q *= sweeper.discount
    q += c
    return q.reshape(m, n)


def oracle_sweep(sweeper, values):
    """A Bellman sweep over the general rows of every control."""
    q = oracle_updates(sweeper, values)
    low = q.min(axis=0)
    policy = (q == low).argmax(axis=0).astype(np.int32)
    sweeper.apply_pins(low, policy)
    return low, policy


# Values for one node of a minimum-time field: the non-finite ones, which
# fail the finiteness proof of a Bellman sweep and raise, and finite ones
# just above its bound, which fail it and do not raise, or at it.
POISONED_VALUES = [np.nan, np.inf, -np.inf, np.nextafter(1e300, np.inf),
                   -np.nextafter(1e300, np.inf), 1e300]


def poisoned_outcome(spec, grid, controls, config, poison):
    """A field of 0.5 with `poison` at one non-pinned node, given to
    bellman_update, value_iteration(V0=...) and a warm policy_iteration.
    When the oracle's updates, every one formed, hold a non-finite one,
    bellman_update raises naming the lowest such control and its lowest
    node, and the other two reject the field before any sweep, as
    ValueField holds finite values; else bellman_update gives the oracle
    sweep's bits, and the others run.  Returns the message or the bits."""
    sweeper = _Sweeper(spec, grid, controls, config)
    free = np.flatnonzero(~sweeper.pinned)
    V = h.ValueField.full(grid, 0.5)
    V.values[free[len(free) // 3]] = poison
    # (control, node) of the non-finite updates, in control-major order
    bad = np.argwhere(~np.isfinite(oracle_updates(sweeper, V.values)))
    solves = (lambda: h.value_iteration(spec, grid, controls, config, V0=V),
              lambda: h.policy_iteration(spec, grid, controls, config, V_init=V))
    if not len(bad):
        T, P = h.bellman_update(spec, grid, V, controls, config)
        want, want_policy = oracle_sweep(sweeper, V.values)
        assert T.values.tobytes() == want.tobytes()
        assert np.array_equal(P.indices, want_policy)
        for solve in solves:
            solve()
        return T.values.tobytes()
    message = f"non-finite update at node {bad[0][1]} under control {bad[0][0]}"
    with pytest.raises(h.SolverError, match=f"^{message}$"):
        h.bellman_update(spec, grid, V, controls, config)
    for solve in solves:
        with pytest.raises(h.GridError, match="non-finite entries"):
            solve()
    return message
