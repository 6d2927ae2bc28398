import numpy as np
import pytest

import hjbsolve as h


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


@pytest.fixture(scope="session")
def solved():
    return SolveCache()


@pytest.fixture
def rng():
    return np.random.default_rng(94481)


@pytest.fixture
def block_product():
    """A function giving B @ v of a sweeper's _Block over all its rows, as
    a Bellman sweep forms it: its diagonals, CSR rows and matrix-free
    rows."""

    def product(sweeper, block, values):
        transposed = np.ascontiguousarray(values.reshape(sweeper.grid.shape).T)
        return sweeper._product(block, values, transposed)

    return product


def block_rows(sweeper, block):
    """(indptr, indices, data) of every row of a _Block without matrix-free
    rows, laid out as the general row writer lays them out: 2^d entries per
    in-box row in corner order, none for a row outside the box.  B's rows
    are read at `rows`, and a row held as diagonals at its 2^d columns,
    r + offsets[k], a row whose diagonal entries are all 0 being outside
    the box.  Fails unless the diagonals are 0 but at the columns of the
    rows they hold, which B does not hold and whose columns lie in the
    grid."""
    B, rows, diagonals, shifted, c = block
    assert not shifted
    n, width = sweeper.grid.num_nodes, 2 ** sweeper.grid.dim
    cols = np.zeros((len(c), width), dtype=np.int64)
    vals = np.zeros((len(c), width))
    full = np.zeros(len(c), dtype=bool)
    in_b = np.zeros(len(c), dtype=bool)
    if B is not None:
        at = np.arange(B.shape[0]) if rows is None else rows
        assert len(np.unique(at)) == len(at)
        counts = np.diff(B.indptr)
        assert set(counts.tolist()) <= {0, width}
        in_b[at] = True
        has = at[counts == width]
        cols[has] = B.indices.reshape(-1, width)
        vals[has] = B.data.reshape(-1, width)
        full[has] = True
    for t, offsets, data in diagonals:
        assert data.shape == (width, n)
        # the control's rows, and their columns
        r = np.arange(n)
        col = r[:, None] + offsets[None, :]
        valid = (col >= 0) & (col < n)
        w = np.where(valid, data[np.arange(width)[None, :], np.clip(col, 0, n - 1)], 0.0)
        held = (w != 0.0).any(axis=1)
        assert valid[held].all()
        assert not (held & in_b[t * n + r]).any()
        # every other entry of the diagonals is 0
        for k in range(width):
            other = np.ones(n, dtype=bool)
            other[col[held, k]] = False
            assert not data[k, other].any()
        cols[t * n + r[held]] = col[held]
        vals[t * n + r[held]] = w[held]
        full[t * n + r[held]] = True
    indptr = np.concatenate(([0], np.cumsum(full * width)))
    return indptr, cols[full].reshape(-1), vals[full].reshape(-1)
