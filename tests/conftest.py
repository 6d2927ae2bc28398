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
    """A function giving B @ v of a sweeper's block (B, shifted, c): the
    product of its CSR rows plus its matrix-free rows, as a Bellman sweep
    forms it."""

    def product(sweeper, block, values):
        B, shifted, c = block
        n = sweeper.grid.num_nodes
        q = np.zeros(len(c)) if B is None else B @ values
        transposed = np.ascontiguousarray(values.reshape(sweeper.grid.shape).T)
        for t, rows in shifted:
            rows.apply(transposed, q[t * n:(t + 1) * n], sweeper._buffers)
        return q

    return product
