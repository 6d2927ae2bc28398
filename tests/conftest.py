import math
import textwrap
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import hjbsolve as h
from hjbsolve import solvers
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


def poisoned_csr_arrays(shape, grid):
    """solvers._csr_arrays' arrays, filled so that an entry a build leaves
    unwritten shows in its products: NaN weights, column 0, and row
    pointers at each row set's capacity, which the CSR kernel reads as an
    empty or an overlong row, never past the arrays."""
    indptr, indices, data = _csr_arrays(shape, grid)
    data.fill(np.nan)
    indices.fill(0)
    indptr.fill(data.shape[-1])
    return indptr, indices, data


def poison_builds(monkeypatch):
    """Make every build of the operator's rows write into arrays that show
    an entry it leaves unwritten: poisoned_csr_arrays, and NaN stage
    costs."""
    block_arrays = _Sweeper._block_arrays

    def poisoned(self, js):
        csr, c = block_arrays(self, js)
        if c is not None:
            c.fill(np.nan)
        return csr, c

    monkeypatch.setattr(solvers, "_csr_arrays", poisoned_csr_arrays)
    monkeypatch.setattr(_Sweeper, "_block_arrays", poisoned)


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
        parts.append(_fill_rows(grid, bases, locals_, inside,
                                *poisoned_csr_arrays((n,), grid)))
    ends = np.cumsum([0] + [rows.nnz for rows in parts])
    indptr = np.concatenate([[0]] + [rows.indptr[1:] + end for rows, end in zip(parts, ends)],
                            dtype=np.int32)
    return (indptr, np.concatenate([rows.indices for rows in parts]),
            np.concatenate([rows.data for rows in parts]), c)


def policy_general_rows(sweeper, policy):
    """general_rows of the frozen-policy operator of the (N,) `policy`: row
    i is row policy[i] * N + i of every control's, but empty for a pinned
    node, whose constant is its stage cost, 0 for a discounted problem."""
    n = sweeper.grid.num_nodes
    indptr, indices, data, c = general_rows(sweeper, range(len(sweeper.controls)))
    at = np.where(sweeper.pinned, 0, policy * n + np.arange(n))
    starts = indptr[at]
    counts = np.where(sweeper.pinned, 0, indptr[at + 1] - starts)
    ends = np.cumsum(counts)
    take = np.arange(ends[-1]) - np.repeat(ends - counts - starts, counts)
    c = c[at]
    c[sweeper.pinned] = -math.expm1(-sweeper.dt) if sweeper.spec.minimum_time else 0.0
    return (np.concatenate(([0], ends)).astype(np.int32), indices[take], data[take], c)


def contract_fields(rng, n):
    """The fields that check_rows applies row sets to: random ones, signed
    zeros, ties, huge values whose sums overflow, and one with +-inf at a
    few nodes, where a zero weight gives NaN: on finite fields a zero
    weight at the wrong column leaves every product as it is."""
    infinite = rng.uniform(0.0, 2.0, n)
    at = rng.choice(n, max(2, n // 16), replace=False)
    infinite[at] = np.where(np.arange(len(at)) % 2, np.inf, -np.inf)
    return [rng.uniform(0.0, 2.0, n), rng.normal(size=n), np.where(rng.random(n) < 0.5, -0.0, 0.0),
            rng.choice([-1.0, -0.0, 0.0, 1.0], n), np.full(n, 0.5),
            rng.choice([-1e308, 0.0, 1e308], n), infinite]


def check_rows(sweeper, js, block, general, fields, pins=()):
    """The row-set contract on one _Block, of the controls `js` of the
    m-control operator or, with `js` None, of the frozen-policy rows, whose
    general rows (general_rows or policy_general_rows) are `general`:
    - each control's row set is the kind the sweeper's flags name (the
      frozen-policy rows are CSR rows);
    - B @ v over its rows, each control's row set applied alone into
      zeros, as a sweep applies it, is the general rows' product, bit for
      bit, for each of `fields`.  A NaN matches any NaN, and for a field
      with an inf only the rows not in `outside` count: a diagonal adds
      0 * v into those, and every sweep overwrites them;
    - its stage cost plus, on the rows in `outside`, discount times the
      exterior value is the general rows' constant, and `outside` numbers,
      ascending and as int32, their empty rows but `pins`;
    - a minimum-time problem's stage cost is one number."""
    indptr, indices, data, c = general
    n = sweeper.grid.num_nodes
    kinds = [_CsrRows] if js is None else [
        _ShiftedRows if sweeper.matrix_free and sweeper.separable[j]
        else _DiagonalRows if sweeper.diagonal[j] else _CsrRows for j in js]
    assert [type(rows) for rows in block.controls] == kinds
    assert block.size == len(c) == len(block.controls) * n
    constant = np.empty(block.size)
    constant[:] = block.c
    constant[block.outside] += sweeper.discount * sweeper.spec.exterior_value
    assert constant.tobytes() == c.tobytes()
    assert block.outside.dtype == np.int32
    assert np.array_equal(block.outside,
                          np.setdiff1d(np.flatnonzero(np.diff(indptr) == 0), pins))
    if sweeper.spec.minimum_time:
        assert type(block.c) is float and block.c == -math.expm1(-sweeper.dt)
    else:
        assert block.c.shape == (block.size,)
    general = sp.csr_matrix((data, indices, indptr), shape=(block.size, n))
    for v in fields:
        got = sweeper._product(block, v, np.ascontiguousarray(v.reshape(sweeper.grid.shape).T))
        want = general @ v
        same = (got.view(np.int64) == want.view(np.int64)) | np.isnan(got) & np.isnan(want)
        if not np.isfinite(v).all():
            same[block.outside] = True
        wrong = np.flatnonzero(~same)
        assert not len(wrong), f"row set {wrong[0] // n} of the block, rows {wrong[:4] % n}"


def check_row_set_contract(spec, grid, controls, dt, path, workers, monkeypatch):
    """The row-set contract, which every way of storing the operator must
    pass, on the ORACLE_PATHS `path` at `workers` workers, with every build
    poisoned (poison_builds): two Bellman sweeps give the oracle's bits;
    every block kept and every other block built, on any thread, pass
    check_rows; and sweeper.nnz and sweeper.operator_bytes sum the row
    sets' own counts over the last sweep's blocks.  The frozen-policy rows
    take no path or thread, so check_policy_rows holds them to the same
    contract once per problem.  Returns the sweeper and the blocks built."""
    rng = np.random.default_rng(7)
    n = grid.num_nodes
    settings, store_separable = ORACLE_PATHS[path]
    built = []
    fill = _Sweeper._fill_block

    def recorded(self, js, arrays=None):
        block, span = fill(self, js, arrays)
        built.append((js, block))
        return block, span

    values = rng.uniform(0.0, 2.0, n)
    with monkeypatch.context() as patch:
        for attr, value in settings.items():
            patch.setattr(solvers, attr, value)
        if workers > 1:
            patch.setattr(solvers, "_MIN_THREAD_ROWS", 1)
            patch.setattr(solvers, "_BLOCK_ROWS", min(solvers._BLOCK_ROWS, 4 * n))
        poison_builds(patch)
        patch.setattr(_Sweeper, "_fill_block", recorded)
        cfg = h.SolverConfig(dt=dt, workers=workers)
        with _Sweeper(spec, grid, controls, cfg, store_separable=store_separable) as sweeper:
            assert sweeper.threads == workers
            for _ in range(2):
                out, best, _ = sweeper.bellman_sweep(values)
    want, want_policy = oracle_sweep(sweeper, values)
    assert out.tobytes() == want.tobytes() and best.tobytes() == want_policy.tobytes()
    last = dict(built)
    assert set(last) == set(sweeper.blocks)
    swept = [block or last[js] for js, block in zip(sweeper.blocks, sweeper.kept)]
    assert sweeper.nnz == sum(rows.nnz for block in swept for rows in block.controls)
    assert sweeper.operator_bytes == sum(rows.held_bytes
                                         for block in swept for rows in block.controls)
    fields = contract_fields(rng, n)
    kept = [(js, block) for js, block in zip(sweeper.blocks, sweeper.kept) if block]
    kept_rows = {id(block.controls) for _, block in kept}
    for js, block in kept + [(js, b) for js, b in built if id(b.controls) not in kept_rows]:
        check_rows(sweeper, js, block, general_rows(sweeper, js), fields)
    return sweeper, [block for _, block in built]


def check_policy_rows(sweeper, policy, fields):
    """The row-set contract (check_rows) on the frozen-policy rows of the
    (N,) `policy`, built into poisoned arrays (poison_builds), against
    policy_general_rows.  Returns the frozen-policy _Block."""
    with pytest.MonkeyPatch.context() as patch:
        poison_builds(patch)
        frozen = sweeper.policy_rows(h.PolicyField(sweeper.grid, policy))
    check_rows(sweeper, None, frozen, policy_general_rows(sweeper, policy), fields, sweeper.pins)
    return frozen


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
