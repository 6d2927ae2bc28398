"""Dynamic-programming solvers on regular grids.

Three algorithms share one semi-Lagrangian discretization: value iteration,
Howard policy iteration with either a fixed-point or a direct sparse policy
evaluation, and the accelerated scheme that warm-starts fine-grid policy
iteration from a coarse-grid value iteration.

The discretization is one transition operator per (grid, controls, dt).  Its
row for a (control, node) pair holds the multilinear weights of the node's
explicit Euler arrival point under that control, at most 2^d nonnegative
entries; an arrival outside the box gets an empty row.  A constant vector c
holds the stage cost plus, for those outside arrivals, discount times the
exterior value.  A Bellman sweep is the min over controls of
discount * (B_j @ v) + c_j; a frozen-policy evaluation uses the rows
(policy[i], i).  The greedy step at an arbitrary state takes the same
discount, stage costs and arrivals, and interpolates instead of using B.

All sweeps have Jacobi semantics: every node update reads only the previous
iterate, argmin ties break toward the lowest control index, and the sup-norm
reduction is a plain max.

Bellman sweeps and the operator build work on blocks of consecutive controls.
With more than one worker the blocks run on a thread pool that is shut down
before the public solver call returns, and the calling thread merges their
results in ascending control order, so every worker count gives the same
bits.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, partial
from itertools import repeat
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .grid import (
    RegularGrid,
    ValueField,
    interpolate_values,
    locate_points,
    multilinear_corners,
    prolongate,
)
from .problems import target_mask

UNSET_POLICY = -1

# The m-control operator has at most m * N * 2^d entries of 12 bytes each
# (float64 weight, int32 column).  It is stored while that bound stays within
# this budget (~1.9 GB); larger operators are rebuilt block by block in every
# sweep.
_OPERATOR_NNZ_LIMIT = 160_000_000
# Sweeps take the operator in blocks of consecutive controls with about this
# many rows, divided by the threads in use, which bounds the temporaries of
# the blocks in flight.
_BLOCK_ROWS = 2 ** 19
# A sweep takes one thread per this many operator rows, up to `workers`.  On
# a 2-core machine smaller shares did not pay for the dispatch and the extra
# blocks: 829 K rows (test2_vdp at 161^2) ran no faster on two threads.
_MIN_THREAD_ROWS = 2 ** 19
# The row builder writes a block's entries this many rows at a time.
_FILL_ROWS = 8192
# The rows of a control that moves every node alike are written in slabs of
# about this many rows: on test6_eik3d at 41^3 slabs of 2^13 rows built 10-15%
# slower (more calls) and one call per control no faster, with temporaries
# of 2^d corners per node (~0.5 GB per thread at 41^4).
_SLAB_ROWS = 2 ** 15


class SolverError(RuntimeError):
    """Numerical failure inside a solver sweep or linear solve."""


def default_workers():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


@dataclass
class SolverConfig:
    """Shared solver settings.

    The stopping test compares consecutive iterates in the sup norm against
    eps = stop_constant * (min axis spacing)^2, computed once per grid.
    `workers` is the number of threads that Bellman sweeps and the m-control
    operator build spread their blocks of controls over; it defaults to the
    CPUs this process may run on, and 1 runs everything in the calling
    thread.  Results are bit-identical for every worker count.  With more
    than one worker, spec.dynamics and spec.running_cost are called from
    worker threads and must be thread-safe.
    """

    dt: float
    stop_constant: float = 0.2
    max_iterations: int = 20000
    eval_backend: str = "fixed_point"
    workers: int = dataclass_field(default_factory=default_workers)

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.stop_constant > 0:
            raise ValueError("stop_constant must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.eval_backend not in ("fixed_point", "direct"):
            raise ValueError(f"unknown eval_backend {self.eval_backend!r}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    def epsilon(self, grid):
        return self.stop_constant * min(grid.spacing) ** 2

    def inner_cap(self):
        return 10 * self.max_iterations


@dataclass
class PolicyField:
    """One control index per grid node; pinned nodes carry UNSET_POLICY."""

    grid: RegularGrid
    indices: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int32).reshape(-1)
        if self.indices.size != self.grid.num_nodes:
            raise ValueError("policy length does not match grid")

    @classmethod
    def constant(cls, grid, index=0):
        return cls(grid, np.full(grid.num_nodes, index, dtype=np.int32))


@dataclass
class RunReport:
    """Instrumentation for one solve.

    node_updates counts single-node, single-control evaluations: a Bellman or
    improvement sweep contributes (active nodes) * (control count), a frozen-
    policy evaluation sweep contributes (active nodes).  This is the portable
    work metric; wall time is reported but machine dependent.

    The operator_* fields describe the m-control transition operator of a
    VI or PI run: whether it was stored or rebuilt in every sweep, its
    entries (12 bytes each: float64 weight, int32 column) and the wall time
    spent building it.  That is the time during which at least one block was
    being built, on any thread: for a stored operator the one build, and for
    an unstored one the sum over every sweep, whose block builds overlap the
    sweeps of other blocks.  `workers` is the number of threads the run's
    sweeps used.  `operator_separable_controls` counts the controls whose
    velocity is the same at every node, so that their rows were built from
    per-axis cell locations.  These fields stay None on the aggregate API
    report, whose phases carry their own.

    policy_changes, on PI reports (so on API's fine phase), holds per
    improvement the number of non-pinned nodes whose control changed.
    """

    algorithm: str
    grid_shape: tuple
    dx: float
    dt: float
    control_count: int
    epsilon: float
    outer_iterations: int
    node_updates: int
    wall_time_seconds: float
    converged: bool
    residual_history: list = dataclass_field(default_factory=list)
    sub_iteration_history: list = dataclass_field(default_factory=list)
    phases: Optional[dict] = None
    operator_stored: Optional[bool] = None
    operator_nnz: Optional[int] = None
    operator_build_wall_time_seconds: Optional[float] = None
    operator_separable_controls: Optional[int] = None
    policy_changes: Optional[list] = None
    workers: Optional[int] = None

    @property
    def operator_bytes(self):
        return None if self.operator_nnz is None else 12 * self.operator_nnz

    def to_text(self):
        lines = [
            f"algorithm = {self.algorithm}",
            f"grid_shape = {','.join(str(n) for n in self.grid_shape)}",
            f"dx = {self.dx:.17g}",
            f"dt = {self.dt:.17g}",
            f"control_count = {self.control_count}",
            f"epsilon = {self.epsilon:.17g}",
            f"iterations = {self.outer_iterations}",
            f"sub_iterations = {','.join(str(m) for m in self.sub_iteration_history)}",
            f"node_updates = {self.node_updates}",
            f"converged = {self.converged}",
            f"wall_time_seconds = {self.wall_time_seconds:.6f}",
            "residual_history = "
            + ",".join("%.17g" % r for r in self.residual_history),
        ]
        if self.operator_stored is not None:
            lines += [
                f"operator_stored = {self.operator_stored}",
                f"operator_nnz = {self.operator_nnz}",
                f"operator_bytes = {self.operator_bytes}",
                "operator_build_wall_time_seconds = "
                f"{self.operator_build_wall_time_seconds:.6f}",
                f"operator_separable_controls = {self.operator_separable_controls}",
            ]
        if self.policy_changes is not None:
            lines.append("policy_changes = " + ",".join(map(str, self.policy_changes)))
        if self.workers is not None:
            lines.append(f"workers = {self.workers}")
        if self.phases:
            for key, sub in self.phases.items():
                for line in sub.to_text().splitlines():
                    lines.append(f"{key}.{line}")
        return "\n".join(lines) + "\n"


def _pins(spec, grid):
    """(mask, values) of the nodes every sweep pins: fixed boundary values,
    then 0 on the target of a minimum-time problem."""
    pin = np.zeros(grid.num_nodes, dtype=bool)
    pin_values = np.zeros(grid.num_nodes)
    if spec.boundary_value is not None:
        bmask = grid.boundary_mask()
        pin |= bmask
        pin_values[bmask] = spec.boundary_value
    if spec.minimum_time:
        tmask = target_mask(spec, grid).flags
        pin |= tmask
        pin_values[tmask] = 0.0
    return pin, pin_values


def _discount(spec, dt):
    """The discount of one step: e^{-dt} for minimum time (the Kruzkhov
    transform), e^{-lam dt} for a discounted problem."""
    if spec.minimum_time:
        return math.exp(-dt)
    return math.exp(-spec.kind.lam * dt)


def _stage(spec, points, a, dt):
    """The stage costs of control `a` at the (n, d) `points`: 1 - e^{-dt} for
    minimum time and dt * l(x, a) otherwise."""
    stage = np.empty(len(points))
    if spec.minimum_time:
        stage[:] = -math.expm1(-dt)
    else:
        stage[:] = dt * np.asarray(spec.running_cost(points, a), dtype=float)
    return stage


def _step(spec, points, a, dt, j, velocity=None):
    """Control j's (vector `a`) semi-Lagrangian step from the (n, d)
    `points`: the explicit Euler arrivals x + dt * f(x, a) and the stage
    costs.  `velocity` is f(points, a) when the caller already has it.  A
    non-finite arrival raises."""
    if velocity is None:
        velocity = spec.dynamics(points, a)
    arrivals = points + dt * np.asarray(velocity)
    if not np.isfinite(arrivals).all():
        raise SolverError(f"non-finite arrival under control {j}")
    return arrivals, _stage(spec, points, a, dt)


def _iterate(step, v, eps, cap):
    """v <- step(v) until consecutive iterates differ by at most eps in the
    sup norm, at most `cap` times.  Returns (last iterate, residual history
    with one entry per step, whether the test was met)."""
    history = []
    while len(history) < cap:
        new = step(v)
        history.append(float(np.max(np.abs(new - v))))
        v = new
        if history[-1] <= eps:
            return v, history, True
    return v, history, False


def _fill_rows(grid, base, local, inside, indptr, indices, data):
    """Write the rows of located arrival points into CSR arrays.

    Row r holds the 2^d multilinear weights of arrival r when inside[r] and
    is empty otherwise.  indptr[0] must hold the position of the first entry,
    a multiple of 2^d; indptr[1:] is filled.  Returns the position after the
    last entry.  Rows are written _FILL_ROWS at a time, so each chunk's
    columns and weights stay in cache while they are scattered into the
    row-major (rows, 2^d) views of indices and data.
    """
    width = 2 ** grid.dim
    n = len(inside)
    _row_ends(inside, indptr, width)
    cols = indices.reshape(-1, width)
    vals = data.reshape(-1, width)
    for lo in range(0, n, _FILL_ROWS):
        hi = min(lo + _FILL_ROWS, n)
        first, last = indptr[lo] // width, indptr[hi] // width
        b, w = base[:, lo:hi], local[:, lo:hi]
        if last - first < hi - lo:
            keep = inside[lo:hi]
            b, w = np.compress(keep, b, axis=1), np.compress(keep, w, axis=1)
        for k, (corner, weight) in enumerate(multilinear_corners(grid, b, w)):
            cols[first:last, k] = corner
            vals[first:last, k] = weight
    return indptr[-1]


def _row_ends(inside, indptr, width):
    """indptr[1:] of rows holding `width` entries where `inside`, none
    elsewhere, from the first row's start indptr[0]."""
    ends = indptr[1:]
    np.cumsum(inside, out=ends)
    ends *= width
    ends += indptr[0]


def _same_velocity(velocity, shape):
    """True when `velocity` is a float64 array of `shape` (n, d) whose rows
    are all bitwise equal."""
    if velocity.shape != shape or velocity.dtype != np.float64:
        return False
    bits = velocity.view(np.uint64)
    return bool((bits == bits[0]).all())


def _fill_shifted_rows(grid, arrivals, indptr, indices, data):
    """Write the rows of arrivals that move every node by the same vector
    into CSR arrays, as _fill_rows does; returns the flat in-box mask.

    arrivals[a] holds the arrivals of axis a's node coordinates, so each
    axis is located on its own, with the other coordinates at the lower
    face.  An axis's in-box entries form one range, as the arrivals are
    sorted, so the in-box rows are a sub-box of the grid and consecutive in
    flat order.  Their corners come from multilinear_corners on per-axis
    rows of that box, written into the (box..., 2^d) views of indices and
    data, one slab of the first axis of about _SLAB_ROWS rows at a time.
    """
    dim = grid.dim
    width = 2 ** dim
    bases, locals_ = [], []
    inside = True
    for axis, coords in enumerate(arrivals):
        points = np.tile(grid.lower, (len(coords), 1))
        points[:, axis] = coords
        base, local, kept = locate_points(grid, points)
        shape = [1] * dim
        shape[axis] = -1
        inside = inside & kept.reshape(shape)
        kept = np.flatnonzero(kept)
        box = slice(kept[0], kept[-1] + 1) if kept.size else slice(0, 0)
        bases.append(base[axis, box].reshape(shape))
        locals_.append(local[axis, box].reshape(shape))
    inside = inside.reshape(-1)
    _row_ends(inside, indptr, width)
    first, last = indptr[0] // width, indptr[-1] // width
    if last == first:
        return inside
    box = tuple(b.size for b in bases) + (width,)
    cols = indices.reshape(-1, width)[first:last].reshape(box)
    vals = data.reshape(-1, width)[first:last].reshape(box)
    slab = max(1, _SLAB_ROWS * box[0] // int(last - first))
    for lo in range(0, box[0], slab):
        rows = slice(lo, lo + slab)
        corners = multilinear_corners(grid, [bases[0][rows]] + bases[1:],
                                      [locals_[0][rows]] + locals_[1:])
        for k, (corner, weight) in enumerate(corners):
            cols[rows, ..., k] = corner
            vals[rows, ..., k] = weight
    return inside


def _csr_arrays(rows, grid):
    """Zeroed indptr plus uninitialized indices and data for `rows` rows of
    at most 2^d entries each.  indptr is int32 when the entries allow it, as
    scipy would otherwise copy it to int32."""
    indices = np.empty(rows * 2 ** grid.dim, dtype=np.int32)
    index = np.int32 if indices.size < 2 ** 31 else np.int64
    return np.zeros(rows + 1, dtype=index), indices, np.empty(indices.size)


def _covered_seconds(spans):
    """The wall time covered by the union of (start, end) spans."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(spans):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class _Sweeper:
    """The transition operator of one (problem, grid, controls, dt).

    The m-control operator is built on the first Bellman sweep and kept when
    its entry bound fits the budget; frozen-policy rows are built on demand
    by the same row builder.  `build_seconds` is the wall time during which
    a block of the m-control operator was being built, `nnz` counts its
    entries, `separable` marks the controls whose rows were built from
    per-axis cell locations, and `threads` is the number of threads its
    blocks run on, at most config.workers.  With more than one, the thread
    pool starts with the first block; use the sweeper as a context manager,
    whose exit joins the pool's threads.
    """

    def __init__(self, spec, grid, controls, config):
        self.spec = spec
        self.grid = grid
        self.controls = controls
        self.dt = config.dt
        self.nodes = grid.nodes()
        self.pinned, self.pinned_values = _pins(spec, grid)
        self.active_count = int(grid.num_nodes - np.count_nonzero(self.pinned))
        self.discount = _discount(spec, self.dt)

        m, n = len(controls), grid.num_nodes
        self.stored = m * n * 2 ** grid.dim <= _OPERATOR_NNZ_LIMIT
        self.build_seconds = 0.0
        self.nnz = 0
        self.separable = np.zeros(m, dtype=bool)
        # Blocks shrink with the thread count, so the blocks in flight hold
        # about the temporaries of one serial block.
        threads = max(1, min(config.workers, m * n // _MIN_THREAD_ROWS))
        count = -(-m // max(1, _BLOCK_ROWS // threads // n))
        step = -(-m // count)
        self.blocks = [range(lo, min(lo + step, m)) for lo in range(0, m, step)]
        self.threads = min(threads, len(self.blocks))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if "_pool" in self.__dict__:
            self._pool.shutdown(cancel_futures=True)

    @cached_property
    def _pool(self):
        return ThreadPoolExecutor(self.threads, thread_name_prefix="hjbsolve")

    def _arrival_rows(self, j, sel, velocity=None):
        """Control j's arrival points from the nodes `sel`, located on the
        grid: (base, local, inside, c) with c the stage cost plus, where the
        arrival leaves the box, discount * exterior_value.  `velocity` is
        the dynamics at those nodes when the caller already has it."""
        arrivals, c = _step(self.spec, self.nodes[sel], self.controls.vectors[j],
                            self.dt, j, velocity)
        base, local, inside = locate_points(self.grid, arrivals)
        c[~inside] += self.discount * self.spec.exterior_value
        return base, local, inside, c

    def _block_arrays(self, js):
        """Uninitialized CSR arrays and c for the rows of the controls `js`."""
        rows = len(js) * self.grid.num_nodes
        return _csr_arrays(rows, self.grid) + (np.empty(rows),)

    def _fill_block(self, js, arrays=None):
        """(B, c) of the controls `js`, one row per (control, node), control
        major, written into `arrays` (by default new ones); and the (start,
        end) of the build.

        The dynamics are called once per control.  A control whose velocity
        is bitwise the same at every node moves each arrival coordinate by
        the same amount along its own axis, so its rows come from the d axes
        (_fill_shifted_rows, which broadcasts per-axis rows through the same
        multilinear_corners, with the same corner order and weight product)
        and are marked in `separable`; any other control's rows come from
        its N located arrivals.  Both give the same bits.
        """
        t0 = time.perf_counter()
        grid, spec, nodes = self.grid, self.spec, self.nodes
        n = grid.num_nodes
        indptr, indices, data, c = arrays or self._block_arrays(js)
        for t, j in enumerate(js):
            lo = t * n
            rows = indptr[lo:lo + n + 1]
            a = self.controls.vectors[j]
            velocity = np.asarray(spec.dynamics(nodes, a))
            if _same_velocity(velocity, nodes.shape):
                shift = self.dt * velocity[0]
                arrivals = [grid.axis_coords(k) + shift[k] for k in range(grid.dim)]
                if not np.isfinite(np.concatenate(arrivals)).all():
                    raise SolverError(f"non-finite arrival under control {j}")
                inside = _fill_shifted_rows(grid, arrivals, rows, indices, data)
                c[lo:lo + n] = _stage(spec, nodes, a, self.dt)
                c[lo:lo + n][~inside] += self.discount * spec.exterior_value
                self.separable[j] = True
            else:
                base, local, inside, c[lo:lo + n] = self._arrival_rows(
                    j, slice(None), velocity)
                _fill_rows(grid, base, local, inside, rows, indices, data)
        end = indptr[-1]
        B = sp.csr_matrix((data[:end], indices[:end], indptr), shape=(len(c), n))
        return (B, c), (t0, time.perf_counter())

    def _map(self, fn, *iterables):
        """fn over the blocks' arguments, results in block order: the builtin
        map with one thread, else the pool's, which queues every call at once
        and cancels the calls not yet started when its iterator is closed."""
        if self.threads == 1:
            return map(fn, *iterables)
        return self._pool.map(fn, *iterables)

    @cached_property
    def _stored_blocks(self):
        """Every block's (B, c), or None when the operator exceeds the nnz
        budget and each sweep builds its blocks afresh."""
        if not self.stored:
            return None
        # The calling thread allocates every block's arrays before they are
        # queued.  Allocated on the pool's threads, they come from per-thread
        # malloc arenas, whose freed memory other threads do not reuse: the
        # api_eik3d benchmark's peak RSS rose from ~1005 MB to 1018-1398 MB.
        arrays = [self._block_arrays(js) for js in self.blocks]
        built = list(self._map(self._fill_block, self.blocks, arrays))
        self.build_seconds += _covered_seconds([span for _, span in built])
        return [block for block, _ in built]

    def pinned_copy(self, field):
        """A copy of `field` with the pins applied."""
        v = field.values.copy()
        self.apply_pins(v)
        return ValueField(self.grid, v, copy=False)

    def apply_pins(self, values, policy=None):
        values[self.pinned] = self.pinned_values[self.pinned]
        if policy is not None:
            policy[self.pinned] = UNSET_POLICY

    def _sweep_block(self, js, block, values, policy):
        """Block `js`'s part of a Bellman sweep: the per-node minimum of
        discount * (B @ values) + c over its controls, the lowest control
        index attaining it (None unless `policy`), its entries and the span
        of its build.  `block` is a stored (B, c); None builds it first."""
        span = None
        if block is None:
            block, span = self._fill_block(js)
        B, c = block
        n = self.grid.num_nodes
        q = B @ values
        q *= self.discount
        q += c
        if not np.isfinite(q).all():
            bad = int(np.flatnonzero(~np.isfinite(q))[0])
            raise SolverError(
                f"non-finite update at node {bad % n} under control {js[bad // n]}"
            )
        q = q.reshape(len(js), n)
        low = np.minimum.reduce(q, axis=0)
        low_idx = None
        if policy:
            # Control t of the block weighs len(js) - t where it attains the
            # minimum, so the largest weight marks the lowest such index.  A
            # max-reduce over axis 0 runs along contiguous rows, where an
            # argmax over axis 0 would copy the transposed mask.
            weights = np.arange(len(js), 0, -1, dtype=np.min_scalar_type(len(js)))
            top = np.maximum.reduce((q == low) * weights[:, None], axis=0)
            low_idx = js.stop - top.astype(np.int32)
        return low, low_idx, B.nnz, span

    def bellman_sweep(self, values, policy=True):
        """One Jacobi sweep of the min-over-controls update.

        Returns (new values, argmin policy, evaluation count).  Each block of
        controls gives discount * (B @ values) + c and its lowest-index
        argmin, on a worker thread when there are threads; the calling thread
        merges the blocks in ascending control order with a strict <, so the
        lowest control index wins every tie, and a non-finite update raises
        for the lowest failing control, whatever the thread count.  With
        policy=False the argmin is skipped and None is returned in its place;
        the values are the same bits, since the merge of the block minima is
        unchanged.
        """
        blocks = self._stored_blocks or [None] * len(self.blocks)
        results = self._map(self._sweep_block, self.blocks, blocks,
                            repeat(values), repeat(policy))
        best = best_idx = None
        nnz = 0
        spans = []
        for low, low_idx, block_nnz, span in results:
            nnz += block_nnz
            if span is not None:
                spans.append(span)
            if best is None:
                best, best_idx = low, low_idx
            else:
                better = low < best
                best[better] = low[better]
                if policy:
                    best_idx[better] = low_idx[better]
        self.build_seconds += _covered_seconds(spans)
        self.nnz = nnz
        self.apply_pins(best, best_idx)
        return best, best_idx, self.active_count * len(self.controls)

    def policy_rows(self, policy):
        """The frozen-policy operator (B, c): row i is node i's row under
        control policy[i]; pinned nodes get empty rows and c = 0."""
        if ((policy.indices == UNSET_POLICY) & ~self.pinned).any():
            raise SolverError("policy is undefined on non-pinned nodes")
        idx = np.where(self.pinned, UNSET_POLICY, policy.indices)
        grid = self.grid
        n = grid.num_nodes
        base = np.zeros((grid.dim, n), dtype=np.int32)
        local = np.zeros((grid.dim, n))
        inside = np.zeros(n, dtype=bool)
        c = np.zeros(n)
        for j in range(len(self.controls)):
            sel = np.flatnonzero(idx == j)
            if sel.size:
                base[:, sel], local[:, sel], inside[sel], c[sel] = self._arrival_rows(j, sel)
        indptr, indices, data = _csr_arrays(n, grid)
        end = _fill_rows(grid, base, local, inside, indptr, indices, data)
        return sp.csr_matrix((data[:end], indices[:end], indptr), shape=(n, n)), c

    def evaluation_sweep(self, values, rows):
        """One frozen-policy sweep; returns the new values."""
        B, c = rows
        out = B @ values
        out *= self.discount
        out += c
        self.apply_pins(out)
        if not np.isfinite(out).all():
            bad = int(np.flatnonzero(~np.isfinite(out))[0])
            raise SolverError(f"non-finite evaluation update at node {bad}")
        return out


def default_initial_field(spec, grid):
    """Standard initial iterate: 0 everywhere (discounted problems) or the
    transform's range endpoints 1 off target / 0 on target (minimum time),
    with any fixed boundary values applied."""
    v = np.full(grid.num_nodes, 1.0 if spec.minimum_time else 0.0)
    pinned, pinned_values = _pins(spec, grid)
    v[pinned] = pinned_values[pinned]
    return ValueField(grid, v, copy=False)


def bellman_update(spec, grid, V, controls, config):
    """One Jacobi min-over-controls update of a value field.

    Every node reads only the input field; per node all controls are
    enumerated, the discounted interpolated continuation plus stage cost is
    minimized, and the argmin index is recorded (ties break low).  Target and
    fixed-boundary nodes are pinned.
    """
    with _Sweeper(spec, grid, controls, config) as sweeper:
        out, pol, _ = sweeper.bellman_sweep(V.values)
    return ValueField(grid, out, copy=False), PolicyField(grid, pol)


def policy_improvement(spec, grid, V, controls, dt, workers=None):
    """Greedy argmin policy extraction against a fixed value field: the
    policy of bellman_update.

    `workers` defaults to SolverConfig's default, the available CPUs.
    """
    config = SolverConfig(dt=dt) if workers is None else SolverConfig(dt=dt, workers=workers)
    return bellman_update(spec, grid, V, controls, config)[1]


def greedy_control_index(spec, V, controls, x, dt):
    """Index of the greedy control at an arbitrary in-domain state.

    The step is a Bellman sweep's: the lowest control index minimizing
    discount * V(arrival) + stage cost, with V interpolated at all arrivals
    in one call.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if not spec.contains(x):
        raise SolverError(f"state {x!r} lies outside the problem domain")
    steps = [_step(spec, x[None, :], a, dt, j) for j, a in enumerate(controls.vectors)]
    arrivals, stage = (np.concatenate(parts) for parts in zip(*steps))
    q = interpolate_values(V.grid, V.values, arrivals, spec.exterior_value)
    q *= _discount(spec, dt)
    q += stage
    bad = np.flatnonzero(~np.isfinite(q))
    if bad.size:
        raise SolverError(f"non-finite greedy evaluation under control {bad[0]}")
    return int(np.argmin(q))


def greedy_control(spec, V, controls, x, dt):
    """The greedy control vector at an arbitrary in-domain state."""
    return controls.vectors[greedy_control_index(spec, V, controls, x, dt)]


def _make_report(algorithm, sweeper, config, t0, updates, converged, history,
                 subs=None, changes=None):
    """The report of a VI or PI run started at `t0`, one outer iteration per
    residual in `history`."""
    grid = sweeper.grid
    return RunReport(
        algorithm=algorithm,
        grid_shape=grid.nodes_per_axis,
        dx=min(grid.spacing),
        dt=config.dt,
        control_count=len(sweeper.controls),
        epsilon=config.epsilon(grid),
        outer_iterations=len(history),
        node_updates=updates,
        wall_time_seconds=time.perf_counter() - t0,
        converged=converged,
        residual_history=history,
        sub_iteration_history=subs or [],
        policy_changes=changes,
        operator_stored=sweeper.stored,
        operator_nnz=sweeper.nnz,
        operator_build_wall_time_seconds=sweeper.build_seconds,
        operator_separable_controls=int(np.count_nonzero(sweeper.separable)),
        workers=sweeper.threads,
    )


def value_iteration(spec, grid, controls, config, V0=None):
    """Fixed-point iteration of the Bellman update to the C*dx^2 stop test.

    Returns the last iterate, its greedy policy, and the run report.  Hitting
    max_iterations is reported as converged=False, not raised.  The reported
    wall time includes the operator build.
    """
    t0 = time.perf_counter()
    with _Sweeper(spec, grid, controls, config) as sweeper:
        V = default_initial_field(spec, grid) if V0 is None else sweeper.pinned_copy(V0)
        v, history, converged = _iterate(
            lambda values: sweeper.bellman_sweep(values, policy=False)[0], V.values,
            config.epsilon(grid), config.max_iterations)
        # One extra argmin sweep so the returned policy is greedy for the
        # returned (final) iterate.
        _, pol, evals = sweeper.bellman_sweep(v)
    report = _make_report("vi", sweeper, config, t0, (len(history) + 1) * evals,
                          converged, history)
    return ValueField(grid, v, copy=False), PolicyField(grid, pol), report


def policy_evaluation_fixed_point(spec, grid, policy, controls, V_init, config):
    """Frozen-policy value by warm-started fixed-point sweeps.

    Iterates the linear one-step update until consecutive sweeps differ by at
    most eps in the sup norm (the same test as the outer loop).  Returns
    (field, sweep count, converged); a False flag means the inner iteration
    cap was hit and the caller should treat the evaluation as failed.
    """
    sweeper = _Sweeper(spec, grid, controls, config)
    return _fixed_point_evaluation(sweeper, policy, sweeper.pinned_copy(V_init).values,
                                   config)


def _fixed_point_evaluation(sweeper, policy, v, config):
    """policy_evaluation_fixed_point on a given operator, from the pinned
    values v."""
    step = partial(sweeper.evaluation_sweep, rows=sweeper.policy_rows(policy))
    v, history, converged = _iterate(step, v, config.epsilon(sweeper.grid),
                                     config.inner_cap())
    return ValueField(sweeper.grid, v, copy=False), len(history), converged


def policy_evaluation_direct(spec, grid, policy, controls, config):
    """Frozen-policy value via a sparse linear solve.

    Solves (I - discount * B) V = c, where B holds the frozen-policy rows
    (at most 2^d nonnegative entries per row summing to at most 1; the
    discount makes the system strictly diagonally dominant) and c the stage
    cost plus discount * exterior mass, with BiCGStab to residual eps/10.
    Stagnation raises, carrying the achieved residual.  Returns (field,
    solver iteration count).
    """
    return _direct_evaluation(_Sweeper(spec, grid, controls, config), policy, config)


def _direct_evaluation(sweeper, policy, config):
    """policy_evaluation_direct on a given operator."""
    import scipy.sparse.linalg as spla

    grid = sweeper.grid
    B, rhs = sweeper.policy_rows(policy)
    eps = config.epsilon(grid)
    matrix = sp.identity(grid.num_nodes, format="csr") - sweeper.discount * B
    rhs[sweeper.pinned] = sweeper.pinned_values[sweeper.pinned]

    iters = 0

    def count_iters(_):
        nonlocal iters
        iters += 1

    tol = eps / 10.0
    x, info = spla.bicgstab(
        matrix, rhs, rtol=0.0, atol=tol, maxiter=config.inner_cap(),
        callback=count_iters,
    )
    residual = float(np.max(np.abs(matrix @ x - rhs)))
    if info != 0 or residual > tol:
        raise SolverError(
            f"direct policy evaluation stalled: achieved residual {residual:.3e}, "
            f"required {tol:.3e}"
        )
    v = x.copy()
    v[sweeper.pinned] = sweeper.pinned_values[sweeper.pinned]
    return ValueField(grid, v, copy=False), max(iters, 1)


def policy_iteration(spec, grid, controls, config, policy0=None, V_init=None,
                     on_iterate=None):
    """Howard's algorithm: frozen-policy evaluation alternating with greedy
    improvement until consecutive value iterates differ by at most eps.

    Evaluations are warm-started from the previous value iterate.  The
    evaluated value sequence is nodewise nonincreasing up to the evaluation
    tolerance.  sub_iteration_history records the evaluation effort per outer
    step (sweeps, or linear-solver iterations for the direct backend).
    `on_iterate`, when given, receives every evaluated value field.  The
    reported wall time includes the operator build.
    """
    t0 = time.perf_counter()
    with _Sweeper(spec, grid, controls, config) as sweeper:
        return _policy_iteration(sweeper, config, policy0, V_init, on_iterate, t0)


def _policy_iteration(sweeper, config, policy0, V_init, on_iterate, t0):
    """policy_iteration on a given operator; `t0` starts the reported clock."""
    spec, grid = sweeper.spec, sweeper.grid
    V = default_initial_field(spec, grid) if V_init is None else sweeper.pinned_copy(V_init)
    if policy0 is None:
        policy = PolicyField.constant(grid, 0)
    else:
        policy = PolicyField(grid, policy0.indices.copy())
    policy.indices[sweeper.pinned] = UNSET_POLICY

    subs = []
    changes = []

    def step(v):
        """Evaluate the policy from v, then improve it."""
        nonlocal policy
        if config.eval_backend == "fixed_point":
            V_new, inner, _ = _fixed_point_evaluation(sweeper, policy, v, config)
        else:
            V_new, inner = _direct_evaluation(sweeper, policy, config)
        subs.append(inner)
        if on_iterate is not None:
            on_iterate(V_new)
        _, pol, _ = sweeper.bellman_sweep(V_new.values)
        # Pinned nodes hold UNSET_POLICY in both, so only active nodes count.
        changes.append(int(np.count_nonzero(pol != policy.indices)))
        policy = PolicyField(grid, pol)
        return V_new.values

    v, history, converged = _iterate(step, V.values, config.epsilon(grid),
                                     config.max_iterations)
    updates = (sum(subs) + len(subs) * len(sweeper.controls)) * sweeper.active_count
    report = _make_report("pi", sweeper, config, t0, updates, converged, history,
                          subs, changes)
    return ValueField(grid, v, copy=False), policy, report


def api_solve(spec, coarse_grid, fine_grid, controls, coarse_config, fine_config,
              V0c=None):
    """Accelerated policy iteration: coarse value iteration, multilinear
    prolongation, greedy policy extraction, then fine-grid policy iteration.

    The grids must be nested by midpoint refinement.  The fine operator is
    built once and serves both the greedy extraction and the policy
    iteration.  The report separates the coarse and fine phases and
    aggregates totals.
    """
    if not coarse_grid.nests(fine_grid):
        raise SolverError(
            "accelerated solve needs fine = midpoint refinement of coarse"
        )
    t0 = time.perf_counter()
    Vc, _, coarse_report = value_iteration(spec, coarse_grid, controls, coarse_config,
                                           V0c)
    coarse_report.algorithm = "api.coarse_vi"

    fine_t0 = time.perf_counter()
    with _Sweeper(spec, fine_grid, controls, fine_config) as fine:
        V0f = fine.pinned_copy(prolongate(Vc, fine_grid))
        _, pol0, seed_evals = fine.bellman_sweep(V0f.values)
        Vf, policy, fine_report = _policy_iteration(
            fine, fine_config, PolicyField(fine_grid, pol0), V0f, None, fine_t0
        )
    fine_report.algorithm = "api.fine_pi"
    fine_report.node_updates += seed_evals
    wall = time.perf_counter() - t0

    report = RunReport(
        algorithm="api",
        grid_shape=fine_grid.nodes_per_axis,
        dx=min(fine_grid.spacing),
        dt=fine_config.dt,
        control_count=len(controls),
        epsilon=fine_config.epsilon(fine_grid),
        outer_iterations=coarse_report.outer_iterations + fine_report.outer_iterations,
        node_updates=coarse_report.node_updates + fine_report.node_updates,
        wall_time_seconds=wall,
        converged=coarse_report.converged and fine_report.converged,
        residual_history=list(coarse_report.residual_history)
        + list(fine_report.residual_history),
        sub_iteration_history=list(fine_report.sub_iteration_history),
        phases={"coarse": coarse_report, "fine": fine_report},
    )
    return Vf, policy, report
