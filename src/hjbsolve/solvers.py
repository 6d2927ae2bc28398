"""Dynamic-programming solvers on regular grids.

Three algorithms share one semi-Lagrangian discretization: value iteration,
Howard policy iteration with either a fixed-point or a direct sparse policy
evaluation, and the accelerated scheme that warm-starts fine-grid policy
iteration from a coarse-grid value iteration.

The discretization is one transition operator per (grid, controls, dt).  Its
row for a (control, node) pair holds the multilinear weights of the node's
explicit Euler arrival point under that control, at most 2^d nonnegative
entries; an arrival outside the box gets an empty row.  The stage cost c
is one number, 1 - e^{-dt}, for a minimum-time problem and one per row for
a discounted one.  A Bellman sweep is the min over controls of
discount * (B_j @ v) + c_j, where the empty rows take discount times the
exterior value in place of B_j @ v.  Where the argmin is not wanted, a
minimum-time sweep takes the min of B_j @ v first and forms discount *
min + c once per node, the same bits, as rounding is monotone; and a
minimum-time sweep of finite values of modulus at most 1e300 scans no
update for non-finite ones, as it can make none.  A frozen-policy
evaluation, by fixed-point sweeps or by a sparse linear solve, uses the
rows (policy[i], i), with the same stage cost and empty rows; both
backends run in _Sweeper.evaluate, for policy iteration and for the two
public evaluation functions alike.  The linear solve is the package's own
BiCGStab loop, _bicgstab: scipy 1.17's bicgstab step for step and bit for
bit, without importing scipy.sparse.linalg, on I - discount * B as scipy's
csr_minus_csr forms it.  That kernel and the CSR and DIA matvecs are the
package's only scipy code: scipy.sparse._sparsetools, which
_load_sparsetools runs from its extension file without initializing
scipy.sparse.  Policy iteration hands evaluate the Bellman sweep that chose
the policy, its first fixed-point sweep, which ends an evaluation that
needs no other.  The greedy step at an arbitrary state takes the same
discount, stage costs and arrivals, and interpolates instead of using B.

Value iteration and cold-started policy iteration store the operator,
whose one build pays off over their many sweeps.  A separable control,
whose velocity is bitwise the same at every node, moves most nodes into
the cell at one offset from theirs, so that corner k of each such regular
row lies at one flat offset from the row: the stored rows of the control
are 2^d diagonals, without column indices or row pointers, when they take
fewer bytes than CSR rows, and its other rows stay CSR rows.  Every other
control's rows are CSR rows.  A separable control can instead be applied
matrix-free, from its per-axis cell locations and c_j, with the same bits;
each such sweep costs 1.2-1.7 stored ones, and a build 3-6.  So
bellman_update (one sweep), policy iteration warm-started from V_init
(API's fine phase, a few sweeps) and any operator over the nnz budget apply
separable controls matrix-free.  State-dependent controls are stored, or
rebuilt in every sweep over the budget.  A block of controls is one record,
_Block: one row set per control, which applies that control's rows as CSR
rows, as diagonals or matrix-free, its stage cost and the numbers of its
empty rows.  So are the frozen-policy rows, one CSR row set.

All sweeps have Jacobi semantics: every node update reads only the previous
iterate, argmin ties break toward the lowest control index, and the sup-norm
reduction is a plain max.

Bellman sweeps work on blocks of consecutive controls, and each block is
built by the first sweep that needs it, in the same task that sweeps it.
With more than one worker the blocks run on a thread pool that is shut down
before the public solver call returns, and the calling thread merges their
results in ascending control order, so every worker count gives the same
bits.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import mmap
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field, fields
from functools import cached_property, partial
from itertools import product, repeat
from typing import NamedTuple, Optional

import numpy as np
import scipy

from .grid import (
    RegularGrid,
    ValueField,
    _check_same_grid,
    cell_index,
    corner_offsets,
    corner_weights,
    interpolate_values,
    locate_points,
    prolongate,
)
from .problems import ProblemError, target_mask


def _load_sparsetools(folder):
    """scipy.sparse._sparsetools, scipy's C kernels of sparse matrices, run
    from its extension file in `folder` without scipy/sparse/__init__.py,
    whose numpy namespace clones cost a process ~0.15 s and ~20 MB.  It is
    entered in sys.modules under its own name, where the from-imports of a
    later scipy.sparse find it (though that package then lacks it as an
    attribute), and a module already entered there is returned, so that a
    process holds one.  No such file raises ImportError."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    paths = (os.path.join(folder, "_sparsetools" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's _sparsetools extension module is not in {folder}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# scipy's CSR and DIA matvec kernels, the ones behind csr_matrix @ v and
# dia_matrix @ v, called to add into a slice of a block's product or into a
# Krylov work vector, and its CSR subtraction, the one behind A - B
_sparsetools = _load_sparsetools(os.path.join(os.path.dirname(scipy.__file__), "sparse"))
csr_matvec, csr_minus_csr, dia_matvec = (
    _sparsetools.csr_matvec, _sparsetools.csr_minus_csr, _sparsetools.dia_matvec)

UNSET_POLICY = -1

# The m-control operator has at most m * N * 2^d entries of 12 bytes each
# as CSR rows (float64 weight, int32 column).  It is stored while that bound
# stays within this budget (~1.9 GB).  The budget still counts those entries
# when separable rows are held as diagonals, which take fewer bytes, so which
# problems store is the same.  Over it, separable controls are applied
# matrix-free, which keeps only the 4-byte numbers of their empty rows (and
# a discounted problem's 8-byte stage cost per row), and the rows of the
# others are rebuilt block by block in every sweep.
_OPERATOR_NNZ_LIMIT = 160_000_000
# Sweeps take the operator in blocks of consecutive controls with about this
# many rows, divided by the threads in use, which bounds the temporaries of
# the blocks in flight.
_BLOCK_ROWS = 2 ** 19
# A sweep takes one thread per this many operator rows, up to `workers`.  On
# a 2-core machine smaller shares did not pay for the dispatch and the extra
# blocks: 829 K rows (test2_vdp at 161^2) ran no faster on two threads.
_MIN_THREAD_ROWS = 2 ** 19
# The row writer works in slabs of about this many rows, and matrix-free rows
# go in chunks of whole last-axis planes of about as many.  On test6_eik3d at
# 41^3 with two threads, 2^15-row chunks swept 13% slower and 2^14 37% slower
# (one thread: the same), and 2^15-row slabs built no faster; 2^13 built
# 10-15% slower, and one slab per control no faster, with temporaries of 2^d
# corners per row (~0.5 GB per thread at 41^4).
_FILL_ROWS = 2 ** 16
# A minimum-time Bellman sweep of values of modulus at most this has only
# finite updates (_Sweeper.bellman_sweep): far below overflow.
_FINITE_BOUND = 1e300


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
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not self.stop_constant > 0:
            raise ValueError("stop_constant must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.eval_backend not in ("fixed_point", "direct"):
            raise ValueError("eval_backend must be fixed_point or direct, "
                             f"got {self.eval_backend!r}")
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


@dataclass(kw_only=True)
class RunReport:
    """Instrumentation for one solve, and the text of its report.txt.

    The fields are declared in text order.  to_text writes `key = value` for
    each field that is not None, the key being the field's name or its
    metadata "key", and then each phase's lines, prefixed by the phase name
    and a dot.  Reals are written to 17 significant digits (to the
    microsecond in a `*_seconds` field), sequences as comma lists, anything
    else by str.  So a new report line is one new field.

    node_updates counts single-node, single-control evaluations: (active
    nodes) * (control count) per Bellman or improvement sweep, (active
    nodes) per frozen-policy evaluation sweep.  It is the portable work
    metric; wall time is machine dependent.

    The operator_* fields describe the transition operator of a VI or PI
    run; they stay None on the aggregate API report, whose phases carry
    their own.  operator_stored says whether its entry bound fits the
    budget, so that it was stored rather than rebuilt in every sweep;
    operator_nnz counts its CSR entries (12 bytes each: float64 weight,
    int32 column; none for rows held as diagonals or applied matrix-free);
    operator_bytes is what the sweep's blocks hold (diagonals and their
    offsets, CSR entries, the row pointers of each CSR row set, one more
    than its rows, and the node numbers of the irregular rows beside
    diagonals; not the stage costs or the numbers of the empty rows).  The
    build wall time is the union of the spans during which a block was
    being set up, on any thread, which overlap the sweeps of other blocks.
    A stored operator is built once, by the first sweep, an unstored one in
    every sweep, so its time sums over them; a matrix-free control counts
    its one setup (dynamics, per-axis locations, stage cost and empty
    rows).
    operator_separable_controls counts the controls whose velocity is the
    same at every node, so that their rows come from per-axis cell
    locations, operator_matrix_free_controls those of them applied
    matrix-free and operator_diagonal_controls those whose regular rows are
    held as diagonals.  workers is the number of threads the sweeps used.

    capped_evaluations, on PI reports (so on API's fine phase and total),
    counts the fixed-point evaluations that stopped at config.inner_cap()
    without meeting their test; it stays None when there are none.
    policy_changes, on PI reports (so on API's fine phase), holds per
    improvement the number of non-pinned nodes whose control changed.
    bellman_residual, on VI and PI reports (so on both API phases), is
    rho = ||T V - V|| in the sup norm for the returned field V and the
    Bellman update T, read from the run's last min-over-controls sweep: VI's
    final argmin sweep, PI's last improvement.  T contracts by the discount
    gamma, so the fixed point of T lies within fixed_point_gap_bound =
    rho / (1 - gamma) of V.
    """

    algorithm: str
    grid_shape: tuple
    dx: float
    dt: float
    control_count: int
    epsilon: float
    outer_iterations: int = dataclass_field(metadata={"key": "iterations"})
    sub_iteration_history: list = dataclass_field(default_factory=list,
                                                  metadata={"key": "sub_iterations"})
    capped_evaluations: Optional[int] = None
    node_updates: int
    converged: bool
    wall_time_seconds: float
    residual_history: list = dataclass_field(default_factory=list)
    operator_stored: Optional[bool] = None
    operator_nnz: Optional[int] = None
    operator_bytes: Optional[int] = None
    operator_build_wall_time_seconds: Optional[float] = None
    operator_separable_controls: Optional[int] = None
    operator_matrix_free_controls: Optional[int] = None
    operator_diagonal_controls: Optional[int] = None
    policy_changes: Optional[list] = None
    workers: Optional[int] = None
    bellman_residual: Optional[float] = None
    fixed_point_gap_bound: Optional[float] = None
    phases: Optional[dict] = None

    def to_text(self):
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                lines += [f"{phase}.{line}" for phase, sub in value.items()
                          for line in sub.to_text().splitlines()]
            elif value is not None:
                lines.append(f"{f.metadata.get('key', f.name)} = {_report_text(f.name, value)}")
        return "\n".join(lines) + "\n"


def _report_text(name, value):
    """A report value as text, by the rule of RunReport's docstring."""
    if isinstance(value, (list, tuple)):
        return ",".join(_report_text(name, item) for item in value)
    if isinstance(value, float):
        return ("%.6f" if name.endswith("_seconds") else "%.17g") % value
    return str(value)


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
        tmask = target_mask(spec, grid)
        pin |= tmask
        pin_values[tmask] = 0.0
    return pin, pin_values


def _rate(spec):
    """lam of the one-step discount e^{-lam dt}: 1 for minimum time (the
    Kruzkhov transform), the discount rate of a discounted problem."""
    return 1.0 if spec.minimum_time else spec.kind.lam


def _discount(spec, dt):
    """The discount of one step, e^{-lam dt}."""
    return math.exp(-_rate(spec) * dt)


def _stage(spec, points, a, dt):
    """The stage costs of control `a` at the (n, d) `points`: one number for
    all of them, 1 - e^{-dt}, for minimum time and dt * l(x, a) per point
    otherwise."""
    if spec.minimum_time:
        return -math.expm1(-dt)
    stage = np.empty(len(points))
    stage[:] = dt * np.asarray(spec.running_cost(points, a), dtype=float)
    return stage


def _require_finite(values, message):
    """Raise SolverError(message(i)) for the first flat index i at which
    `values` is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        raise SolverError(message(int(np.flatnonzero(~finite)[0])))


def _arrival(spec, points, a, dt, j, velocity=None):
    """Control j's (vector `a`) explicit Euler arrivals x + dt * f(x, a)
    from the `points`, (n, d) or one state (d,), for sweeps, greedy steps
    and rollouts alike.  `velocity` is f(points, a) when the caller already
    has it.  A `dt` that is not positive raises ProblemError, and a
    non-finite arrival SolverError."""
    if not dt > 0:
        raise ProblemError(f"time step must be positive, got {dt}")
    if velocity is None:
        velocity = spec.dynamics(points, a)
    arrivals = points + dt * np.asarray(velocity)
    _require_finite(arrivals, lambda i: f"non-finite arrival under control {j}")
    return arrivals


def _step(spec, points, a, dt, j, velocity=None):
    """Control j's semi-Lagrangian step from the (n, d) `points`: the
    arrivals (_arrival) and the stage costs (_stage)."""
    return _arrival(spec, points, a, dt, j, velocity), _stage(spec, points, a, dt)


def _sup_distance(a, b):
    """max |a - b| over two arrays of values."""
    return float(np.max(np.abs(a - b)))


def _iterate(step, v, eps, cap):
    """v <- step(v) until consecutive iterates differ by at most eps in the
    sup norm, at most `cap` times.  Returns (last iterate, residual history
    with one entry per step, whether the test was met)."""
    history = []
    while len(history) < cap:
        new = step(v)
        history.append(_sup_distance(new, v))
        v = new
        if history[-1] <= eps:
            return v, history, True
    return v, history, False


def _fill_rows(grid, bases, locals_, inside, indptr, indices, data):
    """The _CsrRows of located arrivals, written into CSR arrays from their
    first entries: row r holds the 2^d multilinear weights of arrival r
    when inside[r] and is empty else.

    `bases` and `locals_` hold per axis the cell bases and local coordinates
    of the in-box arrivals only, as arrays that broadcast to those rows in
    flat order: a (k,) row per axis, or per-axis rows of an in-box sub-box.
    Every row pointer is written.  Each corner's column and weight are
    written straight into the (rows..., 2^d) views of indices and data, one
    first-axis slab of about _FILL_ROWS rows at a time, so that the slab's
    temporaries stay in cache.
    """
    width = 2 ** grid.dim
    indptr[0] = 0
    np.cumsum(inside, out=indptr[1:])
    indptr[1:] *= width
    end = int(indptr[-1])
    rows = _CsrRows(indptr, indices[:end], data[:end])
    if not end:
        return rows
    box = np.broadcast_shapes(*(b.shape for b in bases)) + (width,)
    cols, vals = rows.indices.reshape(box), rows.data.reshape(box)
    offsets = corner_offsets(grid)
    slab = max(1, _FILL_ROWS * box[0] // (end // width))
    for lo in range(0, box[0], slab):
        part = slice(lo, lo + slab)
        # Only the arrays that span the first axis are cut; the others broadcast.
        b, w = ([a[part] if len(a) > 1 else a for a in arrays] for arrays in (bases, locals_))
        flat = cell_index(grid, b)
        # each weight is written into its view of data as it is yielded
        weights = corner_weights(w, out=[vals[part, ..., k] for k in range(width)])
        for k, (offset, _) in enumerate(zip(offsets, weights)):
            np.add(flat, offset, out=cols[part, ..., k])
    return rows


def _located(grid, arrivals):
    """(bases, locals_, inside) of the (n, d) `arrivals` for _fill_rows:
    the (d, k) cell bases and local coordinates of the k in-box arrivals and
    the (n,) in-box mask.  The in-box rows go into fresh arrays, for a block
    of the m-control operator and for _Sweeper.evaluate's frozen-policy rows
    alike: buffers reused across a block's controls built no faster, and one
    kept for the frozen-policy builds saved ~2 ms per 41^3 build but held
    12 d N bytes for the sweeper's lifetime."""
    base, local, inside = locate_points(grid, arrivals)
    return np.compress(inside, base, axis=1), np.compress(inside, local, axis=1), inside


def _same_velocity(velocity, shape):
    """True when `velocity` is a float64 array of `shape` (n, d) whose rows
    are all bitwise equal: when each entry of its flat bits equals the one
    d places before.  That compare is contiguous; comparing every row with
    the first runs d-long inner loops, 6x slower on test6_eik3d at 41^3."""
    if velocity.shape != shape or velocity.dtype != np.float64:
        return False
    bits = np.ascontiguousarray(velocity).view(np.uint64).reshape(-1)
    return bool((bits[shape[1]:] == bits[:-shape[1]]).all())


def _shifted(grid, shift, j):
    """(bases, locals_, inside, box) of control j's arrivals, which move
    every node by the same vector `shift`: the first three for _fill_rows,
    and `box`, the per-axis slices of the in-box sub-box.  A non-finite
    arrival raises.

    Each axis's shifted node coordinates are located with the other
    coordinates at the lower face, all axes in one locate_points call.  An
    axis's in-box entries form one range, as they are sorted, so the in-box
    rows are a sub-box of the grid, consecutive in flat order, and bases and
    locals_ are its per-axis rows.
    """
    ends = np.cumsum((0,) + grid.nodes_per_axis)
    points = np.tile(grid.lower, (ends[-1], 1))
    for axis in range(grid.dim):
        points[ends[axis]:ends[axis + 1], axis] = grid.axis_coords(axis) + shift[axis]
    _require_finite(points, lambda i: f"non-finite arrival under control {j}")
    base, local, inside_all = locate_points(grid, points)
    bases, locals_, inside, box = [], [], True, []
    for axis in range(grid.dim):
        rows = slice(ends[axis], ends[axis + 1])
        kept = inside_all[rows]
        shape = [-1 if k == axis else 1 for k in range(grid.dim)]
        inside = inside & kept.reshape(shape)
        bases.append(base[axis, rows][kept].reshape(shape))
        locals_.append(local[axis, rows][kept].reshape(shape))
        start = int(np.argmax(kept))
        box.append(slice(start, start + np.count_nonzero(kept)))
    return bases, locals_, inside.reshape(-1), tuple(box)


def _diagonals(grid, bases, locals_, box, out):
    """A separable control's _DiagonalRows, from _shifted's `bases`,
    `locals_` and `box`, its 2^d diagonals written into `out`, a (2^d, N)
    array; or None, writing nothing, when the box is empty or the diagonals
    would hold at least the bytes of the CSR rows they replace (12 per
    entry and 4 per row pointer).

    A row's offset is its cell's lowest corner minus the row, in flat
    indices.  Regular rows are the in-box rows at the most common offset,
    delta: corner k of each lies at offsets[k] = delta + corner_offsets[k]
    from it, and out[k, r + offsets[k]] holds regular row r's weight there
    (DIA's layout: dia_matvec adds out[k, i] * v[i] into row i - offsets[k]);
    all other entries are 0.  delta sums each axis's most common shift, cell
    base minus node (the lowest on a tie), times its stride: the shifts vary
    independently over the box, and an offset fixes them, as on an axis of
    n nodes, whose cell bases never decrease, they lie within n - 1 of each
    other.  The irregular in-box rows go to _fill_rows, into CSR arrays of
    their own, as one (k,) row per axis.
    """
    if any(s.start == s.stop for s in box):
        return None
    index = [np.arange(s.start, s.stop, dtype=np.int32).reshape(b.shape)
             for s, b in zip(box, bases)]
    shifts = [b - i for b, i in zip(bases, index)]
    delta = 0
    for shift, stride in zip(shifts, grid.strides):
        low = int(shift.min())
        delta += (int(np.bincount(shift.reshape(-1) - low).argmax()) + low) * stride
    irregular = cell_index(grid, shifts) != delta
    holes = np.count_nonzero(irregular)
    if 8 * out.size >= (irregular.size - holes) * (12 * len(out) + 4):
        return None
    offsets = np.array(corner_offsets(grid), dtype=np.int32) + delta
    # each corner's weights, 0 on the irregular rows, on the box of one
    # grid-shaped row, which is copied into out[k] shifted by offsets[k]
    scratch = np.zeros(grid.shape)
    row, weights = scratch.reshape(-1), scratch[box]
    for k, (offset, _) in enumerate(zip(offsets.tolist(),
                                        corner_weights(locals_, out=repeat(weights)))):
        if holes:
            np.copyto(weights, 0.0, where=irregular)
        lo, hi = max(offset, 0), len(row) + min(offset, 0)
        out[k, :lo] = out[k, hi:] = 0.0
        out[k, lo:hi] = row[lo - offset:hi - offset]
    if not holes:
        return _DiagonalRows(offsets, out, None, None)
    b, w, i = ([np.broadcast_to(a, irregular.shape)[irregular] for a in arrays]
               for arrays in (bases, locals_, index))
    rows = _fill_rows(grid, b, w, np.ones(len(i[0]), dtype=bool),
                      *_csr_arrays((len(i[0]),), grid))
    return _DiagonalRows(offsets, out, rows, cell_index(grid, i).astype(np.int32))


class _CsrRows(NamedTuple):
    """CSR rows, from entry 0.  apply(values, transposed, out, buffers)
    adds each row's products with `values` into `out`, zeros on entry, by
    scipy's CSR matvec, the kernel of csr_matrix @ values."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def apply(self, values, transposed, out, buffers):
        csr_matvec(len(out), len(values), self.indptr, self.indices, self.data, values, out)

    @property
    def nnz(self):
        return len(self.data)

    @property
    def held_bytes(self):
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes


class _DiagonalRows(NamedTuple):
    """A separable control's rows as 2^d diagonals (_diagonals), 0 on the
    irregular rows, which the _CsrRows `irregular` hold for the int32
    `nodes` (both None when there are none).  apply(values, transposed,
    out, buffers) adds the diagonals into `out`, zeros on entry, one at a
    time, and writes the irregular rows' products over the 0 they leave:
    every row summed from 0 in corner order, as the CSR matvec sums it.  A
    zero entry adds 0 to a finite sum, which leaves its bits."""

    offsets: np.ndarray
    diagonals: np.ndarray
    irregular: Optional[_CsrRows]
    nodes: Optional[np.ndarray]

    def apply(self, values, transposed, out, buffers):
        n = len(values)
        dia_matvec(n, n, len(self.offsets), n, self.offsets, self.diagonals, values, out)
        if self.irregular is not None:
            q = np.zeros(len(self.nodes))
            self.irregular.apply(values, transposed, q, buffers)
            out[self.nodes] = q

    @property
    def nnz(self):
        return 0 if self.irregular is None else self.irregular.nnz

    @property
    def held_bytes(self):
        held = self.offsets.nbytes + self.diagonals.nbytes
        if self.irregular is not None:
            held += self.irregular.held_bytes + self.nodes.nbytes
        return held


class _ShiftedRows:
    """The rows of a separable control, applied without storing them.

    `bases`, `locals_` and `box` come from _shifted.  apply(values,
    transposed, out, buffers) writes into `out`, the control's N rows of
    B @ v (zeros on entry), on the in-box sub-box 0 + sum over the corners
    k, in corner order, of w_k * v[corner k of each row's cell].  These are
    the products and additions of the CSR matvec over _fill_rows' rows, in
    the same order, so the same bits; rows outside the box stay 0.  It
    reads v as `transposed`, v with the grid axes reversed, C-contiguous
    (one copy per Bellman sweep), so that each plane of the last axis is
    contiguous.

    The sub-box goes in chunks of whole last-axis planes, about _FILL_ROWS
    rows each, in a layout where every pass is one contiguous run.  Its
    axes are reversed, and a plane is numbered by grid node along every
    axis but a `gathered` one, whose cell bases are not consecutive
    (arrivals that rounding puts on either side of a node, or clamps onto
    the upper face); along those it is numbered by box row.  Nodes past the
    box pad the layout and get zero weights.  Per chunk, np.take gathers
    the values of v along the gathered axes, last axis first, once for each
    choice of lower or upper corner on them.  A corner's values are then
    one flat slice, at a constant offset, of the chunk of v or of a
    gathered array.

    The weights of the first d - 1 axes are grid.corner_weights' products
    over a plane, taken once per call into every plane of a chunk-sized
    tile.  A corner's weight over a chunk is its tile times the last axis's
    factor of each plane, spread over the plane: the product corner_weights
    takes last (IEEE products commute).  It is multiplied by the corner's
    values and added into a sum, whose in-box rows are copied, transposed
    back, into `out`.  Every buffer belongs to the calling thread.
    """

    nnz = held_bytes = 0

    def __init__(self, grid, bases, locals_, box):
        self.shape = grid.shape
        self.box = box
        self.empty = any(s.start == s.stop for s in box)
        if self.empty:
            return
        d = grid.dim
        bases = [b.reshape(-1) for b in bases]
        locals_ = [w.reshape(-1) for w in locals_]
        self.gathered = [axis for axis, b in enumerate(bases) if not (np.diff(b) == 1).all()]
        # per axis the first row's lower corner, and per gathered axis the
        # lower and upper corners of every row
        self.lower = [int(b[0]) for b in bases]
        self.corner_nodes = {axis: (bases[axis], bases[axis] + 1) for axis in self.gathered}
        # a plane's layout, its axes reversed, and the flat stride of each
        # of the first d - 1 axes in it
        sizes = [len(b) if axis in self.gathered else n
                 for axis, (b, n) in enumerate(zip(bases[:-1], grid.shape))]
        self.plane_shape = tuple(reversed(sizes))
        self.plane = math.prod(sizes)
        strides = [math.prod(sizes[:axis]) for axis in range(d - 1)]
        # the in-box part of a plane and the position of its last row
        self.in_box = tuple(slice(0, len(b)) for b in reversed(bases[:-1]))
        self.last_row = sum((len(b) - 1) * s for b, s in zip(bases, strides))
        # the first d - 1 axes' local coordinates, each along its own axis
        # of a plane
        self.plane_locals = [w.reshape([-1 if k == d - 2 - axis else 1 for k in range(d - 1)])
                             for axis, w in enumerate(locals_[:-1])]
        # the last axis's lower and upper factors
        self.factors = np.stack((1.0 - locals_[-1], locals_[-1]))
        # Per corner, in corner order: the position of its values among the
        # gathered arrays, their offset there, its plane product and its
        # last-axis bit
        self.corners = []
        for bits in product((0, 1), repeat=d):
            at = offset = plane = 0
            for bit in bits[:-1]:
                plane = 2 * plane + bit
            for axis in reversed(self.gathered):
                at = 2 * at + bits[axis]
            for axis, s in enumerate(strides):
                if axis not in self.gathered:
                    offset += (self.lower[axis] + bits[axis]) * s
            if d - 1 not in self.gathered:
                offset += bits[-1] * self.plane
            self.corners.append((at, offset, plane, bits[-1]))
        # whole planes in as few chunks of at most _FILL_ROWS rows as fit,
        # all about the same size
        chunks = -(-len(bases[-1]) // max(1, _FILL_ROWS // self.plane))
        self.chunk = -(-len(bases[-1]) // chunks)
        taken = (2 ** (len(self.gathered) + 1) - 2) * (self.chunk + 1) * math.prod(grid.shape[:-1])
        self.buffer_size = (4 + 2 ** (d - 1)) * self.chunk * self.plane + taken

    def apply(self, values, transposed, out, buffers):
        if self.empty:
            return
        count, rows = len(self.corners) // 2, self.chunk * self.plane
        buffer = _thread_buffer(buffers, self.buffer_size)
        chunked = buffer[:(4 + count) * rows].reshape(4 + count, rows)
        w, acc, spread, tiles = chunked[0], chunked[1], chunked[2:4], chunked[4:]
        free = buffer[chunked.size:]
        # the plane products, 0 past the box, in the first plane of each
        # tile and then in the others
        first = tiles.reshape((count, self.chunk) + self.plane_shape)[:, 0]
        if self.plane_locals:
            first.fill(0.0)
            for _ in corner_weights(self.plane_locals, out=first[(slice(None),) + self.in_box]):
                pass
        else:
            first.fill(1.0)  # 1.0 * f is f, bit for bit
        tiles.reshape(count, self.chunk, self.plane)[:, 1:] = tiles[:, None, :self.plane]
        rows_out = out.reshape(self.shape)[self.box]
        planes = self.factors.shape[1]
        # A zero weight times an inf of v is NaN, which the sweep reports as
        # a non-finite update, as it does on stored rows.  numpy's error
        # state is per thread, so it is set here, on the thread that sweeps.
        with np.errstate(invalid="ignore"):
            for lo in range(0, planes, self.chunk):
                k = min(self.chunk, planes - lo)
                size = (k - 1) * self.plane + self.last_row + 1
                near = self._near(transposed, lo, k, free)
                # each plane's lower and upper last-axis factors, over the plane
                spread[:, :k * self.plane].reshape(2, k, self.plane)[...] = (
                    self.factors[:, lo:lo + k, None])
                products, sums = w[:size], acc[:size]
                for at, offset, plane, bit in self.corners:
                    np.multiply(tiles[plane, :size], spread[bit, :size], out=products)
                    np.multiply(products, near[at][offset:offset + size], out=products)
                    if plane or bit:
                        sums += products
                    else:
                        np.add(products, 0.0, out=sums)  # 0 + w v, bit for bit
                chunk = acc[:k * self.plane].reshape((k,) + self.plane_shape)
                rows_out[..., lo:lo + k] = chunk[(slice(None),) + self.in_box].T

    def _near(self, transposed, lo, k, free):
        """The values that the corners of the chunk of last-axis planes
        [lo, lo + k) read, flat, one array per choice of corner bits on the
        gathered axes; what is gathered goes into `free`."""
        last = len(self.shape) - 1
        if last in self.gathered:
            near = [transposed]
        else:
            first = self.lower[last] + lo
            near = [transposed[first:first + k + 1]]
        used = 0
        for axis in reversed(self.gathered):
            position = last - axis
            taken = []
            for g in near:
                for nodes in self.corner_nodes[axis]:
                    if axis == last:
                        nodes = nodes[lo:lo + k]
                    shape = g.shape[:position] + nodes.shape + g.shape[position + 1:]
                    target = free[used:used + math.prod(shape)].reshape(shape)
                    used += target.size
                    taken.append(np.take(g, nodes, axis=position, mode="clip", out=target))
            near = taken
        return [g.reshape(-1) for g in near]


def _thread_buffer(buffers, size):
    """A float64 buffer of at least `size` entries that the calling thread
    keeps in the threading.local `buffers` and reuses: a fresh one per
    control would be page-faulted in every sweep.  It is an anonymous
    memory map, returned to the system with the thread's other locals.
    From malloc it stayed in the worker thread's arena, which allocations
    on other threads do not reuse: five api_solve rounds of the api_eik3d
    problem in one process peaked 4-6 MB higher."""
    if getattr(buffers, "buffer", np.empty(0)).size < size:
        buffers.buffer = None  # unmapped before its successor is mapped
        buffers.buffer = np.frombuffer(mmap.mmap(-1, 8 * size), dtype=np.float64)
    return buffers.buffer


def _csr_arrays(shape, grid):
    """Uninitialized indptr, indices and data, along the last axis, of one
    row set of shape[-1] rows of at most 2^d entries per index of
    shape[:-1].  indptr is int32, as the node cap keeps a row set's entries
    below 2^31.  data is allocated first: it also takes the diagonals,
    which are all written, while the other arrays of separable controls
    stay mostly unwritten, so that it takes the memory earlier solves
    freed."""
    *sets, rows = shape
    data = np.empty((*sets, rows * 2 ** grid.dim))
    indices = np.empty(data.shape, dtype=np.int32)
    indptr = np.empty((*sets, rows + 1), dtype=np.int32)
    return indptr, indices, data


class _Block(NamedTuple):
    """One block of consecutive controls of the m-control operator, `size`
    rows, one per (control, node), control major, or the frozen-policy
    operator, one row per node (_Sweeper.policy_rows).  `controls` holds
    per control of the block, in order, the row set that applies its N
    rows: _CsrRows, _DiagonalRows or _ShiftedRows.  c is the stage cost:
    one number for a minimum-time problem, else one per row.  `outside`
    numbers, ascending and as int32, the rows whose arrivals leave the box:
    the empty rows, but for the pinned nodes' rows of the frozen-policy
    operator, which take the exterior value in a sweep."""

    controls: list
    c: float | np.ndarray
    outside: np.ndarray
    size: int


def _covered_seconds(spans):
    """The wall time covered by the union of (start, end) spans."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(spans):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _fold_lowest(best, best_idx, low, low_idx):
    """Fold later controls' values `low` (indices `low_idx`) into the running
    minimum `best` (indices `best_idx`, or None) in place: np.minimum, as
    np.minimum.reduce folds rows, and the index moves only where `low` is
    strictly lower, so it stays the lowest index attaining the minimum."""
    if best_idx is not None:
        np.copyto(best_idx, low_idx, where=low < best)
    np.minimum(best, low, out=best)


class _Sweeper:
    """The transition operator of one (problem, grid, controls, dt).

    The m-control operator is a list of blocks of consecutive controls,
    each one _Block record that the first Bellman sweep to need it builds
    (_fill_block).  A separable control (velocity bitwise the same at every
    node) is applied matrix-free (_ShiftedRows) when `store_separable` is
    False or the operator's entry bound exceeds the budget, and is
    otherwise held as diagonals where they take fewer bytes
    (_DiagonalRows); every other control has CSR rows (_CsrRows).  A block
    is kept for later sweeps when the entry bound fits the budget or when
    it has no CSR entry; over the budget every other block is rebuilt in
    every sweep.
    evaluate() builds the frozen-policy rows, a _Block of their own, by the
    same row writer, once per call.
    `build_seconds` is the wall time during which a block was being set up,
    `nnz` counts the CSR entries of a sweep, `operator_bytes` the bytes its
    blocks hold, `separable` marks the separable controls, `diagonal` those
    held as diagonals, `matrix_free` says whether they are applied
    matrix-free, and `threads` is the number of threads the blocks run on,
    at most config.workers.  With more than one, the thread pool starts with
    the first block; use the sweeper as a context manager, whose exit joins
    the pool's threads.  A target set that target_mask rejects raises its
    ProblemError, and then a one-step discount that rounds to 1 raises
    SolverError, both before any sweep.
    """

    def __init__(self, spec, grid, controls, config, store_separable=True):
        self.spec = spec
        self.grid = grid
        self.controls = controls
        self.dt = config.dt
        self.pinned, values = _pins(spec, grid)
        self.discount = _discount(spec, self.dt)
        if self.discount == 1.0:
            # the scheme no longer contracts, and the gap bound divides by 0
            raise SolverError(f"lam*dt = {_rate(spec) * self.dt:.3g} is too small: the "
                              "one-step discount exp(-lam*dt) rounds to 1")
        self.nodes = grid.nodes()
        # the pinned nodes and their values, which every sweep sets by index
        self.pins = np.flatnonzero(self.pinned)
        self.pin_values = values[self.pins]
        self.active_count = grid.num_nodes - len(self.pins)

        m, n = len(controls), grid.num_nodes
        self.stored = m * n * 2 ** grid.dim <= _OPERATOR_NNZ_LIMIT
        self.matrix_free = not (store_separable and self.stored)
        self.build_seconds = 0.0
        self.nnz = self.operator_bytes = 0
        self.separable = np.zeros(m, dtype=bool)
        self.diagonal = np.zeros(m, dtype=bool)
        self._buffers = threading.local()
        # Blocks shrink with the thread count, so the blocks in flight hold
        # about the temporaries of one serial block.
        threads = max(1, min(config.workers, m * n // _MIN_THREAD_ROWS))
        count = -(-m // max(1, _BLOCK_ROWS // threads // n))
        step = -(-m // count)
        self.blocks = [range(lo, min(lo + step, m)) for lo in range(0, m, step)]
        self.threads = min(threads, len(self.blocks))
        # the blocks kept between sweeps, None until a sweep keeps one
        self.kept = [None] * len(self.blocks)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if "_pool" in self.__dict__:
            self._pool.shutdown(cancel_futures=True)

    @cached_property
    def _pool(self):
        return ThreadPoolExecutor(self.threads, thread_name_prefix="hjbsolve")

    def _block_arrays(self, js):
        """(CSR arrays, stage costs) for the controls `js`: one row set per
        control (None on a matrix-free sweeper), and the stage costs, None
        for a minimum-time problem, whose stage cost is one number."""
        n = self.grid.num_nodes
        csr = None if self.matrix_free else _csr_arrays((len(js), n), self.grid)
        return csr, None if self.spec.minimum_time else np.empty(len(js) * n)

    def _fill_block(self, js, arrays=None):
        """The _Block of the controls `js` and the (start, end) of its
        build.  Control t's rows go into the t-th CSR arrays of `arrays`
        (by default new ones; a matrix-free sweeper's only once a control
        needs them).

        The dynamics are called once per control, and so is the running
        cost of a discounted problem; a minimum-time problem's c is its one
        stage cost.  The rows whose arrivals leave the box are numbered in
        `outside`.  A control whose velocity is bitwise the same at every
        node has its arrivals located per axis (_shifted) and is marked in
        `separable`; any other control has its N arrivals located
        (_located).  Both give the same bits in _fill_rows.  A matrix-free
        sweeper applies a separable control's located sub-box
        (_ShiftedRows).  Any other sweeper holds a separable control's
        regular rows as diagonals in the control's part of the CSR data
        array when they take fewer bytes (_diagonals), and marks it in
        `diagonal`.  Every other control's rows are CSR rows in its part of
        the arrays.
        """
        t0 = time.perf_counter()
        grid, spec, nodes = self.grid, self.spec, self.nodes
        n = grid.num_nodes
        csr, c = arrays or self._block_arrays(js)
        controls, outside = [], []
        for t, j in enumerate(js):
            a = self.controls.vectors[j]
            velocity = np.asarray(spec.dynamics(nodes, a))
            if _same_velocity(velocity, nodes.shape):
                bases, locals_, inside, box = _shifted(grid, self.dt * velocity[0], j)
                stage = _stage(spec, nodes, a, self.dt)
                self.separable[j] = True
            else:
                arrivals, stage = _step(spec, nodes, a, self.dt, j, velocity)
                bases, locals_, inside = _located(grid, arrivals)
                box = None
            if spec.minimum_time:
                c = stage
            else:
                c[t * n:(t + 1) * n] = stage
            outside.append(np.flatnonzero(~inside) + t * n)
            if box is not None and self.matrix_free:
                controls.append(_ShiftedRows(grid, bases, locals_, box))
                continue
            if csr is None:
                csr = _csr_arrays((len(js), n), grid)
            indptr, indices, data = (array[t] for array in csr)
            rows = None if box is None else _diagonals(grid, bases, locals_, box,
                                                       data.reshape(-1, n))
            self.diagonal[j] = rows is not None
            if rows is None:
                rows = _fill_rows(grid, bases, locals_, inside, indptr, indices, data)
            controls.append(rows)
        outside = np.concatenate(outside, dtype=np.int32)
        return _Block(controls, c, outside, len(js) * n), (t0, time.perf_counter())

    def _map(self, fn, *iterables):
        """fn over the blocks' arguments, results in block order: the builtin
        map with one thread, else the pool's, which queues every call at once
        and cancels the calls not yet started when its iterator is closed."""
        if self.threads == 1:
            return map(fn, *iterables)
        return self._pool.map(fn, *iterables)

    def pinned_copy(self, field):
        """A copy of `field` with the pins applied; a field on another grid
        raises GridError."""
        _check_same_grid(field, self)
        v = field.values.copy()
        self.apply_pins(v)
        return ValueField(self.grid, v, copy=False)

    def apply_pins(self, values, policy=None):
        values[self.pins] = self.pin_values
        if policy is not None:
            policy[self.pins] = UNSET_POLICY

    def _product(self, block, values, transposed):
        """B @ values over every row of the _Block `block`: each control's
        row set applies itself into the control's N rows of zeros, each
        row's products added from 0 in corner order, as scipy's CSR matvec
        adds them.  Matrix-free rows read `transposed`, the values with the
        grid axes reversed."""
        n = self.grid.num_nodes
        q = np.zeros(block.size)
        for t, rows in enumerate(block.controls):
            rows.apply(values, transposed, q[t * n:(t + 1) * n], self._buffers)
        return q

    def _add_stage(self, q, block):
        """q = B @ values over the _Block `block`'s rows, made discount * q + c
        in place, with discount * exterior value x in place of discount * 0
        on the rows in `outside`: x + c is the double 0 + (c + x)."""
        q *= self.discount
        q[block.outside] = self.discount * self.spec.exterior_value
        q += block.c
        return q

    def _sweep_block(self, js, block, arrays, values, policy, transposed, finite):
        """Block `js`'s part of a Bellman sweep: the per-node minimum of
        discount * (B @ values) + c over its controls, the lowest control
        index attaining it (None unless `policy`), the _Block and the span
        of its build (None for a kept block).  A value-only sweep
        min-reduces the controls; a policy sweep folds them one by one
        (_fold_lowest), with the same values.  `block` is a kept block;
        None builds it first, into `arrays` when they are given.
        Matrix-free rows read `transposed`, the values with the grid axes
        reversed.  `finite` says that every update is known to be finite
        (bellman_sweep), so that none is scanned; a value-only sweep then
        returns the minimum of B @ values, with the exterior value on the
        rows in `outside`, and leaves discount * min + c to bellman_sweep."""
        span = None
        if block is None:
            block, span = self._fill_block(js, arrays)
        n = self.grid.num_nodes
        q = self._product(block, values, transposed)
        if finite and not policy:
            q[block.outside] = self.spec.exterior_value
        else:
            q = self._add_stage(q, block)
        if not finite:
            _require_finite(q, lambda i: f"non-finite update at node {i % n} "
                                         f"under control {js[i // n]}")
        q = q.reshape(len(js), n)
        if not policy:
            return np.minimum.reduce(q, axis=0), None, block, span
        low, low_idx = q[0].copy(), np.full(n, js.start, dtype=np.int32)
        for t in range(1, len(js)):
            _fold_lowest(low, low_idx, q[t], js[t])
        return low, low_idx, block, span

    def bellman_sweep(self, values, policy=True):
        """One Jacobi sweep of the min-over-controls update.

        Returns (new values, argmin policy, evaluation count).  Each block of
        controls gives discount * (B @ values) + c and its lowest-index
        argmin, on a worker thread when there are threads; the calling thread
        folds the blocks in ascending control order by the rule that folds
        the controls inside a block (_fold_lowest).  So the values and the
        policy are the bits of one fold over the controls, the lowest
        control index wins every tie, and a non-finite update raises for
        the lowest failing control, whatever the thread count and the block
        partition.  With policy=False the argmin is skipped and None is
        returned in its place; the values are the same bits.

        A minimum-time sweep of finite values of modulus at most 1e300 has
        only finite updates, so it scans none: a row's weights are in
        [0, 1] and sum to 1 up to rounding, and c and the exterior value are
        finite.  Its value-only form takes the minimum first: the blocks
        give the minima of B @ values, with the exterior value on the rows
        that leave the box, and discount * min + c is formed once per node
        after the merge.  Rounding is monotone, so fl(fl(discount * p) + c)
        never decreases as p grows and commutes with the minimum: the same
        bits.  Any other sweep, and a minimum-time one from other values,
        forms and scans every update.
        """
        finite = (self.spec.minimum_time
                  and -_FINITE_BOUND <= values.min() and values.max() <= _FINITE_BOUND)
        kept = self.kept
        # The calling thread allocates the arrays of every block that will be
        # kept before it is queued.  Allocated on the pool's threads, they
        # come from per-thread malloc arenas, whose freed memory other
        # threads do not reuse: the api_eik3d benchmark's peak RSS rose from
        # 138-140 MB to 166-182 MB.  A matrix-free sweeper's blocks allocate
        # their CSR arrays only once a control needs them.  Diagonals are
        # written into the CSR data arrays, so nothing more is allocated for
        # them.
        arrays = [self._block_arrays(js)
                  if self.stored and block is None else None
                  for js, block in zip(self.blocks, kept)]
        # one copy of the values, with the grid axes reversed, for all the
        # matrix-free rows of the sweep
        transposed = (np.ascontiguousarray(values.reshape(self.grid.shape).T)
                      if self.matrix_free else None)
        results = self._map(self._sweep_block, self.blocks, kept, arrays, repeat(values),
                            repeat(policy), repeat(transposed), repeat(finite))
        best = best_idx = None
        nnz = held = 0
        spans = []
        for i, (low, low_idx, block, span) in enumerate(results):
            entries = sum(rows.nnz for rows in block.controls)
            nnz += entries
            held += sum(rows.held_bytes for rows in block.controls)
            if span is not None:
                spans.append(span)
                if self.stored or not entries:
                    # `outside`, whose length only the build finds, is copied
                    # on the calling thread, like the arrays allocated above
                    kept[i] = block._replace(outside=block.outside.copy())
            if best is None:
                best, best_idx = low, low_idx
            else:
                _fold_lowest(best, best_idx, low, low_idx)
        self.build_seconds += _covered_seconds(spans)
        self.nnz, self.operator_bytes = nnz, held
        if finite and not policy:
            best *= self.discount
            best += block.c  # every block's one stage cost
        self.apply_pins(best, best_idx)
        return best, best_idx, self.active_count * len(self.controls)

    def policy_rows(self, policy):
        """The frozen-policy operator, a _Block of N rows in node order: row
        i is node i's row under control policy[i], empty for a pinned node,
        whose stage cost is 0 when it is one per node and which `outside`
        omits.  A policy on another grid raises GridError, and a non-pinned
        node whose index is no control index SolverError."""
        _check_same_grid(policy, self)
        m = len(self.controls)
        idx = np.where(self.pinned, UNSET_POLICY, policy.indices)
        bad = np.flatnonzero(~self.pinned & ((idx < 0) | (idx >= m)))
        if bad.size:
            raise SolverError(f"policy index {idx[bad[0]]} at non-pinned node "
                              f"{bad[0]} is not a control index in [0, {m})")
        spec, grid, n = self.spec, self.grid, self.grid.num_nodes
        # Pinned nodes keep NaN arrivals, which lie outside the box.
        arrivals = np.full((n, grid.dim), np.nan)
        c = _stage(spec, self.nodes, None, self.dt) if spec.minimum_time else np.zeros(n)
        for j in range(m):
            sel = np.flatnonzero(idx == j)
            if sel.size:
                arrivals[sel], stage = _step(spec, self.nodes[sel], self.controls.vectors[j],
                                             self.dt, j)
                if not spec.minimum_time:
                    c[sel] = stage
        bases, locals_, inside = _located(grid, arrivals)
        outside = np.flatnonzero(~(inside | self.pinned)).astype(np.int32)
        rows = _fill_rows(grid, bases, locals_, inside, *_csr_arrays((n,), grid))
        return _Block([rows], c, outside, n)

    def _direct_system(self, rows):
        """I - discount * B over policy_rows' _Block `rows`, a _CsrRows, and
        its right-hand side: the stage costs, discount * exterior value added
        on `outside`, and the pins.  The matrix is csr_minus_csr of the
        identity and discount * B, on the arrays that scipy's
        identity(n, format="csr") - discount * B passes it, and so has its
        bits: int32 identity rows, and output arrays of n + nnz entries, cut
        to the entries written."""
        n = self.grid.num_nodes
        B = rows.controls[0]
        identity = np.arange(n + 1, dtype=np.int32)
        indptr = np.empty(n + 1, dtype=np.int32)
        indices = np.empty(n + B.nnz, dtype=np.int32)
        data = np.empty(n + B.nnz)
        csr_minus_csr(n, n, identity, identity[:n], np.ones(n), B.indptr, B.indices,
                      B.data * self.discount, indptr, indices, data)
        matrix = _CsrRows(indptr, indices[:indptr[-1]], data[:indptr[-1]])
        rhs = np.full(n, rows.c)
        rhs[rows.outside] += self.discount * self.spec.exterior_value
        rhs[self.pins] = self.pin_values
        return matrix, rhs

    def evaluation_sweep(self, values, rows):
        """One frozen-policy sweep over policy_rows' _Block `rows`."""
        out = self._add_stage(self._product(rows, values, None), rows)
        self.apply_pins(out)
        _require_finite(out, lambda i: f"non-finite evaluation update at node {i}")
        return out

    def evaluate(self, policy, v, config, backend, first=None):
        """The values of the frozen `policy` by the `backend` of
        policy_evaluation_fixed_point, from the pinned values `v`, or of
        policy_evaluation_direct, which ignores `v`: (flat values, sweep or
        Krylov count, whether the evaluation met its test).  A non-finite
        stage cost raises before any sweep or Krylov step, naming the node
        and its control.

        `first`, when given, is the Bellman sweep of `v` whose argmin
        `policy` is, and so the first fixed-point sweep, bit for bit.  When
        it already meets the test, it is returned as that one sweep, and no
        rows are built."""
        eps = config.epsilon(self.grid)
        if backend == "fixed_point" and first is not None and _sup_distance(first, v) <= eps:
            return first, 1, True
        rows = self.policy_rows(policy)
        _require_finite(rows.c, lambda i: f"non-finite stage cost at node {i} under "
                                          f"control {policy.indices[i]}")
        if backend == "fixed_point":
            v, history, converged = _iterate(partial(self.evaluation_sweep, rows=rows),
                                             v, eps, config.inner_cap())
            return v, len(history), converged

        matrix, rhs = self._direct_system(rows)
        tol = eps / 10.0
        x, info, iters = _bicgstab(matrix, rhs, tol, config.inner_cap())
        ax = np.zeros(len(x))
        matrix.apply(x, None, ax, None)
        residual = float(np.max(np.abs(ax - rhs)))
        if info != 0 or residual > tol:
            raise SolverError(
                f"direct policy evaluation stalled: achieved residual {residual:.3e}, "
                f"required {tol:.3e}"
            )
        self.apply_pins(x)
        return x, max(iters, 1), True


def _bicgstab(matrix, b, atol, maxiter):
    """Unpreconditioned BiCGStab (van der Vorst 1992; Saad 2003, ch. 7) for
    the _CsrRows `matrix` from x = 0: scipy 1.17's
    scipy.sparse.linalg.bicgstab(matrix, b, rtol=0, atol=atol,
    maxiter=maxiter) step for step, with the same np.dot and
    np.linalg.norm reductions in the same order, the same breakdown tests
    and the same bits.  Returns (x, info, iterations): info is 0 when a
    residual norm fell below `atol`, -10 or -11 on a rho or omega
    breakdown and `maxiter` when the iterations ran out; `iterations`
    counts the completed ones, those after which scipy calls its callback.

    b is not written; when it is 0 it is returned as x.  Every product goes
    into a work vector kept for the call, so that an iteration allocates
    nothing.  scipy's rtilde is b, and its s, the residual after the alpha
    step, is r itself, which nothing writes before the omega step."""
    n = len(b)
    if np.linalg.norm(b) == 0:
        return b, 0, 0
    tiny = np.finfo(np.float64).eps ** 2  # scipy's rhotol and omegatol
    x, r = np.zeros(n), b.copy()
    p, v, t, work = (np.empty(n) for _ in range(4))

    def matvec(vector, out):
        out.fill(0.0)
        matrix.apply(vector, None, out, None)

    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0, iteration
        rho = np.dot(b, r)
        if abs(rho) < tiny:
            return x, -10, iteration
        if iteration:  # alpha, omega and rho_prev are set
            if abs(omega) < tiny:
                return x, -11, iteration
            beta = (rho / rho_prev) * (alpha / omega)
            p -= np.multiply(omega, v, out=work)
            p *= beta
            p += r
        else:
            p[:] = r
        matvec(p, v)
        rv = np.dot(b, v)
        if rv == 0:
            return x, -11, iteration
        alpha = rho / rv
        r -= np.multiply(alpha, v, out=work)
        if np.linalg.norm(r) < atol:
            x += np.multiply(alpha, p, out=work)
            return x, 0, iteration
        matvec(r, t)
        omega = np.dot(t, r) / np.dot(t, t)
        x += np.multiply(alpha, p, out=work)
        x += np.multiply(omega, r, out=work)
        r -= np.multiply(omega, t, out=work)
        rho_prev = rho
    return x, maxiter, maxiter


def _start_field(spec, grid):
    """default_initial_field before its pins: 1 (minimum time) or 0 everywhere."""
    return ValueField.full(grid, 1.0 if spec.minimum_time else 0.0)


def default_initial_field(spec, grid):
    """Standard initial iterate: 0 everywhere (discounted problems) or the
    transform's range endpoints 1 off target / 0 on target (minimum time),
    with any fixed boundary values applied."""
    v = _start_field(spec, grid).values
    pinned, pinned_values = _pins(spec, grid)
    v[pinned] = pinned_values[pinned]
    return ValueField(grid, v, copy=False)


def bellman_update(spec, grid, V, controls, config):
    """One Jacobi min-over-controls update of a value field.

    Every node reads only the input field; per node all controls are
    enumerated, the discounted interpolated continuation plus stage cost is
    minimized, and the argmin index is recorded (ties break low).  Target and
    fixed-boundary nodes are pinned.  A field on another grid raises
    GridError.
    """
    with _Sweeper(spec, grid, controls, config, store_separable=False) as sweeper:
        _check_same_grid(V, sweeper)
        out, pol, _ = sweeper.bellman_sweep(V.values)
    return ValueField(grid, out, copy=False), PolicyField(grid, pol)


def _state(spec, x):
    """`x` as a flat float state; one whose length is not the problem's
    state dimension raises SolverError."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != spec.state_dim:
        raise SolverError(f"state has dimension {x.size}, problem has {spec.state_dim}")
    return x


def greedy_control_index(spec, V, controls, x, dt):
    """Index of the greedy control at an arbitrary in-domain state.

    The step is a Bellman sweep's: the lowest control index minimizing
    discount * V(arrival) + stage cost, with V interpolated at all arrivals
    in one call.  A `dt` that is not positive raises the sweeps'
    ProblemError (_arrival), and a state of another dimension SolverError
    (_state).
    """
    x = _state(spec, x)
    if not spec.contains(x):
        raise SolverError(f"state {x!r} lies outside the problem domain")
    steps = [_step(spec, x[None, :], a, dt, j) for j, a in enumerate(controls.vectors)]
    arrivals, stage = zip(*steps)
    q = interpolate_values(V.grid, V.values, np.concatenate(arrivals), spec.exterior_value)
    q *= _discount(spec, dt)
    q += np.hstack(stage)
    _require_finite(q, lambda i: f"non-finite greedy evaluation under control {i}")
    return int(np.argmin(q))


def _make_report(algorithm, sweeper, config, t0, updates, converged, history,
                 residual, subs=None, changes=None, capped=None):
    """The report of a VI or PI run started at `t0`, one outer iteration per
    residual in `history`; `residual` is the returned field's Bellman
    residual."""
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
        capped_evaluations=capped,
        policy_changes=changes,
        operator_stored=sweeper.stored,
        operator_nnz=sweeper.nnz,
        operator_bytes=sweeper.operator_bytes,
        operator_diagonal_controls=int(np.count_nonzero(sweeper.diagonal)),
        operator_build_wall_time_seconds=sweeper.build_seconds,
        operator_separable_controls=int(np.count_nonzero(sweeper.separable)),
        operator_matrix_free_controls=(
            int(np.count_nonzero(sweeper.separable)) if sweeper.matrix_free else 0),
        workers=sweeper.threads,
        bellman_residual=residual,
        fixed_point_gap_bound=residual / (1.0 - sweeper.discount),
    )


def value_iteration(spec, grid, controls, config, V0=None):
    """Fixed-point iteration of the Bellman update to the C*dx^2 stop test.

    Returns the last iterate, its greedy policy, and the run report.  Hitting
    max_iterations is reported as converged=False, not raised.  The reported
    wall time includes the operator build.
    """
    t0 = time.perf_counter()
    with _Sweeper(spec, grid, controls, config) as sweeper:
        V = sweeper.pinned_copy(_start_field(spec, grid) if V0 is None else V0)
        v, history, converged = _iterate(
            lambda values: sweeper.bellman_sweep(values, policy=False)[0], V.values,
            config.epsilon(grid), config.max_iterations)
        # One extra argmin sweep so the returned policy is greedy for the
        # returned (final) iterate.
        Tv, pol, evals = sweeper.bellman_sweep(v)
    report = _make_report("vi", sweeper, config, t0, (len(history) + 1) * evals,
                          converged, history, _sup_distance(Tv, v))
    return ValueField(grid, v, copy=False), PolicyField(grid, pol), report


def policy_evaluation_fixed_point(spec, grid, policy, controls, V_init, config):
    """Frozen-policy value by warm-started fixed-point sweeps.

    Iterates the linear one-step update until consecutive sweeps differ by at
    most eps in the sup norm (the same test as the outer loop), at most
    config.inner_cap() times.  Returns (field, sweep count, converged); a
    False flag means the cap was hit, and policy_iteration goes on from
    such a truncated field.
    """
    sweeper = _Sweeper(spec, grid, controls, config)
    v, sweeps, converged = sweeper.evaluate(policy, sweeper.pinned_copy(V_init).values,
                                            config, "fixed_point")
    return ValueField(grid, v, copy=False), sweeps, converged


def policy_evaluation_direct(spec, grid, policy, controls, config):
    """Frozen-policy value via a sparse linear solve.

    Solves (I - discount * B) V = c, where B holds the frozen-policy rows
    (at most 2^d nonnegative entries per row summing to at most 1; the
    discount makes the system strictly diagonally dominant) and c the stage
    cost plus discount * exterior mass, to residual eps/10 with the
    package's own BiCGStab loop (_bicgstab), which gives the bits of scipy
    1.17's bicgstab.  I - discount * B is formed by scipy's csr_minus_csr
    kernel, with the bits of scipy's own subtraction.  Stagnation raises,
    carrying the achieved residual.
    Returns (field, solver iteration count).  The loop's dot products and
    norms are np.dot and np.linalg.norm, which run through OpenBLAS, whose
    sums round differently with its thread count, so the iteration count
    and the field's bits are repeatable only for a fixed
    OPENBLAS_NUM_THREADS.
    """
    sweeper = _Sweeper(spec, grid, controls, config)
    v, iters, _ = sweeper.evaluate(policy, None, config, "direct")
    return ValueField(grid, v, copy=False), iters


def policy_iteration(spec, grid, controls, config, V_init=None, on_iterate=None):
    """Howard's algorithm: frozen-policy evaluation alternating with greedy
    improvement until consecutive value iterates differ by at most eps.

    Without `V_init` the run starts from default_initial_field and the
    constant policy 0.  With it, the run starts from the pinned `V_init` and
    its greedy policy, from one Bellman sweep that node_updates counts.
    Evaluations are warm-started from the previous value iterate.  A
    fixed-point evaluation whose first sweep, the Bellman sweep that chose
    its policy, already meets the test returns that sweep, counted as one,
    without building its rows.  The evaluated value sequence is nodewise
    nonincreasing up to the evaluation tolerance.  sub_iteration_history
    records the evaluation effort per outer step (sweeps, or linear-solver
    iterations for the direct backend), each at most config.inner_cap():
    a capped fixed-point evaluation goes on from its truncated field, the
    report counts it in capped_evaluations, and only the outer test sets
    `converged`.
    `on_iterate`, when given, receives every evaluated value field.  The
    reported wall time includes the operator build.
    """
    t0 = time.perf_counter()
    with _Sweeper(spec, grid, controls, config, store_separable=V_init is None) as sweeper:
        updates = 0
        # the last Bellman sweep T v, of the v that `policy` is greedy for
        Tv = None
        if V_init is None:
            V = sweeper.pinned_copy(_start_field(spec, grid))
            policy = PolicyField.constant(grid, 0)
            policy.indices[sweeper.pinned] = UNSET_POLICY
        else:
            V = sweeper.pinned_copy(V_init)
            Tv, pol, updates = sweeper.bellman_sweep(V.values)
            policy = PolicyField(grid, pol)

        subs = []
        changes = []
        capped = 0
        residual = None

        def step(v):
            """Evaluate the policy from v, then improve it."""
            nonlocal policy, residual, Tv, capped
            v_new, inner, met = sweeper.evaluate(policy, v, config, config.eval_backend,
                                                 first=Tv)
            subs.append(inner)
            capped += not met
            if on_iterate is not None:
                on_iterate(ValueField(grid, v_new, copy=False))
            Tv, pol, _ = sweeper.bellman_sweep(v_new)
            residual = _sup_distance(Tv, v_new)
            # Pinned nodes hold UNSET_POLICY in both, so only active nodes count.
            changes.append(int(np.count_nonzero(pol != policy.indices)))
            policy = PolicyField(grid, pol)
            return v_new

        v, history, converged = _iterate(step, V.values, config.epsilon(grid),
                                         config.max_iterations)
    updates += (sum(subs) + len(subs) * len(controls)) * sweeper.active_count
    report = _make_report("pi", sweeper, config, t0, updates, converged, history,
                          residual, subs, changes, capped or None)
    return ValueField(grid, v, copy=False), policy, report


def api_solve(spec, coarse_grid, fine_grid, controls, coarse_config, fine_config):
    """Accelerated policy iteration: value iteration on the coarse grid, then
    policy iteration on the fine grid from the multilinear prolongation of
    the coarse field (and so from that field's greedy policy).

    The grids must be nested by midpoint refinement.  The report separates
    the coarse and fine phases and aggregates totals.
    """
    if not coarse_grid.nests(fine_grid):
        raise SolverError(
            "accelerated solve needs fine = midpoint refinement of coarse"
        )
    t0 = time.perf_counter()
    Vc, _, coarse_report = value_iteration(spec, coarse_grid, controls, coarse_config)
    coarse_report.algorithm = "api.coarse_vi"
    Vf, policy, fine_report = policy_iteration(spec, fine_grid, controls, fine_config,
                                               prolongate(Vc, fine_grid))
    fine_report.algorithm = "api.fine_pi"
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
        capped_evaluations=fine_report.capped_evaluations,
        phases={"coarse": coarse_report, "fine": fine_report},
    )
    return Vf, policy, report
