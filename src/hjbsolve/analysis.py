"""Error norms against references, empirical convergence rates, Kruzkhov
transforms, and feedback-trajectory synthesis."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .grid import l1_diff, sup_diff, ValueField
from .problems import point_target_distances
from .solvers import SolverError, _arrival, _state, greedy_control_index

REACHED_TARGET = "reached_target"
HORIZON_EXCEEDED = "horizon_exceeded"
LEFT_DOMAIN = "left_domain"

_INFINITY_CUTOFF = 1.0 - 1e-14


@dataclass
class ErrorRecord:
    dx: float
    l1_error: float
    sup_error: float

    def __post_init__(self):
        if not (self.l1_error >= 0 and self.sup_error >= 0):  # NaN fails too
            raise ValueError("errors must be nonnegative")


@dataclass
class Trajectory:
    """A closed-loop run: (time, state, control index) samples plus outcome."""

    samples: list
    status: str
    final_time: float
    final_state: np.ndarray


def kruzkhov_to_time(v):
    """Invert the bounded transform: T = -log(1 - v), with v >= 1 mapping to
    infinity.  Accepts scalars or arrays; values must lie in [0, 1 + 1e-12]."""
    arr = np.asarray(v, dtype=float)
    if not np.all((arr >= 0) & (arr <= 1.0 + 1e-12)):  # NaN fails too
        raise ValueError("transformed values must lie in [0, 1]")
    flat = np.atleast_1d(arr).astype(float).copy()
    finite = flat < _INFINITY_CUTOFF
    out = np.full(flat.shape, np.inf)
    out[finite] = -np.log1p(-flat[finite])
    if np.isscalar(v) or np.ndim(v) == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def time_to_kruzkhov(T):
    """The bounded transform 1 - exp(-T) of a nonnegative (possibly infinite)
    time.  Accepts scalars or arrays."""
    arr = np.asarray(T, dtype=float)
    if not np.all(arr >= 0):  # NaN fails too
        raise ValueError("times must be nonnegative")
    out = np.where(np.isinf(arr), 1.0, -np.expm1(-np.where(np.isinf(arr), 0.0, arr)))
    if np.isscalar(T) or np.ndim(T) == 0:
        return float(out)
    return out


def error_vs_reference(V, reference):
    """Nodewise errors of a field against a reference map state -> value."""
    grid = V.grid
    ref = np.asarray(reference(grid.nodes()), dtype=float).reshape(-1)
    ref_field = ValueField(grid, ref, copy=False)
    return ErrorRecord(
        dx=min(grid.spacing),
        l1_error=l1_diff(V, ref_field),
        sup_error=sup_diff(V, ref_field),
    )


def minimum_time_reference(entry):
    """Reference value map for an eikonal-style catalog entry: the Kruzkhov
    transform of the exact distance-to-target time."""
    if entry.reference_time is None:
        raise ValueError(f"no reference solution for {entry.name}")

    def ref(points):
        return time_to_kruzkhov(entry.reference_time(points))

    return ref


def convergence_rates(records):
    """log2 error ratios across successively halved resolutions.

    Records must be sorted by decreasing dx with exact halving between
    successive entries; returns one (l1_rate, sup_rate) pair per step, +inf
    to a zero error and -inf from a zero error to a nonzero one.  A ratio
    that leaves the normal float range is taken as a difference of logs.
    """
    records = list(records)
    if len(records) < 2:
        raise ValueError("need at least two error records")
    rates = []
    for a, b in zip(records, records[1:]):
        if not a.dx > b.dx:
            raise ValueError("records must be sorted by decreasing dx")
        ratio = a.dx / b.dx
        if abs(ratio - 2.0) > 1e-9:
            raise ValueError(f"resolutions must halve exactly, got ratio {ratio}")
        rates.append(tuple(_rate(coarse, fine) for coarse, fine in (
            (a.l1_error, b.l1_error), (a.sup_error, b.sup_error))))
    return rates


def _rate(coarse, fine):
    """log2(coarse / fine) for two nonnegative errors."""
    if fine == 0:
        return math.inf
    if coarse == 0:
        return -math.inf
    ratio = coarse / fine
    if sys.float_info.min <= ratio < math.inf:
        return math.log2(ratio)
    return math.log2(coarse) - math.log2(fine)


def _reached(spec, grid, x):
    kind = spec.kind
    if bool(np.asarray(kind.target(x[None, :]))[0]):
        return True
    return kind.point is not None and bool(point_target_distances(kind, grid, x[None, :])[1][0])


def synthesize_trajectory(spec, V, controls, x0, dt, max_time):
    """Greedy closed-loop rollout under a computed value field.

    Repeats greedy control selection and the sweeps' Euler step (_arrival)
    until the target is hit (minimum time), the state leaves the domain, or
    max_time elapses; a `dt` that is not positive raises (_arrival) at the
    first move, and an `x0` of another dimension (_state) or a `max_time`
    that is not finite at once: `t >= max_time` would never stop a NaN one,
    nor +inf while the state stays in the domain.
    """
    x = _state(spec, x0)
    if not math.isfinite(max_time):
        raise SolverError(f"max_time must be finite, got {max_time}")
    grid = V.grid
    samples = []
    t = 0.0
    status = HORIZON_EXCEEDED
    while True:
        if spec.minimum_time and _reached(spec, grid, x):
            status = REACHED_TARGET
            break
        if not spec.contains(x):
            status = LEFT_DOMAIN
            break
        if t >= max_time:
            status = HORIZON_EXCEEDED
            break
        j = greedy_control_index(spec, V, controls, x, dt)
        samples.append((t, x.copy(), j))
        x = _arrival(spec, x, controls.vectors[j], dt, j)
        t += dt
    return Trajectory(samples=samples, status=status, final_time=t, final_state=x)
