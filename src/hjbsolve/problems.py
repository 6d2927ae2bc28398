"""Problem definitions: dynamics, running costs, control sets, targets, and the
benchmark catalog used by the solvers and the bench harness.

Dynamics and running costs are vectorized: they accept a batch of states with
shape (..., state_dim) together with a single control vector, and every
catalog entry is written with plain elementwise numpy operations so that
results do not depend on how the solver batches the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import RegularGrid


class ProblemError(ValueError):
    """Invalid problem definition or an unsatisfiable target/grid pairing."""


class ControlSet:
    """Finite ordered list of admissible control vectors.

    The construction order is fixed and meaningful: argmin ties downstream
    break toward the lowest index.
    """

    def __init__(self, vectors):
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        if vectors.size == 0:
            raise ProblemError("control set must be non-empty")
        if np.unique(vectors, axis=0).shape[0] != vectors.shape[0]:
            raise ProblemError("control set contains duplicate vectors")
        self.vectors = vectors
        self.vectors.setflags(write=False)

    def __len__(self):
        return self.vectors.shape[0]

    def __getitem__(self, i):
        return self.vectors[i]

    @property
    def control_dim(self):
        return self.vectors.shape[1]


@dataclass(frozen=True)
class InfiniteHorizon:
    """Discounted infinite-horizon cost with positive discount rate."""

    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ProblemError(f"discount rate must be positive, got {self.lam}")


@dataclass(frozen=True)
class MinimumTime:
    """Reach a target set, measured through the Kruzkhov-transformed time.

    `target` is a vectorized membership predicate on states.  For point
    targets, `point` carries the target location so that grids can realize it
    as the nearest node plus its half-cell neighborhood.
    """

    target: Callable[[np.ndarray], np.ndarray]
    point: Optional[np.ndarray] = None


@dataclass
class ProblemSpec:
    """A fully specified control problem on a box domain."""

    state_dim: int
    dynamics: Callable
    running_cost: Optional[Callable]
    kind: object
    lower: tuple
    upper: tuple
    exterior_value: float
    boundary_value: Optional[float] = None

    def __post_init__(self):
        self.lower = tuple(float(v) for v in np.atleast_1d(self.lower))
        self.upper = tuple(float(v) for v in np.atleast_1d(self.upper))
        if len(self.lower) != self.state_dim or len(self.upper) != self.state_dim:
            raise ProblemError("domain bounds do not match state_dim")
        if isinstance(self.kind, InfiniteHorizon) and self.running_cost is None:
            raise ProblemError("infinite-horizon problems need a running cost")
        for name in ("exterior_value", "boundary_value"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ProblemError(f"{name} must be finite, got {value}")

    @property
    def minimum_time(self):
        return isinstance(self.kind, MinimumTime)

    def contains(self, x):
        """Closed-box domain membership for a single state."""
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def domain_grid(self, nodes_per_axis):
        """A regular grid spanning the problem domain."""
        n = np.atleast_1d(nodes_per_axis)
        if n.size == 1:
            n = np.full(self.state_dim, int(n[0]))
        return RegularGrid(self.lower, self.upper, n)


@dataclass
class TargetMask:
    """Per-node target membership; flagged nodes are pinned to value 0."""

    grid: RegularGrid
    flags: np.ndarray

    @property
    def count(self):
        return int(np.count_nonzero(self.flags))


def euler_arrival(spec, x, a, dt):
    """One explicit Euler step along the dynamics: x + dt * f(x, a).

    Accepts a single state (d,) or a batch (..., d).  No domain clipping is
    applied; interpolation handles exterior arrival points.
    """
    if not dt > 0:
        raise ProblemError(f"time step must be positive, got {dt}")
    x = np.asarray(x, dtype=float)
    out = x + dt * np.asarray(spec.dynamics(x, np.asarray(a, dtype=float)))
    if not np.isfinite(out).all():
        raise ProblemError(f"dynamics produced a non-finite arrival from state {x!r}")
    return out


def discretize_control_box(bounds, counts):
    """Tensor-product discretization of a box of controls.

    Each axis gets `count` equidistant samples including both endpoints
    (a count of 1 yields the interval midpoint).  Rows are ordered row-major
    over the axes, first axis slowest.
    """
    bounds = list(bounds)
    counts = [int(c) for c in np.atleast_1d(counts)]
    if not bounds:
        raise ProblemError("control box needs at least one interval")
    if len(bounds) != len(counts):
        raise ProblemError("bounds and counts must have equal length")
    axes = []
    for (lo, hi), c in zip(bounds, counts):
        if c < 1:
            raise ProblemError("need at least one sample per control axis")
        if c == 1:
            axes.append(np.array([(float(lo) + float(hi)) / 2.0]))
        else:
            axes.append(np.linspace(float(lo), float(hi), c))
    mesh = np.meshgrid(*axes, indexing="ij")
    return ControlSet(np.stack([m.reshape(-1) for m in mesh], axis=1))


def discretize_circle(count):
    """`count` equidistant heading angles covering the circle once.

    Samples -pi + k * 2*pi/count for k = 0..count-1; including both +pi and
    -pi would duplicate the same physical direction and break the dihedral
    symmetry of the sampled direction set.
    """
    count = int(count)
    if count < 1:
        raise ProblemError("need at least one angle")
    k = np.arange(count, dtype=float)
    return ControlSet((-math.pi + k * (2.0 * math.pi / count))[:, None])


def target_mask(spec, grid):
    """Flag the grid nodes belonging to the target set.

    Infinite-horizon problems yield an all-false mask.  Point targets are
    realized as the node nearest to the point plus every node within half a
    cell diagonal, so the discrete target is never empty on its own account.
    An empty mask for a minimum-time problem is an error: the mesh cannot
    represent the target and must be refined.  So is a node distance to a
    point target that overflows.
    """
    if not spec.minimum_time:
        return TargetMask(grid, np.zeros(grid.num_nodes, dtype=bool))
    kind = spec.kind
    nodes = grid.nodes()
    flags = np.asarray(kind.target(nodes), dtype=bool).reshape(-1)
    if flags.size != grid.num_nodes:
        raise ProblemError("target predicate returned a wrong-size mask")
    if kind.point is not None:
        point = np.asarray(kind.point, dtype=float)
        with np.errstate(over="ignore"):
            dist = np.sqrt(np.sum((nodes - point) ** 2, axis=1))
        if not np.isfinite(dist).all():
            raise ProblemError(
                "node distances to the target point overflow on this grid; "
                "shrink the domain"
            )
        half_diag = 0.5 * math.sqrt(sum(h * h for h in grid.spacing))
        flags = flags | (dist <= half_diag)
        flags[int(np.argmin(dist))] = True
    if not flags.any():
        raise ProblemError(
            "target mask is empty on this grid; refine the mesh until it "
            "resolves the target"
        )
    return TargetMask(grid, flags)


@dataclass
class CatalogEntry:
    """A catalog problem: spec, default control set, and default dt rule.

    `dt_ratio` scales the grid spacing: dt = dt_ratio * dx.  When available,
    `reference_time` maps states to the exact minimum time (eikonal problems)
    and `exact_value` maps states to the exact value function.
    """

    name: str
    spec: ProblemSpec
    controls: ControlSet
    dt_ratio: float
    reference_time: Optional[Callable] = None
    exact_value: Optional[Callable] = None

    def dt_for(self, grid):
        return self.dt_ratio * min(grid.spacing)


def _reject_unknown(name, overrides, allowed):
    unknown = set(overrides) - set(allowed)
    if unknown:
        raise ProblemError(
            f"unknown override(s) {sorted(unknown)} for {name}; "
            f"allowed: {sorted(allowed)}"
        )


def _domain(overrides, default_lo, default_hi, dim):
    dom = overrides.get("domain")
    if dom is None:
        return (default_lo,) * dim, (default_hi,) * dim
    lo, hi = dom
    return (float(lo),) * dim, (float(hi),) * dim


# Dynamics: controlled drift toward the cheap region, cost vanishing at the
# domain ends; value function has a kink at the origin.
def _test1(**ov):
    _reject_unknown("test1_1d", ov, {"control_count", "dt_ratio", "domain",
                                     "exterior_value", "boundary_value", "lam"})
    lower, upper = _domain(ov, -1.0, 1.0, 1)

    def dyn(x, a):
        return a[0] * (1.0 - np.abs(x))

    def cost(x, a):
        return 3.0 * (1.0 - np.abs(x[..., 0]))

    spec = ProblemSpec(
        state_dim=1,
        dynamics=dyn,
        running_cost=cost,
        kind=InfiniteHorizon(float(ov.get("lam", 1.0))),
        lower=lower,
        upper=upper,
        exterior_value=float(ov.get("exterior_value", 0.0)),
        boundary_value=float(ov.get("boundary_value", 0.0)),
    )
    controls = discretize_control_box([(-1.0, 1.0)], [int(ov.get("control_count", 20))])

    def exact(x):
        return 1.5 * (1.0 - np.abs(np.asarray(x)[..., 0]))

    return CatalogEntry("test1_1d", spec, controls, float(ov.get("dt_ratio", 0.5)),
                        exact_value=exact)


def _test2(**ov):
    _reject_unknown("test2_vdp", ov, {"control_count", "dt_ratio", "domain",
                                      "exterior_value", "boundary_value", "lam"})
    lower, upper = _domain(ov, -2.0, 2.0, 2)

    def dyn(p, a):
        x = p[..., 0]
        y = p[..., 1]
        return np.stack([y, (1.0 - x * x) * y - x + a[0]], axis=-1)

    def cost(p, a):
        return p[..., 0] ** 2 + p[..., 1] ** 2

    bv = float(ov.get("boundary_value", 3.5))
    spec = ProblemSpec(
        state_dim=2,
        dynamics=dyn,
        running_cost=cost,
        kind=InfiniteHorizon(float(ov.get("lam", 1.0))),
        lower=lower,
        upper=upper,
        exterior_value=float(ov.get("exterior_value", 3.5)),
        boundary_value=bv,
    )
    controls = discretize_control_box([(-1.0, 1.0)], [int(ov.get("control_count", 32))])
    return CatalogEntry("test2_vdp", spec, controls, float(ov.get("dt_ratio", 0.3)))


def _test3(**ov):
    _reject_unknown("test3_dubins", ov, {"control_count", "dt_ratio", "domain",
                                         "exterior_value", "boundary_value", "lam"})
    lower, upper = _domain(ov, -2.0, 2.0, 3)

    def dyn(p, a):
        z = p[..., 2]
        turn = np.broadcast_to(a[0], z.shape)
        return np.stack([np.cos(z), np.sin(z), turn], axis=-1)

    def cost(p, a):
        return p[..., 0] ** 2 + p[..., 1] ** 2

    spec = ProblemSpec(
        state_dim=3,
        dynamics=dyn,
        running_cost=cost,
        kind=InfiniteHorizon(float(ov.get("lam", 1.0))),
        lower=lower,
        upper=upper,
        exterior_value=float(ov.get("exterior_value", 3.0)),
        boundary_value=float(ov.get("boundary_value", 3.0)),
    )
    controls = discretize_control_box([(-1.0, 1.0)], [int(ov.get("control_count", 11))])
    return CatalogEntry("test3_dubins", spec, controls, float(ov.get("dt_ratio", 0.2)))


def _heading_dynamics(p, a):
    out = np.empty_like(p)
    out[..., 0] = math.cos(a[0])
    out[..., 1] = math.sin(a[0])
    return out


def _point_target(point):
    point = np.asarray(point, dtype=float)

    def predicate(p):
        return np.all(np.asarray(p) == point, axis=-1)

    return predicate


def _test4(**ov):
    _reject_unknown("test4_eik2d", ov, {"control_count", "dt_ratio", "domain",
                                        "exterior_value"})
    lower, upper = _domain(ov, -1.0, 1.0, 2)
    point = np.zeros(2)
    spec = ProblemSpec(
        state_dim=2,
        dynamics=_heading_dynamics,
        running_cost=None,
        kind=MinimumTime(_point_target(point), point=point),
        lower=lower,
        upper=upper,
        exterior_value=float(ov.get("exterior_value", 1.0)),
    )
    controls = discretize_circle(int(ov.get("control_count", 64)))

    def ref(p):
        return np.sqrt(np.sum(np.asarray(p) ** 2, axis=-1))

    return CatalogEntry("test4_eik2d", spec, controls, float(ov.get("dt_ratio", 0.8)),
                        reference_time=ref)


def _test5(**ov):
    _reject_unknown("test5_eik2d_disk", ov, {"control_count", "dt_ratio", "domain",
                                             "exterior_value"})
    lower, upper = _domain(ov, -2.0, 2.0, 2)

    def inside_disk(p):
        return np.sum(np.asarray(p) ** 2, axis=-1) <= 1.0

    spec = ProblemSpec(
        state_dim=2,
        dynamics=_heading_dynamics,
        running_cost=None,
        kind=MinimumTime(inside_disk),
        lower=lower,
        upper=upper,
        exterior_value=float(ov.get("exterior_value", 1.0)),
    )
    controls = discretize_circle(int(ov.get("control_count", 72)))

    def ref(p):
        return np.maximum(np.sqrt(np.sum(np.asarray(p) ** 2, axis=-1)) - 1.0, 0.0)

    return CatalogEntry("test5_eik2d_disk", spec, controls, float(ov.get("dt_ratio", 0.8)),
                        reference_time=ref)


def _sphere_dynamics(p, a):
    out = np.empty_like(p)
    s1 = math.sin(a[0])
    out[..., 0] = s1 * math.cos(a[1])
    out[..., 1] = s1 * math.sin(a[1])
    out[..., 2] = math.cos(a[0])
    return out


def _test6(**ov):
    _reject_unknown("test6_eik3d", ov, {"control_counts", "dt_ratio", "domain",
                                        "exterior_value"})
    lower, upper = _domain(ov, -1.0, 1.0, 3)
    point = np.zeros(3)
    spec = ProblemSpec(
        state_dim=3,
        dynamics=_sphere_dynamics,
        running_cost=None,
        kind=MinimumTime(_point_target(point), point=point),
        lower=lower,
        upper=upper,
        exterior_value=float(ov.get("exterior_value", 1.0)),
    )
    counts = ov.get("control_counts", (16, 8))
    controls = discretize_control_box([(-math.pi, math.pi), (0.0, math.pi)], counts)

    def ref(p):
        return np.sqrt(np.sum(np.asarray(p) ** 2, axis=-1))

    return CatalogEntry("test6_eik3d", spec, controls, float(ov.get("dt_ratio", 0.8)),
                        reference_time=ref)


_TEST7_CENTERS = (np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def _test7(**ov):
    _reject_unknown("test7_eik3d_spheres", ov, {"control_counts", "dt_ratio", "domain",
                                                "exterior_value"})
    lower, upper = _domain(ov, -6.0, 6.0, 3)

    def in_spheres(p):
        p = np.asarray(p)
        hit = np.zeros(p.shape[:-1], dtype=bool)
        for c in _TEST7_CENTERS:
            hit |= np.sum((p - c) ** 2, axis=-1) <= 1.0
        return hit

    spec = ProblemSpec(
        state_dim=3,
        dynamics=_sphere_dynamics,
        running_cost=None,
        kind=MinimumTime(in_spheres),
        lower=lower,
        upper=upper,
        exterior_value=float(ov.get("exterior_value", 1.0)),
    )
    counts = ov.get("control_counts", (16, 8))
    controls = discretize_control_box([(-math.pi, math.pi), (0.0, math.pi)], counts)

    def ref(p):
        p = np.asarray(p)
        d = np.minimum(
            np.sqrt(np.sum((p - _TEST7_CENTERS[0]) ** 2, axis=-1)),
            np.sqrt(np.sum((p - _TEST7_CENTERS[1]) ** 2, axis=-1)),
        )
        return np.maximum(d - 1.0, 0.0)

    return CatalogEntry("test7_eik3d_spheres", spec, controls,
                        float(ov.get("dt_ratio", 0.8)),
                        reference_time=ref)


def _test8(**ov):
    _reject_unknown("test8_min4d", ov, {"dt_ratio", "domain", "exterior_value"})
    lower, upper = _domain(ov, -1.0, 1.0, 4)
    hi = upper[0]

    def on_boundary(p):
        # 1e-12 slack keeps face nodes inside the target under float rounding.
        return np.max(np.abs(np.asarray(p)), axis=-1) >= hi - 1e-12

    def dyn(p, a):
        return np.broadcast_to(a, np.asarray(p).shape)

    spec = ProblemSpec(
        state_dim=4,
        dynamics=dyn,
        running_cost=None,
        kind=MinimumTime(on_boundary),
        lower=lower,
        upper=upper,
        exterior_value=float(ov.get("exterior_value", 1.0)),
    )
    dirs = []
    for axis in range(4):
        for sign in (1.0, -1.0):
            e = np.zeros(4)
            e[axis] = sign
            dirs.append(e)
    controls = ControlSet(np.array(dirs))

    def ref(p):
        p = np.asarray(p)
        return np.min(np.minimum(hi - p, p - np.asarray(lower)), axis=-1)

    return CatalogEntry("test8_min4d", spec, controls, float(ov.get("dt_ratio", 0.8)),
                        reference_time=ref)


# Reduced 3-state model of a boundary-controlled 1D diffusion: symmetric,
# negative-definite drift matrix plus a one-dimensional input channel.
HEAT3_A = (
    (-0.123, -0.008, -0.001),
    (-0.008, -1.148, -0.321),
    (-0.001, -0.321, -3.671),
)
HEAT3_B = (-5.770, -0.174, -0.022)


def _heat3(**ov):
    _reject_unknown("heat3_rom", ov, {"dt_ratio", "domain", "exterior_value",
                                      "target_radius"})
    lower, upper = _domain(ov, -1.0, 1.0, 3)
    r0 = float(ov.get("target_radius", 0.1))
    if not r0 > 0:
        raise ProblemError("target radius must be positive")

    def dyn(p, a):
        x1 = p[..., 0]
        x2 = p[..., 1]
        x3 = p[..., 2]
        u = a[0]
        # Written elementwise (not as a matmul) so results are independent of
        # the solver's node batching.
        return np.stack(
            [
                HEAT3_A[0][0] * x1 + HEAT3_A[0][1] * x2 + HEAT3_A[0][2] * x3 + HEAT3_B[0] * u,
                HEAT3_A[1][0] * x1 + HEAT3_A[1][1] * x2 + HEAT3_A[1][2] * x3 + HEAT3_B[1] * u,
                HEAT3_A[2][0] * x1 + HEAT3_A[2][1] * x2 + HEAT3_A[2][2] * x3 + HEAT3_B[2] * u,
            ],
            axis=-1,
        )

    def in_ball(p):
        return np.sum(np.asarray(p) ** 2, axis=-1) <= r0 * r0

    spec = ProblemSpec(
        state_dim=3,
        dynamics=dyn,
        running_cost=None,
        kind=MinimumTime(in_ball),
        lower=lower,
        upper=upper,
        exterior_value=float(ov.get("exterior_value", 1.0)),
    )
    controls = ControlSet(np.array([[-1.0], [0.0], [1.0]]))
    # Unlike the eikonal problems this system is not unit speed (|f| reaches
    # ~7.3 on the box), so the default ratio keeps arrival steps within one
    # cell, mirroring the 0.8*dx rule of the unit-speed tests.
    return CatalogEntry("heat3_rom", spec, controls, float(ov.get("dt_ratio", 0.1)))


_CATALOG = {
    "test1_1d": _test1,
    "test2_vdp": _test2,
    "test3_dubins": _test3,
    "test4_eik2d": _test4,
    "test5_eik2d_disk": _test5,
    "test6_eik3d": _test6,
    "test7_eik3d_spheres": _test7,
    "test8_min4d": _test8,
    "heat3_rom": _heat3,
}


def catalog_names():
    return sorted(_CATALOG)


def catalog(name, **overrides):
    """Build a catalog problem by name, applying any parameter overrides."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise ProblemError(
            f"unknown problem {name!r}; valid names: {', '.join(catalog_names())}"
        ) from None
    return builder(**overrides)
