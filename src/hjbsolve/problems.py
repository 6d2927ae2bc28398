"""Problem definitions: dynamics, running costs, control sets, targets, and the
benchmark catalog used by the solvers and the bench harness.

Dynamics and running costs are vectorized: they accept a batch of states with
shape (..., state_dim) together with a single control vector, and every
catalog entry is written with plain elementwise numpy operations so that
results do not depend on how the solver batches the nodes.  Every catalog
builder makes its spec through one box constructor, `_box_spec`: the builder's
`domain` interval on every axis, with float exterior and boundary values.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import RegularGrid, whole_counts


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


@dataclass(frozen=True)
class InfiniteHorizon:
    """Discounted infinite-horizon cost with a finite positive discount rate."""

    lam: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ProblemError(f"discount rate must be positive and finite, got {self.lam}")


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
            n = np.full(self.state_dim, n[0])
        return RegularGrid(self.lower, self.upper, n)


def discretize_control_box(bounds, counts):
    """Tensor-product discretization of a box of controls.

    Each axis gets `count` equidistant samples including both endpoints
    (a count of 1 yields the interval midpoint).  Rows are ordered row-major
    over the axes, first axis slowest.
    """
    bounds = list(bounds)
    counts = whole_counts(counts, ProblemError)
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
    (count,) = whole_counts(count, ProblemError)
    if count < 1:
        raise ProblemError("need at least one angle")
    k = np.arange(count, dtype=float)
    return ControlSet((-math.pi + k * (2.0 * math.pi / count))[:, None])


def point_target_distances(kind, grid, points):
    """(distances, near) of the (n, d) `points` from kind.point: their
    Euclidean distances, and whether each is within half a cell diagonal of
    `grid`, the point-target rule of target_mask and of rollouts.  "Within"
    allows a relative 1e-12, since the 2^d nodes of the cell centred on the
    point lie half a diagonal away only up to rounding (8.3e-17 beyond it on
    the 10^2 grid of [-1, 1]^2)."""
    dist = np.sqrt(np.sum((points - np.asarray(kind.point, dtype=float)) ** 2, axis=1))
    return dist, dist <= 0.5 * (1.0 + 1e-12) * math.sqrt(sum(h * h for h in grid.spacing))


def target_mask(spec, grid):
    """Flag the grid nodes belonging to the target set: an (N,) bool array,
    True on the nodes that sweeps pin to value 0.

    Infinite-horizon problems yield an all-false mask.  Point targets are
    realized as the node nearest to the point plus every node within half a
    cell diagonal, so the discrete target is never empty on its own account.
    An empty mask for a minimum-time problem is an error: the mesh cannot
    represent the target and must be refined.  So is a target predicate or a
    node distance to a point target that overflows on the grid's nodes,
    each named by the grid's node counts.
    """
    if not spec.minimum_time:
        return np.zeros(grid.num_nodes, dtype=bool)
    kind = spec.kind
    name = "x".join(map(str, grid.nodes_per_axis))
    nodes = grid.nodes()
    try:
        with np.errstate(over="raise"):
            flags = np.asarray(kind.target(nodes), dtype=bool).reshape(-1)
            if kind.point is not None:
                dist, near = point_target_distances(kind, grid, nodes)
    except FloatingPointError:
        raise ProblemError(
            f"the target set overflows on the {name} grid's nodes; shrink the domain"
        ) from None
    if flags.size != grid.num_nodes:
        raise ProblemError("target predicate returned a wrong-size mask")
    if kind.point is not None:
        flags = flags | near
        flags[int(np.argmin(dist))] = True
    if not flags.any():
        raise ProblemError(
            f"target mask is empty on the {name} grid; refine the mesh until it "
            "resolves the target"
        )
    return flags


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


def _box_spec(dim, domain, dynamics, kind, exterior_value, running_cost=None,
              boundary_value=None):
    """The ProblemSpec on the box [domain[0], domain[1]]^dim, with float
    exterior and boundary values."""
    return ProblemSpec(
        state_dim=dim,
        dynamics=dynamics,
        running_cost=running_cost,
        kind=kind,
        lower=(domain[0],) * dim,
        upper=(domain[1],) * dim,
        exterior_value=float(exterior_value),
        boundary_value=None if boundary_value is None else float(boundary_value),
    )


# Each builder's keyword parameters, with their defaults, are the overrides
# its problem accepts; it returns the CatalogEntry fields other than the name.

# Dynamics: controlled drift toward the cheap region, cost vanishing at the
# domain ends; value function has a kink at the origin.
def _test1(control_count=20, dt_ratio=0.5, domain=(-1.0, 1.0), exterior_value=0.0,
           boundary_value=0.0, lam=1.0):
    def dyn(x, a):
        return a[0] * (1.0 - np.abs(x))

    def cost(x, a):
        return 3.0 * (1.0 - np.abs(x[..., 0]))

    spec = _box_spec(1, domain, dyn, InfiniteHorizon(float(lam)), exterior_value,
                     cost, boundary_value)
    controls = discretize_control_box([(-1.0, 1.0)], [control_count])

    def exact(x):
        return 1.5 * (1.0 - np.abs(np.asarray(x)[..., 0]))

    return dict(spec=spec, controls=controls, dt_ratio=float(dt_ratio), exact_value=exact)


def _planar_cost(p, a):
    return p[..., 0] ** 2 + p[..., 1] ** 2


def _test2(control_count=32, dt_ratio=0.3, domain=(-2.0, 2.0), exterior_value=3.5,
           boundary_value=3.5, lam=1.0):
    def dyn(p, a):
        x = p[..., 0]
        y = p[..., 1]
        return np.stack([y, (1.0 - x * x) * y - x + a[0]], axis=-1)

    spec = _box_spec(2, domain, dyn, InfiniteHorizon(float(lam)), exterior_value,
                     _planar_cost, boundary_value)
    controls = discretize_control_box([(-1.0, 1.0)], [control_count])
    return dict(spec=spec, controls=controls, dt_ratio=float(dt_ratio))


def _test3(control_count=11, dt_ratio=0.2, domain=(-2.0, 2.0), exterior_value=3.0,
           boundary_value=3.0, lam=1.0):
    def dyn(p, a):
        z = p[..., 2]
        turn = np.broadcast_to(a[0], z.shape)
        return np.stack([np.cos(z), np.sin(z), turn], axis=-1)

    spec = _box_spec(3, domain, dyn, InfiniteHorizon(float(lam)), exterior_value,
                     _planar_cost, boundary_value)
    controls = discretize_control_box([(-1.0, 1.0)], [control_count])
    return dict(spec=spec, controls=controls, dt_ratio=float(dt_ratio))


def _heading_dynamics(p, a):
    out = np.empty_like(p)
    out[..., 0] = math.cos(a[0])
    out[..., 1] = math.sin(a[0])
    return out


def _sphere_dynamics(p, a):
    out = np.empty_like(p)
    s1 = math.sin(a[0])
    out[..., 0] = s1 * math.cos(a[1])
    out[..., 1] = s1 * math.sin(a[1])
    out[..., 2] = math.cos(a[0])
    return out


def _origin_target(dim):
    """Minimum time to the origin of the dim-dimensional box, a point target."""
    point = np.zeros(dim)

    def at_point(p):
        return np.all(np.asarray(p) == point, axis=-1)

    return MinimumTime(at_point, point=point)


def _distance(p):
    """Euclidean distance of the states `p` from the origin."""
    return np.sqrt(np.sum(np.asarray(p) ** 2, axis=-1))


def _test4(control_count=64, dt_ratio=0.8, domain=(-1.0, 1.0), exterior_value=1.0):
    spec = _box_spec(2, domain, _heading_dynamics, _origin_target(2), exterior_value)
    controls = discretize_circle(control_count)
    return dict(spec=spec, controls=controls, dt_ratio=float(dt_ratio), reference_time=_distance)


def _test5(control_count=72, dt_ratio=0.8, domain=(-2.0, 2.0), exterior_value=1.0):
    def inside_disk(p):
        return np.sum(np.asarray(p) ** 2, axis=-1) <= 1.0

    spec = _box_spec(2, domain, _heading_dynamics, MinimumTime(inside_disk), exterior_value)
    controls = discretize_circle(control_count)

    def ref(p):
        return np.maximum(_distance(p) - 1.0, 0.0)

    return dict(spec=spec, controls=controls, dt_ratio=float(dt_ratio), reference_time=ref)


def _test6(control_counts=(16, 8), dt_ratio=0.8, domain=(-1.0, 1.0), exterior_value=1.0):
    spec = _box_spec(3, domain, _sphere_dynamics, _origin_target(3), exterior_value)
    controls = discretize_control_box([(-math.pi, math.pi), (0.0, math.pi)], control_counts)
    return dict(spec=spec, controls=controls, dt_ratio=float(dt_ratio), reference_time=_distance)


_TEST7_CENTERS = (np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def _test7(control_counts=(16, 8), dt_ratio=0.8, domain=(-6.0, 6.0), exterior_value=1.0):
    def in_spheres(p):
        p = np.asarray(p)
        hit = np.zeros(p.shape[:-1], dtype=bool)
        for c in _TEST7_CENTERS:
            hit |= np.sum((p - c) ** 2, axis=-1) <= 1.0
        return hit

    spec = _box_spec(3, domain, _sphere_dynamics, MinimumTime(in_spheres), exterior_value)
    controls = discretize_control_box([(-math.pi, math.pi), (0.0, math.pi)], control_counts)

    def ref(p):
        p = np.asarray(p)
        d = np.minimum(_distance(p - _TEST7_CENTERS[0]), _distance(p - _TEST7_CENTERS[1]))
        return np.maximum(d - 1.0, 0.0)

    return dict(spec=spec, controls=controls, dt_ratio=float(dt_ratio), reference_time=ref)


def _test8(dt_ratio=0.8, domain=(-1.0, 1.0), exterior_value=1.0):
    lo, hi = float(domain[0]), float(domain[1])

    def on_boundary(p):
        # 1e-12 slack keeps face nodes inside the target under float rounding.
        return np.max(np.abs(np.asarray(p)), axis=-1) >= hi - 1e-12

    def dyn(p, a):
        return np.broadcast_to(a, np.asarray(p).shape)

    spec = _box_spec(4, (lo, hi), dyn, MinimumTime(on_boundary), exterior_value)
    dirs = []
    for axis in range(4):
        for sign in (1.0, -1.0):
            e = np.zeros(4)
            e[axis] = sign
            dirs.append(e)
    controls = ControlSet(np.array(dirs))

    def ref(p):
        p = np.asarray(p)
        return np.min(np.minimum(hi - p, p - lo), axis=-1)

    return dict(spec=spec, controls=controls, dt_ratio=float(dt_ratio), reference_time=ref)


# Reduced 3-state model of a boundary-controlled 1D diffusion: symmetric,
# negative-definite drift matrix plus a one-dimensional input channel.
HEAT3_A = (
    (-0.123, -0.008, -0.001),
    (-0.008, -1.148, -0.321),
    (-0.001, -0.321, -3.671),
)
HEAT3_B = (-5.770, -0.174, -0.022)


def _heat3(dt_ratio=0.1, domain=(-1.0, 1.0), exterior_value=1.0, target_radius=0.1):
    r0 = float(target_radius)
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

    spec = _box_spec(3, domain, dyn, MinimumTime(in_ball), exterior_value)
    controls = ControlSet(np.array([[-1.0], [0.0], [1.0]]))
    # Unlike the eikonal problems this system is not unit speed (|f| reaches
    # ~7.3 on the box), so the default ratio keeps arrival steps within one
    # cell, mirroring the 0.8*dx rule of the unit-speed tests.
    return dict(spec=spec, controls=controls, dt_ratio=float(dt_ratio))


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


def catalog_defaults(name):
    """The overrides problem `name` accepts, its builder's keyword
    parameters, mapped to their defaults."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise ProblemError(
            f"unknown problem {name!r}; valid names: {', '.join(catalog_names())}"
        ) from None
    return {key: param.default for key, param in inspect.signature(builder).parameters.items()}


def catalog(name, **overrides):
    """Build a catalog problem by name, applying any parameter overrides; the
    overrides a problem accepts are its builder's keyword parameters."""
    allowed = catalog_defaults(name)
    unknown = set(overrides) - set(allowed)
    if unknown:
        raise ProblemError(
            f"unknown override(s) {sorted(unknown)} for {name}; allowed: {sorted(allowed)}"
        )
    return CatalogEntry(name=name, **_CATALOG[name](**overrides))
