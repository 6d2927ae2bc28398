"""Regular grids, nodal fields, multilinear interpolation, and nested refinement.

Grids are axis-aligned, equidistant node lattices over a box in R^d with
d = 1..4.  Fields store one value per node in row-major (C) order, last axis
fastest, so flat indices match ``numpy.ravel_multi_index`` on the grid shape.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

# Every grid, a refined one too, has at most this many nodes, so that one
# control's operator rows, at most 2^4 entries per node, take int32 pointers.
DEFAULT_NODE_CAP = 20_000_000

FIELD_FLOAT_FORMAT = "%.17g"


class GridError(ValueError):
    """Invalid grid construction or an operation across mismatched grids."""


def whole_counts(counts, error):
    """`counts`, a number or a sequence, as a tuple of ints; raises `error`
    for one that is not a whole number (numpy integers and integral floats are)."""
    counts = np.atleast_1d(counts)
    if not all(float(c).is_integer() for c in counts):
        raise error(f"counts must be whole numbers, got {counts.tolist()}")
    return tuple(int(c) for c in counts)


class RegularGrid:
    """Equidistant node lattice on a box.

    Node k on axis i sits exactly at ``lower[i] + k * spacing[i]`` with
    ``spacing[i] = (upper[i] - lower[i]) / (nodes_per_axis[i] - 1)``.
    """

    def __init__(self, lower, upper, nodes_per_axis):
        lower = tuple(float(v) for v in np.atleast_1d(lower))
        upper = tuple(float(v) for v in np.atleast_1d(upper))
        nodes = whole_counts(nodes_per_axis, GridError)
        if not (len(lower) == len(upper) == len(nodes)):
            raise GridError("lower, upper and nodes_per_axis must have equal length")
        if not 1 <= len(lower) <= 4:
            raise GridError(f"dimension must be 1..4, got {len(lower)}")
        for lo, hi in zip(lower, upper):
            if not lo < hi:
                raise GridError(f"need lower < upper on every axis, got [{lo}, {hi}]")
        for n in nodes:
            if n < 2:
                raise GridError("need at least 2 nodes per axis")
        total = 1
        for n in nodes:
            total *= n
        if total > DEFAULT_NODE_CAP:
            raise GridError(f"grid with {total} nodes exceeds the cap of {DEFAULT_NODE_CAP}")

        self.dim = len(lower)
        self.lower = lower
        self.upper = upper
        self.nodes_per_axis = nodes
        self.spacing = tuple(
            (hi - lo) / (n - 1) for lo, hi, n in zip(lower, upper, nodes)
        )
        for lo, hi, h in zip(lower, upper, self.spacing):
            if not 0 < h < np.inf:
                raise GridError(f"need finite bounds and a positive finite spacing on every "
                                f"axis, got spacing {h} on [{lo}, {hi}]")
        self.shape = nodes
        self.num_nodes = total
        # Flat strides for row-major node numbering, last axis fastest.
        strides = [1] * self.dim
        for i in range(self.dim - 2, -1, -1):
            strides[i] = strides[i + 1] * nodes[i + 1]
        self.strides = tuple(strides)
        # Coordinate of the last node per axis; this is the effective closed-box
        # face used by cell location (it can differ from `upper` by one ulp).
        self.upper_node = tuple(
            lo + (n - 1) * h for lo, h, n in zip(lower, self.spacing, nodes)
        )
        self._nodes = None
        self._boundary = None

    def axis_coords(self, axis):
        """Node coordinates along one axis, exactly lower + k * spacing."""
        lo = self.lower[axis]
        h = self.spacing[axis]
        return lo + h * np.arange(self.nodes_per_axis[axis], dtype=float)

    def nodes(self):
        """All node coordinates as an (num_nodes, dim) array in flat order."""
        if self._nodes is None:
            axes = [self.axis_coords(i) for i in range(self.dim)]
            mesh = np.meshgrid(*axes, indexing="ij")
            self._nodes = np.stack([m.reshape(-1) for m in mesh], axis=1)
        return self._nodes

    def boundary_mask(self):
        """Boolean flat mask of nodes lying on the domain boundary."""
        if self._boundary is None:
            mask = np.zeros(self.shape, dtype=bool)
            for axis in range(self.dim):
                sl = [slice(None)] * self.dim
                sl[axis] = 0
                mask[tuple(sl)] = True
                sl[axis] = self.nodes_per_axis[axis] - 1
                mask[tuple(sl)] = True
            self._boundary = mask.reshape(-1)
        return self._boundary

    def refined(self):
        """The nested midpoint refinement: 2n - 1 nodes per axis, same box."""
        fine = tuple(2 * n - 1 for n in self.nodes_per_axis)
        return RegularGrid(self.lower, self.upper, fine)

    def nests(self, fine):
        """True when `fine` is this grid's midpoint refinement."""
        return (
            self.lower == fine.lower
            and self.upper == fine.upper
            and all(nf == 2 * nc - 1 for nc, nf in zip(self.nodes_per_axis, fine.nodes_per_axis))
        )

    def __eq__(self, other):
        return (
            isinstance(other, RegularGrid)
            and self.lower == other.lower
            and self.upper == other.upper
            and self.nodes_per_axis == other.nodes_per_axis
        )

    def __hash__(self):
        return hash((self.lower, self.upper, self.nodes_per_axis))

    def __repr__(self):
        return (
            f"RegularGrid(lower={self.lower}, upper={self.upper}, "
            f"nodes_per_axis={self.nodes_per_axis})"
        )


class ValueField:
    """One scalar per grid node, flat row-major storage, always finite."""

    def __init__(self, grid, values, copy=True):
        values = (np.array(values, dtype=float) if copy
                  else np.asarray(values, dtype=float)).reshape(-1)
        if values.size != grid.num_nodes:
            raise GridError(
                f"field length {values.size} does not match grid with {grid.num_nodes} nodes"
            )
        if not np.isfinite(values).all():
            raise GridError("field contains non-finite entries")
        self.grid = grid
        self.values = values

    @classmethod
    def full(cls, grid, value):
        return cls(grid, np.full(grid.num_nodes, float(value)), copy=False)

    def reshaped(self):
        """Values viewed in the grid's multi-dimensional shape."""
        return self.values.reshape(self.grid.shape)


def locate_points(grid, points):
    """Vectorized cell location for an (n, d) batch of points.

    Returns (base, local, inside): integer cell base indices (d, n) clamped
    into the valid cell range, local coordinates (d, n) clamped into [0, 1],
    one contiguous row per axis, and a boolean (n,) in-closed-box mask.
    Points on the upper face map into the last cell with local coordinate 1.
    The clamps are NaN-safe: a non-finite or huge coordinate still gets an
    in-range cell, and the mask marks it outside.
    """
    column = (grid.dim, 1)
    lower = np.reshape(grid.lower, column)
    local = np.array(np.asarray(points, dtype=float).T, order="C")
    inside = np.logical_and.reduce(
        (local >= lower) & (local <= np.reshape(grid.upper_node, column)), axis=0)
    local -= lower
    local /= np.reshape(grid.spacing, column)
    cell = np.floor(local)
    np.fmax(cell, 0.0, out=cell)
    np.fmin(cell, np.reshape(grid.nodes_per_axis, column) - 2, out=cell)
    base = cell.astype(np.int32)
    local -= cell
    np.fmax(local, 0.0, out=local)
    np.fmin(local, 1.0, out=local)
    return base, local, inside


def cell_index(grid, base):
    """The flat index of the lowest corner of each located cell."""
    flat = base[0] * grid.strides[0]
    for axis in range(1, grid.dim):
        flat = flat + base[axis] * grid.strides[axis]
    return flat


def corner_offsets(grid):
    """The flat offsets of the 2^d cell corners from the lowest one, in the
    corner order (first axis slowest), which is also ascending."""
    offsets = [0]
    for stride in grid.strides:
        offsets = [offset + step for offset in offsets for step in (0, stride)]
    return offsets


def corner_weights(local, out=None):
    """Yield the multilinear weights of located points at the 2^d cell
    corners, in the corner order.

    `local` holds per axis the local coordinates, as rows that broadcast
    together.  Every weight is nonnegative, and the weight of corner
    (b_0, ..., b_{d-1}) is the product f_0 * f_1 * ... taken left to right,
    with f_i = local_i when b_i = 1 and 1 - local_i otherwise; the products
    of the first d - 1 axes are built by doubling, one axis at a time, and
    each corner's last product when the corner is reached.  With `out`, an
    iterable of 2^d arrays of the broadcast shape, corner k's weight is
    written straight into its k-th array, with the same bits, just before
    it is yielded, so the arrays may also all be one buffer.
    """
    weights = [1.0]  # 1.0 * f_0 is f_0, bit for bit
    for upper in local[:-1]:
        factors = (1.0 - upper, upper)
        weights = [w * f for w in weights for f in factors]
    factors = (1.0 - local[-1], local[-1])
    pairs = ((w, f) for w in weights for f in factors)
    for (w, f), target in zip(pairs, repeat(None) if out is None else out):
        yield np.multiply(w, f, out=target)


def interpolate_values(grid, values, points, exterior_value):
    """Multilinear interpolation of flat nodal `values` at (n, d) `points`.

    Points outside the closed box evaluate to `exterior_value`.  The corner
    accumulation order is fixed, so results are reproducible bit for bit
    regardless of how callers batch the points.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n == 0:
        return np.empty(0)
    base, local, inside = locate_points(grid, points)
    flat = cell_index(grid, base)
    acc = np.zeros(n)
    for offset, w in zip(corner_offsets(grid), corner_weights(local)):
        acc += w * values[flat + offset]
    if inside.all():
        return acc
    return np.where(inside, acc, exterior_value)


def interpolate(field, point, exterior_value):
    """Multilinear interpolation of a ValueField at a single point."""
    point = np.asarray(point, dtype=float).reshape(-1)
    if point.size != field.grid.dim:
        raise GridError(
            f"point has dimension {point.size}, grid has {field.grid.dim}"
        )
    if not np.isfinite(field.values).all():
        raise GridError("field contains non-finite entries")
    return float(interpolate_values(field.grid, field.values, point[None, :], exterior_value)[0])


def _expand_axis(arr, axis):
    """Insert midpoints along one axis: n entries become 2n - 1."""
    n = arr.shape[axis]
    shape = list(arr.shape)
    shape[axis] = 2 * n - 1
    out = np.empty(shape, dtype=arr.dtype)
    even = [slice(None)] * arr.ndim
    even[axis] = slice(0, None, 2)
    out[tuple(even)] = arr
    lo = [slice(None)] * arr.ndim
    lo[axis] = slice(0, n - 1)
    hi = [slice(None)] * arr.ndim
    hi[axis] = slice(1, n)
    odd = [slice(None)] * arr.ndim
    odd[axis] = slice(1, None, 2)
    out[tuple(odd)] = 0.5 * (arr[tuple(lo)] + arr[tuple(hi)])
    return out


def prolongate(coarse, fine_grid):
    """Transfer a coarse field to its midpoint-refined fine grid.

    Coincident nodes copy bitwise; inserted nodes get the multilinear average
    of the enclosing coarse cell corners.  The fine grid must be the exact
    node-doubling of the coarse grid (same box, 2n - 1 nodes per axis);
    anything else is rejected because the accuracy-preservation argument for
    the coarse-to-fine warm start relies on midpoint insertion.
    """
    cg = coarse.grid
    if not cg.nests(fine_grid):
        raise GridError(
            "fine grid is not the midpoint refinement of the coarse grid "
            f"(coarse {cg.nodes_per_axis} on {cg.lower}..{cg.upper}, "
            f"fine {fine_grid.nodes_per_axis} on {fine_grid.lower}..{fine_grid.upper})"
        )
    arr = coarse.reshaped()
    for axis in range(cg.dim):
        arr = _expand_axis(arr, axis)
    return ValueField(fine_grid, arr.reshape(-1), copy=False)


def _check_same_grid(a, b):
    if a.grid is not b.grid and a.grid != b.grid:
        raise GridError("fields live on different grids")


def sup_diff(a, b):
    """Maximum absolute nodewise difference of two same-grid fields."""
    _check_same_grid(a, b)
    return float(np.max(np.abs(a.values - b.values)))


def l1_diff(a, b):
    """Cell-volume-weighted L1 difference: sum |a_i - b_i| times the cell volume."""
    _check_same_grid(a, b)
    vol = 1.0
    for h in a.grid.spacing:
        vol *= h
    return float(np.sum(np.abs(a.values - b.values)) * vol)


def write_field_table(field, fh):
    """Write a field as a plain-text table, one row per node in flat order.

    Columns are the node coordinates (x1 .. xd) followed by the value, with
    17 significant digits so float64 values round-trip exactly.
    """
    grid = field.grid
    fh.write(" ".join(f"x{i + 1}" for i in range(grid.dim)) + " value\n")
    np.savetxt(fh, np.column_stack([grid.nodes(), field.values]), fmt=FIELD_FLOAT_FORMAT)


def read_field_table(fh, grid):
    """Read a table written by write_field_table back onto `grid`; its
    coordinate columns must be the grid's nodes exactly (17 digits round-trip)."""
    header = fh.readline()
    expected = " ".join(f"x{i + 1}" for i in range(grid.dim)) + " value"
    if header.strip() != expected:
        raise GridError(f"unexpected field table header: {header.strip()!r}")
    data = np.loadtxt(fh, ndmin=2)
    if data.shape[0] != grid.num_nodes or data.shape[1] != grid.dim + 1:
        raise GridError("field table does not match the grid")
    if not np.array_equal(data[:, :-1], grid.nodes()):
        raise GridError("field table coordinates are not the grid's nodes")
    return ValueField(grid, data[:, -1])
