"""The multilinear kernel (locate_points, cell_index, corner_offsets and
corner_weights) against the per-corner reference formula, bit for bit."""

import itertools
import warnings

import numpy as np
import pytest

import hjbsolve as h
from hjbsolve import solvers
from hjbsolve.grid import (
    RegularGrid,
    cell_index,
    corner_offsets,
    corner_weights,
    interpolate_values,
    locate_points,
)
from hjbsolve.solvers import _Sweeper

from conftest import check_rows, contract_fields, general_rows, poison_builds, policy_general_rows


def reference_locate(grid, points):
    """Cell location on (n, d) arrays, clipped after the integer cast."""
    points = np.asarray(points, dtype=float)
    lo = np.asarray(grid.lower)
    hi = np.asarray(grid.upper_node)
    h = np.asarray(grid.spacing)
    inside = np.logical_and(points >= lo, points <= hi).all(axis=1)
    u = (points - lo) / h
    base = np.floor(u).astype(np.int64)
    np.clip(base, 0, np.asarray(grid.nodes_per_axis) - 2, out=base)
    local = u - base
    np.clip(local, 0.0, 1.0, out=local)
    return base, local, inside


def reference_corners(grid, base, local):
    """(flat index, weight) per corner, first axis slowest: each weight
    starts at one and multiplies in one factor per axis."""
    strides = np.asarray(grid.strides, dtype=np.int64)
    flat = base @ strides
    out = []
    for corner in itertools.product((0, 1), repeat=grid.dim):
        w = np.ones(flat.size)
        for axis, bit in enumerate(corner):
            w = w * (local[:, axis] if bit else 1.0 - local[:, axis])
        out.append((flat + int(np.dot(corner, strides)), w))
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_grid(rng, dim):
    lower = rng.uniform(-3.0, 1.0, dim)
    upper = lower + rng.uniform(0.3, 4.0, dim)
    return RegularGrid(lower, upper, rng.integers(2, 9 if dim < 4 else 6, dim))


def random_points(rng, grid, n):
    """Interior points, nodes, points on the upper and lower faces, and
    points outside the box, mixed in one batch."""
    lo, hi = np.asarray(grid.lower), np.asarray(grid.upper_node)
    width = hi - lo
    pts = lo + rng.uniform(-0.3, 1.3, (n, grid.dim)) * width
    kind = rng.integers(0, 4, (n, grid.dim))
    nodes = lo + rng.integers(0, np.asarray(grid.nodes_per_axis), (n, grid.dim)) * \
        np.asarray(grid.spacing)
    pts = np.where(kind == 1, nodes, pts)
    pts = np.where(kind == 2, hi, pts)
    pts = np.where(kind == 3, lo, pts)
    return pts


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 257])
def test_kernel_matches_reference_bit_for_bit(dim, n):
    rng = np.random.default_rng(1000 * dim + n)
    for _ in range(5):
        grid = random_grid(rng, dim)
        pts = random_points(rng, grid, n)
        base, local, inside = locate_points(grid, pts)
        ref_base, ref_local, ref_inside = reference_locate(grid, pts)
        assert base.shape == local.shape == (dim, n)
        assert np.array_equal(base.T, ref_base)
        assert same_bits(local.T, ref_local)
        assert np.array_equal(inside, ref_inside)
        if n > 1:
            assert inside.any() and not inside.all()
        flat = cell_index(grid, base)
        corners = [(flat + offset, w)
                   for offset, w in zip(corner_offsets(grid), corner_weights(local))]
        reference = reference_corners(grid, ref_base, ref_local)
        assert len(corners) == len(reference) == 2 ** dim
        for (flat, w), (ref_flat, ref_w) in zip(corners, reference):
            assert np.array_equal(flat, ref_flat)
            assert same_bits(w, ref_w)


def test_upper_face_maps_into_last_cell():
    grid = RegularGrid((0.0, -1.0), (1.0, 2.0), (5, 4))
    base, local, inside = locate_points(grid, [grid.upper_node, grid.lower])
    assert inside.all()
    assert base[:, 0].tolist() == [3, 2] and local[:, 0].tolist() == [1.0, 1.0]
    assert base[:, 1].tolist() == [0, 0] and local[:, 1].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -1e300])
def test_non_finite_coordinates_are_exterior_without_warnings(bad):
    grid = RegularGrid((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (5, 6, 7))
    values = np.arange(grid.num_nodes, dtype=float)
    pts = np.array([[0.5, 1.0, 1.5]] * 4)
    pts[0, 0] = pts[1, 1] = pts[2, 2] = bad
    pts[3, :] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base, local, inside = locate_points(grid, pts)
        result = interpolate_values(grid, values, pts, -7.0)
    assert not inside.any()
    assert np.array_equal(result, np.full(4, -7.0))
    top = np.asarray(grid.nodes_per_axis)[:, None] - 2
    assert np.all((base >= 0) & (base <= top))
    assert np.all((local >= 0.0) & (local <= 1.0))


def test_chunked_fill_matches_single_chunk(monkeypatch):
    """Rows written a few at a time, with out-of-box arrivals inside and
    across chunk boundaries, pass the row-set contract against the general
    rows of one chunk: a block of the m-control operator and the
    frozen-policy rows."""
    poison_builds(monkeypatch)
    entry = h.catalog("test2_vdp", control_count=8)
    grid = entry.spec.domain_grid(15)
    sweeper = _Sweeper(entry.spec, grid, entry.controls,
                       h.SolverConfig(dt=4 * entry.dt_for(grid)))
    js = range(len(entry.controls))
    policy = np.arange(grid.num_nodes) % len(js)
    general, frozen_general = general_rows(sweeper, js), policy_general_rows(sweeper, policy)
    # some arrivals leave the box, of non-pinned nodes too
    assert np.diff(general[0]).min() == np.diff(frozen_general[0])[~sweeper.pinned].min() == 0
    fields = contract_fields(np.random.default_rng(3), grid.num_nodes)
    for rows in (1, 5, 64):
        monkeypatch.setattr(solvers, "_FILL_ROWS", rows)
        check_rows(sweeper, js, sweeper._fill_block(js)[0], general, fields)
        frozen = sweeper.policy_rows(h.PolicyField(grid, policy))
        check_rows(sweeper, None, frozen, frozen_general, fields, sweeper.pins)
