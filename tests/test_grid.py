import io
import math

import numpy as np
import pytest

from hjbsolve.grid import (
    DEFAULT_NODE_CAP,
    GridError,
    RegularGrid,
    ValueField,
    interpolate,
    l1_diff,
    locate_points,
    prolongate,
    read_field_table,
    sup_diff,
    write_field_table,
)


def grid1d(n=3, lo=-1.0, hi=1.0):
    return RegularGrid((lo,), (hi,), (n,))


class TestRegularGrid:
    def test_spacing_and_coords(self):
        g = RegularGrid((-1.0, 0.0), (1.0, 2.0), (5, 3))
        assert g.spacing == (0.5, 1.0)
        assert np.allclose(g.axis_coords(0), [-1, -0.5, 0, 0.5, 1])
        assert g.num_nodes == 15

    def test_row_major_flat_order(self):
        g = RegularGrid((0.0, 0.0), (1.0, 2.0), (2, 3))
        nodes = g.nodes()
        # last axis fastest
        assert np.allclose(nodes[0], [0, 0])
        assert np.allclose(nodes[1], [0, 1])
        assert np.allclose(nodes[3], [1, 0])

    def test_invalid_construction(self):
        with pytest.raises(GridError):
            RegularGrid((0.0,), (0.0,), (3,))
        with pytest.raises(GridError):
            RegularGrid((0.0,), (1.0,), (1,))
        with pytest.raises(GridError):
            RegularGrid((0.0,) * 5, (1.0,) * 5, (3,) * 5)

    def test_node_counts_must_be_whole_numbers(self):
        with pytest.raises(GridError, match="whole numbers"):
            RegularGrid((0.0,), (1.0,), (2.7,))
        g = RegularGrid((0.0, 0.0), (1.0, 1.0), (np.int64(3), 4.0))
        assert g.nodes_per_axis == (3, 4)
        assert all(type(n) is int for n in g.nodes_per_axis)

    def test_node_cap_rejects_infeasible_4d(self):
        with pytest.raises(GridError, match="cap"):
            RegularGrid((0.0,) * 4, (1.0,) * 4, (321,) * 4)

    def test_refinement_past_the_node_cap_raises(self):
        g = RegularGrid((0.0,) * 4, (1.0,) * 4, (40,) * 4)
        assert g.num_nodes <= DEFAULT_NODE_CAP < 79 ** 4
        with pytest.raises(GridError, match="cap"):
            g.refined()

    def test_boundary_mask(self):
        g = RegularGrid((0.0, 0.0), (1.0, 1.0), (4, 4))
        mask = g.boundary_mask().reshape(4, 4)
        assert mask[0].all() and mask[-1].all()
        assert mask[:, 0].all() and mask[:, -1].all()
        assert not mask[1:-1, 1:-1].any()


class TestLocateCell:
    """Single points through locate_points: base (d, 1), local (d, 1), inside (1,)."""

    def test_midpoint_of_cell(self):
        base, local, inside = locate_points(grid1d(3), [(0.5,)])
        assert base[0, 0] == 1 and inside[0]
        assert local[0, 0] == pytest.approx(0.5)

    def test_node_coincidence(self):
        base, local, inside = locate_points(grid1d(3), [(0.0,)])
        assert base[0, 0] == 1 and local[0, 0] == 0.0 and inside[0]

    def test_upper_face(self):
        # the final node maps to the last cell with local coordinate 1
        base, local, inside = locate_points(grid1d(3), [(1.0,)])
        assert base[0, 0] == 1 and local[0, 0] == 1.0 and inside[0]

    def test_outside(self):
        assert not locate_points(grid1d(3), [(1.5,)])[2][0]
        assert not locate_points(grid1d(3), [(-1.0 - 1e-9,)])[2][0]

    def test_roundtrip_reconstruction(self, rng):
        g = RegularGrid((-1.0, -2.0, 0.0), (1.0, 2.0, 3.0), (7, 5, 4))
        pts = rng.uniform(low=(-1, -2, 0), high=(1, 2, 3), size=(200, 3))
        for p in pts:
            base, local, inside = locate_points(g, p[None, :])
            assert inside[0]
            point = np.asarray(g.lower) + (base[:, 0] + local[:, 0]) * np.asarray(g.spacing)
            assert np.max(np.abs(point - p)) < 1e-12


class TestInterpolate:
    def test_linear_midpoint(self):
        f = ValueField(grid1d(2), [1.0, 3.0])
        assert interpolate(f, (0.0,), 0.0) == pytest.approx(2.0)

    def test_bilinear_center(self):
        g = RegularGrid((0.0, 0.0), (1.0, 1.0), (2, 2))
        f = ValueField(g, [0.0, 1.0, 1.0, 2.0])
        assert interpolate(f, (0.5, 0.5), 0.0) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(GridError, match="dimension"):
            interpolate(ValueField.full(grid1d(3), 0.0), (0.5, 0.5), 0.0)

    def test_exterior_constant(self):
        f = ValueField(grid1d(3), [1.0, 2.0, 3.0])
        assert interpolate(f, (4.0,), 3.5) == 3.5

    def test_exact_at_nodes(self):
        g = RegularGrid((-1.0, -1.0), (1.0, 1.0), (5, 5))
        vals = np.arange(25, dtype=float)
        f = ValueField(g, vals)
        for i in (0, 7, 12, 24):
            assert interpolate(f, g.nodes()[i], 99.0) == vals[i]

    def test_affine_reproduction(self, rng):
        g = RegularGrid((-1.0, 0.0, -2.0), (1.0, 3.0, 2.0), (5, 4, 6))
        for _ in range(20):
            c = rng.normal(size=4)
            nodes = g.nodes()
            f = ValueField(g, c[0] + nodes @ c[1:])
            pts = rng.uniform(low=(-1, 0, -2), high=(1, 3, 2), size=(50, 3))
            for p in pts:
                assert interpolate(f, p, 0.0) == pytest.approx(
                    c[0] + p @ c[1:], abs=1e-12
                )

    def test_monotone_in_field(self, rng):
        g = RegularGrid((0.0, 0.0), (1.0, 1.0), (6, 6))
        lowf = rng.uniform(0, 1, size=36)
        a = ValueField(g, lowf)
        b = ValueField(g, lowf + rng.uniform(0, 1, size=36))
        for p in rng.uniform(0, 1, size=(100, 2)):
            assert interpolate(a, p, 0.0) <= interpolate(b, p, 0.0) + 1e-15

    def test_rejects_non_finite_field(self):
        f = ValueField(grid1d(3), [1.0, 2.0, 3.0])
        f.values[1] = np.nan
        with pytest.raises(GridError):
            interpolate(f, (0.5,), 0.0)


class TestProlongate:
    def test_1d_midpoints(self):
        g = grid1d(2)
        f = ValueField(g, [0.0, 2.0])
        fine = g.refined()
        pf = prolongate(f, fine)
        assert np.array_equal(pf.values, [0.0, 1.0, 2.0])

    def test_constant_invariance(self):
        g = RegularGrid((0.0, 0.0), (1.0, 1.0), (3, 3))
        pf = prolongate(ValueField.full(g, 0.7), g.refined())
        assert np.all(pf.values == 0.7)

    def test_2d_cell_corners(self):
        # corners 0,0,0,4: face centers 0,2,0,2 and cell center 1
        g = RegularGrid((0.0, 0.0), (1.0, 1.0), (2, 2))
        f = ValueField(g, [0.0, 0.0, 0.0, 4.0])
        pf = prolongate(f, g.refined()).reshaped()
        assert pf[0, 1] == 0.0
        assert pf[1, 0] == 0.0
        assert pf[1, 2] == 2.0
        assert pf[2, 1] == 2.0
        assert pf[1, 1] == 1.0

    def test_coincident_nodes_bitwise(self, rng):
        g = RegularGrid((-1.0, -1.0), (1.0, 1.0), (9, 9))
        vals = rng.normal(size=g.num_nodes)
        pf = prolongate(ValueField(g, vals), g.refined())
        assert np.array_equal(pf.reshaped()[::2, ::2].reshape(-1), vals)

    def test_sup_norm_preservation(self, rng):
        g = RegularGrid((-1.0, 0.0, -1.0), (1.0, 2.0, 1.0), (5, 4, 3))
        fine = g.refined()
        for _ in range(100):
            a = ValueField(g, rng.normal(size=g.num_nodes))
            b = ValueField(g, rng.normal(size=g.num_nodes))
            assert sup_diff(prolongate(a, fine), prolongate(b, fine)) <= sup_diff(a, b) + 1e-15

    def test_non_nested_rejected(self):
        g = RegularGrid((0.0,), (1.0,), (4,))
        with pytest.raises(GridError):
            prolongate(ValueField.full(g, 1.0), RegularGrid((0.0,), (1.0,), (8,)))
        with pytest.raises(GridError):
            prolongate(ValueField.full(g, 1.0), RegularGrid((0.0,), (2.0,), (7,)))


class TestNorms:
    def test_identity(self):
        g = grid1d(5)
        a = ValueField(g, np.arange(5.0))
        assert sup_diff(a, a) == 0.0
        assert l1_diff(a, a) == 0.0

    def test_hand_sum(self):
        g = grid1d(3)
        a = ValueField(g, [0.0, 3.0, 0.0])
        b = ValueField.full(g, 0.0)
        assert sup_diff(a, b) == 3.0
        assert l1_diff(a, b) == pytest.approx(3.0)  # spacing 1.0

    def test_homogeneity(self, rng):
        g = RegularGrid((0.0, 0.0), (1.0, 3.0), (4, 6))
        vals = rng.normal(size=g.num_nodes)
        a = ValueField(g, vals)
        a2 = ValueField(g, 2 * vals)
        z = ValueField.full(g, 0.0)
        assert sup_diff(a2, z) == pytest.approx(2 * sup_diff(a, z))
        assert l1_diff(a2, z) == pytest.approx(2 * l1_diff(a, z))

    def test_grid_mismatch(self):
        a = ValueField(grid1d(3), [0.0, 1.0, 2.0])
        b = ValueField(grid1d(5), np.zeros(5))
        with pytest.raises(GridError):
            sup_diff(a, b)


class TestFieldTable:
    def test_roundtrip_exact(self, rng):
        g = RegularGrid((-1.0, 0.0), (1.0, 2.0), (4, 3))
        f = ValueField(g, rng.normal(size=g.num_nodes))
        buf = io.StringIO()
        write_field_table(f, buf)
        buf.seek(0)
        back = read_field_table(buf, g)
        assert np.array_equal(back.values, f.values)

    def test_header_and_row_count(self):
        g = RegularGrid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2, 2, 2))
        buf = io.StringIO()
        write_field_table(ValueField.full(g, math.pi), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x1 x2 x3 value"
        assert len(lines) == 1 + g.num_nodes


class TestValueField:
    def test_length_checked(self):
        with pytest.raises(GridError):
            ValueField(grid1d(3), [1.0, 2.0])

    def test_uncopied_values_of_ints_or_a_list(self):
        """copy=False takes any numbers as floats, and float64 values as they
        are, without a copy."""
        for values in (np.arange(3), [0, 1, 2]):
            field = ValueField(grid1d(3), values, copy=False)
            assert field.values.dtype == np.float64
            assert field.values.tolist() == [0.0, 1.0, 2.0]
        floats = np.array([0.5, -0.0, 2.0])
        field = ValueField(grid1d(3), floats, copy=False)
        assert np.shares_memory(field.values, floats)

    def test_finiteness_checked(self):
        with pytest.raises(GridError):
            ValueField(grid1d(3), [1.0, np.inf, 2.0])
