import math

import numpy as np
import pytest

import hjbsolve as h
from hjbsolve.problems import HEAT3_A, HEAT3_B, ProblemError


class TestDiscretize:
    def test_two_points_are_endpoints(self):
        cs = h.discretize_control_box([(-1.0, 1.0)], [2])
        assert np.allclose(cs.vectors, [[-1.0], [1.0]])

    def test_three_points_equidistant(self):
        cs = h.discretize_control_box([(-1.0, 1.0)], [3])
        assert np.allclose(cs.vectors, [[-1.0], [0.0], [1.0]])

    def test_count_one_is_midpoint(self):
        cs = h.discretize_control_box([(0.0, 2.0)], [1])
        assert np.allclose(cs.vectors, [[1.0]])

    def test_16_by_8_pairs(self):
        cs = h.discretize_control_box([(-math.pi, math.pi), (0.0, math.pi)], [16, 8])
        assert len(cs) == 128
        assert cs.vectors.shape == (128, 2)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ProblemError):
            h.discretize_control_box([], [])

    def test_circle_covers_once(self):
        cs = h.discretize_circle(64)
        assert len(cs) == 64
        angles = cs.vectors[:, 0]
        assert angles[0] == pytest.approx(-math.pi)
        # no duplicated direction: gap between consecutive samples is 2*pi/64
        assert np.allclose(np.diff(angles), 2 * math.pi / 64)
        assert angles[-1] < math.pi - 1e-9

    def test_sample_counts_must_be_whole_numbers(self):
        with pytest.raises(ProblemError, match="whole numbers"):
            h.discretize_control_box([(0.0, 1.0)], [2.9])
        with pytest.raises(ProblemError, match="whole numbers"):
            h.discretize_circle(7.5)
        assert len(h.discretize_control_box([(0.0, 1.0)], [np.int64(3)])) == 3
        assert len(h.discretize_circle(8.0)) == 8

    def test_duplicate_controls_rejected(self):
        with pytest.raises(ProblemError):
            h.ControlSet([[1.0], [1.0]])


class TestCatalog:
    def test_unknown_name_lists_valid(self):
        with pytest.raises(ProblemError, match="test4_eik2d"):
            h.catalog("not_a_problem")

    def test_test1_exact_solution(self):
        entry = h.catalog("test1_1d")
        pts = np.array([[0.0], [1.0], [-1.0], [0.5]])
        assert entry.exact_value(pts) == pytest.approx([1.5, 0.0, 0.0, 0.75])

    def test_test8_controls(self):
        entry = h.catalog("test8_min4d")
        vecs = entry.controls.vectors
        assert len(entry.controls) == 8
        for v in vecs:
            nz = np.flatnonzero(v)
            assert nz.size == 1
            assert abs(v[nz[0]]) == 1.0

    def test_heat3_dynamics_first_column(self):
        entry = h.catalog("heat3_rom")
        out = entry.spec.dynamics(np.array([[1.0, 0.0, 0.0]]), np.array([0.0]))
        assert out[0] == pytest.approx([-0.123, -0.008, -0.001])

    def test_heat3_matrix_symmetric_negative_definite(self):
        a = np.array(HEAT3_A)
        assert np.array_equal(a, a.T)
        assert np.all(np.linalg.eigvalsh(a) < 0)
        assert np.asarray(HEAT3_B).shape == (3,)

    def test_default_dt_rules(self):
        for name, ratio in [("test1_1d", 0.5), ("test2_vdp", 0.3),
                            ("test3_dubins", 0.2), ("test4_eik2d", 0.8),
                            ("test5_eik2d_disk", 0.8), ("test6_eik3d", 0.8),
                            ("test7_eik3d_spheres", 0.8), ("test8_min4d", 0.8),
                            ("heat3_rom", 0.1)]:
            assert h.catalog(name).dt_ratio == ratio

    def test_overrides(self):
        entry = h.catalog("test1_1d", control_count=5, dt_ratio=0.25, lam=0.1)
        assert len(entry.controls) == 5
        assert entry.dt_ratio == 0.25
        assert entry.spec.kind.lam == 0.1
        with pytest.raises(ProblemError):
            h.catalog("test1_1d", bogus=1)

    def test_non_integer_control_count_rejected(self):
        with pytest.raises(ProblemError, match="whole numbers"):
            h.catalog("test4_eik2d", control_count=2.5)
        with pytest.raises(ProblemError, match="whole numbers"):
            h.catalog("test6_eik3d", control_counts=(16, 7.5))
        assert len(h.catalog("test1_1d", control_count=np.int32(5)).controls) == 5

    def test_control_counts(self):
        assert len(h.catalog("test1_1d").controls) == 20
        assert len(h.catalog("test2_vdp").controls) == 32
        assert len(h.catalog("test3_dubins").controls) == 11
        assert len(h.catalog("test4_eik2d").controls) == 64
        assert len(h.catalog("test5_eik2d_disk").controls) == 72
        assert len(h.catalog("test6_eik3d").controls) == 128
        assert len(h.catalog("test7_eik3d_spheres").controls) == 128
        assert len(h.catalog("test8_min4d").controls) == 8
        assert len(h.catalog("heat3_rom").controls) == 3

    @pytest.mark.parametrize("name,dim,lo,hi,exterior,boundary", [
        ("test1_1d", 1, -1.0, 1.0, 0.0, 0.0),
        ("test2_vdp", 2, -2.0, 2.0, 3.5, 3.5),
        ("test3_dubins", 3, -2.0, 2.0, 3.0, 3.0),
        ("test4_eik2d", 2, -1.0, 1.0, 1.0, None),
        ("test5_eik2d_disk", 2, -2.0, 2.0, 1.0, None),
        ("test6_eik3d", 3, -1.0, 1.0, 1.0, None),
        ("test7_eik3d_spheres", 3, -6.0, 6.0, 1.0, None),
        ("test8_min4d", 4, -1.0, 1.0, 1.0, None),
        ("heat3_rom", 3, -1.0, 1.0, 1.0, None),
    ])
    def test_default_domains_and_values(self, name, dim, lo, hi, exterior, boundary):
        spec = h.catalog(name).spec
        assert spec.lower == (lo,) * dim and spec.upper == (hi,) * dim
        assert spec.exterior_value == exterior
        assert spec.boundary_value == boundary

    @pytest.mark.parametrize("name", sorted(h.catalog_names()))
    def test_overridden_domains_and_values(self, name):
        """Every builder puts an overridden domain on every axis and makes an
        overridden exterior value, and boundary value where it takes one,
        floats."""
        overrides = {"domain": (-3, 5), "exterior_value": 2}
        if h.catalog(name).spec.boundary_value is not None:
            overrides["boundary_value"] = 7
        spec = h.catalog(name, **overrides).spec
        assert spec.lower == (-3.0,) * spec.state_dim
        assert spec.upper == (5.0,) * spec.state_dim
        assert type(spec.exterior_value) is float and spec.exterior_value == 2.0
        if "boundary_value" in overrides:
            assert type(spec.boundary_value) is float and spec.boundary_value == 7.0
        else:
            assert spec.boundary_value is None

    @pytest.mark.parametrize("name,allowed", [
        ("test1_1d", ["boundary_value", "control_count", "domain", "dt_ratio",
                      "exterior_value", "lam"]),
        ("test2_vdp", ["boundary_value", "control_count", "domain", "dt_ratio",
                       "exterior_value", "lam"]),
        ("test3_dubins", ["boundary_value", "control_count", "domain", "dt_ratio",
                          "exterior_value", "lam"]),
        ("test4_eik2d", ["control_count", "domain", "dt_ratio", "exterior_value"]),
        ("test5_eik2d_disk", ["control_count", "domain", "dt_ratio", "exterior_value"]),
        ("test6_eik3d", ["control_counts", "domain", "dt_ratio", "exterior_value"]),
        ("test7_eik3d_spheres", ["control_counts", "domain", "dt_ratio", "exterior_value"]),
        ("test8_min4d", ["domain", "dt_ratio", "exterior_value"]),
        ("heat3_rom", ["domain", "dt_ratio", "exterior_value", "target_radius"]),
    ])
    def test_unknown_override_lists_the_allowed_ones(self, name, allowed):
        with pytest.raises(ProblemError) as info:
            h.catalog(name, bogus=1)
        assert str(info.value) == (
            f"unknown override(s) ['bogus'] for {name}; allowed: {allowed}"
        )


class TestTargetMask:
    def test_disk_flags(self):
        entry = h.catalog("test5_eik2d_disk")
        grid = entry.spec.domain_grid(64)
        mask = h.target_mask(entry.spec, grid)
        nodes = grid.nodes()
        inside = np.sqrt((nodes ** 2).sum(axis=1)) <= 1.0
        assert np.array_equal(mask, inside)
        assert mask.any()

    def test_point_target_center_node(self):
        entry = h.catalog("test4_eik2d")
        grid = entry.spec.domain_grid(41)
        mask = h.target_mask(entry.spec, grid)
        assert np.count_nonzero(mask) == 1
        center = np.flatnonzero(mask)[0]
        assert np.allclose(grid.nodes()[center], [0.0, 0.0])

    def test_point_target_even_grid_nonempty(self):
        entry = h.catalog("test4_eik2d")
        grid = entry.spec.domain_grid(40)
        mask = h.target_mask(entry.spec, grid)
        assert mask.any()

    @pytest.mark.parametrize("name,n", [
        ("test4_eik2d", 10), ("test4_eik2d", 40), ("test6_eik3d", 6),
        ("test4_eik2d", 11), ("test4_eik2d", 21), ("test4_eik2d", 41), ("test4_eik2d", 81),
        ("test4_eik2d", 161), ("test4_eik2d", 321),
        ("test6_eik3d", 7), ("test6_eik3d", 21), ("test6_eik3d", 41), ("test6_eik3d", 81),
    ])
    def test_point_target_flags_the_nodes_nearest_the_point(self, name, n):
        """The origin is a node at odd counts, flagged alone, and a cell
        centre at even ones, where all 2^d nodes of the cell are flagged,
        though rounding puts some of them just beyond half a cell diagonal."""
        entry = h.catalog(name)
        grid = entry.spec.domain_grid(n)
        flags = h.target_mask(entry.spec, grid)
        nearest = np.all(np.abs(grid.nodes()) < 0.75 * grid.spacing[0], axis=1)
        assert np.count_nonzero(nearest) == (2 ** grid.dim if n % 2 == 0 else 1)
        assert np.array_equal(flags, nearest)

    def test_infinite_horizon_all_false(self):
        entry = h.catalog("test2_vdp")
        grid = entry.spec.domain_grid(11)
        mask = h.target_mask(entry.spec, grid)
        assert mask.dtype == bool and mask.shape == (grid.num_nodes,)
        assert not mask.any()

    def test_empty_mask_is_error(self):
        entry = h.catalog("heat3_rom", target_radius=1e-6)
        grid = entry.spec.domain_grid(4)  # even: no node at the origin
        with pytest.raises(ProblemError, match="empty on the 4x4x4 grid; refine"):
            h.target_mask(entry.spec, grid)

    def test_overflow_names_the_grid(self):
        entry = h.catalog("test4_eik2d", domain=(0.0, 1e155))
        grid = entry.spec.domain_grid((11, 21))
        with pytest.raises(ProblemError, match="overflows on the 11x21 grid's nodes"):
            h.target_mask(entry.spec, grid)

    def test_boundary_target_test8(self):
        entry = h.catalog("test8_min4d")
        grid = entry.spec.domain_grid(5)
        mask = h.target_mask(entry.spec, grid)
        assert np.array_equal(mask, grid.boundary_mask())


class TestDynamicsProperties:
    def test_eikonal_unit_speed(self):
        for name in ("test4_eik2d", "test5_eik2d_disk"):
            entry = h.catalog(name)
            pts = np.zeros((1, 2))
            for a in entry.controls.vectors:
                f = entry.spec.dynamics(pts, a)
                assert abs(np.linalg.norm(f[0]) - 1.0) < 1e-12

    def test_sphere_unit_speed(self):
        entry = h.catalog("test6_eik3d")
        pts = np.zeros((1, 3))
        for a in entry.controls.vectors:
            f = entry.spec.dynamics(pts, a)
            assert abs(np.linalg.norm(f[0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("name,bound", [
        ("test1_1d", 1.01),
        ("test2_vdp", 13.0),
        ("test3_dubins", 1.01),
        ("test4_eik2d", 1e-9),
        ("heat3_rom", 4.0),
    ])
    def test_lipschitz_bounded(self, name, bound, rng):
        entry = h.catalog(name)
        spec = entry.spec
        lo = np.asarray(spec.lower)
        hi = np.asarray(spec.upper)
        d = spec.state_dim
        worst = 0.0
        xs = rng.uniform(low=lo, high=hi, size=(200, d))
        ys = rng.uniform(low=lo, high=hi, size=(200, d))
        for a in entry.controls.vectors[:: max(1, len(entry.controls) // 8)]:
            fx = np.asarray(spec.dynamics(xs, a)) * np.ones((len(xs), d))
            fy = np.asarray(spec.dynamics(ys, a)) * np.ones((len(ys), d))
            num = np.linalg.norm(fx - fy, axis=1)
            den = np.linalg.norm(xs - ys, axis=1)
            worst = max(worst, float(np.max(num / den)))
        assert worst <= bound
