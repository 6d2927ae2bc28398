import math

import numpy as np
import pytest

import hjbsolve as h
from hjbsolve.analysis import (
    HORIZON_EXCEEDED,
    LEFT_DOMAIN,
    REACHED_TARGET,
)
from hjbsolve.problems import ProblemError


class TestKruzkhovTransforms:
    def test_on_target(self):
        assert h.kruzkhov_to_time(0.0) == 0.0

    def test_unreachable_maps_to_infinity(self):
        assert h.kruzkhov_to_time(1.0) == math.inf
        assert h.kruzkhov_to_time(1.0 - 1e-15) == math.inf

    def test_inverse_point(self):
        assert h.kruzkhov_to_time(1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_time_zero(self):
        assert h.time_to_kruzkhov(0.0) == 0.0

    def test_half_at_log_two(self):
        assert h.time_to_kruzkhov(math.log(2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_infinite_time(self):
        assert h.time_to_kruzkhov(math.inf) == 1.0

    def test_roundtrip(self):
        # Representing 1 - exp(-t) near 1 costs ~ulp(1) * exp(t) of time
        # precision, so the achievable roundtrip tolerance grows with t.
        for t in np.linspace(0.0, 30.0, 200):
            back = h.kruzkhov_to_time(h.time_to_kruzkhov(float(t)))
            tol = max(1e-12, 2e-16 * math.exp(float(t)))
            assert back == pytest.approx(float(t), abs=tol)

    @pytest.mark.xfail(
        strict=True,
        reason="float64 cannot carry 1e-12 roundtrip precision once "
        "1 - exp(-t) saturates toward 1 (t beyond ~10); see the decisions ledger",
    )
    def test_roundtrip_flat_tolerance_to_30(self):
        for t in np.linspace(0.0, 30.0, 200):
            back = h.kruzkhov_to_time(h.time_to_kruzkhov(float(t)))
            assert back == pytest.approx(float(t), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            h.kruzkhov_to_time(-0.1)
        with pytest.raises(ValueError):
            h.kruzkhov_to_time(1.1)
        with pytest.raises(ValueError):
            h.time_to_kruzkhov(-1.0)

    def test_nan_transformed_value_is_a_domain_error(self):
        with pytest.raises(ValueError, match="must lie in"):
            h.kruzkhov_to_time(math.nan)

    def test_nan_in_a_transformed_array_is_a_domain_error(self):
        with pytest.raises(ValueError, match="must lie in"):
            h.kruzkhov_to_time(np.array([0.5, math.nan]))

    def test_nan_time_is_a_domain_error(self):
        with pytest.raises(ValueError, match="nonnegative"):
            h.time_to_kruzkhov(math.nan)

    def test_array_support(self):
        v = h.time_to_kruzkhov(np.array([0.0, math.log(2.0), np.inf]))
        assert v == pytest.approx([0.0, 0.5, 1.0])


class TestErrorVsReference:
    def test_zero_for_sampled_reference(self):
        entry = h.catalog("test4_eik2d")
        grid = entry.spec.domain_grid(21)
        ref = h.minimum_time_reference(entry)
        V = h.ValueField(grid, np.asarray(ref(grid.nodes())))
        rec = h.error_vs_reference(V, ref)
        assert rec.l1_error == 0.0 and rec.sup_error == 0.0
        assert rec.dx == pytest.approx(0.1)

    def test_translation_consistency(self, rng):
        entry = h.catalog("test4_eik2d")
        grid = entry.spec.domain_grid(21)
        vals = rng.uniform(0, 1, size=grid.num_nodes)
        ref = h.minimum_time_reference(entry)

        def shifted_ref(pts):
            return np.asarray(ref(pts)) + 0.25

        a = h.error_vs_reference(h.ValueField(grid, vals), ref)
        b = h.error_vs_reference(h.ValueField(grid, vals + 0.25), shifted_ref)
        assert a.l1_error == pytest.approx(b.l1_error, abs=1e-12)
        assert a.sup_error == pytest.approx(b.sup_error, abs=1e-12)

    def test_rate_table_entry_41(self, solved):
        entry = solved.entry("test4_eik2d")
        V, _, _ = solved.api("test4_eik2d", 41, eval_backend="direct")
        rec = h.error_vs_reference(V, h.minimum_time_reference(entry))
        assert rec.l1_error == pytest.approx(2.1e-2, rel=0.30)

    def test_rate_table_entry_81_sup(self, solved):
        entry = solved.entry("test4_eik2d")
        V, _, _ = solved.api("test4_eik2d", 81, eval_backend="direct")
        rec = h.error_vs_reference(V, h.minimum_time_reference(entry))
        assert rec.sup_error == pytest.approx(5.8e-3, rel=0.30)


# the catalog references no other test evaluates: (name, coarse and fine
# nodes per axis)
REFERENCE_CASES = [("test5_eik2d_disk", 33, 65), ("test7_eik3d_spheres", 13, 25),
                   ("test8_min4d", 9, 17)]


class TestCatalogReferences:
    @pytest.mark.parametrize("name,coarse,fine", REFERENCE_CASES)
    def test_reference_time_is_a_distance_to_the_flagged_nodes(self, name, coarse, fine):
        """reference_time is 0 on the nodes target_mask flags and positive
        on every other node, and it is 1-Lipschitz between neighbours of
        either grid and between any two nodes of the coarse one."""
        entry = h.catalog(name)
        for n in (coarse, fine):
            grid = entry.spec.domain_grid(n)
            flags = h.target_mask(entry.spec, grid)
            T = np.asarray(entry.reference_time(grid.nodes()))
            assert flags.any() and np.all(T[flags] == 0.0) and np.all(T[~flags] > 0.0)
            for axis, step in enumerate(grid.spacing):
                gaps = np.abs(np.diff(T.reshape(grid.nodes_per_axis), axis=axis))
                assert np.all(gaps <= step + 1e-12)
        # every pair of coarse nodes, 64 rows at a time
        nodes = entry.spec.domain_grid(coarse).nodes()
        T = np.asarray(entry.reference_time(nodes))
        for lo in range(0, len(nodes), 64):
            distances = np.linalg.norm(nodes[lo:lo + 64, None] - nodes[None], axis=-1)
            assert np.all(np.abs(T[lo:lo + 64, None] - T[None]) <= distances + 1e-12)

    @pytest.mark.parametrize("name,coarse,fine", REFERENCE_CASES)
    def test_value_iteration_error_falls_under_refinement(self, name, coarse, fine, solved):
        entry = solved.entry(name)
        ref = h.minimum_time_reference(entry)
        errors = [h.error_vs_reference(solved.vi(name, n)[0], ref).l1_error
                  for n in (coarse, fine)]
        assert errors[1] < errors[0]


class TestConvergenceRates:
    def test_published_ratio(self):
        recs = [h.ErrorRecord(0.05, 2.1e-2, 8.9e-3), h.ErrorRecord(0.025, 1.4e-2, 5.8e-3)]
        rates = h.convergence_rates(recs)
        assert rates[0][0] == pytest.approx(0.585, abs=1e-3)

    def test_exact_halving(self):
        recs = [h.ErrorRecord(0.1, 4e-2, 4e-2), h.ErrorRecord(0.05, 2e-2, 2e-2)]
        assert h.convergence_rates(recs)[0] == (pytest.approx(1.0), pytest.approx(1.0))

    def test_constant_errors(self):
        recs = [h.ErrorRecord(0.1, 3e-2, 3e-2), h.ErrorRecord(0.05, 3e-2, 3e-2)]
        assert h.convergence_rates(recs)[0] == (pytest.approx(0.0), pytest.approx(0.0))

    def test_power_law_recovery(self):
        p = 0.75
        recs = [h.ErrorRecord(dx, 2.0 * dx ** p, dx ** p) for dx in (0.4, 0.2, 0.1, 0.05)]
        for l1_rate, sup_rate in h.convergence_rates(recs):
            assert l1_rate == pytest.approx(p, abs=1e-12)
            assert sup_rate == pytest.approx(p, abs=1e-12)

    def test_zero_to_nonzero_error_is_minus_infinity(self):
        recs = [h.ErrorRecord(0.1, 0.0, 0.0), h.ErrorRecord(0.05, 1e-3, 1e-3)]
        assert h.convergence_rates(recs) == [(-math.inf, -math.inf)]

    def test_ratio_that_underflows_is_finite(self):
        """1e-320 / 1e10 rounds to 0, whose log2 is a domain error."""
        recs = [h.ErrorRecord(0.1, 1e-320, 1e-3), h.ErrorRecord(0.05, 1e10, 1e-3)]
        l1_rate, sup_rate = h.convergence_rates(recs)[0]
        assert l1_rate == math.log2(1e-320) - math.log2(1e10)
        assert l1_rate == pytest.approx(-1096.2, abs=0.1)
        assert sup_rate == 0.0

    def test_ratio_that_overflows_is_finite(self):
        recs = [h.ErrorRecord(0.1, 1e300, 1e300), h.ErrorRecord(0.05, 1e-300, 1e300)]
        l1_rate, sup_rate = h.convergence_rates(recs)[0]
        assert l1_rate == math.log2(1e300) - math.log2(1e-300)
        assert l1_rate == pytest.approx(1993.2, abs=0.1)
        assert sup_rate == 0.0

    def test_normal_ratio_keeps_the_log_of_the_quotient(self):
        """Within the normal range a rate is log2 of the quotient, bit for
        bit, whatever the difference of logs would round to."""
        recs = [h.ErrorRecord(0.1, 3e-2, 7e-3), h.ErrorRecord(0.05, 1.1e-2, 2.9e-3)]
        assert h.convergence_rates(recs) == [(math.log2(3e-2 / 1.1e-2),
                                              math.log2(7e-3 / 2.9e-3))]

    def test_nan_error_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            h.ErrorRecord(0.1, math.nan, 1.0)

    def test_requires_two_records(self):
        with pytest.raises(ValueError):
            h.convergence_rates([h.ErrorRecord(0.1, 1e-2, 1e-2)])

    def test_requires_exact_halving(self):
        recs = [h.ErrorRecord(0.1, 1e-2, 1e-2), h.ErrorRecord(0.07, 5e-3, 5e-3)]
        with pytest.raises(ValueError):
            h.convergence_rates(recs)


class TestTrajectories:
    def test_eikonal_reaches_target_on_time(self, solved):
        entry = solved.entry("test4_eik2d")
        V, _, _ = solved.vi("test4_eik2d", 41)
        dt = entry.dt_for(V.grid)
        traj = h.synthesize_trajectory(entry.spec, V, entry.controls,
                                       np.array([0.5, 0.0]), dt, max_time=3.0)
        assert traj.status == REACHED_TARGET
        assert abs(traj.final_time - 0.5) <= 0.05  # minimum time 0.5 within 10%

    def test_start_on_target(self, solved):
        entry = solved.entry("test4_eik2d")
        V, _, _ = solved.vi("test4_eik2d", 41)
        traj = h.synthesize_trajectory(entry.spec, V, entry.controls,
                                       np.array([0.0, 0.0]), 0.04, max_time=1.0)
        assert traj.status == REACHED_TARGET
        assert traj.samples == []
        assert traj.final_time == 0.0

    def test_horizon_exceeded(self, solved):
        entry = solved.entry("test4_eik2d")
        V, _, _ = solved.vi("test4_eik2d", 41)
        traj = h.synthesize_trajectory(entry.spec, V, entry.controls,
                                       np.array([0.9, 0.9]), 0.04, max_time=0.1)
        assert traj.status == HORIZON_EXCEEDED
        assert len(traj.samples) >= 1

    @pytest.mark.parametrize("name,n", [("test4_eik2d", 11), ("test4_eik2d", 21),
                                        ("test6_eik3d", 7), ("test6_eik3d", 9),
                                        ("test4_eik2d", 10), ("test6_eik3d", 6)])
    def test_rollout_from_a_node_reaches_the_target_where_the_mask_flags_it(self, name, n):
        """A rollout started on a node stops at once on the target exactly
        when target_mask flags the node: the point's node on an odd grid,
        the 2^d nodes of the cell centred on it on an even one (nodes 44,
        45, 54 and 55 at 10^2)."""
        entry = h.catalog(name)
        grid = entry.spec.domain_grid(n)
        flags = h.target_mask(entry.spec, grid)
        V = h.default_initial_field(entry.spec, grid)
        reached = [h.synthesize_trajectory(entry.spec, V, entry.controls, node,
                                           entry.dt_for(grid), max_time=0.0).status
                   == REACHED_TARGET for node in grid.nodes()]
        assert np.array_equal(reached, flags)
        assert np.count_nonzero(flags) == (1 if n % 2 else 2 ** grid.dim)

    def test_left_domain_status(self):
        # a single rightward control with the target on the left: the state
        # has no choice but to exit through the right face
        spec = h.ProblemSpec(
            state_dim=1,
            dynamics=lambda pts, a: np.ones_like(pts),
            running_cost=None,
            kind=h.MinimumTime(lambda p: np.asarray(p)[..., 0] <= -0.9),
            lower=(-1.0,),
            upper=(1.0,),
            exterior_value=1.0,
        )
        grid = spec.domain_grid(11)
        controls = h.ControlSet([[1.0]])
        V = h.ValueField.full(grid, 0.5)
        traj = h.synthesize_trajectory(spec, V, controls, np.array([0.5]),
                                       0.1, max_time=5.0)
        assert traj.status == LEFT_DOMAIN
        assert traj.final_state[0] > 1.0

    @pytest.mark.parametrize("name,x0", [("test1_1d", [0.5]), ("test1_1d", [1.0]),
                                         ("test4_eik2d", [0.5, 0.3])])
    def test_each_move_is_one_euler_step(self, solved, name, x0):
        """Consecutive states satisfy x_{k+1} = x_k + dt * f(x_k, a_{j_k})
        bit for bit; from test1_1d's stationary point 1 the state stays."""
        entry = solved.entry(name)
        V, _, _ = solved.vi(name, 41)
        dt = entry.dt_for(V.grid)
        traj = h.synthesize_trajectory(entry.spec, V, entry.controls, np.array(x0), dt,
                                       max_time=1.0)
        assert len(traj.samples) >= 5
        states = [x for _, x, _ in traj.samples] + [traj.final_state]
        for (_, x, j), arrival in zip(traj.samples, states[1:]):
            step = x + dt * np.asarray(entry.spec.dynamics(x, entry.controls.vectors[j]))
            assert arrival.tobytes() == step.tobytes()
        if x0 == [1.0]:
            assert all(x.tobytes() == states[0].tobytes() for x in states)

    def test_rejects_a_time_step_that_is_not_positive_at_the_first_move(self):
        entry = h.catalog("test1_1d")
        grid = entry.spec.domain_grid(11)
        V = h.default_initial_field(entry.spec, grid)
        with pytest.raises(ProblemError, match="^time step must be positive, got 0.0$"):
            h.synthesize_trajectory(entry.spec, V, entry.controls, np.array([0.0]), 0.0,
                                    max_time=1.0)
        # a rollout that ends before its first move returns its Trajectory
        traj = h.synthesize_trajectory(entry.spec, V, entry.controls, np.array([0.0]), 0.0,
                                       max_time=0.0)
        assert (traj.status, traj.samples, traj.final_time) == (HORIZON_EXCEEDED, [], 0.0)

    @pytest.mark.parametrize("max_time", [math.nan, math.inf, -math.inf])
    def test_rejects_a_max_time_that_is_not_finite(self, max_time):
        """`t >= max_time` never stops a rollout at a NaN max_time, nor at
        +inf while the state stays in the domain: each raises at once, as
        -inf does, even from a state on the target."""
        entry = h.catalog("test4_eik2d", control_count=8)
        grid = entry.spec.domain_grid(11)
        V = h.default_initial_field(entry.spec, grid)
        with pytest.raises(h.SolverError, match=f"^max_time must be finite, got {max_time}$"):
            h.synthesize_trajectory(entry.spec, V, entry.controls, np.zeros(2),
                                    entry.dt_for(grid), max_time=max_time)

    def test_times_step_uniformly(self, solved):
        entry = solved.entry("test4_eik2d")
        V, _, _ = solved.vi("test4_eik2d", 41)
        dt = entry.dt_for(V.grid)
        traj = h.synthesize_trajectory(entry.spec, V, entry.controls,
                                       np.array([0.5, 0.3]), dt, max_time=3.0)
        times = [t for t, _, _ in traj.samples]
        assert np.allclose(np.diff(times), dt)

    def test_weak_descent_along_path(self, solved):
        entry = solved.entry("test4_eik2d")
        V, _, _ = solved.vi("test4_eik2d", 41)
        dt = entry.dt_for(V.grid)
        traj = h.synthesize_trajectory(entry.spec, V, entry.controls,
                                       np.array([0.7, -0.4]), dt, max_time=3.0)
        vals = [h.interpolate(V, x, 1.0) for _, x, _ in traj.samples]
        slack = 2 * (1 - math.exp(-dt)) + 2 * max(V.grid.spacing)
        for a, b in zip(vals, vals[1:]):
            assert b <= a + slack
