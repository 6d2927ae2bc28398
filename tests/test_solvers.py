import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import hjbsolve as h
from hjbsolve.problems import InfiniteHorizon, MinimumTime, ProblemSpec
from hjbsolve.solvers import UNSET_POLICY, SolverError, _Sweeper

from conftest import policy_general_rows


def stationary_spec(cost=1.0):
    """f identically 0, constant running cost, unit discount rate."""
    return ProblemSpec(
        state_dim=1,
        dynamics=lambda pts, a: np.zeros_like(pts),
        running_cost=lambda pts, a: np.full(pts.shape[0], cost),
        kind=InfiniteHorizon(1.0),
        lower=(0.0,),
        upper=(1.0,),
        exterior_value=0.0,
    )


def geometric_value(cost, lam, dt):
    return cost * dt / -math.expm1(-lam * dt)


class TestBellmanUpdate:
    def test_stage_cost_only(self):
        spec = stationary_spec(cost=1.0)
        grid = spec.domain_grid(11)
        cfg = h.SolverConfig(dt=0.1)
        controls = h.ControlSet([[0.0]])
        V0 = h.ValueField.full(grid, 0.0)
        V1, P = h.bellman_update(spec, grid, V0, controls, cfg)
        assert V1.values == pytest.approx(np.full(11, 0.1), abs=1e-15)

    def test_minimum_time_discount_of_zero_field(self):
        entry = h.catalog("test4_eik2d", control_count=8)
        grid = entry.spec.domain_grid(21)
        cfg = h.SolverConfig(dt=entry.dt_for(grid))
        V0 = h.ValueField.full(grid, 0.0)
        V1, P = h.bellman_update(entry.spec, grid, V0, entry.controls, cfg)
        mask = h.target_mask(entry.spec, grid)
        stage = -math.expm1(-cfg.dt)
        assert V1.values[~mask] == pytest.approx(np.full((~mask).sum(), stage))
        assert np.all(V1.values[mask] == 0.0)
        assert np.all(P.indices[mask] == UNSET_POLICY)

    def test_zero_cost_zero_fixed_point(self):
        spec = stationary_spec(cost=0.0)
        grid = spec.domain_grid(7)
        cfg = h.SolverConfig(dt=0.1)
        controls = h.ControlSet([[0.0], [1.0]])
        V1, _ = h.bellman_update(spec, grid, h.ValueField.full(grid, 0.0), controls, cfg)
        assert np.all(V1.values == 0.0)

    def test_non_finite_dynamics_raises(self):
        spec = dataclasses.replace(
            stationary_spec(), dynamics=lambda pts, a: np.full_like(pts, np.nan)
        )
        grid = spec.domain_grid(5)
        cfg = h.SolverConfig(dt=0.1)
        with pytest.raises(SolverError):
            h.bellman_update(spec, grid, h.ValueField.full(grid, 0.0),
                             h.ControlSet([[0.0]]), cfg)


class TestValueIteration:
    def test_geometric_series_fixed_point(self):
        spec = stationary_spec(cost=1.0)
        grid = spec.domain_grid(11)
        cfg = h.SolverConfig(dt=0.1, stop_constant=1e-4)
        V, P, rep = h.value_iteration(spec, grid, h.ControlSet([[0.0]]), cfg)
        assert rep.converged
        assert V.values == pytest.approx(
            np.full(11, geometric_value(1.0, 1.0, 0.1)), abs=1e-4
        )

    def test_kinked_1d_value(self, solved):
        V, P, rep = solved.vi("test1_1d", 161)
        assert rep.converged
        grid = V.grid
        mid = grid.num_nodes // 2
        assert abs(V.values[mid] - 1.5) < 5e-2
        # fixed boundary values pinned every iteration
        assert V.values[0] == 0.0 and V.values[-1] == 0.0
        assert P.indices[0] == UNSET_POLICY

    @pytest.mark.parametrize("solve", [h.value_iteration, h.policy_iteration])
    def test_cold_start_flags_the_target_once(self, monkeypatch, solve):
        """A cold run pins its start field with its sweeper's pins, so it
        flags the target once."""
        from hjbsolve import solvers

        calls = []

        def counted(spec, grid):
            calls.append(grid)
            return mask(spec, grid)

        mask = solvers.target_mask
        monkeypatch.setattr(solvers, "target_mask", counted)
        entry = h.catalog("test4_eik2d", control_count=8)
        grid = entry.spec.domain_grid(11)
        solve(entry.spec, grid, entry.controls,
              h.SolverConfig(dt=entry.dt_for(grid), max_iterations=2))
        assert calls == [grid]

    def test_eikonal_iteration_band(self, solved):
        V, P, rep = solved.vi("test4_eik2d", 41)
        assert rep.converged
        assert 26 <= rep.outer_iterations <= 48  # 37 +- 30%

    def test_discount_that_rounds_to_one_is_refused(self):
        """e^(-lam*dt) = 1 would end the run dividing by 1 - gamma = 0; the
        sweeper refuses it before any sweep."""
        entry = h.catalog("test2_vdp", lam=1e-17)
        grid = entry.spec.domain_grid(11)
        cfg = h.SolverConfig(dt=entry.dt_for(grid))
        with pytest.raises(h.SolverError, match=r"^lam\*dt = 1\.2e-18 is too small: "
                                                r"the one-step discount exp\(-lam\*dt\) rounds to 1$"):
            h.value_iteration(entry.spec, grid, entry.controls, cfg)

    def test_non_convergence_flagged(self):
        entry = h.catalog("test4_eik2d", control_count=8)
        grid = entry.spec.domain_grid(21)
        cfg = h.SolverConfig(dt=entry.dt_for(grid), max_iterations=3)
        V, P, rep = h.value_iteration(entry.spec, grid, entry.controls, cfg)
        assert not rep.converged
        assert rep.outer_iterations == 3

    def test_minimum_time_range(self, solved):
        V, P, rep = solved.vi("test4_eik2d", 41)
        assert np.all(V.values >= 0.0) and np.all(V.values <= 1.0)
        mask = h.target_mask(solved.entry("test4_eik2d").spec, V.grid)
        assert np.all(V.values[mask] == 0.0)

    def test_fixed_boundary_values_pinned(self):
        entry = h.catalog("test2_vdp", control_count=8)
        grid = entry.spec.domain_grid(21)
        cfg = h.SolverConfig(dt=entry.dt_for(grid))
        V, P, rep = h.value_iteration(entry.spec, grid, entry.controls, cfg)
        assert rep.converged
        edge = grid.boundary_mask()
        assert np.all(V.values[edge] == 3.5)
        assert np.all(P.indices[edge] == UNSET_POLICY)

    def test_enlarging_target_never_increases_values(self):
        entry = h.catalog("test5_eik2d_disk", control_count=16)
        grid = entry.spec.domain_grid(33)
        cfg = h.SolverConfig(dt=entry.dt_for(grid))
        V_small, _, _ = h.value_iteration(entry.spec, grid, entry.controls, cfg)
        bigger = dataclasses.replace(
            entry.spec,
            kind=MinimumTime(lambda p: np.sum(np.asarray(p) ** 2, axis=-1) <= 1.69),
        )
        V_big, _, _ = h.value_iteration(bigger, grid, entry.controls, cfg)
        assert np.all(V_big.values <= V_small.values + 1e-12)


class TestPolicyEvaluation:
    def test_geometric_closed_form_both_backends(self):
        spec = stationary_spec(cost=2.0)
        grid = spec.domain_grid(11)
        cfg = h.SolverConfig(dt=0.1, stop_constant=1e-4)
        controls = h.ControlSet([[0.0]])
        policy = h.PolicyField.constant(grid, 0)
        V0 = h.ValueField.full(grid, 0.0)
        expected = geometric_value(2.0, 1.0, 0.1)
        Vfp, m, ok = h.policy_evaluation_fixed_point(spec, grid, policy, controls, V0, cfg)
        assert ok
        assert Vfp.values == pytest.approx(np.full(11, expected), abs=1e-4)
        Vd, iters = h.policy_evaluation_direct(spec, grid, policy, controls, cfg)
        assert Vd.values == pytest.approx(np.full(11, expected), abs=1e-5)

    def test_fixed_point_reentry(self, solved):
        entry = solved.entry("test1_1d")
        V, P, rep = solved.vi("test1_1d", 81)
        cfg = h.SolverConfig(dt=entry.dt_for(V.grid))
        V2, m, ok = h.policy_evaluation_fixed_point(
            entry.spec, V.grid, P, entry.controls, V, cfg
        )
        assert ok and m <= 1

    def test_straight_ray_travel_value(self, solved):
        entry = solved.entry("test4_eik2d")
        grid = entry.spec.domain_grid(41)
        cfg = h.SolverConfig(dt=entry.dt_for(grid))
        ref = h.ValueField(grid, np.asarray(h.minimum_time_reference(entry)(grid.nodes())))
        _, policy = h.bellman_update(entry.spec, grid, ref, entry.controls, cfg)
        V, m, ok = h.policy_evaluation_fixed_point(
            entry.spec, grid, policy, entry.controls,
            h.default_initial_field(entry.spec, grid), cfg,
        )
        assert ok
        nodes = grid.nodes()
        on_axis = np.flatnonzero((nodes[:, 1] == 0.0) & (nodes[:, 0] > 0))
        err = np.abs(V.values[on_axis] - (1.0 - np.exp(-nodes[on_axis, 0])))
        assert float(err.max()) <= 0.2 * grid.spacing[0]

    def test_inner_cap_flagged(self):
        entry = h.catalog("test4_eik2d", control_count=8)
        grid = entry.spec.domain_grid(21)
        cfg = h.SolverConfig(dt=entry.dt_for(grid), max_iterations=1)
        policy = h.PolicyField.constant(grid, 0)
        V0 = h.default_initial_field(entry.spec, grid)
        V, m, ok = h.policy_evaluation_fixed_point(
            entry.spec, grid, policy, entry.controls, V0, cfg
        )
        assert not ok and m == cfg.inner_cap()

    def test_direct_rows_diagonally_dominant(self):
        entry = h.catalog("test4_eik2d", control_count=8)
        grid = entry.spec.domain_grid(21)
        cfg = h.SolverConfig(dt=entry.dt_for(grid))
        sweeper = _Sweeper(entry.spec, grid, entry.controls, cfg)
        # the frozen-policy rows, which the row-set contract holds to these
        indptr, indices, data, _ = policy_general_rows(sweeper, np.full(grid.num_nodes, 3))
        rows = sp.csr_matrix((data, indices, indptr), shape=(grid.num_nodes,) * 2)
        row_mass = sweeper.discount * np.asarray(rows.sum(axis=1)).ravel()
        assert np.all(row_mass < 1.0)
        assert np.all(rows.data >= 0.0)

    @pytest.mark.parametrize("bad", [8, 99, -5, UNSET_POLICY])
    @pytest.mark.parametrize("backend", ["fixed_point", "direct"])
    def test_policy_index_outside_the_controls_raises(self, bad, backend):
        """A non-pinned node whose index is no control would get an empty
        row and c = 0, as if it lay on the target; the first one raises.
        Pinned nodes may hold any index."""
        entry = h.catalog("test4_eik2d", control_count=8)
        grid = entry.spec.domain_grid(21)
        cfg = h.SolverConfig(dt=entry.dt_for(grid))
        pinned = _Sweeper(entry.spec, grid, entry.controls, cfg).pinned
        free = np.flatnonzero(~pinned)
        policy = h.PolicyField.constant(grid, 0)
        policy.indices[np.flatnonzero(pinned)[0]] = 99
        V0 = h.default_initial_field(entry.spec, grid)

        def evaluate():
            if backend == "fixed_point":
                return h.policy_evaluation_fixed_point(entry.spec, grid, policy,
                                                       entry.controls, V0, cfg)[0]
            return h.policy_evaluation_direct(entry.spec, grid, policy, entry.controls, cfg)[0]

        assert evaluate().values[free].min() > 0.0
        policy.indices[free[[7, 30]]] = bad
        message = (f"policy index {bad} at non-pinned node {free[7]} "
                   "is not a control index in [0, 8)")
        with pytest.raises(SolverError, match=re.escape(message)):
            evaluate()

    @pytest.mark.parametrize("call", ["fixed_point", "direct", "pi_fixed_point", "pi_direct"])
    def test_non_finite_stage_cost_raises_before_evaluating(self, call):
        """An infinite running cost at one node raises the same SolverError,
        naming the node and its control, from both public evaluations and
        from policy iteration on either backend, before any sweep or Krylov
        step, so with no numpy or scipy warning on the way."""
        entry = h.catalog("test2_vdp")
        grid = entry.spec.domain_grid(11)

        def at(points):
            return np.all(np.isclose(points, 0.4), axis=1)

        node = int(np.flatnonzero(at(grid.nodes()))[0])

        def running_cost(points, a):
            cost = np.array(entry.spec.running_cost(points, a), dtype=float)
            cost[at(points)] = np.inf
            return cost

        spec = dataclasses.replace(entry.spec, running_cost=running_cost)
        cfg = h.SolverConfig(dt=entry.dt_for(grid))
        policy = h.PolicyField.constant(grid, 0)

        def run():
            if call == "fixed_point":
                V0 = h.default_initial_field(spec, grid)
                return h.policy_evaluation_fixed_point(spec, grid, policy, entry.controls,
                                                       V0, cfg)
            if call == "direct":
                return h.policy_evaluation_direct(spec, grid, policy, entry.controls, cfg)
            backend = call.removeprefix("pi_")
            return h.policy_iteration(spec, grid, entry.controls,
                                      dataclasses.replace(cfg, eval_backend=backend))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError) as raised:
                run()
        assert str(raised.value) == f"non-finite stage cost at node {node} under control 0"

    def test_overflowing_evaluation_update_names_its_first_node(self):
        """Finite stage costs of 1.7e308 where x > 0.3, on a field of 1.7e308
        with dt = 1: the discounted sum overflows, and the first sweep's scan
        names the lowest node whose update, taken one node at a time, is
        not finite (node 49)."""
        entry = h.catalog("test2_vdp")
        grid = entry.spec.domain_grid(9)

        def running_cost(points, a):
            cost = np.array(entry.spec.running_cost(points, a), dtype=float)
            cost[np.asarray(points)[..., 0] > 0.3] = 1.7e308
            return cost

        spec = dataclasses.replace(entry.spec, running_cost=running_cost)
        cfg = h.SolverConfig(dt=1.0)
        a = entry.controls.vectors[0]
        V0 = h.ValueField.full(grid, 1.7e308)
        sweeper = _Sweeper(spec, grid, entry.controls, cfg)
        start = sweeper.pinned_copy(V0)
        with np.errstate(over="ignore"):
            updates = [math.exp(-spec.kind.lam * cfg.dt)
                       * h.interpolate(start, x + cfg.dt * spec.dynamics(x, a),
                                       spec.exterior_value)
                       + cfg.dt * float(running_cost(x[None, :], a)[0])
                       for x in grid.nodes()]
            node = next(i for i, q in enumerate(updates)
                        if not sweeper.pinned[i] and not math.isfinite(q))
            with pytest.raises(SolverError) as raised:
                h.policy_evaluation_fixed_point(spec, grid, h.PolicyField.constant(grid, 0),
                                                entry.controls, V0, cfg)
        assert math.isfinite(max(running_cost(grid.nodes(), a)))
        assert str(raised.value) == f"non-finite evaluation update at node {node}"

    def test_backend_agreement_minimum_time(self, solved):
        entry = solved.entry("test4_eik2d")
        V, P, rep = solved.vi("test4_eik2d", 41)
        cfg = h.SolverConfig(dt=entry.dt_for(V.grid))
        eps = cfg.epsilon(V.grid)
        Vfp, m, ok = h.policy_evaluation_fixed_point(
            entry.spec, V.grid, P, entry.controls, V, cfg
        )
        Vd, _ = h.policy_evaluation_direct(entry.spec, V.grid, P, entry.controls, cfg)
        assert h.sup_diff(Vfp, Vd) <= 2 * eps

    @pytest.mark.xfail(
        strict=True,
        reason="residual-based stopping leaves a one-sided gap of order "
        "eps*gamma/(1-gamma), far above 2*eps for slow discounting; "
        "see the decisions ledger",
    )
    def test_backend_agreement_discounted(self, solved):
        entry = solved.entry("test1_1d")
        V, P, rep = solved.vi("test1_1d", 81)
        cfg = h.SolverConfig(dt=entry.dt_for(V.grid))
        eps = cfg.epsilon(V.grid)
        Vfp, m, ok = h.policy_evaluation_fixed_point(
            entry.spec, V.grid, P, entry.controls, V, cfg
        )
        Vd, _ = h.policy_evaluation_direct(entry.spec, V.grid, P, entry.controls, cfg)
        assert h.sup_diff(Vfp, Vd) <= 2 * eps


class TestPolicyImprovement:
    def test_quadratic_stage_cost_picks_zero(self):
        spec = ProblemSpec(
            state_dim=1,
            dynamics=lambda pts, a: np.zeros_like(pts),
            running_cost=lambda pts, a: np.full(pts.shape[0], float(a[0]) ** 2),
            kind=InfiniteHorizon(1.0),
            lower=(0.0,),
            upper=(1.0,),
            exterior_value=0.0,
        )
        grid = spec.domain_grid(9)
        controls = h.discretize_control_box([(-1.0, 1.0)], [3])  # -1, 0, 1
        _, policy = h.bellman_update(spec, grid, h.ValueField.full(grid, 0.0),
                                     controls, h.SolverConfig(dt=0.1))
        assert np.all(policy.indices == 1)

    def test_minimum_time_tie_breaks_low(self):
        entry = h.catalog("test4_eik2d", control_count=16)
        grid = entry.spec.domain_grid(21)
        dt = entry.dt_for(grid)
        _, policy = h.bellman_update(entry.spec, grid, h.ValueField.full(grid, 0.0),
                                     entry.controls, h.SolverConfig(dt=dt))
        nodes = grid.nodes()
        interior = np.max(np.abs(nodes), axis=1) < 1.0 - dt
        mask = h.target_mask(entry.spec, grid)
        check = interior & ~mask
        assert np.all(policy.indices[check] == 0)

    def test_greedy_consistency_with_vi(self, solved):
        entry = solved.entry("test1_1d")
        V, P, rep = solved.vi("test1_1d", 81)
        _, again = h.bellman_update(entry.spec, V.grid, V, entry.controls,
                                    h.SolverConfig(dt=entry.dt_for(V.grid)))
        assert np.array_equal(again.indices, P.indices)


class TestPolicyIteration:
    def test_converges_on_kinked_problem(self, solved):
        V, P, rep = solved.pi("test1_1d", 161)
        assert rep.converged
        mid = V.grid.num_nodes // 2
        assert abs(V.values[mid] - 1.5) < 5e-2
        assert len(rep.sub_iteration_history) == rep.outer_iterations

    @pytest.mark.xfail(
        strict=True,
        reason="value iteration stops eps*gamma/(1-gamma) below the discrete "
        "fixed point and policy iteration lands above it, so the mutual gap "
        "exceeds 2*eps on slowly discounted problems; see the decisions ledger",
    )
    def test_matches_vi_within_two_eps(self, solved):
        entry = solved.entry("test1_1d")
        Vv, _, _ = solved.vi("test1_1d", 161)
        Vp, _, _ = solved.pi("test1_1d", 161)
        eps = h.SolverConfig(dt=entry.dt_for(Vv.grid)).epsilon(Vv.grid)
        assert h.sup_diff(Vv, Vp) <= 2 * eps

    def test_outer_iteration_band_321(self, solved):
        V, P, rep = solved.pi("test1_1d", 321)
        assert rep.converged
        assert 46 <= rep.outer_iterations <= 84  # 65 +- 30%

    def test_oracle_policy_converges_fast(self, solved):
        entry = solved.entry("test1_1d")
        grid = entry.spec.domain_grid(161)
        cfg = h.SolverConfig(dt=entry.dt_for(grid))
        exact = h.ValueField(grid, entry.exact_value(grid.nodes()))
        V, P, rep = h.policy_iteration(entry.spec, grid, entry.controls, cfg,
                                       V_init=exact)
        assert rep.converged
        assert rep.outer_iterations <= 3

    def test_direct_backend_monotone_after_first_iterate(self):
        entry = h.catalog("test2_vdp", control_count=8)
        grid = entry.spec.domain_grid(21)
        cfg = h.SolverConfig(dt=entry.dt_for(grid), eval_backend="direct")
        eps = cfg.epsilon(grid)
        iterates = []
        h.policy_iteration(entry.spec, grid, entry.controls, cfg,
                           on_iterate=lambda f: iterates.append(f.values.copy()))
        worst = max(
            float(np.max(b - a)) for a, b in zip(iterates, iterates[1:])
        )
        assert worst <= 10 * eps

    def test_report_counts_capped_evaluations(self):
        entry = h.catalog("test2_vdp")
        grid = entry.spec.domain_grid(41)
        cfg = h.SolverConfig(dt=entry.dt_for(grid), max_iterations=10, workers=1)
        _, _, rep = h.policy_iteration(entry.spec, grid, entry.controls, cfg)
        assert rep.converged
        assert rep.sub_iteration_history[:3] == [100, 100, 87]
        assert cfg.inner_cap() == 100
        assert rep.capped_evaluations == 2
        assert "\ncapped_evaluations = 2\n" in rep.to_text()
        # without a capped evaluation the field stays None and is not written
        cfg = dataclasses.replace(cfg, max_iterations=20000)
        _, _, rep = h.policy_iteration(entry.spec, grid, entry.controls, cfg)
        assert rep.sub_iteration_history[:3] == [128, 116, 87]
        assert max(rep.sub_iteration_history) < cfg.inner_cap()
        assert rep.capped_evaluations is None
        assert "capped_evaluations" not in rep.to_text()

    @pytest.mark.parametrize("name", ["test2_vdp", "test4_eik2d"])
    def test_value_guess_starts_from_its_greedy_policy(self, name):
        # The first evaluation from V_init = V is the fixed-point evaluation,
        # from V, of V's greedy policy.
        entry = h.catalog(name, control_count=8)
        grid = entry.spec.domain_grid(21)
        cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=1)
        V, _, _ = h.value_iteration(entry.spec, grid, entry.controls,
                                    dataclasses.replace(cfg, max_iterations=3))
        iterates = []
        _, _, rep = h.policy_iteration(entry.spec, grid, entry.controls, cfg, V,
                                       on_iterate=lambda f: iterates.append(f.values))
        _, greedy = h.bellman_update(entry.spec, grid, V, entry.controls, cfg)
        W, _, _ = h.policy_evaluation_fixed_point(entry.spec, grid, greedy,
                                                  entry.controls, V, cfg)
        assert iterates[0].tobytes() == W.values.tobytes()
        # the greedy sweep counts as one more improvement sweep
        active = grid.num_nodes - np.count_nonzero(_Sweeper(
            entry.spec, grid, entry.controls, cfg).pinned)
        assert rep.node_updates == active * (sum(rep.sub_iteration_history)
                                             + (rep.outer_iterations + 1) * 8)

    @pytest.mark.parametrize("backend", ["fixed_point", "direct"])
    @pytest.mark.parametrize("name", ["test2_vdp", "test4_eik2d", "heat3_rom"])
    def test_one_sweep_evaluation_reuses_the_bellman_sweep(self, name, backend,
                                                           monkeypatch):
        """A fixed-point evaluation whose first sweep meets the test is the
        Bellman sweep that chose its policy: it builds no frozen-policy
        rows, still counts one sweep, and the run has the bits of one that
        builds them.  The direct backend builds them for every evaluation."""
        entry = h.catalog(name)
        fine = entry.spec.domain_grid(21)
        coarse = entry.spec.domain_grid(11)
        cfg = h.SolverConfig(dt=entry.dt_for(fine), workers=1, eval_backend=backend)
        Vc, _, _ = h.value_iteration(entry.spec, coarse, entry.controls,
                                     h.SolverConfig(dt=entry.dt_for(coarse), workers=1))
        guess = h.prolongate(Vc, fine)
        built = []
        policy_rows, evaluate = _Sweeper.policy_rows, _Sweeper.evaluate

        def counted(self, policy):
            built.append(1)
            return policy_rows(self, policy)

        def solve():
            built.clear()
            V, P, rep = h.policy_iteration(entry.spec, fine, entry.controls, cfg, guess)
            return (V.values.tobytes(), P.indices.tobytes(), rep.residual_history,
                    rep.sub_iteration_history, rep.node_updates, rep.policy_changes,
                    rep.bellman_residual)

        monkeypatch.setattr(_Sweeper, "policy_rows", counted)
        reused = solve()
        subs = reused[3]
        assert len(built) == (len(subs) - subs.count(1) if backend == "fixed_point"
                              else len(subs))
        monkeypatch.setattr(_Sweeper, "evaluate",
                            lambda self, *args, first=None: evaluate(self, *args))
        rebuilt = solve()
        assert len(built) == len(subs)
        assert reused == rebuilt
        if backend == "fixed_point":
            assert subs[-1] == 1


class TestApiSolve:
    def test_fine_phase_band_161(self, solved):
        V, P, rep = solved.api("test4_eik2d", 161)
        assert rep.converged
        fine = rep.phases["fine"]
        coarse = rep.phases["coarse"]
        assert 2 <= fine.outer_iterations <= 4  # table value 3 +- 30%
        assert coarse.outer_iterations >= 1
        assert rep.outer_iterations == fine.outer_iterations + coarse.outer_iterations
        assert rep.node_updates == fine.node_updates + coarse.node_updates

    def test_matches_vi_within_summed_tolerances(self, solved):
        entry = solved.entry("test1_1d")
        Vv, _, _ = solved.vi("test1_1d", 161)
        Va, _, _ = solved.api("test1_1d", 161)
        fine_grid = Vv.grid
        coarse_grid = entry.spec.domain_grid(81)
        eps_f = h.SolverConfig(dt=entry.dt_for(fine_grid)).epsilon(fine_grid)
        eps_c = h.SolverConfig(dt=entry.dt_for(coarse_grid), stop_constant=5.0).epsilon(coarse_grid)
        assert h.sup_diff(Va, Vv) <= 2 * (eps_c + eps_f)

    def test_degenerate_coupling(self):
        entry = h.catalog("test4_eik2d", control_count=16)
        fine = entry.spec.domain_grid(41)
        coarse = entry.spec.domain_grid(21)
        fcfg = h.SolverConfig(dt=entry.dt_for(fine))
        loose = h.SolverConfig(dt=entry.dt_for(coarse), stop_constant=1e9)
        V, P, rep = h.api_solve(entry.spec, coarse, fine, entry.controls, loose, fcfg)
        assert rep.phases["coarse"].outer_iterations == 1
        assert rep.converged
        Vv, _, _ = h.value_iteration(entry.spec, fine, entry.controls, fcfg)
        assert h.sup_diff(V, Vv) <= 0.02

    def test_non_nested_grids_rejected(self):
        entry = h.catalog("test4_eik2d", control_count=8)
        fine = entry.spec.domain_grid(41)
        coarse = entry.spec.domain_grid(20)
        cfg = h.SolverConfig(dt=entry.dt_for(fine))
        with pytest.raises(SolverError):
            h.api_solve(entry.spec, coarse, fine, entry.controls, cfg, cfg)

    @pytest.mark.parametrize("name", ["test2_vdp", "test4_eik2d"])
    def test_is_value_iteration_then_policy_iteration(self, name):
        entry = h.catalog(name, control_count=16)
        fine, coarse = entry.spec.domain_grid(41), entry.spec.domain_grid(21)
        fcfg = h.SolverConfig(dt=entry.dt_for(fine))
        ccfg = h.SolverConfig(dt=entry.dt_for(coarse), stop_constant=5.0)
        V, P, rep = h.api_solve(entry.spec, coarse, fine, entry.controls, ccfg, fcfg)
        Vc, _, vi = h.value_iteration(entry.spec, coarse, entry.controls, ccfg)
        W, Q, pi = h.policy_iteration(entry.spec, fine, entry.controls, fcfg,
                                      V_init=h.prolongate(Vc, fine))

        def text(report):
            return [line for line in report.to_text().splitlines()
                    if not line.startswith("algorithm") and "wall_time_seconds" not in line]

        assert V.values.tobytes() == W.values.tobytes()
        assert P.indices.tobytes() == Q.indices.tobytes()
        assert text(rep.phases["coarse"]) == text(vi)
        assert text(rep.phases["fine"]) == text(pi)
        assert rep.node_updates == vi.node_updates + pi.node_updates


# Per solver entry point: a call of it on `grid` with the value field V and
# the policy P
MISMATCH_CALLS = {
    "value_iteration": lambda e, grid, cfg, V, P: h.value_iteration(
        e.spec, grid, e.controls, cfg, V0=V),
    "policy_iteration": lambda e, grid, cfg, V, P: h.policy_iteration(
        e.spec, grid, e.controls, cfg, V_init=V),
    "bellman_update": lambda e, grid, cfg, V, P: h.bellman_update(
        e.spec, grid, V, e.controls, cfg),
    "policy_evaluation_fixed_point": lambda e, grid, cfg, V, P: h.policy_evaluation_fixed_point(
        e.spec, grid, P, e.controls, V, cfg),
    "policy_evaluation_direct": lambda e, grid, cfg, V, P: h.policy_evaluation_direct(
        e.spec, grid, P, e.controls, cfg),
}


@pytest.mark.parametrize("call,argument", [
    ("value_iteration", "field"), ("policy_iteration", "field"), ("bellman_update", "field"),
    ("policy_evaluation_fixed_point", "field"), ("policy_evaluation_fixed_point", "policy"),
    ("policy_evaluation_direct", "policy")])
@pytest.mark.parametrize("other", [(-1.0, 1.0, 11), (-1.0, 2.0, 21)])
def test_a_field_or_policy_on_another_grid_is_refused(call, argument, other):
    """Every solver entry point refuses a value field or a policy on another
    grid with sup_diff's GridError: one with fewer nodes, and one with the
    same node count on another box."""
    entry = h.catalog("test4_eik2d")
    grid = entry.spec.domain_grid(21)
    lo, hi, n = other
    elsewhere = h.RegularGrid((lo, lo), (hi, hi), (n, n))
    V, P = h.ValueField.full(grid, 0.5), h.PolicyField.constant(grid)
    if argument == "field":
        V = h.ValueField.full(elsewhere, 0.5)
    else:
        P = h.PolicyField.constant(elsewhere)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=1)
    with pytest.raises(h.GridError, match="^fields live on different grids$"):
        MISMATCH_CALLS[call](entry, grid, cfg, V, P)


@pytest.mark.parametrize("name,value", [("workers", 2.5), ("workers", "two"), ("workers", [1, 2]),
                                        ("max_iterations", 2.5), ("max_iterations", math.nan)])
def test_solver_counts_must_be_whole_numbers(name, value):
    """SolverConfig takes `workers` and `max_iterations` as grid.whole_counts
    takes a count, and holds them as int; any other value raises, naming
    the field.  A float reached range() in the sweeper and the Krylov loop,
    and max_iterations=2.5 let value iteration run 3 sweeps."""
    with pytest.raises(ValueError, match=f"^{name} must be a whole number, got "):
        h.SolverConfig(dt=0.1, **{name: value})
    cfg = h.SolverConfig(dt=0.1, workers=2.0, max_iterations=np.int64(3))
    assert (cfg.workers, cfg.max_iterations) == (2, 3)
    assert type(cfg.workers) is type(cfg.max_iterations) is int


@pytest.mark.parametrize("bad", [0.7, 2 ** 31, math.nan, 3e9])
def test_policy_indices_must_be_whole_numbers_in_int32(bad):
    """A policy index that int32 cannot hold exactly raises: 0.7 would
    become control 0 and 2^31 would wrap to -2^31."""
    grid = h.RegularGrid((0.0,), (1.0,), (5,))
    indices = np.array([0, 1, bad, 2, 0])
    with pytest.raises(ValueError, match=f"^policy index {re.escape(str(indices[2]))} at node 2 "
                                         "is not a whole number in int32$"):
        h.PolicyField(grid, indices)
    P = h.PolicyField(grid, [4.0, 3.0, 2.0, 1.0, 0.0])
    assert P.indices.dtype == np.int32 and P.indices.tolist() == [4, 3, 2, 1, 0]


class TestGreedyControl:
    def test_drives_toward_cheap_boundary(self, solved):
        entry = solved.entry("test1_1d")
        grid = entry.spec.domain_grid(161)
        V = h.ValueField(grid, entry.exact_value(grid.nodes()))
        j = h.greedy_control_index(entry.spec, V, entry.controls, np.array([0.5]),
                                   entry.dt_for(grid))
        a = entry.controls.vectors[j]
        assert a[0] == pytest.approx(1.0)

    def test_eikonal_points_at_origin(self, solved):
        entry = solved.entry("test4_eik2d")
        grid = entry.spec.domain_grid(41)
        ref = h.ValueField(grid, np.asarray(h.minimum_time_reference(entry)(grid.nodes())))
        j = h.greedy_control_index(entry.spec, ref, entry.controls, np.array([1.0, 0.0]),
                                   entry.dt_for(grid))
        a = entry.controls.vectors[j]
        assert math.cos(a[0]) < -0.99

    def test_constant_field_ties_to_index_zero(self, solved):
        entry = solved.entry("test4_eik2d")
        grid = entry.spec.domain_grid(41)
        V = h.ValueField.full(grid, 0.5)
        j = h.greedy_control_index(entry.spec, V, entry.controls,
                                   np.array([0.3, 0.2]), entry.dt_for(grid))
        assert j == 0

    def test_outside_state_rejected(self, solved):
        entry = solved.entry("test4_eik2d")
        grid = entry.spec.domain_grid(41)
        V = h.ValueField.full(grid, 0.5)
        with pytest.raises(SolverError):
            h.greedy_control_index(entry.spec, V, entry.controls, np.array([2.0, 0.0]),
                                   entry.dt_for(grid))


class TestProperties:
    def test_bellman_contraction(self, rng):
        cases = []
        e1 = h.catalog("test1_1d")
        cases.append((e1, e1.spec.domain_grid(41), math.exp(-1.0 * e1.dt_for(e1.spec.domain_grid(41)))))
        e4 = h.catalog("test4_eik2d", control_count=16)
        cases.append((e4, e4.spec.domain_grid(21), math.exp(-e4.dt_for(e4.spec.domain_grid(21)))))
        for entry, grid, gamma in cases:
            cfg = h.SolverConfig(dt=entry.dt_for(grid))
            sweeper = _Sweeper(entry.spec, grid, entry.controls, cfg)
            for _ in range(20):
                a = rng.uniform(0, 1, size=grid.num_nodes)
                b = rng.uniform(0, 1, size=grid.num_nodes)
                b[sweeper.pinned] = a[sweeper.pinned]
                fa, fb = h.ValueField(grid, a), h.ValueField(grid, b)
                ta, _ = h.bellman_update(entry.spec, grid, fa, entry.controls, cfg)
                tb, _ = h.bellman_update(entry.spec, grid, fb, entry.controls, cfg)
                assert h.sup_diff(ta, tb) <= gamma * h.sup_diff(fa, fb) + 1e-10

    def test_worker_determinism(self):
        entry = h.catalog("test4_eik2d", control_count=16)
        grid = entry.spec.domain_grid(21)
        runs = []
        for w in (1, 3):
            cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=w)
            V, P, rep = h.value_iteration(entry.spec, grid, entry.controls, cfg)
            runs.append((V.values, P.indices, rep.outer_iterations))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        assert runs[0][2] == runs[1][2]

    def test_prolongation_residual_preservation(self, solved):
        # a coarse iterate pair within eps stays within eps after transfer
        entry = solved.entry("test4_eik2d")
        coarse = entry.spec.domain_grid(21)
        fine = coarse.refined()
        cfg = h.SolverConfig(dt=entry.dt_for(coarse))
        V, P, rep = h.value_iteration(entry.spec, coarse, entry.controls, cfg)
        W, _ = h.bellman_update(entry.spec, coarse, V, entry.controls, cfg)
        r_coarse = h.sup_diff(V, W)
        r_fine = h.sup_diff(h.prolongate(V, fine), h.prolongate(W, fine))
        assert r_fine <= r_coarse + 1e-15


def held_bytes(diagonal_controls, nodes, dim, nnz, rows, sets, numbered):
    """The bytes of a stored operator: 2^d diagonals of N float64 and 2^d
    int32 offsets per control held as diagonals, 12 per CSR entry, an int32
    pointer per CSR row plus one per CSR row set, and an int32 number for
    each irregular row of a control held as diagonals."""
    return ((8 * nodes + 4) * 2 ** dim * diagonal_controls + 12 * nnz
            + 4 * (rows + sets) + 4 * numbered)


class TestRunReport:
    def test_serialization_keys(self, solved):
        _, _, rep = solved.vi("test1_1d", 81)
        text = rep.to_text()
        for key in ("algorithm = vi", "grid_shape = 81", "iterations =",
                    "node_updates =", "epsilon =", "residual_history ="):
            assert key in text

    def test_api_phases_serialized(self, solved):
        _, _, rep = solved.api("test4_eik2d", 161)
        text = rep.to_text()
        assert "coarse.algorithm = api.coarse_vi" in text
        assert "fine.algorithm = api.fine_pi" in text

    def test_operator_fields(self, solved):
        entry = solved.entry("test4_eik2d")
        _, _, vi = solved.vi("test4_eik2d", 41)
        _, _, api = solved.api("test4_eik2d", 41)
        m = len(entry.controls)
        for rep in (vi, api.phases["coarse"], api.phases["fine"]):
            assert rep.operator_stored is True
            assert rep.operator_build_wall_time_seconds > 0.0
        for rep, n in ((vi, 41), (api.phases["coarse"], 21)):
            # every heading is held as diagonals, and the rows that the
            # unshifted axis's last node clamps onto the upper face are CSR
            # rows, 4 entries each, in a row set of each of the four
            # headings along an axis
            assert rep.operator_diagonal_controls == m
            assert 0 < rep.operator_nnz < m * n ** 2 * 4 / 20
            assert rep.operator_bytes == held_bytes(m, n ** 2, 2, rep.operator_nnz,
                                                    rows=rep.operator_nnz // 4, sets=4,
                                                    numbered=rep.operator_nnz // 4)
            assert rep.operator_matrix_free_controls == 0
        # the warm-started fine PI applies its separable rows matrix-free
        fine = api.phases["fine"]
        assert fine.operator_nnz == fine.operator_bytes == fine.operator_diagonal_controls == 0
        assert fine.operator_matrix_free_controls == len(entry.controls)
        assert "\noperator_stored = True\n" in vi.to_text()
        assert (f"\noperator_matrix_free_controls = 0\noperator_diagonal_controls = {m}\n"
                in vi.to_text())
        assert f"\noperator_bytes = {vi.operator_bytes}\n" in vi.to_text()
        text = api.to_text()
        assert "fine.operator_nnz = 0\n" in text
        assert "fine.operator_diagonal_controls = 0\n" in text
        assert "coarse.operator_stored = True" in text
        assert "\noperator_stored" not in text
        # state-dependent rows stay stored, so test2_vdp's fine PI keeps the
        # operator that VI at the same grid builds
        _, _, vdp_vi = solved.vi("test2_vdp", 41)
        _, _, vdp = solved.api("test2_vdp", 41)
        vdp_fine = vdp.phases["fine"]
        assert vdp_fine.operator_stored is True
        assert vdp_fine.operator_matrix_free_controls == 0
        assert vdp_fine.operator_nnz == vdp_vi.operator_nnz > 0
        assert vdp_fine.operator_bytes == vdp_vi.operator_bytes == held_bytes(
            0, 41 ** 2, 2, vdp_vi.operator_nnz, rows=32 * 41 ** 2, sets=32, numbered=0)
        assert vdp_vi.operator_diagonal_controls == vdp_fine.operator_diagonal_controls == 0
        assert f"fine.operator_nnz = {vdp_fine.operator_nnz}\n" in vdp.to_text()

    def test_min4d_keeps_csr_rows(self, solved):
        """Each of test8_min4d's controls moves along one axis.  On each of
        the three others 2 of the 11 nodes lie in the cell below: the last,
        which clamps onto the upper face, and one that rounding puts there.
        That leaves too few regular rows for diagonals to take fewer
        bytes."""
        _, _, vi = solved.vi("test8_min4d", 11)
        assert vi.operator_separable_controls == 8
        assert vi.operator_diagonal_controls == 0
        assert vi.operator_bytes == held_bytes(0, 11 ** 4, 4, vi.operator_nnz,
                                               rows=8 * 11 ** 4, sets=8, numbered=0)
        assert "\noperator_diagonal_controls = 0\n" in vi.to_text()

    def test_operator_separable_controls(self, solved):
        _, _, vi = solved.vi("test4_eik2d", 41)
        _, _, api = solved.api("test4_eik2d", 41)
        # every heading moves all nodes alike
        for rep in (vi, api.phases["coarse"], api.phases["fine"]):
            assert rep.operator_separable_controls == rep.control_count == 64
        for rep in (vi, api.phases["fine"]):
            assert re.search("\noperator_build_wall_time_seconds = [0-9.]+\n"
                             "operator_separable_controls = 64\n", rep.to_text())
        text = api.to_text()
        assert api.operator_separable_controls is None
        assert "\noperator_separable_controls" not in text
        assert "\ncoarse.operator_separable_controls = 64\n" in text
        assert "\nfine.operator_separable_controls = 64\n" in text
        # the drift of test1_1d depends on the state
        _, _, pi = solved.pi("test1_1d", 161)
        assert pi.operator_separable_controls == 0
        assert "\noperator_separable_controls = 0\n" in pi.to_text()

    def test_workers(self, solved):
        _, _, vi = solved.vi("test4_eik2d", 41)
        _, _, api = solved.api("test4_eik2d", 41)
        # 41^2 nodes and 64 controls fit one block: nothing to spread
        for rep in (vi, api.phases["coarse"], api.phases["fine"]):
            assert rep.workers == 1
        assert "\nworkers = 1\n" in vi.to_text()
        text = api.to_text()
        assert api.workers is None and "\nworkers" not in text
        assert "\ncoarse.workers = 1\n" in text and "\nfine.workers = 1\n" in text

        # 64 controls at 161^2 are 1.66 M rows: up to three threads
        entry = h.catalog("test4_eik2d")
        grid = entry.spec.domain_grid(161)
        for w in (1, 2, 5):
            cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=w, max_iterations=2)
            _, _, rep = h.value_iteration(entry.spec, grid, entry.controls, cfg)
            assert rep.workers == min(w, 3)
            assert f"\nworkers = {rep.workers}\n" in rep.to_text()
            assert 0.0 < rep.operator_build_wall_time_seconds <= rep.wall_time_seconds

    def test_policy_changes(self, solved):
        entry = h.catalog("test4_eik2d", control_count=16)
        grid = entry.spec.domain_grid(21)
        cfg = h.SolverConfig(dt=entry.dt_for(grid))
        evaluated = []
        _, _, rep = h.policy_iteration(entry.spec, grid, entry.controls, cfg,
                                       on_iterate=evaluated.append)
        active = grid.num_nodes - int(np.count_nonzero(
            h.target_mask(entry.spec, grid)))
        assert len(rep.policy_changes) == rep.outer_iterations == len(evaluated)
        assert all(0 <= k <= active for k in rep.policy_changes)
        # recount: greedy policies of the evaluated fields, from the constant 0
        previous = np.zeros(grid.num_nodes, dtype=np.int32)
        recount = []
        for V in evaluated:
            _, pol = h.bellman_update(entry.spec, grid, V, entry.controls, cfg)
            free = pol.indices != h.solvers.UNSET_POLICY
            recount.append(int(np.count_nonzero(pol.indices[free] != previous[free])))
            previous = pol.indices
        assert rep.policy_changes == recount
        text = rep.to_text()
        assert "\npolicy_changes = " + ",".join(map(str, recount)) + "\n" in text

        _, _, vi = solved.vi("test4_eik2d", 41)
        _, _, api = solved.api("test4_eik2d", 41)
        assert vi.policy_changes is None and "policy_changes" not in vi.to_text()
        fine = api.phases["fine"]
        assert len(fine.policy_changes) == fine.outer_iterations
        assert api.policy_changes is None
        text = api.to_text()
        assert "\nfine.policy_changes = " in text
        assert "coarse.policy_changes" not in text

    def test_bellman_residual_and_gap_bound(self, solved):
        """VI and PI report rho = ||T V - V|| of their returned field and
        rho / (1 - gamma); API prints both per phase.  The fixed-point and
        direct PI fields on test1_1d at 81 each lie within their bound of
        the scheme's fixed point, so within the sum of the bounds of each
        other: criterion 9's gap as a number on every run."""
        entry = solved.entry("test1_1d")
        cfg = h.SolverConfig(dt=entry.dt_for(entry.spec.domain_grid(81)))
        gamma = h.solvers._discount(entry.spec, cfg.dt)
        runs = [solved.vi("test1_1d", 81), solved.pi("test1_1d", 81),
                solved.pi("test1_1d", 81, eval_backend="direct")]
        for V, _, rep in runs:
            T, _ = h.bellman_update(entry.spec, V.grid, V, entry.controls, cfg)
            assert rep.bellman_residual == h.sup_diff(T, V)
            assert rep.fixed_point_gap_bound == rep.bellman_residual / (1.0 - gamma)
            text = rep.to_text()
            assert f"\nbellman_residual = {rep.bellman_residual:.17g}\n" in text
            assert f"\nfixed_point_gap_bound = {rep.fixed_point_gap_bound:.17g}\n" in text
        (V_fp, _, fp), (V_d, _, d) = runs[1:]
        assert 0.0 < h.sup_diff(V_fp, V_d) <= fp.fixed_point_gap_bound + d.fixed_point_gap_bound

        _, _, api = solved.api("test4_eik2d", 41)
        assert api.bellman_residual is None
        text = api.to_text()
        for phase in ("coarse", "fine"):
            assert f"\n{phase}.bellman_residual = " in text
            assert f"\n{phase}.fixed_point_gap_bound = " in text

    def test_operator_fields_unstored(self, monkeypatch):
        """Over the budget, state-dependent rows are rebuilt in every sweep
        with the stored entries, and separable ones are applied
        matrix-free, with no entry."""
        runs = {}
        for name in ("test2_vdp", "test4_eik2d"):
            entry = h.catalog(name, control_count=8)
            grid = entry.spec.domain_grid(21)
            cfg = h.SolverConfig(dt=entry.dt_for(grid))
            _, _, stored = h.policy_iteration(entry.spec, grid, entry.controls, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(h.solvers, "_OPERATOR_NNZ_LIMIT", 0)
                _, _, unstored = h.policy_iteration(entry.spec, grid, entry.controls, cfg)
            assert stored.operator_stored is True and unstored.operator_stored is False
            assert "operator_stored = False" in unstored.to_text()
            assert stored.operator_nnz > 0
            runs[name] = stored, unstored
        stored, unstored = runs["test2_vdp"]
        assert unstored.operator_nnz == stored.operator_nnz
        assert unstored.operator_matrix_free_controls == 0
        stored, unstored = runs["test4_eik2d"]
        assert stored.operator_matrix_free_controls == 0
        assert unstored.operator_nnz == 0
        assert unstored.operator_matrix_free_controls == 8
        assert "\noperator_matrix_free_controls = 8\n" in unstored.to_text()
