"""The greedy step of feedback synthesis against the Bellman sweep, and
against the per-control loop it replaced."""

import math

import numpy as np
import pytest

import hjbsolve as h
from hjbsolve import analysis
from hjbsolve.grid import interpolate_values
from hjbsolve.problems import InfiniteHorizon, ProblemError, ProblemSpec
from hjbsolve.solvers import UNSET_POLICY, SolverError

NODE_CASES = [
    ("test1_1d", 21),
    ("test4_eik2d", 11),
    ("test2_vdp", 11),
    ("test6_eik3d", 7),
    ("heat3_rom", 7),
    ("test8_min4d", 5),
]

ROLLOUT_CASES = [
    ("test4_eik2d", 41, 3.0),
    ("test2_vdp", 41, 1.0),
    ("test6_eik3d", 21, 3.0),
    ("heat3_rom", 21, 2.0),
]


def loop_greedy_index(spec, V, controls, x, dt):
    """The greedy step written one control at a time, as it was before the
    arrivals were interpolated in one batch."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if not spec.contains(x):
        raise SolverError(f"state {x!r} lies outside the problem domain")
    if spec.minimum_time:
        discount = math.exp(-dt)
        stage = [-math.expm1(-dt)] * len(controls)
    else:
        discount = math.exp(-spec.kind.lam * dt)
        stage = [
            dt * float(np.asarray(spec.running_cost(x[None, :], a)).reshape(-1)[0])
            for a in controls.vectors
        ]
    best = math.inf
    best_j = 0
    for j, a in enumerate(controls.vectors):
        arrival = x + dt * np.asarray(spec.dynamics(x, a), dtype=float).reshape(-1)
        val = interpolate_values(
            V.grid, V.values, arrival[None, :], spec.exterior_value
        )[0]
        q = discount * val + stage[j]
        if not math.isfinite(q):
            raise SolverError(f"non-finite greedy evaluation under control {j}")
        if q < best:
            best = q
            best_j = j
    return best_j


def random_states(spec, count, rng):
    lower, upper = np.asarray(spec.lower), np.asarray(spec.upper)
    return lower + (upper - lower) * rng.uniform(size=(count, spec.state_dim))


@pytest.mark.parametrize("name,n", NODE_CASES)
def test_greedy_at_nodes_matches_policy_improvement(name, n, rng):
    entry = h.catalog(name)
    grid = entry.spec.domain_grid(n)
    dt = entry.dt_for(grid)
    V = h.ValueField(grid, rng.uniform(0.0, 1.0, grid.num_nodes))
    policy = h.bellman_update(entry.spec, grid, V, entry.controls,
                              h.SolverConfig(dt=dt))[1].indices
    active = np.flatnonzero(policy != UNSET_POLICY)
    assert active.size > 0
    greedy = [h.greedy_control_index(entry.spec, V, entry.controls, grid.nodes()[i], dt)
              for i in active]
    assert np.array_equal(greedy, policy[active])


@pytest.mark.parametrize("name,n", NODE_CASES)
def test_greedy_at_random_states_matches_loop(name, n, rng):
    entry = h.catalog(name)
    grid = entry.spec.domain_grid(n)
    dt = entry.dt_for(grid)
    V = h.ValueField(grid, rng.uniform(0.0, 1.0, grid.num_nodes))
    for x in random_states(entry.spec, 100, rng):
        assert (h.greedy_control_index(entry.spec, V, entry.controls, x, dt)
                == loop_greedy_index(entry.spec, V, entry.controls, x, dt))


@pytest.mark.parametrize("name,n,max_time", ROLLOUT_CASES)
def test_rollouts_match_loop(name, n, max_time, solved, rng, monkeypatch):
    entry = solved.entry(name)
    V, _, _ = solved.api(name, n)
    dt = entry.dt_for(V.grid)
    states = random_states(entry.spec, 3, rng) * 0.8

    def roll_out(x0):
        return h.synthesize_trajectory(entry.spec, V, entry.controls, x0, dt, max_time)

    batched = [roll_out(x0) for x0 in states]
    monkeypatch.setattr(analysis, "greedy_control_index", loop_greedy_index)
    looped = [roll_out(x0) for x0 in states]
    assert sum(len(t.samples) for t in batched) > 10
    for a, b in zip(batched, looped):
        assert [j for _, _, j in a.samples] == [j for _, _, j in b.samples]
        assert ([x.tobytes() for _, x, _ in a.samples]
                == [x.tobytes() for _, x, _ in b.samples])
        assert a.final_state.tobytes() == b.final_state.tobytes()
        assert (a.status, a.final_time) == (b.status, b.final_time)


def half_nan_spec():
    """1D, dynamics NaN for x > 0, two controls."""
    return ProblemSpec(
        state_dim=1,
        dynamics=lambda pts, a: np.where(np.asarray(pts) > 0.0, np.nan, a[0]),
        running_cost=lambda pts, a: np.ones(pts.shape[0]),
        kind=InfiniteHorizon(1.0),
        lower=(-1.0,),
        upper=(1.0,),
        exterior_value=0.0,
    )


def test_non_finite_dynamics_raise_in_greedy_as_in_sweep():
    spec = half_nan_spec()
    grid = spec.domain_grid(5)
    controls = h.ControlSet([[-1.0], [1.0]])
    V = h.ValueField.full(grid, 0.5)
    with pytest.raises(SolverError) as sweep:
        h.bellman_update(spec, grid, V, controls, h.SolverConfig(dt=0.1))
    with pytest.raises(SolverError) as greedy:
        h.greedy_control_index(spec, V, controls, np.array([0.5]), 0.1)
    assert str(greedy.value) == str(sweep.value) == "non-finite arrival under control 0"
    # where the dynamics are finite the greedy step still works
    assert h.greedy_control_index(spec, V, controls, np.array([-0.5]), 0.1) in (0, 1)


@pytest.mark.parametrize("dt", [0.0, -0.08, math.nan])
def test_greedy_rejects_a_time_step_that_is_not_positive(dt):
    """The sweeps' Euler step refuses the time step, so the greedy step
    answers no index for it: not control 0 for 0, where every arrival is
    the state itself, nor the heading opposite to dt = 0.08's for -0.08,
    nor a non-finite arrival for nan."""
    entry = h.catalog("test4_eik2d")
    grid = entry.spec.domain_grid(21)
    cfg = h.SolverConfig(dt=entry.dt_for(grid), workers=1)
    V, _, _ = h.value_iteration(entry.spec, grid, entry.controls, cfg)
    x = np.array([0.5, 0.0])
    assert h.greedy_control_index(entry.spec, V, entry.controls, x, 0.08) == 0
    with pytest.raises(ProblemError) as info:
        h.greedy_control_index(entry.spec, V, entry.controls, x, dt)
    assert str(info.value) == f"time step must be positive, got {dt}"


def test_non_finite_evaluation_names_lowest_control():
    spec = ProblemSpec(
        state_dim=1,
        dynamics=lambda pts, a: np.zeros_like(pts),
        running_cost=lambda pts, a: np.full(pts.shape[0], np.inf if a[0] > 0 else 1.0),
        kind=InfiniteHorizon(1.0),
        lower=(0.0,),
        upper=(1.0,),
        exterior_value=0.0,
    )
    grid = spec.domain_grid(5)
    controls = h.ControlSet([[0.0], [1.0], [2.0]])
    with pytest.raises(SolverError, match="non-finite greedy evaluation under control 1$"):
        h.greedy_control_index(spec, h.ValueField.full(grid, 0.0), controls,
                               np.array([0.5]), 0.1)


@pytest.mark.parametrize("x", [[0.1, 0.2, 0.3], [0.1]])
def test_a_state_of_another_dimension_is_refused(x):
    """The greedy step and the rollout refuse a state whose length is not
    the problem's state dimension, naming both."""
    entry = h.catalog("test4_eik2d")
    V = h.ValueField.full(entry.spec.domain_grid(11), 0.5)
    message = f"^state has dimension {len(x)}, problem has 2$"
    with pytest.raises(SolverError, match=message):
        h.greedy_control_index(entry.spec, V, entry.controls, x, 0.1)
    with pytest.raises(SolverError, match=message):
        h.synthesize_trajectory(entry.spec, V, entry.controls, x, 0.1, 1.0)
