"""One benchmark workload in a process of its own; run.py starts it.

    python3 perfbench/workload.py MODE --workload NAME --seed N --seconds S

MODE is one of
  setup    import hjbsolve and build the problem, grids and configs;
  measure  set up, solve repeatedly for --seconds, check every field, then
           roll out the feedback law (the end-to-end metrics);
  trace    set up, probe single layers, alternate untraced and traced
           solves, and roll out under the tracer (the per-layer metrics).

The last stdout line is one JSON object.  It carries `ready`, the
`time.monotonic()` reading just before the first solver call, from which
run.py takes the set-up time.  Only the public hjbsolve API is called; the
solver sees nothing of the seed but the generated inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import hjbsolve
from hjbsolve import analysis, solvers

from spans import Tracer

# Acceptance criterion 2: L1 error of test4_eik2d at 161^2 within +-30% of
# the published 8.5e-3.
PUBLISHED_L1 = 8.5e-3
L1_BAND = (0.7 * PUBLISHED_L1, 1.3 * PUBLISHED_L1)

COARSE_STOP_CONSTANT = 5.0
ROLLOUT_RADIUS = 0.6
# Minimum-time rollouts from distance 0.6 at unit speed take 0.6 time units.
ROLLOUT_TIME_TOLERANCE = 0.1
# Closed-loop rollouts per run, from seeded initial states.
ROLLOUTS = 4
# value_iteration runs of 1 and of this many iterations give the per-sweep
# time by difference.
SWEEP_PROBE_ITERATIONS = 6
EVALUATION_PROBE_NOISE = 1e-3


@dataclasses.dataclass(frozen=True)
class Workload:
    problem: str
    fine: int
    coarse: int = 0  # 0: plain value iteration on the fine grid
    backend: str = "fixed_point"
    max_time: float = 3.0
    l1_band: tuple = None


WORKLOADS = {
    "vi_eik2d": Workload("test4_eik2d", 161, l1_band=L1_BAND),
    "api_direct_eik2d": Workload("test4_eik2d", 161, 81, backend="direct",
                                 l1_band=L1_BAND),
    "api_eik3d": Workload("test6_eik3d", 41, 21),
    "api_vdp": Workload("test2_vdp", 161, 81, max_time=1.0),
}


@dataclasses.dataclass
class Setup:
    workload: Workload
    entry: hjbsolve.CatalogEntry
    fine: hjbsolve.RegularGrid
    fine_cfg: hjbsolve.SolverConfig
    coarse: hjbsolve.RegularGrid = None
    coarse_cfg: hjbsolve.SolverConfig = None


class Ops:
    """Attempted and failed operations; every failure is kept with a reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append("; ".join(problems))


def set_up(workload):
    entry = hjbsolve.catalog(workload.problem)
    fine = entry.spec.domain_grid(workload.fine)
    fine_cfg = hjbsolve.SolverConfig(dt=entry.dt_for(fine),
                                     eval_backend=workload.backend)
    if not workload.coarse:
        return Setup(workload, entry, fine, fine_cfg)
    coarse = entry.spec.domain_grid(workload.coarse)
    coarse_cfg = hjbsolve.SolverConfig(dt=entry.dt_for(coarse),
                                       stop_constant=COARSE_STOP_CONSTANT)
    return Setup(workload, entry, fine, fine_cfg, coarse, coarse_cfg)


def solve(s, spec):
    """The workload's one public solver call.  Module attributes are looked up
    at call time, so a traced run goes through the tracer's wrappers."""
    if s.coarse is None:
        return solvers.value_iteration(spec, s.fine, s.entry.controls, s.fine_cfg)
    return solvers.api_solve(spec, s.coarse, s.fine, s.entry.controls,
                             s.coarse_cfg, s.fine_cfg)


def field_sha256(V):
    return hashlib.sha256(np.ascontiguousarray(V.values).tobytes()).hexdigest()


def reference_field(s):
    """What l1_error is measured against on the fine grid."""
    entry = s.entry
    if entry.reference_time is not None:
        exact = hjbsolve.minimum_time_reference(entry)(s.fine.nodes())
        return hjbsolve.ValueField(s.fine, exact)
    # test2_vdp has no closed form.  Use the same solve at half the
    # resolution, prolongated: l1_error is then a self-convergence estimate.
    half = s.coarse
    quarter = entry.spec.domain_grid((half.nodes_per_axis[0] + 1) // 2)
    V, _, report = solvers.api_solve(
        entry.spec, quarter, half, entry.controls,
        hjbsolve.SolverConfig(dt=entry.dt_for(quarter),
                              stop_constant=COARSE_STOP_CONSTANT),
        dataclasses.replace(s.fine_cfg, dt=entry.dt_for(half)),
    )
    if not report.converged:
        raise hjbsolve.SolverError("half-resolution reference did not converge")
    return hjbsolve.prolongate(V, s.fine)


def field_problems(s, V, report, reference, first):
    """Correctness checks on one solve; `first` is (sha256, node_updates) of
    the run's first successful solve, or None."""
    problems = []
    if not report.converged:
        problems.append("solve did not converge")
    if not np.isfinite(V.values).all():
        problems.append("field has non-finite values")
        return problems
    if first is not None and (field_sha256(V), report.node_updates) != first:
        problems.append("field or node_updates differ from the first solve")
    band = s.workload.l1_band
    l1 = hjbsolve.l1_diff(V, reference)
    if band is not None and not band[0] <= l1 <= band[1]:
        problems.append(f"l1_error {l1:.4g} outside [{band[0]:.4g}, {band[1]:.4g}]")
    return problems


def residual_over_eps(s, V):
    """||T V - V||_inf / eps from one Bellman update (not timed)."""
    TV, _ = solvers.bellman_update(s.entry.spec, s.fine, V, s.entry.controls,
                                   s.fine_cfg)
    return float(np.max(np.abs(TV.values - V.values))) / s.fine_cfg.epsilon(s.fine)


def rollout_state(s, rng):
    d = s.entry.spec.state_dim
    if s.entry.spec.minimum_time:
        # Equal distance to the target gives every seed the same step count.
        u = rng.standard_normal(d)
        return ROLLOUT_RADIUS * u / np.linalg.norm(u)
    return rng.uniform(-1.0, 1.0, d)


def rollout_problems(s, traj):
    if not s.entry.spec.minimum_time:
        if traj.status != "horizon_exceeded":
            return [f"rollout ended {traj.status} before the horizon"]
        return []
    if traj.status != "reached_target":
        return [f"rollout ended {traj.status}"]
    if abs(traj.final_time - ROLLOUT_RADIUS) > ROLLOUT_TIME_TOLERANCE * ROLLOUT_RADIUS:
        return [f"rollout took {traj.final_time:.4g}, exact time {ROLLOUT_RADIUS}"]
    return []


def roll_out(s, spec, V, x0, ops):
    """One checked rollout; returns its wall time."""
    t0 = time.perf_counter()
    traj = analysis.synthesize_trajectory(spec, V, s.entry.controls, x0,
                                          s.fine_cfg.dt, s.workload.max_time)
    elapsed = time.perf_counter() - t0
    ops.record(rollout_problems(s, traj))
    return elapsed


def repeat_for(seconds, operation):
    """Call `operation`, which returns its own wall time or None when it
    failed, until the next call would likely end after `seconds`; at least
    once.  Returns the wall times."""
    times = []
    start = time.perf_counter()
    while True:
        elapsed = operation()
        if elapsed is not None:
            times.append(elapsed)
        spent = time.perf_counter() - start
        if spent + (statistics.median(times) if times else 0.0) > seconds:
            return times


def measure(s, seconds, rng):
    states = [rollout_state(s, rng) for _ in range(ROLLOUTS)]
    ops = Ops()
    ready = time.monotonic()
    reference = reference_field(s)
    first = None  # (sha256, node_updates) of the first solve that passed
    last = None  # (field, report) of the last solve that passed

    def checked_solve():
        nonlocal first, last
        t0 = time.perf_counter()
        try:
            V, _, report = solve(s, s.entry.spec)
        except Exception as exc:  # a failed solve is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            ops.record([f"raised {type(exc).__name__}: {exc}"])
            return None
        elapsed = time.perf_counter() - t0
        problems = field_problems(s, V, report, reference, first)
        ops.record(problems)
        if not problems:
            first = first or (field_sha256(V), report.node_updates)
            last = V, report
        return elapsed

    solve_s = repeat_for(seconds, checked_solve)
    if last is None:
        raise SystemExit("no solve passed its checks: " + " | ".join(ops.failures))
    V, report = last
    rollout_s = [roll_out(s, s.entry.spec, V, x0, ops) for x0 in states]
    return {
        "ready": ready,
        "sha256": first[0],
        "solves": len(solve_s),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "rollout_s": statistics.median(rollout_s),
        "rollouts": len(rollout_s),
        "metrics": {
            "solve_s": statistics.median(solve_s),
            "node_updates": report.node_updates,
            "l1_error": hjbsolve.l1_diff(V, reference),
            "residual_over_eps": residual_over_eps(s, V),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


# ---------------------------------------------------------------- tracing

def _count_points(args, _):
    x = np.asarray(args[0])
    return {"points": int(np.prod(x.shape[:-1])) if x.ndim > 1 else 1}


def traced_spec(tracer, spec):
    cost = spec.running_cost
    return dataclasses.replace(
        spec,
        dynamics=tracer.wrap("problems.dynamics", spec.dynamics, _count_points),
        running_cost=None if cost is None else tracer.wrap("problems.running_cost", cost),
    )


def _pi_counts(args, result):
    report = result[2]
    fixed_point = args[3].eval_backend == "fixed_point"
    return {"outer": report.outer_iterations,
            "eval_sweeps": sum(report.sub_iteration_history) if fixed_point else 0}


# The module-level names hjbsolve.solvers and hjbsolve.analysis call through.
PATCHES = [
    (solvers, "api_solve", "solvers.api_solve", None),
    (solvers, "value_iteration", "solvers.value_iteration",
     lambda args, result: {"sweeps": result[2].outer_iterations}),
    (solvers, "policy_iteration", "solvers.policy_iteration", _pi_counts),
    (solvers, "policy_evaluation_direct", "solvers.policy_evaluation_direct",
     lambda args, result: {"krylov_iters": result[1]}),
    (solvers, "prolongate", "grid.prolongate", None),
    (solvers, "locate_points", "grid.locate_points",
     lambda args, result: {"points": len(args[1])}),
    (solvers, "interpolate_values", "grid.interpolate_values", None),
    (solvers, "target_mask", "problems.target_mask", None),
    (analysis, "synthesize_trajectory", "analysis.synthesize_trajectory",
     lambda args, result: {"steps": len(result.samples)}),
    (analysis, "greedy_control_index", "analysis.greedy_control_index", None),
]


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def fine_grid_probes(s, V, policy, rng, ops):
    """Isolated public calls on the workload's fine grid, outside any span."""
    spec, grid, controls, cfg = s.entry.spec, s.fine, s.entry.controls, s.fine_cfg
    random_field = hjbsolve.ValueField(grid, rng.uniform(0.0, 1.0, grid.num_nodes))
    noisy = hjbsolve.ValueField(
        grid, V.values + rng.uniform(0.0, EVALUATION_PROBE_NOISE, grid.num_nodes))

    update_s = _timed(lambda: solvers.bellman_update(
        spec, grid, random_field, controls, cfg))[0]
    sweep_s = {}
    for workers in (1, 2):
        runs = []
        for iterations in (1, SWEEP_PROBE_ITERATIONS):
            c = dataclasses.replace(cfg, workers=workers, max_iterations=iterations)
            runs.append(_timed(lambda: solvers.value_iteration(
                spec, grid, controls, c, random_field))[0])
        sweep_s[workers] = (runs[1] - runs[0]) / (SWEEP_PROBE_ITERATIONS - 1)

    eval_s, (_, sweeps, ok) = _timed(lambda: solvers.policy_evaluation_fixed_point(
        spec, grid, policy, controls, noisy, cfg))
    ops.record([] if ok else ["fixed-point evaluation probe hit its cap"])
    return {
        "solvers.operator_build_s": update_s - sweep_s[1],
        "solvers.sweep_ms": 1e3 * sweep_s[1],
        "solvers.bellman_update.w2_speedup": sweep_s[1] / sweep_s[2],
        "solvers.policy_evaluation_fixed_point.s": eval_s,
        "solvers.policy_evaluation_fixed_point.sweeps": sweeps,
        "solvers.operator_bytes": len(controls) * grid.num_nodes * 2 ** grid.dim * 16,
    }


def fixed_probes(tracer):
    """Two small traced solves run on every workload, so each layer is
    exercised on each one and the known direct-backend stall is recorded."""
    # PI's first evaluation, from its initial policy, with the direct backend
    # on test1_1d at 321 nodes: BiCGStab stalls there today.
    entry = hjbsolve.catalog("test1_1d")
    grid = entry.spec.domain_grid(321)
    cfg = hjbsolve.SolverConfig(dt=entry.dt_for(grid), eval_backend="direct")
    try:
        solvers.policy_iteration(traced_spec(tracer, entry.spec), grid,
                                 entry.controls, cfg)
    except hjbsolve.SolverError:
        pass  # counted by solvers.policy_evaluation_direct.failed
    entry = hjbsolve.catalog("test4_eik2d")
    fine, coarse = entry.spec.domain_grid(21), entry.spec.domain_grid(11)
    solvers.api_solve(
        traced_spec(tracer, entry.spec), coarse, fine, entry.controls,
        hjbsolve.SolverConfig(dt=entry.dt_for(coarse),
                              stop_constant=COARSE_STOP_CONSTANT),
        hjbsolve.SolverConfig(dt=entry.dt_for(fine)),
    )


def layer_metrics(tracer):
    t = tracer.totals()
    return {
        "solvers.value_iteration.s": t["solvers.value_iteration"]["s"],
        "solvers.value_iteration.sweeps": t["solvers.value_iteration"]["sweeps"],
        "solvers.policy_iteration.s": t["solvers.policy_iteration"]["s"],
        "solvers.policy_iteration.outer": t["solvers.policy_iteration"]["outer"],
        "solvers.policy_iteration.eval_sweeps":
            t["solvers.policy_iteration"]["eval_sweeps"],
        "solvers.policy_evaluation_direct.s": t["solvers.policy_evaluation_direct"]["s"],
        "solvers.policy_evaluation_direct.calls":
            t["solvers.policy_evaluation_direct"]["calls"],
        "solvers.policy_evaluation_direct.krylov_iters":
            t["solvers.policy_evaluation_direct"]["krylov_iters"],
        "solvers.policy_evaluation_direct.failed":
            t["solvers.policy_evaluation_direct"]["raised"],
        "solvers.api_solve.self_s": tracer.self_time(
            "solvers.api_solve", {"solvers.value_iteration", "solvers.policy_iteration"}),
        "grid.locate_points.calls": t["grid.locate_points"]["calls"],
        "grid.locate_points.points": t["grid.locate_points"]["points"],
        "grid.locate_points.s": t["grid.locate_points"]["s"],
        "grid.prolongate.s": t["grid.prolongate"]["s"],
        "grid.interpolate_values.calls": t["grid.interpolate_values"]["calls"],
        "grid.interpolate_values.s": t["grid.interpolate_values"]["s"],
        "problems.dynamics.calls": t["problems.dynamics"]["calls"],
        "problems.dynamics.points": t["problems.dynamics"]["points"],
        "problems.dynamics.s": t["problems.dynamics"]["s"],
        "problems.running_cost.calls": t["problems.running_cost"]["calls"],
        "problems.running_cost.s": t["problems.running_cost"]["s"],
        "problems.target_mask.s": t["problems.target_mask"]["s"],
        "analysis.synthesize_trajectory.s": t["analysis.synthesize_trajectory"]["s"],
        "analysis.synthesize_trajectory.steps":
            t["analysis.synthesize_trajectory"]["steps"],
        "analysis.greedy_control_index.calls":
            t["analysis.greedy_control_index"]["calls"],
    }


def trace(s, rng, spans_path, header):
    states = [rollout_state(s, rng) for _ in range(ROLLOUTS)]
    ops = Ops()
    ready = time.monotonic()
    V, policy, report = solve(s, s.entry.spec)
    reference = reference_field(s)
    ops.record(field_problems(s, V, report, reference, None))
    first = (field_sha256(V), report.node_updates)
    probes = fine_grid_probes(s, V, policy, rng, ops)

    def traced_solve(tracer):
        with tracer.patch(PATCHES):
            return _timed(lambda: solve(s, traced_spec(tracer, s.entry.spec)))

    # Untraced and traced solves alternate after the first, which pays the
    # one-off costs; the spans come from the first traced solve only.
    tracer = Tracer()
    untraced_s, traced_s = [], []
    for spans in (tracer, Tracer()):
        elapsed, (V, _, report) = _timed(lambda: solve(s, s.entry.spec))
        untraced_s.append(elapsed)
        ops.record(field_problems(s, V, report, reference, first))
        elapsed, (V, _, report) = traced_solve(spans)
        traced_s.append(elapsed)
        ops.record(field_problems(s, V, report, reference, first))

    spec = traced_spec(tracer, s.entry.spec)
    with tracer.patch(PATCHES):
        for x0 in states:
            roll_out(s, spec, V, x0, ops)
        fixed_probes(tracer)
    tracer.write(spans_path, header)

    metrics = layer_metrics(tracer)
    metrics.update(probes)
    metrics["trace.solve_s"] = statistics.mean(traced_s)
    metrics["trace.overhead_s"] = statistics.mean(traced_s) - statistics.mean(untraced_s)
    return {
        "ready": ready,
        "sha256": first[0],
        "solves": 5,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", help="trace mode: where to write the spans")
    parser.add_argument("--header", default="{}", help="trace mode: JSON header")
    args = parser.parse_args(argv)

    s = set_up(WORKLOADS[args.workload])
    rng = np.random.default_rng(args.seed)
    if args.mode == "setup":
        result = {"ready": time.monotonic()}
    elif args.mode == "measure":
        result = measure(s, args.seconds, rng)
    else:
        result = trace(s, rng, args.spans, json.loads(args.header))
    result.update(hjbsolve_file=hjbsolve.__file__, numpy=np.__version__,
                  scipy=scipy.__version__)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
