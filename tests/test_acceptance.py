"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Criteria 1 and 9 contain sub-checks on the slowly
discounted 1D problem that are structurally unattainable under the pinned
residual-based stopping rule; they fail honestly (details in the repository
notes).  All other criteria pass.
"""

import math
import time

import numpy as np
import pytest

import hjbsolve as h
from hjbsolve.solvers import _Sweeper


def _line(num, ok, detail):
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _check(num, ok, detail):
    _line(num, ok, detail)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_exact_solution_test1(solved):
    entry = solved.entry("test1_1d")
    t0 = time.perf_counter()
    runs = {}
    for n in (161, 321):
        runs[("vi", n)] = solved.vi("test1_1d", n)
        runs[("pi", n)] = solved.pi("test1_1d", n)
        runs[("api", n)] = solved.api("test1_1d", n)
    elapsed = time.perf_counter() - t0

    sup_errors = {}
    for (alg, n), (V, _, rep) in runs.items():
        exact = entry.exact_value(V.grid.nodes())
        sup_errors[(alg, n)] = float(np.max(np.abs(V.values - exact)))
        assert rep.converged

    problems = []
    for alg in ("vi", "pi", "api"):
        if not sup_errors[(alg, 321)] < sup_errors[(alg, 161)]:
            problems.append(f"{alg} error did not decrease under refinement")

    for n in (161, 321):
        grid = entry.spec.domain_grid(n)
        coarse = entry.spec.domain_grid((n + 1) // 2)
        eps_f = h.SolverConfig(dt=entry.dt_for(grid)).epsilon(grid)
        eps_c = h.SolverConfig(dt=entry.dt_for(coarse), stop_constant=5.0).epsilon(coarse)
        tol = {"vi": (eps_f,), "pi": (eps_f,), "api": (eps_c, eps_f)}
        pairs = [("vi", "pi"), ("vi", "api"), ("pi", "api")]
        for a, b in pairs:
            bound = 2 * (sum(tol[a]) + sum(tol[b]))
            diff = h.sup_diff(runs[(a, n)][0], runs[(b, n)][0])
            if diff > bound:
                problems.append(
                    f"{a}-{b} sup diff {diff:.2e} > 2*(sum eps) {bound:.2e} at {n}"
                )

    ok = not problems and elapsed < 10.0
    _check(1, ok, f"runtime {elapsed:.1f}s; " + ("; ".join(problems) or
           "errors decrease and all pairs within 2*(sum of stopping tolerances)"))


def test_criterion_2_rate_table(solved):
    entry = solved.entry("test4_eik2d")
    ref = h.minimum_time_reference(entry)
    paper_l1 = {41: 2.1e-2, 81: 1.4e-2, 161: 8.5e-3, 321: 5.3e-3}
    t0 = time.perf_counter()
    records = []
    for n in (41, 81, 161, 321):
        V, _, rep = solved.api("test4_eik2d", n, eval_backend="direct")
        assert rep.converged
        records.append(h.error_vs_reference(V, ref))
    elapsed = time.perf_counter() - t0

    problems = []
    for rec, n in zip(records, (41, 81, 161, 321)):
        rel = rec.l1_error / paper_l1[n] - 1.0
        if abs(rel) > 0.30:
            problems.append(f"L1 at {n}^2 off by {rel:+.0%}")
    rates = h.convergence_rates(records)
    for k, (l1_rate, _) in enumerate(rates):
        if not 0.45 <= l1_rate <= 0.85:
            problems.append(f"L1 rate {l1_rate:.2f} outside [0.45, 0.85]")
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.0f}s over budget")

    detail = (
        f"L1 errors {['%.2e' % r.l1_error for r in records]}, "
        f"rates {['%.2f' % r[0] for r in rates]}, runtime {elapsed:.0f}s"
    )
    _check(2, not problems, "; ".join(problems) or detail)


def test_criterion_3_iteration_bands(solved):
    vi_counts = {}
    for n in (41, 81, 161):
        _, _, rep = solved.vi("test4_eik2d", n)
        vi_counts[n] = rep.outer_iterations
    _, _, rep_pi = solved.pi("test1_1d", 321)
    pi_count = rep_pi.outer_iterations

    problems = []
    for n, published in ((41, 37), (81, 69), (161, 133)):
        lo, hi = 0.7 * published, 1.3 * published
        if not lo <= vi_counts[n] <= hi:
            problems.append(f"VI {n}^2 count {vi_counts[n]} outside [{lo:.0f}, {hi:.0f}]")
    if not 0.7 * 65 <= pi_count <= 1.3 * 65:
        problems.append(f"PI 321 count {pi_count} outside 65 +-30%")

    detail = f"VI counts {vi_counts} (37/69/133 bands), PI@321 {pi_count} (65 band)"
    _check(3, not problems, "; ".join(problems) or detail)


def test_criterion_4_acceleration(solved):
    _, _, vi_rep = solved.vi("test4_eik2d", 161)
    _, _, api_rep = solved.api("test4_eik2d", 161)
    fine_updates = api_rep.phases["fine"].node_updates
    ratio = fine_updates / vi_rep.node_updates
    speedup = vi_rep.wall_time_seconds / api_rep.wall_time_seconds
    ok = ratio <= 0.50 and speedup >= 2.0
    _check(4, ok,
           f"fine/VI node_updates ratio {ratio:.3f} (need <= 0.50), "
           f"wall speedup {speedup:.1f}x (need >= 2)")


def test_criterion_5_pi_monotonicity():
    cases = [("test1_1d", 161, None), ("test2_vdp", 41, None), ("test4_eik2d", 41, None)]
    problems = []
    for name, n, overrides in cases:
        entry = h.catalog(name, **(overrides or {}))
        grid = entry.spec.domain_grid(n)
        cfg = h.SolverConfig(dt=entry.dt_for(grid), eval_backend="direct")
        eps = cfg.epsilon(grid)
        iterates = []
        h.policy_iteration(entry.spec, grid, entry.controls, cfg,
                           on_iterate=lambda f: iterates.append(f.values.copy()))
        worst = max(
            (float(np.max(b - a)) for a, b in zip(iterates, iterates[1:])),
            default=0.0,
        )
        if worst > 10 * eps:
            problems.append(f"{name}: max increase {worst:.2e} > 10*eps {10 * eps:.2e}")
    _check(5, not problems, "; ".join(problems) or
           "every consecutive evaluated pair nonincreasing within 10*eps")


def test_criterion_6_contraction(rng):
    cases = [
        ("test1_1d", 41, {"control_count": 20}),
        ("test4_eik2d", 21, {"control_count": 16}),
    ]
    problems = []
    for name, n, overrides in cases:
        entry = h.catalog(name, **overrides)
        grid = entry.spec.domain_grid(n)
        cfg = h.SolverConfig(dt=entry.dt_for(grid))
        sweeper = _Sweeper(entry.spec, grid, entry.controls, cfg)
        gamma = sweeper.discount
        worst = -math.inf
        for _ in range(100):
            a = rng.uniform(0.0, 1.0, size=grid.num_nodes)
            b = rng.uniform(0.0, 1.0, size=grid.num_nodes)
            b[sweeper.pinned] = a[sweeper.pinned]
            fa, fb = h.ValueField(grid, a), h.ValueField(grid, b)
            ta, _ = h.bellman_update(entry.spec, grid, fa, entry.controls, cfg)
            tb, _ = h.bellman_update(entry.spec, grid, fb, entry.controls, cfg)
            worst = max(worst, h.sup_diff(ta, tb) - gamma * h.sup_diff(fa, fb))
        if worst > 1e-10:
            problems.append(f"{name}: contraction violated by {worst:.2e}")
    _check(6, not problems, "; ".join(problems) or
           "100 random pairs per kind contract by at least the discount factor")


def test_criterion_7_prolongation(rng):
    grids = [
        h.RegularGrid((-1.0,), (1.0,), (9,)),
        h.RegularGrid((-1.0, -1.0), (1.0, 1.0), (7, 9)),
        h.RegularGrid((0.0, 0.0, 0.0), (1.0, 2.0, 1.0), (5, 4, 3)),
    ]
    problems = []
    for g in grids:
        fine = g.refined()
        sub = [slice(None, None, 2)] * g.dim
        for _ in range(100):
            a = h.ValueField(g, rng.normal(size=g.num_nodes))
            b = h.ValueField(g, rng.normal(size=g.num_nodes))
            pa, pb = h.prolongate(a, fine), h.prolongate(b, fine)
            if not np.array_equal(pa.reshaped()[tuple(sub)].reshape(-1), a.values):
                problems.append(f"{g.dim}D coincident nodes not bitwise")
                break
            if h.sup_diff(pa, pb) > h.sup_diff(a, b):
                problems.append(f"{g.dim}D sup residual grew")
                break
        # midpoint exactness on a 1D line through a random pair
        a = h.ValueField(g, rng.normal(size=g.num_nodes))
        pa = h.prolongate(a, fine).reshaped()
        coarse_arr = a.reshaped()
        first_axis_mid = pa[tuple([1] + [0] * (g.dim - 1))]
        expected = 0.5 * (coarse_arr[tuple([0] + [0] * (g.dim - 1))]
                          + coarse_arr[tuple([1] + [0] * (g.dim - 1))])
        if abs(first_axis_mid - expected) > 1e-12:
            problems.append(f"{g.dim}D midpoint not an exact average")
    _check(7, not problems, "; ".join(problems) or
           "coincident nodes bitwise, midpoints exact, sup residual preserved")


def test_criterion_8_minimum_time_range_and_symmetry(solved):
    entry = solved.entry("test4_eik2d")
    V, P, _ = solved.vi("test4_eik2d", 41)
    problems = []
    if not (np.all(V.values >= 0.0) and np.all(V.values <= 1.0)):
        problems.append("values escape [0, 1]")
    mask = h.target_mask(entry.spec, V.grid)
    if not np.all(V.values[mask] == 0.0):
        problems.append("target nodes not exactly 0")
    sq = V.reshaped()
    transforms = [np.rot90(sq, k) for k in (1, 2, 3)] + [
        sq.T, sq[::-1], sq[:, ::-1], sq[::-1, ::-1].T,
    ]
    worst = max(float(np.max(np.abs(sq - t))) for t in transforms)
    if worst > 1e-12:
        problems.append(f"symmetry deviation {worst:.1e} > 1e-12")
    _check(8, not problems, "; ".join(problems) or
           f"range [0,1], target pinned, symmetry deviation {worst:.1e}")


def test_criterion_9_backend_equivalence(solved):
    problems = []
    for name, n in (("test1_1d", 81), ("test4_eik2d", 41)):
        entry = solved.entry(name)
        V, P, _ = solved.vi(name, n)
        cfg = h.SolverConfig(dt=entry.dt_for(V.grid))
        eps = cfg.epsilon(V.grid)
        Vfp, _, ok = h.policy_evaluation_fixed_point(
            entry.spec, V.grid, P, entry.controls, V, cfg
        )
        Vd, _ = h.policy_evaluation_direct(entry.spec, V.grid, P, entry.controls, cfg)
        diff = h.sup_diff(Vfp, Vd)
        if not ok or diff > 2 * eps:
            problems.append(f"{name}@{n}: backend gap {diff:.2e} > 2*eps {2 * eps:.2e}")
    _check(9, not problems, "; ".join(problems) or
           "fixed-point and direct evaluations agree within 2*eps")


def test_criterion_10_reduced_heat_system():
    t0 = time.perf_counter()
    problems = []
    V41 = None
    entry41 = None
    dt41 = None
    for n in (21, 41):
        dx = 2.0 / (n - 1)
        entry = h.catalog("heat3_rom", target_radius=2 * dx)
        fine = entry.spec.domain_grid(n)
        coarse = entry.spec.domain_grid((n + 1) // 2)
        fcfg = h.SolverConfig(dt=entry.dt_for(fine))
        ccfg = h.SolverConfig(dt=entry.dt_for(coarse), stop_constant=5.0)
        V, P, rep = h.api_solve(entry.spec, coarse, fine, entry.controls, ccfg, fcfg)
        if not rep.converged:
            problems.append(f"{n}^3 did not converge")
        fine_pi = rep.phases["fine"].outer_iterations
        if fine_pi > 15:
            problems.append(f"{n}^3 fine-phase iterations {fine_pi} > 15")
        if n == 41:
            V41, entry41, dt41 = V, entry, fcfg.dt
    x0 = np.array([0.5, 0.0, 0.0])
    traj = h.synthesize_trajectory(entry41.spec, V41, entry41.controls, x0, dt41,
                                   max_time=30.0)
    if traj.status != "reached_target":
        problems.append(f"trajectory status {traj.status}")
    if not np.linalg.norm(traj.final_state) < np.linalg.norm(x0):
        problems.append("final state norm did not decrease")
    elapsed = time.perf_counter() - t0
    if elapsed >= 180:
        problems.append(f"runtime {elapsed:.0f}s over budget")
    _check(10, not problems, "; ".join(problems) or
           f"API converged at 21^3/41^3, closed loop reached target, {elapsed:.0f}s")


def test_criterion_11_worker_determinism():
    # api_direct_eik2d's configuration: its 64 x 161^2 fine rows are enough
    # for a 4-worker sweep to take more than one thread
    entry = h.catalog("test4_eik2d")
    fine = entry.spec.domain_grid(161)
    coarse = entry.spec.domain_grid(81)
    runs = []
    for w in (1, 4):
        fcfg = h.SolverConfig(dt=entry.dt_for(fine), eval_backend="direct", workers=w)
        ccfg = h.SolverConfig(dt=entry.dt_for(coarse), stop_constant=5.0, workers=w)
        V, P, rep = h.api_solve(entry.spec, coarse, fine, entry.controls, ccfg, fcfg)
        runs.append((rep.phases["fine"].workers, V.values.tobytes(), P.indices.tobytes(),
                     rep.outer_iterations, tuple(rep.sub_iteration_history)))
    threads = (runs[0][0], runs[1][0])
    identical = runs[0][1:] == runs[1][1:]
    _check(11, threads[0] == 1 and threads[1] > 1 and identical,
           f"1-worker and 4-worker runs, fine phase on {threads[0]} and {threads[1]} "
           f"threads: {'bit-identical' if identical else 'results differ'}")
