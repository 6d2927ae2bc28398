"""Same-bits ledger: SHA-256 digests of small solves of every catalog problem.

Each catalog problem is solved on a small grid by value iteration, policy
iteration with fixed-point evaluation and accelerated policy iteration, at
1 and 2 workers, and by policy iteration with the direct backend in one
subprocess pinned to OPENBLAS_NUM_THREADS=1 (BiCGStab's sums follow the
OpenBLAS thread count).  A 2-worker run takes one control per block and
one thread per block, so that it runs the thread pool and the cross-block
merge even on these grids.  Per run the ledger holds the digests of the
returned field and policy, node_updates, outer_iterations and one digest
of the residual, sub-iteration and policy-change histories and Bellman
residuals of the report and its phases.

The public one-step calls are in the ledger too, on the same grids, from a
policy and a field drawn with a seed per problem: policy_evaluation_fixed_point
(field, sweep count and flag) and bellman_update (field and policy) at 1 and
2 workers, and policy_evaluation_direct (field and Krylov count) in the
pinned subprocess.

The digests depend on the host's sin, cos and exp, which numpy may take
from SIMD code that differs across CPUs.  The ledger stores a digest of
those primitives on fixed inputs, and a host whose digest differs skips
the comparison and says so.

Regenerate the ledger, after a change that is meant to move the bits, with

    PYTHONPATH=src python tests/test_same_bits.py --write

and say in CHANGES.md why the bits moved.
"""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import zlib

import numpy as np
import pytest

import hjbsolve as h
from hjbsolve import solvers

LEDGER = pathlib.Path(__file__).with_name("same_bits_ledger.json")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
# The runs of public one-step calls rather than of solvers.
ONE_STEP = ("eval_fixed_point", "eval_direct", "bellman")
# The finest grid per problem (API's fine grid); coarse grids halve it.
GRIDS = {"test1_1d": 21, "test2_vdp": 11, "test3_dubins": 7, "test4_eik2d": 11,
         "test5_eik2d_disk": 11, "test6_eik3d": 7, "test7_eik3d_spheres": 13,
         "test8_min4d": 5, "heat3_rom": 9}


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def primitives_digest():
    """A digest of np.sin, np.cos and math's sin, cos, exp and expm1 on
    fixed inputs: the primitives the catalog's dynamics, control sets,
    discounts and stage costs call."""
    x = np.linspace(-8.0, 8.0, 4099)
    parts = [np.sin(x), np.cos(x)]
    parts += [np.array([f(t) for t in x[::16]])
              for f in (math.sin, math.cos, math.exp, math.expm1)]
    return digest(b"".join(p.tobytes() for p in parts))


def run_digests(V, P, report):
    reports = [report, *(report.phases or {}).values()]
    histories = [([r.hex() for r in rep.residual_history], rep.sub_iteration_history,
                  rep.policy_changes,
                  None if rep.bellman_residual is None else rep.bellman_residual.hex())
                 for rep in reports]
    return {
        "field": digest(V.values.tobytes()),
        "policy": digest(P.indices.astype("<i4").tobytes()),
        "node_updates": report.node_updates,
        "outer_iterations": report.outer_iterations,
        "histories": digest(json.dumps(histories).encode()),
    }


def one_step_digests(entry, name, grid, algorithm, config):
    """The digests of one public one-step call from a seeded random policy
    and field on `grid`."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    policy = h.PolicyField(grid, rng.integers(0, len(entry.controls), grid.num_nodes))
    field = h.ValueField(grid, rng.uniform(0.0, 1.0, grid.num_nodes))
    if algorithm == "eval_fixed_point":
        V, sweeps, converged = h.policy_evaluation_fixed_point(
            entry.spec, grid, policy, entry.controls, field, config)
        return {"field": digest(V.values.tobytes()), "sweeps": sweeps,
                "converged": converged}
    if algorithm == "eval_direct":
        V, iterations = h.policy_evaluation_direct(entry.spec, grid, policy,
                                                   entry.controls, config)
        return {"field": digest(V.values.tobytes()), "krylov_iterations": iterations}
    V, P = h.bellman_update(entry.spec, grid, field, entry.controls, config)
    return {"field": digest(V.values.tobytes()),
            "policy": digest(P.indices.astype("<i4").tobytes())}


def solve(name, algorithm, workers):
    """The digests of one ledger run, or the error it raised."""
    entry = h.catalog(name)
    fine = entry.spec.domain_grid(GRIDS[name])

    def config(grid, **kw):
        return h.SolverConfig(dt=entry.dt_for(grid), workers=workers, **kw)

    try:
        if algorithm in ONE_STEP:
            return one_step_digests(entry, name, fine, algorithm, config(fine))
        if algorithm == "vi":
            result = h.value_iteration(entry.spec, fine, entry.controls, config(fine))
        elif algorithm == "api":
            coarse = entry.spec.domain_grid((GRIDS[name] + 1) // 2)
            result = h.api_solve(entry.spec, coarse, fine, entry.controls,
                                 config(coarse, stop_constant=5.0), config(fine))
        else:
            backend = "direct" if algorithm == "pi_direct" else "fixed_point"
            result = h.policy_iteration(entry.spec, fine, entry.controls,
                                        config(fine, eval_backend=backend))
    except h.SolverError as exc:
        return {"error": str(exc)}
    return run_digests(*result)


def ledger_runs(algorithms):
    runs = {}
    for workers in (1, 2):
        saved = solvers._BLOCK_ROWS, solvers._MIN_THREAD_ROWS
        if workers > 1:
            solvers._BLOCK_ROWS = solvers._MIN_THREAD_ROWS = 1
        try:
            for name in sorted(GRIDS):
                for algorithm in algorithms:
                    runs[f"{name}/{algorithm}/w{workers}"] = solve(name, algorithm, workers)
        finally:
            solvers._BLOCK_ROWS, solvers._MIN_THREAD_ROWS = saved
    return runs


def direct_runs():
    """The pi_direct runs, from a subprocess pinned to one OpenBLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, __file__, "--direct"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def ledger():
    return {"primitives": primitives_digest(),
            "runs": {**ledger_runs(("vi", "pi", "api", "eval_fixed_point", "bellman")),
                     **direct_runs()}}


def test_ledger_covers_the_catalog():
    assert sorted(GRIDS) == h.catalog_names()


def test_solves_match_the_ledger():
    stored = json.loads(LEDGER.read_text())
    if primitives_digest() != stored["primitives"]:
        pytest.skip("this host's sin/cos/exp give other bits than the ledger's host "
                    f"(primitives digest {primitives_digest()}, ledger "
                    f"{stored['primitives']}), so its solves cannot be compared")
    runs = ledger()["runs"]
    assert sorted(runs) == sorted(stored["runs"])
    moved = {key: (runs[key], stored["runs"][key]) for key in runs
             if runs[key] != stored["runs"][key]}
    assert not moved, f"runs whose bits moved (now, ledger): {moved}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--direct"]:
        print(json.dumps(ledger_runs(("pi_direct", "eval_direct"))))
    elif sys.argv[1:] == ["--write"]:
        LEDGER.write_text(json.dumps(ledger(), indent=1, sort_keys=True) + "\n")
    else:
        sys.exit(f"usage: {sys.argv[0]} --write")
