"""The bytes of `RunReport.to_text`, the text of a run's report.txt.

Small solves (value iteration, cold policy iteration on both evaluation
backends, accelerated policy iteration on both) are written to text in a
subprocess pinned to OPENBLAS_NUM_THREADS=1, since BiCGStab's sums follow
the OpenBLAS thread count, and compared with the texts stored in
report_text_golden.json, wall-time lines aside.  Like the same-bits ledger,
the comparison needs the ledger host's sin, cos and exp; another host skips
it.  Hand-built reports pin the formatting of edge values.

Regenerate the stored texts, after a change that is meant to move them, with

    PYTHONPATH=src python tests/test_report_text.py --write

and say in CHANGES.md why they moved.
"""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hjbsolve as h
from hjbsolve.solvers import RunReport
from test_same_bits import LEDGER, SRC, primitives_digest

GOLDEN = pathlib.Path(__file__).with_name("report_text_golden.json")


def _solve(run):
    """The report of one small run: 'algorithm/problem[/backend]'."""
    algorithm, name, *backend = run.split("/")
    entry = h.catalog(name)
    fine = entry.spec.domain_grid(11)

    def config(grid, **kw):
        return h.SolverConfig(dt=entry.dt_for(grid), workers=1, **kw)

    if algorithm == "vi":
        return h.value_iteration(entry.spec, fine, entry.controls, config(fine))[2]
    fine_config = config(fine, eval_backend=backend[0])
    if algorithm == "pi":
        return h.policy_iteration(entry.spec, fine, entry.controls, fine_config)[2]
    coarse = entry.spec.domain_grid(6)
    return h.api_solve(entry.spec, coarse, fine, entry.controls,
                       config(coarse, stop_constant=5.0), fine_config)[2]


RUNS = ("vi/test4_eik2d", "pi/test2_vdp/fixed_point", "pi/test2_vdp/direct",
        "api/test4_eik2d/fixed_point", "api/test2_vdp/direct")


def without_wall_times(text):
    return "".join(line for line in text.splitlines(keepends=True)
                   if "_seconds = " not in line)


def texts():
    return {run: without_wall_times(_solve(run).to_text()) for run in RUNS}


def pinned_texts():
    """texts(), from a subprocess pinned to one OpenBLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, __file__, "--texts"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_solve_reports_match_the_stored_texts():
    if primitives_digest() != json.loads(LEDGER.read_text())["primitives"]:
        pytest.skip("this host's sin/cos/exp give other bits than the ledger's host")
    stored = json.loads(GOLDEN.read_text())
    assert pinned_texts() == stored


def _bare(**kw):
    """A hand-built report with every optional field left unset."""
    return RunReport(**{
        "algorithm": "vi", "grid_shape": (3,), "dx": -0.0, "dt": 1e-300,
        "control_count": 1, "epsilon": 5e-324, "outer_iterations": 0,
        "node_updates": 0, "wall_time_seconds": 0.0, "converged": False, **kw})


def test_bare_report_text():
    assert _bare().to_text() == (
        "algorithm = vi\n"
        "grid_shape = 3\n"
        "dx = -0\n"
        "dt = 1e-300\n"
        "control_count = 1\n"
        "epsilon = 4.9406564584124654e-324\n"
        "iterations = 0\n"
        "sub_iterations = \n"
        "node_updates = 0\n"
        "converged = False\n"
        "wall_time_seconds = 0.000000\n"
        "residual_history = \n")


FULL = dict(
    grid_shape=(5, 9), dx=0.25, dt=0.1, control_count=2, epsilon=1e-300,
    outer_iterations=2, sub_iteration_history=[3, 0], node_updates=12345678901234567890,
    wall_time_seconds=12.5, converged=True, residual_history=[-0.0, 1e-300],
    operator_stored=False, operator_nnz=0, operator_bytes=48,
    operator_build_wall_time_seconds=2.5e-7, operator_separable_controls=2,
    operator_matrix_free_controls=2, operator_diagonal_controls=0,
    policy_changes=[], workers=3, bellman_residual=-0.0, fixed_point_gap_bound=1e-300)


def test_full_report_text():
    fine = _bare(algorithm="api.fine_pi", **FULL)
    report = _bare(algorithm="api", phases={"coarse": _bare(), "fine": fine})
    fine_text = (
        "algorithm = api.fine_pi\n"
        "grid_shape = 5,9\n"
        "dx = 0.25\n"
        "dt = 0.10000000000000001\n"
        "control_count = 2\n"
        "epsilon = 1e-300\n"
        "iterations = 2\n"
        "sub_iterations = 3,0\n"
        "node_updates = 12345678901234567890\n"
        "converged = True\n"
        "wall_time_seconds = 12.500000\n"
        "residual_history = -0,1e-300\n"
        "operator_stored = False\n"
        "operator_nnz = 0\n"
        "operator_bytes = 48\n"
        "operator_build_wall_time_seconds = 0.000000\n"
        "operator_separable_controls = 2\n"
        "operator_matrix_free_controls = 2\n"
        "operator_diagonal_controls = 0\n"
        "policy_changes = \n"
        "workers = 3\n"
        "bellman_residual = -0\n"
        "fixed_point_gap_bound = 1e-300\n")
    assert fine.to_text() == fine_text
    assert report.to_text() == (_bare(algorithm="api").to_text()
                                + prefixed("coarse", _bare().to_text())
                                + prefixed("fine", fine_text))


def prefixed(phase, text):
    return "".join(f"{phase}.{line}\n" for line in text.splitlines())


def test_one_line_per_field_in_field_order():
    """With every field set, the phases last, the text has one line per
    field, keyed by its name or metadata key, and then the phases' lines."""
    report = _bare(**FULL, phases={"coarse": _bare()})
    fields = dataclasses.fields(RunReport)
    assert [f.name for f in fields if getattr(report, f.name) is None] == []
    assert fields[-1].name == "phases"
    keys = [f.metadata.get("key", f.name) for f in fields[:-1]]
    assert {f.metadata["key"]: f.name for f in fields if "key" in f.metadata} == {
        "iterations": "outer_iterations", "sub_iterations": "sub_iteration_history"}
    lines = report.to_text().splitlines()
    assert [line.split(" = ")[0] for line in lines[:len(keys)]] == keys
    assert "\n".join(lines[len(keys):]) + "\n" == prefixed("coarse", _bare().to_text())


if __name__ == "__main__":
    if sys.argv[1:] == ["--texts"]:
        print(json.dumps(texts()))
    elif sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(pinned_texts(), indent=1) + "\n")
    else:
        sys.exit(f"usage: {sys.argv[0]} --write")
