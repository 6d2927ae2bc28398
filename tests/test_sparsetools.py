"""solvers' loader of scipy.sparse._sparsetools, each check in a fresh
interpreter.

The package runs scipy's sparse kernels from their extension file and never
initializes scipy.sparse: not on import and not in any solve, the CLI's
included.  Imported before hjbsolve or after it, scipy.sparse shares the
one kernel module that solvers calls, and its own products, subtraction and
bicgstab still run.  A folder without the extension file raises an
ImportError that names it.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_script(script, *args):
    """The last stdout line of `script` run by a fresh interpreter that
    imports hjbsolve from src/, parsed as JSON."""
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
    return json.loads(out.splitlines()[-1])


def test_solves_never_initialize_scipy_sparse(tmp_path):
    """A direct policy_evaluation_direct, every solver on both backends and
    the CLI's solve and export leave scipy.sparse uninitialized, and so
    scipy.sparse.linalg unimported, with _sparsetools the only module of
    scipy.sparse loaded."""
    seen = run_script("""
        import json
        import sys
        import hjbsolve as h
        from hjbsolve import cli

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("scipy.sparse"))

        seen = {"import": loaded()}
        entry = h.catalog("test4_eik2d", control_count=16)
        fine, coarse = entry.spec.domain_grid(11), entry.spec.domain_grid(6)
        coarse_config = h.SolverConfig(dt=entry.dt_for(coarse), stop_constant=5.0)
        direct = h.SolverConfig(dt=entry.dt_for(fine), eval_backend="direct")
        policy = h.PolicyField.constant(fine, 0)
        h.policy_evaluation_direct(entry.spec, fine, policy, entry.controls, direct)
        seen["policy_evaluation_direct"] = loaded()
        h.value_iteration(entry.spec, fine, entry.controls, h.SolverConfig(dt=direct.dt))
        seen["vi"] = loaded()
        for backend in ("fixed_point", "direct"):
            config = h.SolverConfig(dt=direct.dt, eval_backend=backend)
            h.policy_iteration(entry.spec, fine, entry.controls, config)
            seen["pi " + backend] = loaded()
            h.api_solve(entry.spec, coarse, fine, entry.controls, coarse_config, config)
            seen["api " + backend] = loaded()
        folder = sys.argv[1]
        with open(f"{folder}/config.txt", "w") as fh:
            fh.write("problem.name = test4_eik2d\\nalgorithm = api\\n"
                     "grid.fine.nodes = 11\\nproblem.control_count = 16\\n"
                     "output.field = true\\n")
        assert cli.main(["solve", "--config", f"{folder}/config.txt",
                         "--out", f"{folder}/out"]) == 0
        seen["cli solve"] = loaded()
        assert cli.main(["export", f"{folder}/out", "--format", "table"]) == 0
        seen["cli export"] = loaded()
        print(json.dumps(seen))
    """, tmp_path)
    assert list(seen) == ["import", "policy_evaluation_direct", "vi", "pi fixed_point",
                          "api fixed_point", "pi direct", "api direct", "cli solve",
                          "cli export"]
    assert all(modules == ["scipy.sparse._sparsetools"] for modules in seen.values()), seen


@pytest.mark.parametrize("order", ["scipy_first", "hjbsolve_first"])
def test_scipy_sparse_shares_the_kernel_module(order):
    """scipy.sparse, imported before hjbsolve or after it, holds the one
    _sparsetools module whose kernels solvers calls, and its CSR product,
    subtraction and bicgstab still give their results."""
    result = run_script("""
        import json
        import sys
        import numpy as np
        if sys.argv[1] == "scipy_first":
            import scipy.sparse as sp
            from hjbsolve import solvers
        else:
            from hjbsolve import solvers
            import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        from scipy.sparse import _compressed, _sparsetools

        module = sys.modules["scipy.sparse._sparsetools"]
        shared = [module is solvers._sparsetools, _sparsetools is module,
                  _compressed._sparsetools is module,
                  solvers.csr_matvec is module.csr_matvec,
                  solvers.csr_minus_csr is module.csr_minus_csr,
                  solvers.dia_matvec is module.dia_matvec]
        rng = np.random.default_rng(5)
        dense = [np.where(rng.random((30, 30)) < 0.2, rng.random((30, 30)), 0.0)
                 for _ in range(2)]
        A, B = map(sp.csr_matrix, dense)
        v = rng.random(30)
        system = sp.identity(30, format="csr") + 0.05 * A
        x, info = spla.bicgstab(system, v, rtol=0.0, atol=1e-12)
        print(json.dumps({
            "shared": shared,
            "product": float(np.max(np.abs(A @ v - dense[0] @ v))),
            "difference": ((A - B).toarray() == dense[0] - dense[1]).all().item(),
            "bicgstab": [info, float(np.max(np.abs(system @ x - v)))],
        }))
    """, order)
    assert result["shared"] == [True] * 6
    assert result["product"] < 1e-14
    assert result["difference"]
    info, residual = result["bicgstab"]
    assert info == 0 and residual < 1e-11


def test_a_folder_without_the_kernels_raises(tmp_path):
    """The loader pointed at an empty folder raises an ImportError naming
    it, and enters nothing in sys.modules."""
    result = run_script("""
        import json
        import sys
        from hjbsolve import solvers

        del sys.modules["scipy.sparse._sparsetools"]
        try:
            solvers._load_sparsetools(sys.argv[1])
        except ImportError as exc:
            message = str(exc)
        else:
            message = None
        print(json.dumps([message, "scipy.sparse._sparsetools" in sys.modules]))
    """, tmp_path)
    message, entered = result
    assert message is not None and str(tmp_path) in message
    assert not entered
    assert not any(tmp_path.iterdir())
