import dataclasses
import inspect
import io
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest

import hjbsolve as h
from hjbsolve import bench, cli, problems, solvers
from hjbsolve.bench import (
    _echo,
    _setup,
    _write_atomic,
    ConfigError,
    ExperimentConfig,
    parse_config_text,
    run_experiment,
    run_suite,
    slice_field,
)
from hjbsolve.grid import RegularGrid, ValueField
from hjbsolve.problems import _CATALOG

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# the config keys the fields of ExperimentConfig declare, by field name
CONFIG_KEYS = {f.name: f.metadata["key"] for f in dataclasses.fields(ExperimentConfig)
               if "key" in f.metadata}

SMALL_API = """
problem.name = test4_eik2d
algorithm = api
grid.fine.nodes = 41
problem.control_count = 16
"""


class TestConfigParsing:
    def test_key_value_lines(self):
        kv = parse_config_text("a.b = 1\n# comment\nc = two  # trailing\n")
        assert kv == {"a.b": "1", "c": "two"}

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config_text("a = 1\nb = 2\n# a = 3\n\n a = 1 # the same value\n")
        assert str(info.value) == "line 5: a is already set on line 1"

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("not a config line")

    def test_full_config(self):
        cfg = ExperimentConfig.from_text(SMALL_API)
        assert cfg.problem == "test4_eik2d"
        assert cfg.algorithm == "api"
        assert cfg.fine_nodes == (41,)
        assert cfg.overrides == {"control_count": 16}

    def test_coarse_default_derived(self):
        cfg = ExperimentConfig.from_text(
            "problem.name = test4_eik2d\nalgorithm = api\ngrid.fine.nodes = 81,41\n"
        )
        assert _setup(cfg)[2].nodes_per_axis == (41, 21)

    def test_coarse_node_key_is_unknown(self):
        """The coarse grid of an api run is always the fine one's (n + 1) // 2
        per axis, so a config that sets its nodes is refused."""
        with pytest.raises(ConfigError, match="^unknown config key\\(s\\): grid.coarse.nodes$"):
            ExperimentConfig.from_text(SMALL_API + "grid.coarse.nodes = 21\n")

    def test_missing_grid_names_key(self):
        with pytest.raises(ConfigError, match="grid.fine.nodes"):
            ExperimentConfig.from_text("problem.name = test1_1d\nalgorithm = vi\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="grid.fine.node_count"):
            ExperimentConfig.from_text(
                "problem.name = test1_1d\nalgorithm = vi\ngrid.fine.node_count = 3\n"
            )

    def test_unknown_problem(self):
        with pytest.raises(ConfigError, match="problem.name"):
            ExperimentConfig.from_text(
                "problem.name = nope\nalgorithm = vi\ngrid.fine.nodes = 5\n"
            )

    def test_unknown_algorithm(self):
        """A missing or unknown algorithm is refused before the run, in a
        config read from text or built in code."""
        for cfg in (ExperimentConfig.from_text("problem.name = test1_1d\ngrid.fine.nodes = 21\n"),
                    ExperimentConfig(problem="test1_1d", algorithm="xyz", fine_nodes=(21,))):
            with pytest.raises(ConfigError, match="^algorithm: must be one of vi, pi, api$"):
                run_experiment(cfg)

    @pytest.mark.parametrize("nodes", ["40", "2", "41,40"])
    def test_non_nested_api_grids(self, nodes, tmp_path, capsys):
        """An even fine count is no midpoint refinement of a coarse grid: an
        api run refuses it, naming the key, with exit code 2."""
        text = f"problem.name = test4_eik2d\nalgorithm = api\ngrid.fine.nodes = {nodes}\n"
        with pytest.raises(ConfigError, match="^grid.fine.nodes: .* odd count per axis"):
            run_experiment(ExperimentConfig.from_text(text))
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: grid.fine.nodes: accelerated runs need an odd count")
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(_CATALOG))
    def test_override_keys_are_the_builders_parameters(self, name):
        """Every keyword parameter of a builder is a problem.* key, read as
        its default's type; a malformed value names the key, and a key the
        builder lacks is refused with the keys it accepts."""
        base = f"problem.name = {name}\nalgorithm = vi\ngrid.fine.nodes = 5\n"
        params = inspect.signature(_CATALOG[name]).parameters
        for key, param in params.items():
            default = param.default
            value = ExperimentConfig.from_text(
                f"{base}problem.{key} = {_echo(default)}\n").overrides[key]
            assert value == default and type(value) is type(default), key
            if isinstance(default, tuple):
                assert [type(v) for v in value] == [type(d) for d in default], key
            bads = ["x", _echo(default) + ",1"]
            if isinstance(default, tuple):
                bads.append(",".join("x" * len(default)))
            for bad in bads:
                with pytest.raises(ConfigError, match=f"^problem.{key}: expected "):
                    ExperimentConfig.from_text(f"{base}problem.{key} = {bad}\n")
        cfg = ExperimentConfig.from_text(f"{base}problem.bogus = 1\n")
        with pytest.raises(ConfigError) as info:
            run_experiment(cfg)
        assert str(info.value) == (
            f"unknown override(s) ['bogus'] for {name}; allowed: {sorted(params)}")

    def test_readme_lists_every_config_key(self):
        block = README.read_text().split("Config keys", 1)[1].split("```")[1]
        keys = set(CONFIG_KEYS.values())
        for builder in _CATALOG.values():
            keys |= {f"problem.{name}" for name in inspect.signature(builder).parameters}
        assert [key for key in sorted(keys) if f"{key} =" not in block] == []

    def test_readme_lists_every_report_key(self):
        section = README.read_text().split("`report.txt` has one", 1)[1].split("\n## ", 1)[0]
        keys = [f.metadata.get("key", f.name) for f in dataclasses.fields(h.RunReport)
                if f.name != "phases"]
        assert [key for key in keys if f"`{key}`" not in section] == []

    @pytest.mark.parametrize("line,message", [
        # an empty value is malformed, not missing
        ("grid.fine.nodes =", "grid.fine.nodes: expected comma-separated integers, got ''"),
        ("grid.fine.nodes = 11,", "grid.fine.nodes: expected comma-separated integers, "
                                  "got '11,'"),
        ("grid.fine.nodes = 11, x", "grid.fine.nodes: expected comma-separated integers, "
                                    "got '11, x'"),
        ("grid.fine.nodes = 1.5", "grid.fine.nodes: expected comma-separated integers, "
                                  "got '1.5'"),
        ("stop.fine_constant =", "stop.fine_constant: expected a real number, got ''"),
        ("stop.fine_constant = 1,2", "stop.fine_constant: expected a real number, got '1,2'"),
        ("stop.coarse_constant =", "stop.coarse_constant: expected a real number, got ''"),
        ("stop.coarse_constant = fast",
         "stop.coarse_constant: expected a real number, got 'fast'"),
        ("solver.max_iterations =", "solver.max_iterations: expected an integer, got ''"),
        ("solver.max_iterations = 1.5",
         "solver.max_iterations: expected an integer, got '1.5'"),
        ("solver.workers =", "solver.workers: expected an integer, got ''"),
        ("solver.workers = 2.0", "solver.workers: expected an integer, got '2.0'"),
        ("output.field =", "output.field: expected a boolean, got ''"),
        ("output.field = 2", "output.field: expected a boolean, got '2'"),
        ("output.errors =", "output.errors: expected a boolean, got ''"),
        ("output.errors = y", "output.errors: expected a boolean, got 'y'"),
        ("limits.allow_large =", "limits.allow_large: expected a boolean, got ''"),
        ("limits.allow_large = ja", "limits.allow_large: expected a boolean, got 'ja'"),
        ("problem.control_count =", "problem.control_count: expected an integer, got ''"),
        ("problem.dt_ratio = 0.8.1", "problem.dt_ratio: expected a real number, got '0.8.1'"),
        ("problem.domain =", "problem.domain: expected 2 comma-separated values, got ''"),
        # a tuple item is named as written, spaces kept
        ("problem.domain = -1, x", "problem.domain: expected a real number, got ' x'"),
    ])
    def test_malformed_value_message(self, line, message):
        key = line.split("=")[0].strip()
        base = {"problem.name": "test4_eik2d", "algorithm": "vi", "grid.fine.nodes": "11"}
        text = "".join(f"{k} = {v}\n" for k, v in base.items() if k != key) + line + "\n"
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_text(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text,message", [
        ("algorithm = vi\ngrid.fine.nodes = 11\n", "problem.name: missing"),
        ("problem.name =\nalgorithm = vi\ngrid.fine.nodes = 11\n", "problem.name: missing"),
        ("problem.name = test4_eik2d\nalgorithm = vi\n", "grid.fine.nodes: missing"),
    ])
    def test_missing_value_message(self, text, message):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_text(text)
        assert str(info.value) == message

    def test_config_echo_bytes(self, tmp_path):
        """config.txt writes every key of the config in one order, whatever
        the order and spelling of the text: booleans as True or False,
        numbers as Python prints them and lists without spaces."""
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(
            "# every key, in no particular order\n"
            "limits.allow_large = TRUE\n"
            "output.errors = Off\n"
            "output.field = yes\n"
            "solver.workers = 1\n"
            "solver.max_iterations = 500\n"
            "stop.coarse_constant = 4\n"
            "stop.fine_constant = .25\n"
            "solver.backend = fixed_point\n"
            "problem.lam = 1\n"
            "problem.boundary_value = 3.5\n"
            "problem.exterior_value = 3.5\n"
            "problem.domain = -2, 2\n"
            "problem.dt_ratio = 0.3\n"
            "problem.control_count = 8  # a comment\n"
            "grid.fine.nodes = 11, 11\n"
            "algorithm = api\n"
            "problem.name = test2_vdp\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "config.txt").read_bytes() == (
            b"problem.name = test2_vdp\n"
            b"algorithm = api\n"
            b"problem.boundary_value = 3.5\n"
            b"problem.control_count = 8\n"
            b"problem.domain = -2.0,2.0\n"
            b"problem.dt_ratio = 0.3\n"
            b"problem.exterior_value = 3.5\n"
            b"problem.lam = 1.0\n"
            b"grid.fine.nodes = 11,11\n"
            b"solver.backend = fixed_point\n"
            b"stop.fine_constant = 0.25\n"
            b"stop.coarse_constant = 4.0\n"
            b"solver.max_iterations = 500\n"
            b"solver.workers = 1\n"
            b"output.field = True\n"
            b"output.errors = False\n"
            b"limits.allow_large = True\n")

    def test_desk_scale_cap(self):
        cfg = ExperimentConfig.from_text(
            "problem.name = test4_eik2d\nalgorithm = vi\ngrid.fine.nodes = 1001\n"
        )
        with pytest.raises(ConfigError, match="cap"):
            run_experiment(cfg)
        cfg = ExperimentConfig.from_text(
            "problem.name = test4_eik2d\nalgorithm = vi\ngrid.fine.nodes = 1001\n"
            "limits.allow_large = true\n"
        )
        assert cfg.allow_large
        assert _setup(cfg)[1].nodes_per_axis == (1001, 1001)


class TestRunExperiment:
    def test_writes_artifacts(self, tmp_path):
        cfg = ExperimentConfig.from_text(SMALL_API + "output.field = true\n")
        result = run_experiment(cfg, out_dir=str(tmp_path / "run"))
        assert result.converged
        names = sorted(os.path.basename(p) for p in result.files)
        assert names == ["config.txt", "errors.txt", "field.txt", "report.txt"]
        for p in result.files:
            assert os.path.exists(p)
            assert not os.path.exists(p + ".tmp")
        buf = io.StringIO()
        h.write_field_table(result.value_field, buf)
        with open(tmp_path / "run" / "field.txt") as fh:
            assert fh.read() == buf.getvalue()

    def test_field_tables_stream_to_the_file(self, tmp_path):
        """A field table goes to its temporary file as it is written: the
        bytes of write_field_table, with less memory at the peak than the
        text takes, where a copy of the text would take twice that."""
        grid = RegularGrid((0.0, 0.0), (1.0, 1.0), (301, 301))
        field = ValueField(grid, np.random.default_rng(5).uniform(size=grid.num_nodes))
        buf = io.StringIO()
        h.write_field_table(field, buf)
        text = buf.getvalue()
        del buf
        path = tmp_path / "field.txt"
        tracemalloc.start()
        try:
            _write_atomic(str(path), partial(h.write_field_table, field))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_text() == text
        assert peak < len(text)

    def test_failed_write_leaves_no_file(self, tmp_path):
        def failing(fh):
            fh.write("x1 value\n")
            raise OSError("no space left")

        with pytest.raises(OSError, match="no space left"):
            _write_atomic(str(tmp_path / "field.txt"), failing)
        assert os.listdir(tmp_path) == []

    def test_reruns_byte_identical(self, tmp_path):
        cfg = ExperimentConfig.from_text(SMALL_API)
        texts = []
        for tag in ("a", "b"):
            result = run_experiment(cfg, out_dir=str(tmp_path / tag))
            with open(os.path.join(str(tmp_path / tag), "report.txt")) as fh:
                lines = [l for l in fh if not l.startswith("wall_time")
                         and "wall_time" not in l.split("=")[0]]
            texts.append("".join(lines))
        assert texts[0] == texts[1]

    def test_epsilon_echoed_matches_rule(self, tmp_path):
        cfg = ExperimentConfig.from_text(SMALL_API)
        result = run_experiment(cfg)
        dx = 2.0 / 40
        assert result.report.epsilon == pytest.approx(0.2 * dx * dx)

    def test_vi_experiment_converges(self):
        cfg = ExperimentConfig.from_text(
            "problem.name = test1_1d\nalgorithm = vi\ngrid.fine.nodes = 81\n"
        )
        result = run_experiment(cfg)
        assert result.converged
        assert result.report.algorithm == "vi"

    def test_api_experiment_fine_phase_band(self):
        cfg = ExperimentConfig.from_text(
            "problem.name = test4_eik2d\nalgorithm = api\n"
            "grid.fine.nodes = 161\n"
            "problem.control_count = 64\n"
        )
        result = run_experiment(cfg)
        assert result.converged
        assert 2 <= result.report.phases["fine"].outer_iterations <= 4


class TestSliceExport:
    def test_4d_slice_row_count(self):
        grid = RegularGrid((-1.0,) * 4, (1.0,) * 4, (21,) * 4)
        field = ValueField.full(grid, 0.25)
        header, rows = slice_field(field, axis=3, coordinate=0.0)
        assert header == "x1 x2 x3 value"
        assert len(rows) == 21 ** 3
        assert all(r.endswith("0.25") for r in rows[:5])

    def test_1d_field_slice_is_single_value(self):
        grid = RegularGrid((0.0,), (1.0,), (5,))
        field = ValueField(grid, np.arange(5.0))
        header, rows = slice_field(field, axis=0, coordinate=0.5)
        assert header == "value"
        assert len(rows) == 1

    def test_slice_outside_domain_rejected(self):
        grid = RegularGrid((0.0, 0.0), (1.0, 1.0), (3, 3))
        field = ValueField.full(grid, 1.0)
        with pytest.raises(ConfigError):
            slice_field(field, axis=0, coordinate=2.0)

    def test_table_and_slice_bytes(self):
        """Tables and slices write every number with 17 significant digits,
        signed zeros and extreme exponents included."""
        field = ValueField(RegularGrid((0.0, -1.0), (1.0, 1.0), (2, 2)),
                           [-0.0, 1e-300, 1e300, 0.1])
        buf = io.StringIO()
        h.write_field_table(field, buf)
        assert buf.getvalue() == ("x1 x2 value\n0 -1 -0\n0 1 1e-300\n"
                                  "1 -1 1.0000000000000001e+300\n1 1 0.10000000000000001\n")
        assert slice_field(field, axis=1, coordinate=-1.0) == (
            "x1 value", ["0 -0", "1 1.0000000000000001e+300"])
        line = ValueField(RegularGrid((0.0,), (1.0,), (3,)), [1e300, -0.0, 1e-300])
        assert slice_field(line, axis=0, coordinate=0.5) == ("value", ["-0"])

    def test_constant_field_constant_column(self):
        grid = RegularGrid((0.0, 0.0), (1.0, 1.0), (5, 5))
        field = ValueField.full(grid, 3.0)
        _, rows = slice_field(field, axis=1, coordinate=0.5)
        assert len(rows) == 5
        assert all(row.split()[-1] == "3" for row in rows)


class TestCli:
    def test_solve_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(SMALL_API + "output.field = true\n")
        out = tmp_path / "out"
        rc = cli.main(["solve", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert (out / "report.txt").exists()

    def test_export_slice(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(SMALL_API + "output.field = true\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        rc = cli.main(["export", str(out), "--format", "slice", "--slice", "x2=0",
                       "--out", str(tmp_path / "slice.txt")])
        assert rc == 0
        lines = (tmp_path / "slice.txt").read_text().splitlines()
        assert lines[0] == "x1 value"
        assert len(lines) == 42

    def test_export_full_table(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(SMALL_API + "output.field = true\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        rc = cli.main(["export", str(out), "--format", "table",
                       "--out", str(tmp_path / "table.txt")])
        assert rc == 0
        lines = (tmp_path / "table.txt").read_text().splitlines()
        assert lines[0] == "x1 x2 value"
        assert len(lines) == 1 + 41 * 41
        assert (tmp_path / "table.txt").read_text() == (out / "field.txt").read_text()

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.txt"
        cfg_path.write_text("algorithm = vi\n")
        assert cli.main(["solve", "--config", str(cfg_path)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["solve", "--config", str(tmp_path / "nope.txt")]) == 4

    @pytest.mark.parametrize("out,error", [
        ("file", "[Errno 17] File exists: "), ("file/sub", "[Errno 20] Not a directory: ")],
        ids=["a_file", "under_a_file"])
    def test_out_that_cannot_be_a_directory_is_io_error(self, tmp_path, capsys, out, error):
        (tmp_path / "file").write_text("")
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("problem.name = test1_1d\nalgorithm = vi\ngrid.fine.nodes = 11\n")
        path = str(tmp_path / out)
        assert cli.main(["solve", "--config", str(cfg_path), "--out", path]) == 4
        assert capsys.readouterr().err == f"i/o error: {error}{path!r}\n"
        assert (tmp_path / "file").read_text() == ""

    def test_solve_without_out_writes_under_results(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        pathlib.Path("cfg.txt").write_text(
            "problem.name = test1_1d\nalgorithm = vi\ngrid.fine.nodes = 11\n")
        assert cli.main(["solve", "--config", "cfg.txt"]) == 0
        out = pathlib.Path("results", "test1_1d-vi-11")
        assert capsys.readouterr().out.endswith(f"results written to {out}\n")
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "report.txt"]

    def test_non_convergence_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(
            "problem.name = test4_eik2d\nalgorithm = vi\ngrid.fine.nodes = 21\n"
            "problem.control_count = 8\nsolver.max_iterations = 2\n"
        )
        assert cli.main(["solve", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 3

    def test_solver_error_exit_code(self, tmp_path, capsys):
        # BiCGStab stalls on the first frozen-policy solve of this problem
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(
            "problem.name = test1_1d\nalgorithm = pi\ngrid.fine.nodes = 321\n"
            "solver.backend = direct\n"
        )
        assert cli.main(["solve", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: ") and err.count("\n") == 1

    def test_capped_direct_solve_is_solver_error(self, tmp_path, capsys):
        # Two outer steps cap BiCGStab at 20 iterations, far from eps / 10
        # on the first frozen-policy solve however its sums round.
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(
            "problem.name = test4_eik2d\nalgorithm = pi\ngrid.fine.nodes = 41\n"
            "solver.backend = direct\nsolver.max_iterations = 2\n"
        )
        assert cli.main(["solve", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "solver error: direct policy evaluation stalled: achieved residual "
            "2.524e+00, required 5.000e-05\n")

    @pytest.mark.parametrize("suite", [
        ["paper_tables", "--only", "test1_1d"], ["rates"]])
    def test_suite_threads_below_one_is_config_error(self, tmp_path, capsys, suite):
        out = tmp_path / "suite"
        rc = cli.main(["suite", *suite, "--threads", "0", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        # rejected before any row ran
        assert not out.exists()

    @pytest.mark.parametrize("suite,expected", [
        (["paper_tables", "--only", "nosuch"], "valid problems: test1_1d, "),
        (["paper_tables", "--only", "test1_1d,nosuch"], "unknown problem(s) nosuch;"),
        (["rates", "--only", "test4_eik2d"], "--only applies to paper_tables"),
        (["paper_tables", "--only", ""], "--only: names no problem; valid problems: "),
    ])
    def test_suite_only_is_checked(self, tmp_path, capsys, suite, expected):
        out = tmp_path / "suite"
        assert cli.main(["suite", *suite, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert expected in err
        assert not out.exists()

    def test_suite_rates_refuses_include_large(self, tmp_path, capsys):
        """rates has no rows marked large, so --include-large is refused as
        --only is, before anything is written."""
        out = tmp_path / "suite"
        assert cli.main(["suite", "rates", "--include-large", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: --include-large applies to paper_tables, not rates\n")
        assert not out.exists()

    def test_suite_invariants_is_an_invalid_choice(self, tmp_path):
        """The invariants self-check suite is gone (the acceptance and grid
        tests make its checks): argparse refuses the name with exit 2 and no
        traceback."""
        out = tmp_path / "suite"
        src = str(pathlib.Path(h.__file__).parents[1])
        run = subprocess.run([sys.executable, "-m", "hjbsolve.cli", "suite", "invariants",
                              "--out", str(out)], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == 2 and run.stdout == ""
        assert "argument name: invalid choice: 'invariants'" in run.stderr
        assert "Traceback" not in run.stderr
        assert not out.exists()

    # a numpy warning would print a second line on stderr; the warning
    # filter in pyproject.toml makes one fail the test
    @pytest.mark.parametrize("problem,nodes,line", [
        ("test2_vdp", 11, "problem.control_count = 0"),
        ("test2_vdp", 11, "problem.lam = -1"),
        ("test2_vdp", 11, "problem.domain = 1,-1"),
        ("test2_vdp", 11, "problem.dt_ratio = 0"),
        ("test2_vdp", 11, "problem.dt_ratio = nan"),
        ("test2_vdp", 11, "stop.fine_constant = 0"),
        ("test2_vdp", 1, ""),
        ("test2_vdp", 11, "problem.boundary_value = inf"),
        ("test2_vdp", 11, "problem.exterior_value = nan"),
        ("test2_vdp", 11, "problem.target_radius = 0.1"),
        ("heat3_rom", 11, "problem.target_radius = 0"),
        # no node of the 20^3 grid lies within 1e-9 of the origin
        ("heat3_rom", 20, "problem.target_radius = 1e-9"),
        # stop constant * dx^2 overflows
        ("test4_eik2d", 21, "problem.domain = 0,1e308"),
        # eps is finite, but squared node distances to the target overflow
        ("test4_eik2d", 21, "problem.domain = 0,1e155"),
        # ... or the target predicate's squared coordinates do
        ("test5_eik2d_disk", 21, "problem.domain = 0,1e155"),
        ("test7_eik3d_spheres", 21, "problem.domain = 0,1e155"),
        ("heat3_rom", 21, "problem.domain = 0,1e155"),
        # non-finite rates: a discount of e^-inf, and dt = inf * dx
        ("test2_vdp", 11, "problem.lam = inf"),
        ("test2_vdp", 11, "problem.dt_ratio = inf"),
    ])
    def test_rejected_problem_grid_or_solver_setting(self, tmp_path, capsys, problem,
                                                     nodes, line):
        text = f"problem.name = {problem}\nalgorithm = vi\ngrid.fine.nodes = {nodes}\n{line}\n"
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig.from_text(text))
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key,lines", [
        ("grid.fine.nodes", "grid.fine.nodes = 1"),
        ("grid.fine.nodes", "grid.fine.nodes = 21,0"),
    ])
    def test_rejected_node_count_names_its_key(self, tmp_path, capsys, key, lines):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"problem.name = test4_eik2d\nalgorithm = api\n{lines}\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {key}: need at least 2 nodes per axis\n")
        assert not out.exists()

    def test_echo_of_a_config_built_in_code_reads_back_equal(self):
        cfg = ExperimentConfig(
            problem="test2_vdp", algorithm="api", fine_nodes=(21, 41),
            overrides={"control_count": 4, "dt_ratio": 0.25, "domain": (-1.5, 1.5),
                       "exterior_value": 2.5, "boundary_value": 2.0, "lam": 0.5},
            fine_constant=0.3, coarse_constant=4.0, max_iterations=7, backend="direct",
            workers=3, write_field=True, write_errors=False, allow_large=True)
        default = ExperimentConfig(problem="test2_vdp", algorithm="api", fine_nodes=(21,))
        for attr in CONFIG_KEYS:
            if attr not in ("problem", "algorithm"):
                assert getattr(cfg, attr) != getattr(default, attr), attr
        assert ExperimentConfig.from_text(cfg.echo_text()) == cfg

    @pytest.mark.parametrize("verb", ["solve", "export"])
    def test_one_setup_per_run(self, exported_run, monkeypatch, verb):
        """solve and export each check and build their run once."""
        calls = []

        def counted(config):
            calls.append(config)
            return setup(config)

        setup = bench._setup
        monkeypatch.setattr(bench, "_setup", counted)
        if verb == "solve":
            argv = ["solve", "--config", str(exported_run / "config.txt"),
                    "--out", str(exported_run.parent / "again")]
        else:
            argv = ["export", str(exported_run)]
        assert cli.main(argv) == 0
        assert len(calls) == 1

    @pytest.fixture
    def mask_grids(self, monkeypatch):
        """The node counts of the grid of every target mask built, in order,
        by whichever module of the package builds it."""
        grids = []

        def counted(spec, grid):
            grids.append(grid.nodes_per_axis)
            return mask(spec, grid)

        mask = problems.target_mask
        for module in (problems, solvers, bench):
            if getattr(module, "target_mask", None) is mask:
                monkeypatch.setattr(module, "target_mask", counted)
        return grids

    @pytest.mark.parametrize("algorithm,grids", [
        ("api", [(11, 11), (21, 21)]), ("vi", [(21, 21)]), ("pi", [(21, 21)])])
    def test_solve_builds_one_target_mask_per_grid(self, tmp_path, mask_grids,
                                                    algorithm, grids):
        """The sweeper of each phase flags its grid's target, and nothing
        else does."""
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"problem.name = test4_eik2d\nalgorithm = {algorithm}\n"
                            "grid.fine.nodes = 21\nproblem.control_count = 8\n")
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        assert mask_grids == grids

    def test_export_builds_no_target_mask(self, exported_run, mask_grids):
        assert cli.main(["export", str(exported_run)]) == 0
        assert mask_grids == []

    @pytest.mark.parametrize("problem,nodes,line,error", [
        # the coarse stopping tolerance 5 * (1e154)^2 overflows first ...
        ("test4_eik2d", 21, "problem.domain = 0,1e155",
         "coarse grid: the stopping tolerance"),
        # ... and with a finite one, the coarse node (1e155, 1e155)'s
        # squared distance to the origin does
        ("test4_eik2d", 21, "problem.domain = 0,1e155\nstop.coarse_constant = 1",
         "the target set overflows on the 11x11 grid's nodes"),
        # no node of the 10^3 coarse grid lies within 1e-9 of the origin
        ("heat3_rom", 19, "problem.target_radius = 1e-9",
         "target mask is empty on the 10x10x10 grid"),
    ])
    def test_api_target_error_comes_before_any_sweep(self, tmp_path, capsys, monkeypatch,
                                                     problem, nodes, line, error):
        sweeps = []

        def counted(self, *args, **kwargs):
            sweeps.append(self.grid.nodes_per_axis)
            return sweep(self, *args, **kwargs)

        sweep = solvers._Sweeper.bellman_sweep
        monkeypatch.setattr(solvers._Sweeper, "bellman_sweep", counted)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"problem.name = {problem}\nalgorithm = api\n"
                            f"grid.fine.nodes = {nodes}\n{line}\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert error in err
        assert sweeps == []
        assert not out.exists()

    def test_repeated_key_is_config_error(self, tmp_path, capsys):
        """A key set twice is refused, naming both lines, before anything
        is solved or written."""
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(SMALL_API + "grid.fine.nodes = 13\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: line 6: grid.fine.nodes is already set on line 4\n")
        assert not out.exists()

    def test_unknown_problem_key_lists_the_accepted_ones(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(SMALL_API + "problem.foo = 1\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: unknown override(s) ['foo'] for test4_eik2d; allowed: "
            "['control_count', 'domain', 'dt_ratio', 'exterior_value']\n")
        assert not out.exists()

    def test_solve_threads_below_one_names_the_flag(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(SMALL_API)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--threads", "0",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == "configuration error: --threads: must be at least 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("line,setting", [
        ("solver.workers = 0", "workers"),
        ("solver.max_iterations = 0", "max_iterations"),
        ("solver.backend = lu", "backend"),
    ])
    def test_rejected_solver_setting_is_named_once(self, tmp_path, capsys, line, setting):
        """SolverConfig's rule, checked once for both grids of an api run."""
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(SMALL_API + line + "\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: solver: ") and err.count("\n") == 1
        assert setting in err and "grid" not in err
        assert not out.exists()

    @pytest.mark.parametrize("problem,algorithm,lines", [
        ("test2_vdp", "vi", "problem.lam = 1e-17"),
        ("test2_vdp", "pi", "problem.lam = 1e-17"),
        ("test2_vdp", "api", "problem.lam = 1e-17\nsolver.backend = direct"),
        ("test4_eik2d", "pi", "problem.dt_ratio = 1e-17"),
        ("test4_eik2d", "vi", "problem.domain = 0,1e-200"),
    ])
    def test_discount_that_rounds_to_one_is_a_solver_error(self, tmp_path, capsys, problem,
                                                           algorithm, lines):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"problem.name = {problem}\nalgorithm = {algorithm}\n"
                            f"grid.fine.nodes = 11\n{lines}\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: lam*dt = ") and err.count("\n") == 1
        assert err.endswith(" is too small: the one-step discount exp(-lam*dt) rounds to 1\n")
        assert not out.exists()

    def test_config_echo_is_the_config_that_ran(self, tmp_path, monkeypatch):
        """config.txt holds the settings of the run, --threads among them,
        and reads back to the config that ran; the text's comments are not
        kept."""
        ran = []

        def recorded(config, out_dir=None):
            ran.append(config)
            return run(config, out_dir=out_dir)

        run = cli.run_experiment
        monkeypatch.setattr(cli, "run_experiment", recorded)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("# threads come from the command line\n" + SMALL_API)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--threads", "1",
                         "--out", str(out)]) == 0
        echo = (out / "config.txt").read_text()
        assert "solver.workers = 1\n" in echo and "#" not in echo
        assert ran[0].workers == 1
        assert ExperimentConfig.from_text(echo) == ran[0]

    def test_threads_default_to_the_available_cpus(self):
        cpus = len(os.sched_getaffinity(0))
        args = cli._build_parser().parse_args(["suite", "rates"])
        assert args.threads == cpus
        assert ExperimentConfig.from_text(SMALL_API).workers == cpus
        assert ExperimentConfig(problem="test1_1d", algorithm="vi",
                                fine_nodes=(81,)).workers == cpus

    def test_export_without_field_errors(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(SMALL_API)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli.main(["export", str(out), "--format", "slice",
                         "--slice", "x1=0"]) == 2

    @pytest.fixture
    def exported_run(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("problem.name = test4_eik2d\nalgorithm = vi\n"
                            "grid.fine.nodes = 21\noutput.field = true\n")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        return out

    # NaN fails both range comparisons; let through, it slices the plane x1 = -1
    @pytest.mark.parametrize("plane", ["x1=nan", "x1=2"])
    def test_export_slice_outside_the_domain(self, exported_run, capsys, plane):
        capsys.readouterr()
        slice_path = exported_run / "slice.txt"
        assert cli.main(["export", str(exported_run), "--format", "slice",
                         "--slice", plane, "--out", str(slice_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert "outside domain" in err
        assert not slice_path.exists()

    def test_export_slice_needs_one_axis_number(self, exported_run, capsys):
        """An axis is one optional x or X and an integer: without the number,
        or with two x's, the slice is refused, and X2 and 2 take the second
        axis as x2 does."""
        slice_path = exported_run / "slice.txt"
        for plane in ("=0.5", "x=0.5", "xx2=0"):
            capsys.readouterr()
            assert cli.main(["export", str(exported_run), "--format", "slice",
                             "--slice", plane, "--out", str(slice_path)]) == 2
            err = capsys.readouterr().err
            assert err == f"configuration error: --slice: cannot parse {plane!r}\n"
            assert not slice_path.exists()
        texts = []
        for plane in ("x2=0", "X2=0", "2=0"):
            assert cli.main(["export", str(exported_run), "--format", "slice",
                             "--slice", plane, "--out", str(slice_path)]) == 0
            texts.append(slice_path.read_text())
        assert texts[0].startswith("x1 value\n") and texts[1] == texts[2] == texts[0]

    @pytest.mark.parametrize("plane,error", [
        ("x0=0", "--slice: cannot parse 'x0=0'"),
        ("0=0", "--slice: cannot parse '0=0'"),
        ("x3=0", "slice axis x3 out of range: the 2D grid's axes are x1 x2"),
        ("x2=5", "slice coordinate 5.0 outside domain [-1.0, 1.0] on axis x2"),
    ])
    def test_export_slice_errors_number_axes_from_one(self, exported_run, capsys, plane,
                                                       error):
        """The flag numbers axes from 1, as the table headers do, and so do
        its errors; axis 0 is no axis."""
        capsys.readouterr()
        slice_path = exported_run / "slice.txt"
        assert cli.main(["export", str(exported_run), "--format", "slice",
                         "--slice", plane, "--out", str(slice_path)]) == 2
        assert capsys.readouterr().err == f"configuration error: {error}\n"
        assert not slice_path.exists()

    @pytest.mark.parametrize("damage", [
        lambda lines: lines[:100],
        lambda lines: lines[:5] + ["-1 -0.8 fast"] + lines[6:],
        # the header and row count of the run, on its nodes shifted by +5
        lambda lines: lines[:1] + [" ".join([repr(float(x) + 5) for x in row.split()[:-1]]
                                            + row.split()[-1:]) for row in lines[1:]],
    ], ids=["truncated", "non_numeric_row", "another_grid"])
    def test_export_of_a_damaged_field(self, exported_run, capsys, damage):
        field_path = exported_run / "field.txt"
        lines = field_path.read_text().splitlines()
        field_path.write_text("\n".join(damage(lines)) + "\n")
        capsys.readouterr()
        out = exported_run / "export.txt"
        for fmt in ("table", "slice"):
            assert cli.main(["export", str(exported_run), "--format", fmt,
                             "--slice", "x1=0", "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: {field_path}: ")
            assert err.count("\n") == 1
            assert not out.exists()


class TestSuites:
    def test_unknown_suite_is_rejected_before_writing(self, tmp_path):
        out = tmp_path / "suite"
        with pytest.raises(ConfigError, match="^unknown suite 'nosuch'; "
                                              "valid suites: paper_tables, rates$"):
            run_suite("nosuch", str(out))
        assert not out.exists()

    def test_paper_tables_restricted(self, tmp_path):
        ok = run_suite("paper_tables", str(tmp_path), only=["test1_1d"])
        assert ok
        table = (tmp_path / "table_test1_1d.txt").read_text().splitlines()
        assert table[0].startswith("nodes dx algorithm")
        # three sizes x three algorithms
        assert len(table) == 1 + 9
        # the accelerated rows do less update work than plain value iteration
        updates = {}
        for row in table[1:]:
            nodes, _, alg, _, _, node_updates = row.split()[:6]
            updates[(nodes, alg)] = int(node_updates)
        for size in ("81^1", "161^1", "321^1"):
            assert updates[(size, "api")] < updates[(size, "vi")]

    def test_api_work_advantage_small_control_set(self):
        # three controls only: the evaluation sweeps must still keep the
        # accelerated total below plain value iteration
        dx = 2.0 / 20
        entry = h.catalog("heat3_rom", target_radius=2 * dx)
        fine = entry.spec.domain_grid(21)
        coarse = entry.spec.domain_grid(11)
        fcfg = h.SolverConfig(dt=entry.dt_for(fine))
        ccfg = h.SolverConfig(dt=entry.dt_for(coarse), stop_constant=5.0)
        _, _, vi_rep = h.value_iteration(entry.spec, fine, entry.controls, fcfg)
        _, _, api_rep = h.api_solve(entry.spec, coarse, fine, entry.controls,
                                    ccfg, fcfg)
        assert api_rep.node_updates < vi_rep.node_updates

    @pytest.mark.parametrize("failing", [9, 17])
    def test_rates_skip_a_failed_size(self, failing, tmp_path, capsys, monkeypatch):
        """A failed size gives an error row in its place and no rate against
        it; the others keep theirs, and the CLI exits 3."""
        from hjbsolve import bench

        sizes = (5, 9, 17, 33)
        run = bench.run_experiment

        def failing_run(cfg):
            if cfg.fine_nodes == (failing,):
                raise h.SolverError("injected failure")
            return run(cfg)

        monkeypatch.setattr(bench, "_RATES_SIZES", sizes)
        monkeypatch.setattr(bench, "run_experiment", failing_run)
        assert cli.main(["suite", "rates", "--out", str(tmp_path), "--threads", "1"]) == 3
        assert capsys.readouterr().out == "suite rates: completed with failures\n"
        rows = (tmp_path / "table_rates.txt").read_text().splitlines()
        assert rows[0] == "nodes dx l1_error l1_rate sup_error sup_rate"
        assert [row.split()[0] for row in rows[1:]] == [f"{n}^2" for n in sizes]
        for nodes, finer, row in zip(sizes, sizes[1:] + (None,), rows[1:]):
            fields = row.split()
            if nodes == failing:
                assert fields[1:] == ["-", "error:", "injected", "failure"]
            elif finer is None or finer == failing:
                assert fields[3] == fields[5] == "-"
            else:
                assert math.isfinite(float(fields[3])) and math.isfinite(float(fields[5]))

    def test_unknown_suite(self, tmp_path):
        with pytest.raises(ConfigError):
            run_suite("nope", str(tmp_path))
