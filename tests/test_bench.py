import os

import numpy as np
import pytest

import hjbsolve as h
from hjbsolve import cli
from hjbsolve.bench import (
    ConfigError,
    ExperimentConfig,
    parse_config_text,
    run_experiment,
    run_suite,
    slice_field,
)
from hjbsolve.grid import RegularGrid, ValueField

SMALL_API = """
problem.name = test4_eik2d
algorithm = api
grid.fine.nodes = 41
grid.coarse.nodes = 21
problem.control_count = 16
"""


class TestConfigParsing:
    def test_key_value_lines(self):
        kv = parse_config_text("a.b = 1\n# comment\nc = two  # trailing\n")
        assert kv == {"a.b": "1", "c": "two"}

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("not a config line")

    def test_full_config(self):
        cfg = ExperimentConfig.from_text(SMALL_API)
        assert cfg.problem == "test4_eik2d"
        assert cfg.algorithm == "api"
        assert cfg.fine_nodes == (41,)
        assert cfg.coarse_nodes == (21,)
        assert cfg.overrides == {"control_count": 16}

    def test_coarse_default_derived(self):
        cfg = ExperimentConfig.from_text(
            "problem.name = test4_eik2d\nalgorithm = api\ngrid.fine.nodes = 81\n"
        )
        assert cfg.coarse_nodes == (41,)

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

    def test_non_nested_api_grids(self):
        with pytest.raises(ConfigError, match="nested"):
            ExperimentConfig.from_text(
                "problem.name = test4_eik2d\nalgorithm = api\n"
                "grid.fine.nodes = 41\ngrid.coarse.nodes = 20\n"
            )

    def test_desk_scale_cap(self):
        with pytest.raises(ConfigError, match="cap"):
            ExperimentConfig.from_text(
                "problem.name = test4_eik2d\nalgorithm = vi\ngrid.fine.nodes = 1001\n"
            )
        cfg = ExperimentConfig.from_text(
            "problem.name = test4_eik2d\nalgorithm = vi\ngrid.fine.nodes = 1001\n"
            "limits.allow_large = true\n"
        )
        assert cfg.allow_large


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
            "grid.fine.nodes = 161\ngrid.coarse.nodes = 81\n"
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

    @pytest.mark.parametrize("suite", [
        ["paper_tables", "--only", "test1_1d"], ["invariants"]])
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
        (["invariants", "--only", "test1_1d"], "--only applies to paper_tables"),
        (["rates", "--only", "test4_eik2d"], "--only applies to paper_tables"),
    ])
    def test_suite_only_is_checked(self, tmp_path, capsys, suite, expected):
        out = tmp_path / "suite"
        assert cli.main(["suite", *suite, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert expected in err
        assert not out.exists()

    # a numpy warning would print a second line on stderr
    @pytest.mark.filterwarnings("error::RuntimeWarning")
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
    ])
    def test_rejected_problem_grid_or_solver_setting(self, tmp_path, capsys, problem,
                                                     nodes, line):
        text = f"problem.name = {problem}\nalgorithm = vi\ngrid.fine.nodes = {nodes}\n{line}\n"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text(text)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_threads_default_to_the_available_cpus(self):
        cpus = len(os.sched_getaffinity(0))
        args = cli._build_parser().parse_args(["suite", "invariants"])
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


class TestSuites:
    def test_invariants_suite(self, tmp_path):
        assert run_suite("invariants", str(tmp_path))
        text = (tmp_path / "invariants.txt").read_text()
        assert "FAIL" not in text

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

    def test_unknown_suite(self, tmp_path):
        with pytest.raises(ConfigError):
            run_suite("nope", str(tmp_path))
