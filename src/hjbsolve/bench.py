"""Experiment configuration, solver dispatch, and table/field emission.

Configs are flat key/value text with dotted keys, one assignment per line:

    problem.name = test4_eik2d
    algorithm = api
    grid.fine.nodes = 161

Everything is deterministic: re-running a config reproduces the report
numerics byte for byte (wall-time lines excluded).
"""

from __future__ import annotations

import io
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import analysis
from .grid import FIELD_FLOAT_FORMAT, ValueField, read_field_table, write_field_table
from .problems import ProblemError, catalog, catalog_defaults
from .solvers import (
    SolverConfig,
    api_solve,
    default_workers,
    policy_iteration,
    value_iteration,
)

DESK_SCALE_CAPS = {1: 1_000_001, 2: 321, 3: 81, 4: 41}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@contextmanager
def _config_errors(context="", errors=ValueError):
    """Re-raise what the problem, grid and solver settings reject as
    ConfigError, its message prefixed by `context`."""
    try:
        yield
    except errors as exc:  # ProblemError, GridError and SolverConfig's checks
        raise ConfigError(f"{context}{exc}") from None


def parse_config_text(text):
    """Parse flat `key = value` lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value
    return out


def _parse_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _parse_float(key, text):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a real number, got {text!r}") from None


def _parse_bool(key, text):
    v = text.lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _parse_ints(key, text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {text!r}") from None


def _parse_text(key, text):
    return text


def _parse_like(default, key, text):
    """`text` read as the type of `default`, a catalog builder's default: an
    int, a float, or a tuple of as many comma-separated items, each read as
    the default's item in its place."""
    if not isinstance(default, tuple):
        return (_parse_int if isinstance(default, int) else _parse_float)(key, text)
    parts = text.split(",")
    if len(parts) != len(default):
        raise ConfigError(f"{key}: expected {len(default)} comma-separated values, got {text!r}")
    return tuple(_parse_like(d, key, part) for d, part in zip(default, parts))


# The grid, solver and output keys: (ExperimentConfig field, parser).  An
# absent key leaves the field's default.
_SETTING_PARSERS = {
    "grid.fine.nodes": ("fine_nodes", _parse_ints),
    "solver.backend": ("backend", _parse_text),
    "stop.fine_constant": ("fine_constant", _parse_float),
    "stop.coarse_constant": ("coarse_constant", _parse_float),
    "solver.max_iterations": ("max_iterations", _parse_int),
    "solver.workers": ("workers", _parse_int),
    "output.field": ("write_field", _parse_bool),
    "output.errors": ("write_errors", _parse_bool),
    "limits.allow_large": ("allow_large", _parse_bool),
}


@dataclass
class ExperimentConfig:
    """An experiment: problem, algorithm, grids, and solver knobs.  The
    coarse grid of an api run has (n + 1) // 2 nodes per axis for n fine
    ones.  run_experiment checks the config before it solves."""

    problem: str
    algorithm: str
    fine_nodes: tuple
    overrides: dict = field(default_factory=dict)
    fine_constant: float = SolverConfig.stop_constant
    coarse_constant: float = 5.0
    max_iterations: int = SolverConfig.max_iterations
    backend: str = SolverConfig.eval_backend
    workers: int = field(default_factory=default_workers)
    write_field: bool = False
    write_errors: bool = True
    allow_large: bool = False

    @classmethod
    def from_text(cls, text):
        """Parse config text, a problem.* key as the type of its catalog
        default, raising ConfigError for what it cannot read; run_experiment
        checks what the values mean.  A problem.* key the problem's builder
        lacks is kept as text, for that check to name."""
        kv = parse_config_text(text)
        unknown = [key for key in sorted(kv) if key not in ("algorithm", *_SETTING_PARSERS)
                   and not key.startswith("problem.")]
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

        name = kv.pop("problem.name", None)
        if not name:
            raise ConfigError("problem.name: missing")
        with _config_errors("problem.name: "):
            defaults = catalog_defaults(name)
        if "grid.fine.nodes" not in kv:
            raise ConfigError("grid.fine.nodes: missing")
        overrides = {key[len("problem."):]: value
                     for key, value in kv.items() if key.startswith("problem.")}
        for key in overrides:
            if key in defaults:
                overrides[key] = _parse_like(defaults[key], f"problem.{key}", overrides[key])
        settings = {
            attr: parse(key, kv[key])
            for key, (attr, parse) in _SETTING_PARSERS.items() if key in kv
        }
        return cls(problem=name, algorithm=kv.get("algorithm"), overrides=overrides, **settings)

    def echo_text(self):
        """The config as text, every key that is set, which from_text reads
        back to an equal config."""
        lines = [f"problem.name = {self.problem}", f"algorithm = {self.algorithm}"]
        lines += [f"problem.{key} = {_echo(val)}" for key, val in sorted(self.overrides.items())]
        lines += [f"{key} = {_echo(value)}" for key, (attr, _) in _SETTING_PARSERS.items()
                  if (value := getattr(self, attr)) is not None]
        return "\n".join(lines) + "\n"


def _echo(value):
    """A config value as its parser reads it: sequences as comma lists."""
    return ",".join(map(str, value)) if isinstance(value, (tuple, list)) else str(value)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    report: object
    value_field: ValueField
    error_record: object = None
    files: list = field(default_factory=list)

    @property
    def converged(self):
        return self.report.converged


def _axis_counts(nodes, dim, key):
    if len(nodes) not in (1, dim):
        raise ConfigError(f"{key}: expected 1 or {dim} counts, got {len(nodes)}")
    if min(nodes) < 2:
        raise ConfigError(f"{key}: need at least 2 nodes per axis")
    return tuple(nodes) * dim if len(nodes) == 1 else tuple(nodes)


def _setup(config):
    """Check a config and build what its run needs: (entry, fine grid, coarse
    grid, fine SolverConfig, coarse SolverConfig), the coarse pair None unless
    the algorithm is api.  What the problem, a grid or the solver settings
    reject raises ConfigError, as do an algorithm other than vi, pi and api,
    a fine grid above the desk-scale cap and an api fine grid that is no
    midpoint refinement, with an even count on an axis.  Each grid's sweeper
    checks its target set."""
    if config.algorithm not in ("vi", "pi", "api"):
        raise ConfigError("algorithm: must be one of vi, pi, api")
    with _config_errors("solver: "):
        # the settings both grids share; each grid sets its own dt and stop
        solver = SolverConfig(dt=1.0, max_iterations=config.max_iterations,
                              eval_backend=config.backend, workers=config.workers)
    with _config_errors():
        entry = catalog(config.problem, **config.overrides)
    dim = entry.spec.state_dim
    fine = _axis_counts(config.fine_nodes, dim, "grid.fine.nodes")
    if config.algorithm == "api" and any(n % 2 == 0 for n in fine):
        raise ConfigError(
            "grid.fine.nodes: accelerated runs need an odd count per axis, the midpoint "
            f"refinement 2 * coarse - 1 of the coarse grid; got {fine}")
    cap = DESK_SCALE_CAPS[dim]
    if max(fine) > cap and not config.allow_large:
        raise ConfigError(
            f"grid.fine.nodes: {max(fine)} exceeds the desk-scale cap of "
            f"{cap} per axis in {dim}D; set limits.allow_large = true to override"
        )
    with _config_errors():
        fine_grid = entry.spec.domain_grid(fine)
        if config.problem == "heat3_rom" and "target_radius" not in config.overrides:
            # default target ball radius tracks the run's resolution: 2 * dx
            entry = catalog(config.problem, target_radius=2 * min(fine_grid.spacing),
                            **config.overrides)
        coarse_grid = None
        if config.algorithm == "api":
            coarse_grid = entry.spec.domain_grid(tuple((n + 1) // 2 for n in fine))

    def solver_config(label, grid, stop_constant):
        with _config_errors(f"{label} grid: "):
            cfg = replace(solver, dt=entry.dt_for(grid), stop_constant=stop_constant)
            try:
                finite = math.isfinite(cfg.epsilon(grid))
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError("the stopping tolerance stop constant * dx^2 is not "
                                 f"finite (dx = {min(grid.spacing):g})")
            return cfg

    fine_cfg = solver_config("fine", fine_grid, config.fine_constant)
    coarse_cfg = (None if coarse_grid is None
                  else solver_config("coarse", coarse_grid, config.coarse_constant))
    return entry, fine_grid, coarse_grid, fine_cfg, coarse_cfg


def run_experiment(config, out_dir=None):
    """Build the problem, run the requested algorithm, and write artifacts.

    Writes config.txt, report.txt, and optionally field.txt / errors.txt into
    out_dir (atomically, temp-then-rename).  Returns the ExperimentResult;
    convergence is reported, not raised.  A target set the first sweeper
    rejects, before any sweep, raises ConfigError.
    """
    entry, fine_grid, coarse_grid, fine_cfg, coarse_cfg = _setup(config)
    spec = entry.spec

    with _config_errors(errors=ProblemError):
        if config.algorithm == "api":
            V, _, report = api_solve(spec, coarse_grid, fine_grid, entry.controls,
                                     coarse_cfg, fine_cfg)
        else:
            solve = value_iteration if config.algorithm == "vi" else policy_iteration
            V, _, report = solve(spec, fine_grid, entry.controls, fine_cfg)

    assert math.isclose(report.epsilon, fine_cfg.epsilon(fine_grid))

    error_record = None
    if config.write_errors and entry.reference_time is not None:
        error_record = analysis.error_vs_reference(
            V, analysis.minimum_time_reference(entry)
        )

    result = ExperimentResult(config, report, V, error_record)

    def emit(name, write):
        path = os.path.join(out_dir, name)
        _write_atomic(path, write)
        result.files.append(path)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        emit("config.txt", _text(config.echo_text()))
        emit("report.txt", _text(report.to_text()))
        if config.write_field:
            emit("field.txt", partial(write_field_table, V))
        if error_record is not None:
            emit("errors.txt", _text(
                "nodes dx l1_error sup_error\n"
                f"{'x'.join(str(n) for n in fine_grid.nodes_per_axis)} "
                f"{error_record.dx:.17g} {error_record.l1_error:.17g} "
                f"{error_record.sup_error:.17g}\n"))
    return result


def _write_atomic(path, write):
    """Write `path` through a temporary file that replaces it once
    `write(fh)` returns; the temporary file is removed if it raises."""
    tmp = path + ".tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            write(fh)
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def _text(text):
    """A writer for _write_atomic that writes `text`."""
    return lambda fh: fh.write(text)


def load_result_field(result_dir):
    """Rebuild the grid from a result directory's config echo and load its
    exported field table."""
    with open(os.path.join(result_dir, "config.txt")) as fh:
        config = ExperimentConfig.from_text(fh.read())
    entry, fine_grid, *_ = _setup(config)
    field_path = os.path.join(result_dir, "field.txt")
    if not os.path.exists(field_path):
        raise ConfigError(
            f"{result_dir} has no field.txt; re-run with output.field = true"
        )
    with open(field_path) as fh, _config_errors(f"{field_path}: "):
        return entry, fine_grid, read_field_table(fh, fine_grid)


def slice_field(field, axis, coordinate):
    """Axis-aligned slice through the nearest node plane.

    Returns (header, rows): the remaining coordinate columns plus the value,
    in flat row-major order over the remaining axes.
    """
    grid = field.grid
    if not 0 <= axis < grid.dim:
        raise ConfigError(f"slice axis {axis} out of range for a {grid.dim}D grid")
    coordinate = float(coordinate)
    if not grid.lower[axis] <= coordinate <= grid.upper[axis]:
        raise ConfigError(
            f"slice coordinate {coordinate} outside domain "
            f"[{grid.lower[axis]}, {grid.upper[axis]}] on axis {axis}"
        )
    coords = grid.axis_coords(axis)
    plane = int(np.argmin(np.abs(coords - coordinate)))
    values = field.reshaped()
    taken = np.take(values, plane, axis=axis)

    other_axes = [i for i in range(grid.dim) if i != axis]
    header = " ".join([f"x{i + 1}" for i in other_axes] + ["value"])
    mesh = np.meshgrid(*[grid.axis_coords(i) for i in other_axes], indexing="ij")
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack([m.reshape(-1) for m in mesh] + [taken.reshape(-1)]),
               fmt=FIELD_FLOAT_FORMAT)
    return header, buf.getvalue().splitlines()


def export_field(result_dir, fmt, out_path, slice_axis=None, slice_value=None):
    """Post-process a result directory: full table copy or an axis slice."""
    entry, grid, field = load_result_field(result_dir)
    if fmt == "table":
        _write_atomic(out_path, partial(write_field_table, field))
    elif fmt == "slice":
        if slice_axis is None or slice_value is None:
            raise ConfigError("slice export needs --slice axis=value")
        header, rows = slice_field(field, slice_axis, slice_value)
        _write_atomic(out_path, _text(header + "\n" + "\n".join(rows) + "\n"))
    else:
        raise ConfigError(f"unknown export format {fmt!r}")
    return out_path


# Suite rows per problem: (fine axis count, large?).
_PAPER_ROWS = {
    "test1_1d": [(81, False), (161, False), (321, False)],
    "test2_vdp": [(81, False), (161, True), (321, True)],
    "test3_dubins": [(41, False), (81, True)],
    "test4_eik2d": [(41, False), (81, False), (161, False), (321, True)],
    "test5_eik2d_disk": [(65, False), (129, False), (257, True)],
    "test6_eik3d": [(41, False), (81, True)],
    "test7_eik3d_spheres": [(61, False)],
    "test8_min4d": [(21, False), (41, True)],
    "heat3_rom": [(21, False), (41, False), (81, True)],
}

_RATES_SIZES = (41, 81, 161, 321)


def _experiment(problem, algorithm, nodes, workers, backend="fixed_point", **overrides):
    cfg = ExperimentConfig(
        problem=problem,
        algorithm=algorithm,
        fine_nodes=(nodes,),
        overrides=overrides,
        backend=backend,
        write_errors=False,
    )
    if workers is not None:
        cfg.workers = workers
    return cfg


def run_suite(name, out_dir, workers=None, include_large=False, only=None):
    """Run the suite `name`, one of SUITES, and write its tables.

    `workers` defaults to the available CPUs.  `only` restricts paper_tables
    to the named problems; an unknown suite or problem name, an `only` that
    names none, or `only` on rates, is a ConfigError raised before anything
    is written.  Partial failures are recorded per row and the suite
    continues.  Returns True when every attempted row succeeded.
    """
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; valid suites: {', '.join(SUITES)}")
    run = SUITES[name]
    if only is not None:
        if name != "paper_tables":
            raise ConfigError(f"--only applies to paper_tables, not {name}")
        unknown = sorted(set(only) - set(_PAPER_ROWS))
        if unknown or not only:
            named = f"unknown problem(s) {', '.join(unknown)}" if unknown else "names no problem"
            raise ConfigError(f"--only: {named}; valid problems: {', '.join(_PAPER_ROWS)}")
        run = partial(run, only=only)
    os.makedirs(out_dir, exist_ok=True)
    return run(out_dir, workers, include_large)


def _run_paper_tables(out_dir, workers, include_large, only=None):
    ok = True
    for problem, rows in _PAPER_ROWS.items():
        if only is not None and problem not in only:
            continue
        lines = ["nodes dx algorithm wall_seconds iterations node_updates epsilon converged"]
        for nodes, large in rows:
            if large and not include_large:
                continue
            for algorithm in ("vi", "pi", "api"):
                # Even axis counts cannot nest a coarse grid; note 5 uses
                # 2^k + 1 style sizes so the accelerated runs stay nested.
                try:
                    cfg = _experiment(problem, algorithm, nodes, workers)
                    result = run_experiment(cfg)
                    rep = result.report
                    dim = result.value_field.grid.dim
                    lines.append(
                        f"{nodes}^{dim} {rep.dx:.17g} {algorithm} "
                        f"{rep.wall_time_seconds:.3f} {rep.outer_iterations} "
                        f"{rep.node_updates} {rep.epsilon:.17g} {rep.converged}"
                    )
                except Exception as exc:  # noqa: BLE001 - suite must continue
                    ok = False
                    lines.append(f"{nodes} - {algorithm} error: {exc}")
        _write_atomic(os.path.join(out_dir, f"table_{problem}.txt"),
                      _text("\n".join(lines) + "\n"))
    return ok


def _run_rates(out_dir, workers, include_large):
    """One row per size of _RATES_SIZES, in order; a row's rates are taken
    against the next size when both succeeded, else shown as '-'."""
    records = {}
    for nodes in _RATES_SIZES:
        try:
            # The direct evaluation backend lands the fine phase on the
            # discrete fixed point; the fixed-point backend's stopping gap
            # would otherwise dominate the coarse-grid error rows.
            cfg = _experiment("test4_eik2d", "api", nodes, workers,
                              backend="direct", control_count=64)
            cfg.write_errors = True
            records[nodes] = run_experiment(cfg).error_record
        except Exception as exc:  # noqa: BLE001
            records[nodes] = exc
    lines = ["nodes dx l1_error l1_rate sup_error sup_rate"]
    for nodes, finer in zip(_RATES_SIZES, _RATES_SIZES[1:] + (None,)):
        rec, next_rec = records[nodes], records.get(finer)
        if isinstance(rec, Exception):
            lines.append(f"{nodes}^2 - error: {rec}")
            continue
        l1r = supr = "-"
        if isinstance(next_rec, analysis.ErrorRecord):
            l1r, supr = (f"{r:.2f}" for r in analysis.convergence_rates([rec, next_rec])[0])
        lines.append(
            f"{nodes}^2 {rec.dx:.17g} {rec.l1_error:.3e} {l1r} "
            f"{rec.sup_error:.3e} {supr}"
        )
    _write_atomic(os.path.join(out_dir, "table_rates.txt"), _text("\n".join(lines) + "\n"))
    return not any(isinstance(rec, Exception) for rec in records.values())


# The suites by name: each runner takes (out_dir, workers, include_large).
SUITES = {"paper_tables": _run_paper_tables, "rates": _run_rates}
