"""Experiment configuration, solver dispatch, and table/field emission.

Configs are flat key/value text with dotted keys, one assignment per line:

    problem.name = test4_eik2d
    algorithm = api
    grid.fine.nodes = 161

Everything is deterministic: re-running a config reproduces the report
numerics byte for byte (wall-time lines excluded).
"""

import io
import math
import os
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
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
    """Parse flat `key = value` lines; '#' starts a comment.  A key may be
    set once."""
    out, first = {}, {}
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
        if key in out:
            raise ConfigError(f"line {lineno}: {key} is already set on line {first[key]}")
        out[key], first[key] = value, lineno
    return out


_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}
_EXPECTED = {bool: "a boolean", int: "an integer", float: "a real number",
             tuple[int, ...]: "comma-separated integers"}


def _read(kind, key, text):
    """`text` read as `kind`: str, bool (in any case), int, float,
    tuple[int, ...] (any number of comma-separated integers), or a tuple of
    kinds (as many comma-separated items, each read as the kind in its
    place).  What it cannot read raises ConfigError naming `key`."""
    if isinstance(kind, tuple):
        parts = text.split(",")
        if len(parts) != len(kind):
            raise ConfigError(f"{key}: expected {len(kind)} comma-separated values, got {text!r}")
        return tuple(_read(item, key, part) for item, part in zip(kind, parts))
    try:
        if kind is bool:
            return _BOOLEANS[text.lower()]
        if kind == tuple[int, ...]:
            return tuple(int(part) for part in text.split(","))
        return kind(text)  # str, int or float
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {_EXPECTED[kind]}, got {text!r}") from None


def _kind(default):
    """The kind _read reads a value replacing `default` as: its type, or a
    tuple's item kinds."""
    return tuple(map(_kind, default)) if isinstance(default, tuple) else type(default)


def _config_key(key, **kwargs):
    """An ExperimentConfig field that the line `key = value` sets."""
    return field(metadata={"key": key}, **kwargs)


@dataclass(kw_only=True)
class ExperimentConfig:
    """An experiment: problem, algorithm, grids, and solver knobs.

    The fields are the config in config.txt order: each but `overrides` is
    set by the key in its metadata, and its value is read as the field's
    type.  `overrides` holds the problem.* keys but problem.name, each read
    as the type of the catalog builder's default it replaces.  The coarse
    grid of an api run has (n + 1) // 2 nodes per axis for n fine ones.
    run_experiment checks the config before it solves; it refuses a missing
    algorithm."""

    # from_text reads each value as its field's type, so this module keeps
    # its annotations evaluated: no `from __future__ import annotations`
    problem: str = _config_key("problem.name")
    algorithm: str = _config_key("algorithm", default=None)
    overrides: dict = field(default_factory=dict)
    fine_nodes: tuple[int, ...] = _config_key("grid.fine.nodes")
    backend: str = _config_key("solver.backend", default=SolverConfig.eval_backend)
    fine_constant: float = _config_key("stop.fine_constant", default=SolverConfig.stop_constant)
    coarse_constant: float = _config_key("stop.coarse_constant", default=5.0)
    max_iterations: int = _config_key("solver.max_iterations", default=SolverConfig.max_iterations)
    workers: int = _config_key("solver.workers", default_factory=default_workers)
    write_field: bool = _config_key("output.field", default=False)
    write_errors: bool = _config_key("output.errors", default=True)
    allow_large: bool = _config_key("limits.allow_large", default=False)

    @classmethod
    def from_text(cls, text):
        """Parse config text, raising ConfigError for what it cannot read,
        the first fault in config.txt order; run_experiment checks what the
        values mean.  A problem.* key the problem's builder lacks is kept as
        text, for that check to name."""
        kv = parse_config_text(text)
        keys = {f.metadata["key"] for f in fields(cls) if "key" in f.metadata}
        unknown = [key for key in sorted(kv) if key not in keys and not key.startswith("problem.")]
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        if not kv.get("problem.name"):
            raise ConfigError("problem.name: missing")
        with _config_errors("problem.name: "):
            defaults = catalog_defaults(kv["problem.name"])
        values = {}
        for f in fields(cls):
            key = f.metadata.get("key")
            if f.name == "overrides":  # the problem.* keys that no field has
                values[f.name] = overrides = {}
                for given, text in kv.items():
                    if given not in keys:
                        name = given.removeprefix("problem.")
                        overrides[name] = (_read(_kind(defaults[name]), given, text)
                                           if name in defaults else text)
            elif key in kv:
                values[f.name] = _read(f.type, key, kv[key])
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{key}: missing")
        return cls(**values)

    def echo_text(self):
        """The config as text, every key that is set, which from_text reads
        back to an equal config."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "overrides":
                lines += [f"problem.{key} = {_echo(val)}" for key, val in sorted(value.items())]
            elif value is not None:
                lines.append(f"{f.metadata['key']} = {_echo(value)}")
        return "\n".join(lines) + "\n"


def _echo(value):
    """A config value as _read reads it: sequences as comma lists."""
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
    """Axis-aligned slice through the nearest node plane of `axis`, from 0;
    errors name the axis by its column, x1 for axis 0.

    Returns (header, rows): the remaining coordinate columns plus the value,
    in flat row-major order over the remaining axes.
    """
    grid = field.grid
    if not 0 <= axis < grid.dim:
        columns = " ".join(f"x{i + 1}" for i in range(grid.dim))
        raise ConfigError(f"slice axis x{axis + 1} out of range: the {grid.dim}D grid's "
                          f"axes are {columns}")
    coordinate = float(coordinate)
    if not grid.lower[axis] <= coordinate <= grid.upper[axis]:
        raise ConfigError(
            f"slice coordinate {coordinate} outside domain "
            f"[{grid.lower[axis]}, {grid.upper[axis]}] on axis x{axis + 1}"
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

    `workers` defaults to the available CPUs.  Of paper_tables alone,
    `include_large` adds the rows marked large and `only` keeps the named
    problems; an unknown suite or problem name, an `only` that names none,
    or either option on rates, is a ConfigError raised before anything is
    written.  Partial failures are recorded per row and the suite
    continues.  Returns True when every attempted row succeeded.
    """
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; valid suites: {', '.join(SUITES)}")
    run = SUITES[name]
    for flag, given in (("--only", only is not None), ("--include-large", include_large)):
        if given and name != "paper_tables":
            raise ConfigError(f"{flag} applies to paper_tables, not {name}")
    if only is not None:
        unknown = sorted(set(only) - set(_PAPER_ROWS))
        if unknown or not only:
            named = f"unknown problem(s) {', '.join(unknown)}" if unknown else "names no problem"
            raise ConfigError(f"--only: {named}; valid problems: {', '.join(_PAPER_ROWS)}")
    if name == "paper_tables":
        run = partial(run, include_large=include_large, only=only)
    os.makedirs(out_dir, exist_ok=True)
    return run(out_dir, workers)


def _run_paper_tables(out_dir, workers, include_large, only):
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


def _run_rates(out_dir, workers):
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


# The suites by name: each takes (out_dir, workers) once run_suite binds its options.
SUITES = {"paper_tables": _run_paper_tables, "rates": _run_rates}
