"""Experiment configuration, solver dispatch, and table/field emission.

Configs are flat key/value text with dotted keys, one assignment per line:

    problem.name = test4_eik2d
    algorithm = api
    grid.fine.nodes = 161
    grid.coarse.nodes = 81

Everything is deterministic: re-running a config reproduces the report
numerics byte for byte (wall-time lines excluded).
"""

from __future__ import annotations

import io
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import analysis
from .grid import (FIELD_FLOAT_FORMAT, RegularGrid, ValueField, read_field_table,
                   write_field_table)
from .problems import catalog, catalog_names, target_mask
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
def _config_errors(context=""):
    """Re-raise what the problem, grid and solver settings reject as
    ConfigError, its message prefixed by `context`."""
    try:
        yield
    except ValueError as exc:  # ProblemError, GridError and SolverConfig's checks
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


def _parse_int(kv, key):
    try:
        return int(kv[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {kv[key]!r}") from None


def _parse_float(kv, key):
    try:
        return float(kv[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a real number, got {kv[key]!r}") from None


def _parse_bool(kv, key):
    v = kv[key].lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {kv[key]!r}")


def _parse_ints(kv, key):
    if key not in kv:
        return None
    try:
        return tuple(int(p) for p in kv[key].split(","))
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {kv[key]!r}") from None


def _parse_backend(kv, key):
    if kv[key] not in ("fixed_point", "direct"):
        raise ConfigError(f"{key}: must be fixed_point or direct")
    return kv[key]


# The problem.* keys other than name and domain, by catalog override name.
_OVERRIDE_PARSERS = {
    "control_count": _parse_int, "control_counts": _parse_ints,
    "dt_ratio": _parse_float, "exterior_value": _parse_float,
    "boundary_value": _parse_float, "target_radius": _parse_float,
    "lam": _parse_float,
}

# The solver and output keys: (ExperimentConfig field, parser).  An absent
# key leaves the field's default.
_SETTING_PARSERS = {
    "solver.backend": ("backend", _parse_backend),
    "stop.fine_constant": ("fine_constant", _parse_float),
    "stop.coarse_constant": ("coarse_constant", _parse_float),
    "solver.max_iterations": ("max_iterations", _parse_int),
    "solver.workers": ("workers", _parse_int),
    "output.field": ("write_field", _parse_bool),
    "output.errors": ("write_errors", _parse_bool),
    "limits.allow_large": ("allow_large", _parse_bool),
}

_KNOWN_KEYS = {
    "problem.name", "problem.domain", *(f"problem.{name}" for name in _OVERRIDE_PARSERS),
    "algorithm", "grid.fine.nodes", "grid.coarse.nodes", *_SETTING_PARSERS,
}


@dataclass
class ExperimentConfig:
    """An experiment: problem, algorithm, grids, and solver knobs.  from_text
    checks it; run_experiment checks it again before it solves."""

    problem: str
    algorithm: str
    fine_nodes: tuple
    coarse_nodes: tuple = None
    overrides: dict = field(default_factory=dict)
    fine_constant: float = SolverConfig.stop_constant
    coarse_constant: float = 5.0
    max_iterations: int = SolverConfig.max_iterations
    backend: str = SolverConfig.eval_backend
    workers: int = field(default_factory=default_workers)
    write_field: bool = False
    write_errors: bool = True
    allow_large: bool = False
    raw_text: str = ""

    @classmethod
    def from_text(cls, text):
        kv = parse_config_text(text)
        unknown = set(kv) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")

        name = kv.get("problem.name")
        if not name:
            raise ConfigError("problem.name: missing")
        if name not in catalog_names():
            raise ConfigError(
                f"problem.name: unknown problem {name!r}; valid: {', '.join(catalog_names())}"
            )
        algorithm = kv.get("algorithm")
        if algorithm not in ("vi", "pi", "api"):
            raise ConfigError("algorithm: must be one of vi, pi, api")

        fine = _parse_ints(kv, "grid.fine.nodes")
        if fine is None:
            raise ConfigError("grid.fine.nodes: missing")
        coarse = _parse_ints(kv, "grid.coarse.nodes")
        if algorithm == "api" and coarse is None:
            coarse = tuple((n + 1) // 2 for n in fine)

        overrides = {
            name: parse(kv, f"problem.{name}")
            for name, parse in _OVERRIDE_PARSERS.items() if f"problem.{name}" in kv
        }
        if "problem.domain" in kv:
            parts = kv["problem.domain"].split(",")
            if len(parts) != 2:
                raise ConfigError("problem.domain: expected 'lower,upper'")
            try:
                overrides["domain"] = (float(parts[0]), float(parts[1]))
            except ValueError:
                raise ConfigError("problem.domain: expected reals") from None

        settings = {
            attr: parse(kv, key)
            for key, (attr, parse) in _SETTING_PARSERS.items() if key in kv
        }
        cfg = cls(problem=name, algorithm=algorithm, fine_nodes=fine, coarse_nodes=coarse,
                  overrides=overrides, raw_text=text, **settings)
        _setup(cfg)
        return cfg

    def echo_text(self):
        """The config as text: verbatim when it was read from text, else
        every key that is set, which from_text reads back to an equal config."""
        if self.raw_text:
            return self.raw_text
        lines = [
            f"problem.name = {self.problem}",
            f"algorithm = {self.algorithm}",
            f"grid.fine.nodes = {_echo(self.fine_nodes)}",
        ]
        if self.coarse_nodes:
            lines.append(f"grid.coarse.nodes = {_echo(self.coarse_nodes)}")
        lines += [f"problem.{key} = {_echo(val)}" for key, val in sorted(self.overrides.items())]
        lines += [f"{key} = {_echo(getattr(self, attr))}"
                  for key, (attr, _) in _SETTING_PARSERS.items()]
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
    if nodes is None:
        raise ConfigError(f"{key}: missing")
    if len(nodes) not in (1, dim):
        raise ConfigError(f"{key}: expected 1 or {dim} counts, got {len(nodes)}")
    if min(nodes) < 2:
        raise ConfigError(f"{key}: need at least 2 nodes per axis")
    return tuple(nodes) * dim if len(nodes) == 1 else tuple(nodes)


def _setup(config):
    """Check a config and build what its run needs: (entry, fine grid, coarse
    grid, fine SolverConfig, coarse SolverConfig), the coarse pair None unless
    the algorithm is api.  What the problem, a grid, its target set or the
    solver settings reject raises ConfigError, as do a fine grid above the
    desk-scale cap and api grids that do not nest."""
    with _config_errors():
        entry = catalog(config.problem, **config.overrides)
    dim = entry.spec.state_dim
    fine = _axis_counts(config.fine_nodes, dim, "grid.fine.nodes")
    cap = DESK_SCALE_CAPS[dim]
    if max(fine) > cap and not config.allow_large:
        raise ConfigError(
            f"grid.fine.nodes: {max(fine)} exceeds the desk-scale cap of "
            f"{cap} per axis in {dim}D; set limits.allow_large = true to override"
        )
    if config.workers < 1:
        raise ConfigError("solver.workers: must be at least 1")
    if config.max_iterations < 1:
        raise ConfigError("solver.max_iterations: must be at least 1")
    with _config_errors():
        fine_grid = entry.spec.domain_grid(fine)
        if config.problem == "heat3_rom" and "target_radius" not in config.overrides:
            # default target ball radius tracks the run's resolution: 2 * dx
            entry = catalog(config.problem, target_radius=2 * min(fine_grid.spacing),
                            **config.overrides)
        coarse_grid = None
        if config.algorithm == "api":
            coarse_grid = entry.spec.domain_grid(
                _axis_counts(config.coarse_nodes, dim, "grid.coarse.nodes"))
    if coarse_grid is not None and not coarse_grid.nests(fine_grid):
        raise ConfigError(
            "grid.coarse.nodes: accelerated runs need nested grids (fine = 2*coarse - 1 "
            f"per axis; got coarse {coarse_grid.nodes_per_axis}, "
            f"fine {fine_grid.nodes_per_axis})"
        )

    def solver_config(label, grid, stop_constant):
        with _config_errors(f"{label} grid: "):
            cfg = SolverConfig(dt=entry.dt_for(grid), stop_constant=stop_constant,
                               max_iterations=config.max_iterations,
                               eval_backend=config.backend, workers=config.workers)
            try:
                finite = math.isfinite(cfg.epsilon(grid))
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError("the stopping tolerance stop constant * dx^2 is not "
                                 f"finite (dx = {min(grid.spacing):g})")
            target_mask(entry.spec, grid)
            return cfg

    fine_cfg = solver_config("fine", fine_grid, config.fine_constant)
    coarse_cfg = (None if coarse_grid is None
                  else solver_config("coarse", coarse_grid, config.coarse_constant))
    return entry, fine_grid, coarse_grid, fine_cfg, coarse_cfg


def run_experiment(config, out_dir=None):
    """Build the problem, run the requested algorithm, and write artifacts.

    Writes config.txt, report.txt, and optionally field.txt / errors.txt into
    out_dir (atomically, temp-then-rename).  Returns the ExperimentResult;
    convergence is reported, not raised.
    """
    entry, fine_grid, coarse_grid, fine_cfg, coarse_cfg = _setup(config)
    spec = entry.spec

    if config.algorithm == "vi":
        V, _, report = value_iteration(spec, fine_grid, entry.controls, fine_cfg)
    elif config.algorithm == "pi":
        V, _, report = policy_iteration(spec, fine_grid, entry.controls, fine_cfg)
    else:
        V, _, report = api_solve(
            spec, coarse_grid, fine_grid, entry.controls, coarse_cfg, fine_cfg
        )

    assert math.isclose(report.epsilon, fine_cfg.epsilon(fine_grid))

    error_record = None
    if config.write_errors and entry.reference_time is not None:
        error_record = analysis.error_vs_reference(
            V, analysis.minimum_time_reference(entry)
        )

    result = ExperimentResult(config, report, V, error_record)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_atomic(os.path.join(out_dir, "config.txt"), _text(config.echo_text()))
        result.files.append(os.path.join(out_dir, "config.txt"))
        _write_atomic(os.path.join(out_dir, "report.txt"), _text(report.to_text()))
        result.files.append(os.path.join(out_dir, "report.txt"))
        if config.write_field:
            _write_atomic(os.path.join(out_dir, "field.txt"), partial(write_field_table, V))
            result.files.append(os.path.join(out_dir, "field.txt"))
        if error_record is not None:
            text = (
                "nodes dx l1_error sup_error\n"
                f"{'x'.join(str(n) for n in fine_grid.nodes_per_axis)} "
                f"{error_record.dx:.17g} {error_record.l1_error:.17g} "
                f"{error_record.sup_error:.17g}\n"
            )
            _write_atomic(os.path.join(out_dir, "errors.txt"), _text(text))
            result.files.append(os.path.join(out_dir, "errors.txt"))
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


def _experiment(problem, algorithm, nodes, workers, backend="fixed_point",
                allow_large=False, **overrides):
    cfg = ExperimentConfig(
        problem=problem,
        algorithm=algorithm,
        fine_nodes=(nodes,),
        coarse_nodes=((nodes + 1) // 2,) if algorithm == "api" else None,
        overrides=overrides,
        backend=backend,
        allow_large=allow_large,
        write_errors=False,
    )
    if workers is not None:
        cfg.workers = workers
    return cfg


def run_suite(name, out_dir, workers=None, include_large=False, only=None):
    """Run a named suite and write its aggregated tables.

    `workers` defaults to the available CPUs.  `only` restricts paper_tables
    to the named problems; an unknown name, or `only` on another suite, is a
    ConfigError raised before anything is written.  Partial failures are
    recorded per row and the suite continues.  Returns True when every
    attempted row succeeded.
    """
    if only is not None:
        if name != "paper_tables":
            raise ConfigError(f"--only applies to paper_tables, not {name}")
        unknown = sorted(set(only) - set(_PAPER_ROWS))
        if unknown:
            raise ConfigError(
                f"--only: unknown problem(s) {', '.join(unknown)}; "
                f"valid problems: {', '.join(_PAPER_ROWS)}"
            )
    os.makedirs(out_dir, exist_ok=True)
    if name == "paper_tables":
        return _run_paper_tables(out_dir, workers, include_large, only)
    if name == "rates":
        return _run_rates(out_dir, workers, include_large)
    if name == "invariants":
        return _run_invariants(out_dir)
    raise ConfigError(
        f"unknown suite {name!r}; valid suites: invariants, paper_tables, rates"
    )


def _run_paper_tables(out_dir, workers, include_large, only):
    ok = True
    for problem, rows in _PAPER_ROWS.items():
        if only and problem not in only:
            continue
        lines = ["nodes dx algorithm wall_seconds iterations node_updates epsilon converged"]
        for nodes, large in rows:
            if large and not include_large:
                continue
            for algorithm in ("vi", "pi", "api"):
                # Even axis counts cannot nest a coarse grid; note 5 uses
                # 2^k + 1 style sizes so the accelerated runs stay nested.
                try:
                    cfg = _experiment(problem, algorithm, nodes, workers,
                                      allow_large=include_large)
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
                              backend="direct", allow_large=True, control_count=64)
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


def _run_invariants(out_dir):
    """Fast self-checks of the core numerical properties."""
    from .grid import interpolate, prolongate, sup_diff as _sup

    rng = np.random.default_rng(20240817)
    checks = []

    grid = RegularGrid((-1.0, -1.0), (1.0, 1.0), (9, 9))
    coef = rng.normal(size=3)
    vals = coef[0] + coef[1] * grid.nodes()[:, 0] + coef[2] * grid.nodes()[:, 1]
    fld = ValueField(grid, vals)
    pts = rng.uniform(-1, 1, size=(64, 2))
    exact = coef[0] + coef[1] * pts[:, 0] + coef[2] * pts[:, 1]
    got = np.array([interpolate(fld, p, 0.0) for p in pts])
    checks.append(("interpolation_affine_exact", np.max(np.abs(got - exact)) < 1e-12))

    fine = grid.refined()
    worst = 0.0
    for _ in range(50):
        a = ValueField(grid, rng.normal(size=grid.num_nodes))
        b = ValueField(grid, rng.normal(size=grid.num_nodes))
        worst = max(worst, _sup(prolongate(a, fine), prolongate(b, fine)) - _sup(a, b))
    checks.append(("prolongation_sup_preserving", worst <= 1e-15))

    # The 64-control operator at 161^2 runs on several threads; five sweeps
    # and the final argmin sweep on it must give the same bits as on one.
    entry = catalog("test4_eik2d")
    g = entry.spec.domain_grid(161)
    runs = []
    for workers in (1, 4):
        cfg = SolverConfig(dt=entry.dt_for(g), workers=workers, max_iterations=5)
        runs.append(value_iteration(entry.spec, g, entry.controls, cfg))
    (v1, p1, r1), (v4, p4, r4) = runs
    checks.append((
        "determinism_across_workers",
        r1.workers == 1 and r4.workers > 1
        and v1.values.tobytes() == v4.values.tobytes()
        and np.array_equal(p1.indices, p4.indices)
        and r1.residual_history == r4.residual_history,
    ))

    from .solvers import bellman_update
    entry = catalog("test4_eik2d", control_count=16)
    g = entry.spec.domain_grid(21)
    cfg1 = SolverConfig(dt=entry.dt_for(g), workers=1)
    worst = 0.0
    gamma = math.exp(-cfg1.dt)
    for _ in range(25):
        a = ValueField(g, rng.uniform(0, 1, size=g.num_nodes))
        b = ValueField(g, rng.uniform(0, 1, size=g.num_nodes))
        ta, _ = bellman_update(entry.spec, g, a, entry.controls, cfg1)
        tb, _ = bellman_update(entry.spec, g, b, entry.controls, cfg1)
        worst = max(worst, _sup(ta, tb) - gamma * _sup(a, b))
    checks.append(("bellman_contraction", worst <= 1e-10))

    lines = []
    ok = True
    for label, passed in checks:
        lines.append(f"{label}: {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    _write_atomic(os.path.join(out_dir, "invariants.txt"), _text("\n".join(lines) + "\n"))
    for line in lines:
        print(line)
    return ok
