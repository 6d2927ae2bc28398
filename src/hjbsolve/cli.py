"""Command-line front end.

Verbs:
    solve  --config PATH [--out DIR] [--threads N]
    suite  {paper_tables,rates} [--out DIR] [--threads N] [--include-large]
           [--only NAMES]
    export RESULT_DIR --format {table,slice} [--slice axis=value] [--out PATH]

Exit codes: 0 success, 2 configuration error, 3 non-convergence or solver
failure, 4 I/O error.  --threads is the number of threads that Bellman sweeps
and operator builds spread their blocks of controls over; it defaults to the
CPUs the process may run on, and results are the same bits for every count.
--only (catalog names) and --include-large (the rows marked large, within
the desk-scale caps) apply to paper_tables alone.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .bench import SUITES, ConfigError, ExperimentConfig, export_field, run_experiment, run_suite
from .solvers import SolverError, default_workers

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_IO = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hjb-bench",
        description="Static Hamilton-Jacobi-Bellman solver benchmarks",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    solve = sub.add_parser("solve", help="run one experiment from a config file")
    solve.add_argument("--config", required=True, help="path to a key=value config file")
    solve.add_argument("--out", default=None, help="output directory")
    solve.add_argument("--threads", type=int, default=None,
                       help="threads for sweeps and operator builds "
                            "(default: solver.workers, else the available CPUs)")

    suite = sub.add_parser("suite", help="run a named suite")
    suite.add_argument("name", choices=list(SUITES))
    suite.add_argument("--out", default="suite_results", help="output directory")
    suite.add_argument("--threads", type=int, default=default_workers(),
                       help="threads for sweeps and operator builds "
                            "(default: the available CPUs)")
    suite.add_argument("--include-large", action="store_true",
                       help="also run the paper_tables rows marked large")
    suite.add_argument("--only", default=None,
                       help="comma-separated catalog problems to restrict paper_tables to")

    export = sub.add_parser("export", help="post-process a result directory")
    export.add_argument("result_dir")
    export.add_argument("--format", choices=["table", "slice"], default="table")
    export.add_argument("--slice", default=None, metavar="AXIS=VALUE",
                        help="slice plane, e.g. x4=0 or 3=0.5")
    export.add_argument("--out", default=None, help="output file path")

    return parser


def _parse_slice(text):
    if text is None or "=" not in text:
        raise ConfigError("--slice expects AXIS=VALUE, e.g. x4=0")
    axis_text, value_text = text.split("=", 1)
    # one optional x or X, then the axis number from 1
    axis = re.fullmatch(r"[xX]?([0-9]+)", axis_text.strip())
    try:
        if axis is not None and int(axis[1]) > 0:
            return int(axis[1]) - 1, float(value_text)
    except ValueError:
        pass
    raise ConfigError(f"--slice: cannot parse {text!r}")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # solve and suite take --threads (None on solve defers to solver.workers)
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise ConfigError("--threads: must be at least 1")
        if args.verb == "solve":
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"cannot read config: {exc}", file=sys.stderr)
                return EXIT_IO
            config = ExperimentConfig.from_text(text)
            if args.threads is not None:
                config.workers = args.threads
            out = args.out
            if out is None:
                size = "x".join(str(n) for n in config.fine_nodes)
                out = os.path.join("results", f"{config.problem}-{config.algorithm}-{size}")
            result = run_experiment(config, out_dir=out)
            rep = result.report
            print(
                f"{config.problem} {config.algorithm}: iterations={rep.outer_iterations} "
                f"node_updates={rep.node_updates} wall={rep.wall_time_seconds:.3f}s "
                f"converged={rep.converged}"
            )
            print(f"results written to {out}")
            return EXIT_OK if result.converged else EXIT_NOT_CONVERGED

        if args.verb == "suite":
            only = None if args.only is None else [name for name in args.only.split(",") if name]
            ok = run_suite(args.name, args.out, workers=args.threads,
                           include_large=args.include_large, only=only)
            print(f"suite {args.name}: {'ok' if ok else 'completed with failures'}")
            return EXIT_OK if ok else EXIT_NOT_CONVERGED

        # the last of the three verbs: export
        if args.format == "slice":
            axis, value = _parse_slice(args.slice)
        else:
            axis, value = None, None
        out = args.out or os.path.join(
            args.result_dir, "slice.txt" if args.format == "slice" else "field_export.txt"
        )
        path = export_field(args.result_dir, args.format, out,
                            slice_axis=axis, slice_value=value)
        print(f"exported {path}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
