"""Benchmark of hjbsolve's public solvers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; hjbsolve is imported from ./src.  The
workloads and metrics are listed in BENCHMARK.json and explained in
perfbench/NOTES.md.  Every workload runs in fresh processes, one solve at a
time, with BLAS and OpenMP pinned to one thread.

--trace 0 prints the end-to-end metrics.  The set-up time is the median of
several fresh processes, each timed from its start to the solver call.
--trace 1 prints the per-layer metrics and writes the spans to
.perfbench/spans/.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is not
0 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0
ARTIFACTS = ".perfbench"
HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def source_fingerprint(root):
    """SHA-256 over the package sources, standing in for a commit id."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_state(root):
    """(commit, dirty) when the root is a git work tree, else (None, None)."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None, None
    env = dict(os.environ, GIT_DIR=os.path.join(root, ".git"), GIT_WORK_TREE=root)
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], env=env, cwd=root,
                             capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                env=env, cwd=root, capture_output=True, text=True,
                                check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, bool(status.strip())


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine():
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    llc_level, llc_size = 0, "unknown"
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else []:
        level = _read(os.path.join(cache, index, "level")).strip()
        if level.isdigit() and int(level) > llc_level:
            llc_level = int(level)
            llc_size = _read(os.path.join(cache, index, "size")).strip()
    return {
        "nproc": os.cpu_count(),
        "ram_gib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30,
        "cpu_model": model,
        "llc": f"L{llc_level} {llc_size}",
        "python": platform.python_version(),
    }


def run_child(mode, args, env, deadline, extra=()):
    """Run workload.py in a fresh process; returns its JSON result with the
    set-up time (spawn to solver call) added."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {args.workload} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {args.workload} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = os.path.join(os.getcwd(), "src", "hjbsolve")
    if os.path.dirname(os.path.abspath(result["hjbsolve_file"])) != expected:
        raise BenchError(f"imported {result['hjbsolve_file']}, not the checkout's")
    result["setup_s"] = result["ready"] - spawned
    return result


def check_ledger(workload, fingerprint, sha):
    """The field of a workload must hash the same in every run of the same
    sources; the first run records it.  Returns True when it matches."""
    path = os.path.join(ARTIFACTS, "field_sha256.json")
    ledger = json.loads(_read(path) or "{}")
    expected = ledger.setdefault(f"{workload} {fingerprint}", sha)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return expected == sha


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hjbsolve", "__init__.py")):
        raise BenchError("run from the repository root: src/hjbsolve is missing")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")

    os.makedirs(os.path.join(ARTIFACTS, "spans"), exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.update({name: "1" for name in PINNED_THREADS})
    fingerprint = source_fingerprint(root)
    commit, dirty = git_state(root)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_commit": commit, "git_dirty": dirty,
              "source_sha256": fingerprint, **machine(),
              **{name: env[name] for name in PINNED_THREADS}}

    if args.trace:
        spans = os.path.join(ARTIFACTS, "spans", f"{args.workload}-seed{args.seed}.jsonl")
        result = run_child("trace", args, env, deadline,
                           ("--spans", spans, "--header", json.dumps(record)))
        values = result["metrics"]
        listed = bench["per_layer"]
    else:
        # Set-up samples before and after the measured process, so that
        # their median spans the run.
        setups = [run_child("setup", args, env, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES // 2)]
        result = run_child("measure", args, env, deadline)
        setups += [result["setup_s"]] + [run_child("setup", args, env, deadline)["setup_s"]
                                         for _ in range(SETUP_SAMPLES // 2)]
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        listed = bench["end_to_end"]
    record.update(numpy=result["numpy"], scipy=result["scipy"])

    failed = result["failed"]
    failures = list(result["failures"])
    if not check_ledger(args.workload, fingerprint, result["sha256"]):
        failed += result["solves"]
        failures.append("field SHA-256 differs from an earlier run of the same sources")
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print("env " + json.dumps(record, sort_keys=True))
    print(f"field_sha256 = {result['sha256']}  solves = {result['solves']}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    if "rollout_s" in result:
        print(f"rollout_s = {result['rollout_s']!r} s (median of {result['rollouts']}; "
              "not gated, see perfbench/NOTES.md)")
    print(f"ops_failed = {failed}/{result['attempted']}")
    for reason in failures:
        print(f"FAILED: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
