"""chainqec benchmark: CLI sweeps timed end to end, or traced per module.

    python3 perfbench/run.py --workload single_z --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout (the package is imported from
./src).  Each workload runs in fresh worker processes, one caller and a
closed loop: the next sweep starts when the previous one returns.

--trace 0 runs three fresh processes, each a one-op set-up sweep followed
by a third of the timed interval, and prints setup_s (median over the
processes of the time from before `import chainqec` to the end of the
one-op sweep), ops_per_s (10th percentile over all timed sweeps of ops /
sweep wall time) and peak_rss_mib (median of the processes' ru_maxrss).  --trace 1
runs the same inputs untraced and then traced, one process each, and
prints per-module call counts, self times and the tracing overhead.
The last stdout line is one JSON object; the line before it carries the
environment, sizes, spot checks and (seed 0) the sweep CSV hashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROCESSES = 3  # fresh worker processes per --trace 0 run
BUDGET_S = 170.0  # the whole run, every worker included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict[str, str]:
    """The caller's environment, package from ./src, one BLAS thread.

    One caller on one core: with as many BLAS threads as cores, any other
    process on the machine stalls the threaded GEMVs, and sweep rates
    spread several times wider than single-threaded ones.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _cpu() -> dict[str, str]:
    keys = ("Model name", "L1d cache", "L2 cache", "L3 cache")
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {"Model name": platform.processor()}
    info = {}
    for line in out.splitlines():
        key, _, val = line.partition(":")
        if key.strip() in keys:
            info[key.strip()] = val.strip()
    return info


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def environment(env: dict[str, str]) -> dict:
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _nproc(),
        "cpu": _cpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads": {k: v for k, v in sorted(env.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def run_worker(args, env, out_root: str, deadline: float, seconds: float, *extra: str) -> dict:
    os.makedirs(out_root)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--out-root", out_root, *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before a worker could start")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed no result:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def sustained_rate(rates: list[float]) -> float:
    """Ops/s that nine in ten timed sweeps reach or beat.

    The host's speed varies with its neighbours' load: the slow sweeps sit
    on a steady floor (the loaded machine) while the fast ones vary with
    how idle the neighbours happen to be.  The 10th percentile of sweep
    rates spread 3 % between runs where the median spread 9 %.
    """
    return float(numpy.percentile(rates, 10))


def measure(args, env, out_root: str, deadline: float) -> tuple[dict, dict]:
    """Returns (metrics, info)."""
    if args.trace:
        plain = run_worker(args, env, os.path.join(out_root, "plain"), deadline, args.seconds)
        traced = run_worker(args, env, os.path.join(out_root, "traced"), deadline, args.seconds,
                            "--trace", "1", "--no-spot-check")
        workers = [plain, traced]
        metrics = dict(traced["layers"])
        untraced_rate = sustained_rate(plain["sweep_ops_per_s"])
        traced_rate = sustained_rate(traced["sweep_ops_per_s"])
        metrics["trace.untraced_ops_per_s"] = untraced_rate
        metrics["trace.traced_ops_per_s"] = traced_rate
        metrics["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
        metrics["harness.bytes_written"] = traced["bytes_written"]
    else:
        # the timed interval is split over the set-up processes, so every
        # sample (set-up, sweep rates, RSS) comes from several fresh processes
        workers = [
            run_worker(args, env, os.path.join(out_root, f"p{j}"), deadline,
                       args.seconds / PROCESSES, "--process", str(j),
                       *(("--no-spot-check",) if j else ()))
            for j in range(PROCESSES)
        ]
        metrics = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "ops_per_s": sustained_rate([r for w in workers for r in w["sweep_ops_per_s"]]),
            "peak_rss_mib": statistics.median(w["peak_rss_mib"] for w in workers),
        }
    info = {
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "sweep_ops_per_s": [w["sweep_ops_per_s"] for w in workers],
        "setup_s_each": [w["setup_s"] for w in workers],
        "spot_checks": [r for w in workers for r in w["spot_checks"]],
    }
    if args.seed == 0:
        info["csv_sha256"] = {name: h for w in workers for name, h in w["csv_sha256"].items()}
    return metrics, info


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mib": "MiB"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_ops_per_s", "1/s"), ("_s", "s"), ("_ms", "ms"), (".calls", "count"),
                         (".branches", "count"), ("_pct", "%"), (".bytes_written", "bytes"),
                         (".discarded_mass", "probability"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="sweep time measured per run, split over the processes (whole sweeps)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "chainqec", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'chainqec')}; "
              "run from a full source checkout", file=sys.stderr)
        return 2
    env = worker_env()
    runs_dir = os.path.join(HERE, "_runs")
    os.makedirs(runs_dir, exist_ok=True)
    out_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    try:
        metrics, info = measure(args, env, out_root, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    wl = workloads.get(args.workload)
    info = {"workload": args.workload, "size": wl.size, "seed": args.seed,
            "seconds": args.seconds, **info, "env": environment(env)}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
