"""One benchmark process: a one-op set-up sweep, then timed sweeps, then checks.

Run by run.py in a fresh interpreter so that set-up time covers the package
import, transfer analysis, encoding, evaluator tables and the cold sector
eigendecomposition.  Prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload single_z --seed 0 --seconds 10 \
        --out-root <empty dir> [--process 1 --no-spot-check] [--trace 1]
"""

import time

_T0 = time.perf_counter()  # before the package (and numpy) is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import workloads  # noqa: E402


@dataclass
class Sweep:
    index: int
    out: str
    one_op: bool
    rc: int
    seconds: float


def run_sweep(wl, seed: int, index: int, out: str, one_op: bool = False) -> Sweep:
    """One CLI sweep into a fresh directory; the cli.main call is what is timed."""
    import chainqec.cli as cli

    if os.path.isdir(out) and os.listdir(out):
        # a reused directory resumes from points.jsonl and would time nothing
        raise RuntimeError(f"refusing to time a sweep into non-empty --out {out}")
    os.makedirs(out, exist_ok=True)
    argv = wl.argv(seed, index, out, one_op)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - start
    return Sweep(index, out, one_op, rc, seconds)


def run(wl, seed: int, seconds: float, out_root: str, process: int = 0,
        spot_check: bool = True, tracer=None, t0: float | None = None) -> dict:
    """Set-up sweep, then whole sweeps until `seconds` have been measured, then checks.

    `process` numbers the fresh processes of one run; it keys their inputs
    apart (set-up sweep -1 - process, timed sweeps process * 2**20 + k).
    """
    t0 = time.perf_counter() if t0 is None else t0
    sweeps: list[Sweep] = []
    with tracer if tracer is not None else contextlib.nullcontext():
        out = os.path.join(out_root, f"p{process}-setup")
        sweeps.append(run_sweep(wl, seed, -1 - process, out, one_op=True))
        setup_s = time.perf_counter() - t0
        measured = 0.0
        while measured < seconds:
            k = len(sweeps) - 1
            out = os.path.join(out_root, f"p{process}-sweep{k}")
            sweeps.append(run_sweep(wl, seed, process * 2**20 + k, out))
            measured += sweeps[-1].seconds
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # correctness gate, outside the timed interval
    attempted = failed = 0
    for s in sweeps:
        c = wl.check(s.out, s.one_op)
        attempted += c.ops
        failed += c.ops if s.rc != 0 else c.failed
    timed = sweeps[1:]
    spots = []
    if spot_check:
        spots = wl.spot_check([(s.index, s.out) for s in timed if s.rc == 0], seed)
        failed += sum(1 for r in spots if not r["ok"])

    result = {
        "setup_s": setup_s,
        "sweep_ops_per_s": [wl.ops(False) / s.seconds for s in timed],
        "peak_rss_mib": peak_rss_mib,
        "attempted": attempted,
        "failed": failed,
        "spot_checks": spots,
        "bytes_written": sum(
            os.path.getsize(os.path.join(s.out, f)) for s in sweeps for f in os.listdir(s.out)
        ),
    }
    if seed == 0:
        result["csv_sha256"] = {
            os.path.basename(s.out): _sha256(os.path.join(s.out, wl.csv_name)) for s in sweeps
        }
    if tracer is not None:
        result["layers"] = tracer.summary()
    return result


def _sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out-root", required=True)
    ap.add_argument("--process", type=int, default=0, help="index of this process in the run")
    ap.add_argument("--no-spot-check", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import chainqec

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(chainqec.__file__).startswith(src + os.sep):
        raise SystemExit(f"chainqec imported from {chainqec.__file__}, not from {src}")
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    result = run(
        workloads.get(args.workload), args.seed, args.seconds, args.out_root,
        args.process, not args.no_spot_check, tracer, _T0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
