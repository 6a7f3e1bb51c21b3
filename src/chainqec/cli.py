"""Command-line front end for the experiments.

Each subcommand reproduces one of the study's runs and writes a CSV plus a
manifest echo into --out; errors exit nonzero with a JSON payload on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

import numpy as np

from . import __version__
from .chain import ChainSpec, analyze_transfer, pst_couplings
from .code import parity_condition
from .decoder import check_prune
from .harness import (
    exp_coupling,
    exp_dephasing,
    exp_single_z,
    exp_timing,
    make_code,
)


def _chain_from_args(args) -> ChainSpec:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            text = fh.read()
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return ChainSpec.from_json(text)
        return ChainSpec.from_config(text)
    return pst_couplings(args.pst, scale=args.scale)


def _add_chain_args(p: argparse.ArgumentParser, default_n: int = 15) -> None:
    p.add_argument("--config", help="chain config file (key=value or JSON)")
    p.add_argument("--pst", type=int, default=default_n,
                   help="build the standard perfect-transfer chain of this length")
    p.add_argument("--scale", type=float, default=1.0, help="coupling scale factor")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None,
                   help="output directory (CSV, manifest, points.jsonl checkpoint)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="stdout summary format")


def _add_revival(p: argparse.ArgumentParser, seeded: bool) -> None:
    """Flags of the revival sweeps; only the sweeps that draw random numbers take --seed."""
    _add_chain_args(p)
    _add_common(p)
    p.add_argument("--code", choices=("minimal15",), default="minimal15",
                   help="the code on the whole chain; the revival read-out runs minimal15")
    p.add_argument("--prune", type=_prune, default=0.0,
                   help="branch probability floor, finite and >= 0 (0 = exact tracking)")
    if seeded:
        p.add_argument("--seed", type=int, default=0)


def _grid(text: str) -> tuple[float, ...]:
    """Parse "a,b,c" or "start:stop:count" into a float grid of at least one point.

    A malformed grid is refused with the rule it breaks, not with this
    function's name (argparse's message for a ValueError).
    """
    try:
        if ":" not in text:
            return tuple(float(tok) for tok in text.split(","))
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'grid {text!r} is malformed: need "a,b,c" or "start:stop:count", count a whole number'
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"grid {text!r} has no points")
    return tuple(np.linspace(start, stop, count))


def _count(text: str) -> int:
    """Parse a sample or instance count of at least 1: a sweep of none has no mean to report."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"count {text!r} is not a whole number >= 1") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"count {text!r} is below 1: need a whole number >= 1")
    return count


def _prune(text: str) -> float:
    """Parse a branch probability floor (decoder.check_prune)."""
    try:
        return check_prune(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared: do not modify it."""
    ap = argparse.ArgumentParser(prog="chainqec", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transfer-check", help="analyse a chain for perfect transfer")
    _add_chain_args(p)
    p.add_argument("--tolerance", type=float, default=1e-10)

    p = sub.add_parser("single-z", help="random single phase flips on the revival setup")
    _add_revival(p, seeded=True)
    p.add_argument("--samples", type=_count, default=1024)

    p = sub.add_parser("timing-sweep", help="readout-offset sweep")
    _add_revival(p, seeded=False)
    p.add_argument("--grid", type=_grid, default=None,
                   help='offsets as "a,b,c" or "start:stop:count" (default 0..0.1 t0, 21 points)')

    p = sub.add_parser("coupling-sweep", help="coupling-disorder sweep")
    _add_revival(p, seeded=True)
    p.add_argument("--grid", type=_grid, default=None,
                   help='disorder fractions (default 0..0.1, 11 points)')
    p.add_argument("--instances", type=_count, default=1000)

    p = sub.add_parser("dephasing", help="master-equation mode-decay check")
    _add_chain_args(p, default_n=5)
    _add_common(p)
    p.add_argument("--gammas", type=_grid, default=(0.01, 0.1))

    p = sub.add_parser("code-info", help="print a code's tableau and properties")
    p.add_argument("--code", default="minimal15", help='"minimal15" or "shor:<d>"')
    return ap


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "transfer-check":
            spec = _chain_from_args(args)
            rep = analyze_transfer(spec, tolerance=args.tolerance)
            print(json.dumps({
                "n_sites": spec.n_sites,
                "transfer_time": rep.transfer_time,
                "mirror_fidelity": rep.mirror_fidelity,
                "global_phase": [rep.global_phase.real, rep.global_phase.imag],
                "spectral_bound": rep.spectral_bound,
                "is_perfect": rep.is_perfect,
            }, sort_keys=True))
        elif args.command == "single-z":
            summary = exp_single_z(
                samples=args.samples, seed=args.seed, spec=_chain_from_args(args),
                out_dir=args.out, prune_below=args.prune,
            )
            _emit(args, {
                "samples": args.samples,
                "min_success": summary.min_success,
                "mean_success": summary.mean_success,
                "discarded_mass": summary.discarded_mass,
            })
        elif args.command == "timing-sweep":
            curve = exp_timing(
                delta_grid=args.grid, spec=_chain_from_args(args), out_dir=args.out,
                prune_below=args.prune,
            )
            # the success at the grid's delta = 0 point, None on a grid without one
            at_zero = next((p for d, p in zip(curve.deltas, curve.successes) if d == 0.0), None)
            _emit(args, {
                "points": len(curve.deltas),
                "min_success": min(curve.successes),
                "success_at_zero": at_zero,
                "discarded_mass": sum(curve.discarded_mass),
            })
        elif args.command == "coupling-sweep":
            curves = exp_coupling(
                f_grid=args.grid, instances=args.instances, seed=args.seed,
                spec=_chain_from_args(args), out_dir=args.out, prune_below=args.prune,
            )
            _emit(args, {
                "points": len(curves.fractions),
                "mean_success_last": curves.mean_success[-1],
                "min_success_last": curves.min_success[-1],
                "discarded_mass": sum(curves.discarded_mass),
            })
        elif args.command == "dephasing":
            report = exp_dephasing(
                spec=_chain_from_args(args), gamma_grid=args.gammas, out_dir=args.out
            )
            _emit(args, {
                "gammas": ",".join(str(g) for g in report.gammas),
                "max_deviation": max(report.max_deviation),
            })
        elif args.command == "code-info":
            code = make_code(args.code)
            code.validate()
            print(code.to_tableau(), end="")
            print(f"# parity_condition {parity_condition(code)}")
            print(f"# logical_qubits {code.n_logical}")
        return 0
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
