"""The benchmark's workloads: inputs drawn from a seed, and their checks.

Every workload runs CLI sweeps (``chainqec.cli.main``) at a stated fraction
of the CLI default size.  A sweep's inputs come only from (workload seed,
sweep index); the program receives the generated arguments and nothing
else.  After the timed interval each sweep's CSV is checked op by op, and a
few ops are recomputed through the library path and ``decode_pipeline``.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

SPOT_CHECKS = 3  # single-Z ops recomputed per run
SPOT_TOL = 1e-10


def sweep_rng(seed: int, sweep: int) -> np.random.Generator:
    """Generator for one sweep's inputs, keyed by (workload seed, sweep index)."""
    key = np.array([seed & (2**64 - 1), sweep & (2**64 - 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sweep_seed(seed: int, sweep: int) -> int:
    return int(sweep_rng(seed, sweep).integers(0, 2**31 - 1))


def read_csv(out: str, name: str) -> list[dict[str, str]]:
    path = os.path.join(out, name)
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass(frozen=True)
class Check:
    ops: int
    failed: int


def _finite(*vals: float) -> bool:
    return all(math.isfinite(v) for v in vals)


class SingleZ:
    """single-z on N=15, minimal15, logical |+>, uniform site and time."""

    csv_name = "single_z.csv"

    def __init__(self, name: str, prune: float, tiny: bool = False):
        self.name = name
        self.prune = prune
        self.samples = 2 if tiny else 16
        self.size = (
            f"N=15 minimal15 |+>, {self.samples} samples per sweep "
            f"(1/{1024 // self.samples} of the CLI default 1024), prune {prune:g}"
        )

    def ops(self, one_op: bool) -> int:
        return 1 if one_op else self.samples

    def argv(self, seed: int, sweep: int, out: str, one_op: bool = False) -> list[str]:
        argv = [
            "single-z", "--pst", "15", "--code", "minimal15",
            "--samples", str(self.ops(one_op)), "--seed", str(sweep_seed(seed, sweep)),
            "--out", out, "--format", "json",
        ]
        if self.prune:
            argv += ["--prune", repr(self.prune)]
        return argv

    def check(self, out: str, one_op: bool = False) -> Check:
        expected = self.ops(one_op)
        rows = read_csv(out, self.csv_name)
        ok = sum(
            1 for r in rows
            if _finite(float(r["success_probability"]))
            and float(r["success_probability"]) >= 1 - 1e-8
        )
        return Check(expected, expected - min(ok, expected))

    def spot_check(self, sweeps: list[tuple[int, str]], seed: int) -> list[dict]:
        """Recompute a few ops with inject_single_z + evolve(eig) + decode_pipeline."""
        from chainqec.chain import analyze_transfer, pst_couplings
        from chainqec.code import encode, minimal15
        from chainqec.decoder import DecodeOptions, decode_pipeline
        from chainqec.noise import inject_single_z

        spec, code = pst_couplings(15), minimal15()
        amp = 1 / np.sqrt(2)
        psi0 = encode(code, amp, amp)
        total = 2.0 * analyze_transfer(spec).transfer_time
        opts = DecodeOptions(mode="revival", alpha=amp, beta=amp, prune_below=self.prune)
        rng = sweep_rng(seed, 2**32)
        results = []
        for _ in range(min(SPOT_CHECKS, len(sweeps))):
            sweep, out = sweeps[int(rng.integers(len(sweeps)))]
            rows = read_csv(out, self.csv_name)
            row = rows[int(rng.integers(len(rows)))]
            site, t_err = int(row["site"]), float(row["t_err"])
            noisy = inject_single_z(psi0, spec, site, t_err, total)
            want = decode_pipeline(noisy, code, opts).success_probability
            got = float(row["success_probability"])
            results.append({
                "sweep": sweep, "sample": int(row["sample"]),
                "abs_diff": abs(got - want), "ok": abs(got - want) <= SPOT_TOL,
            })
        return results


class Coupling:
    """coupling-sweep on N=15: the 11 default disorder fractions, one instance each.

    One instance per fraction puts every op's value in its own CSV row, so
    the per-op invariants and the spot check see single ops.
    """

    csv_name = "coupling.csv"
    grid = tuple(float(f) for f in np.linspace(0.0, 0.1, 11))  # the CLI default grid

    def __init__(self):
        self.name = "coupling"
        self.size = "N=15 minimal15 |+>, 11 fractions x 1 instance per sweep (CLI default 11 x 1000)"

    def ops(self, one_op: bool) -> int:
        return 1 if one_op else len(self.grid)

    def argv(self, seed: int, sweep: int, out: str, one_op: bool = False) -> list[str]:
        argv = [
            "coupling-sweep", "--pst", "15", "--code", "minimal15", "--instances", "1",
            "--seed", str(sweep_seed(seed, sweep)), "--out", out, "--format", "json",
        ]
        if one_op:
            argv += ["--grid", repr(float(sweep_rng(seed, sweep).uniform(0.0, 0.1)))]
        return argv

    def check(self, out: str, one_op: bool = False) -> Check:
        expected = self.ops(one_op)
        ok = 0
        for r in read_csv(out, self.csv_name):
            f, mean, low = float(r["f"]), float(r["mean_success"]), float(r["min_success"])
            ok += (
                _finite(mean, low)
                and 0.0 <= low <= mean <= 1 + 1e-12
                and (f != 0.0 or (abs(mean - 1) <= 1e-9 and abs(low - 1) <= 1e-9))
            )
        return Check(expected, expected - min(ok, expected))

    def spot_check(self, sweeps: list[tuple[int, str]], seed: int) -> list[dict]:
        """Recompute one op at a nonzero fraction with coupling_disorder +
        evolve(eig) + decode_pipeline, its instance key derived as the harness does."""
        from chainqec.chain import analyze_transfer, pst_couplings
        from chainqec.code import encode, minimal15
        from chainqec.decoder import DecodeOptions, decode_pipeline
        from chainqec.harness import sample_rng
        from chainqec.hilbert import clear_evolution_cache, evolve
        from chainqec.noise import coupling_disorder

        if not sweeps:
            return []
        spec, code = pst_couplings(15), minimal15()
        amp = 1 / np.sqrt(2)
        rng = sweep_rng(seed, 2**32)
        sweep, out = sweeps[int(rng.integers(len(sweeps)))]
        i = int(rng.integers(1, len(self.grid)))
        row = read_csv(out, self.csv_name)[i]
        # exp_coupling keys instance k of grid point i by (seed, i * instances + k)
        draw = int(sample_rng(sweep_seed(seed, sweep), i).integers(0, 2**63 - 1))
        perturbed, _ = coupling_disorder(spec, self.grid[i], draw)
        psi = evolve(encode(code, amp, amp), perturbed, 2.0 * analyze_transfer(spec).transfer_time)
        want = decode_pipeline(psi, code, DecodeOptions(mode="revival", alpha=amp, beta=amp))
        clear_evolution_cache()  # drop the perturbed chain's eigendata
        diff = abs(float(row["mean_success"]) - want.success_probability)
        return [{"sweep": sweep, "f_index": i, "abs_diff": diff, "ok": diff <= SPOT_TOL}]


class Dephasing:
    """dephasing (dense Lindblad RK4) on a short chain; one op is one gamma."""

    csv_name = "dephasing.csv"

    def __init__(self, tiny: bool = False):
        self.name = "dephasing"
        self.n = 3 if tiny else 5
        self.size = (
            f"N={self.n}, 2 gammas per sweep (the CLI default count), "
            "one in [0.01, 0.055) and one in [0.055, 0.1]"
        )

    def ops(self, one_op: bool) -> int:
        return 1 if one_op else 2

    def gammas(self, seed: int, sweep: int, one_op: bool) -> list[float]:
        # one draw per half of the CLI default range: the step count grows
        # with gamma, so stratifying keeps every sweep's cost about the same
        u = sweep_rng(seed, sweep).uniform(0.0, 1.0, 2)
        g = [0.01 + 0.045 * u[0], 0.055 + 0.045 * u[1]]
        return g[:1] if one_op else g

    def argv(self, seed: int, sweep: int, out: str, one_op: bool = False) -> list[str]:
        gammas = ",".join(repr(float(g)) for g in self.gammas(seed, sweep, one_op))
        return ["dephasing", "--pst", str(self.n), "--gammas", gammas,
                "--out", out, "--format", "json"]

    def check(self, out: str, one_op: bool = False) -> Check:
        expected = self.ops(one_op)
        ok = sum(
            1 for r in read_csv(out, self.csv_name)
            if _finite(float(r["max_abs_deviation"])) and float(r["max_abs_deviation"]) <= 1e-6
        )
        return Check(expected, expected - min(ok, expected))

    def spot_check(self, sweeps, seed) -> list[dict]:
        return []  # no decoder on this workload; the per-op deviation bound is the check


NAMES = ("single_z", "single_z_pruned", "coupling", "dephasing")


def get(name: str, tiny: bool = False):
    if name == "single_z":
        return SingleZ(name, 0.0, tiny)
    if name == "single_z_pruned":
        return SingleZ(name, 1e-12, tiny)
    if name == "coupling":
        return Coupling()
    if name == "dephasing":
        return Dephasing(tiny)
    raise ValueError(f"unknown workload {name!r}")
