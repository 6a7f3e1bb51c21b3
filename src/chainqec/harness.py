"""Experiment orchestration: seeded sweeps, persistence, and oracles.

Every experiment is described by a manifest that fully determines its
output: floats are printed with 17 significant digits and every random
draw comes from a counter-based generator (Philox) keyed by
(manifest seed, sample index), so results are independent of evaluation
order and safe to parallelise or resume.  Interrupted sweeps leave a
points.jsonl checkpoint behind; rerunning skips finished points and the
final CSV is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import __version__
from .chain import ChainSpec, analyze_transfer, pst_couplings
from .code import StabilizerCode, encode, minimal15, shor_code
from .decoder import RevivalEvaluator
from .errors import ResourceLimitError
from .freefermion import chi_decay
from .hilbert import (
    StateVector,
    chi,
    dense_unitary,
    evolve,
    from_density,
    lindblad_evolve,
    sample_rng,
    single_z_sectors,
)
from .noise import disordered_spec
from .pauli import PauliString

_BRUTE_FORCE_MAX_SITES = 6
# points evaluated together: the single-Z samples (or timing offsets) of one
# chunk are the rows of one block on the evaluator's support, scored in one
# sparse product.  A point's value must not depend on its chunk, or a
# resumed run (which re-chunks the missing points) would differ from a
# fresh one; the chunk, batched-engine and resume tests check this.
_CHUNK = 64

DEFAULT_TIMING_GRID_POINTS = 21
DEFAULT_TIMING_GRID_MAX_FRACTION = 0.1  # of t0
DEFAULT_COUPLING_GRID = tuple(np.linspace(0.0, 0.1, 11))
DEPHASING_TIME_POINTS = 9  # from 0 to the transfer time


def fmt(x: float) -> str:
    """Canonical float formatting for reproducible CSV output."""
    return f"{float(x):.17g}"


def make_code(code_id: str) -> StabilizerCode:
    if code_id == "minimal15":
        return minimal15()
    if code_id.startswith("shor:"):
        return shor_code(int(code_id.split(":", 1)[1]))
    raise ValueError(f"unknown code id {code_id!r}")


@dataclass(frozen=True)
class ExperimentManifest:
    experiment: str
    spec: ChainSpec
    code_id: str
    grid: tuple[float, ...]
    samples: int
    seed: int
    logical: tuple[float, float, float, float] = (
        1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 0.0,
    )  # re/im of alpha then beta
    prune_below: float = 0.0
    version: str = field(default=__version__)

    @property
    def alpha(self) -> complex:
        return self.logical[0] + 1j * self.logical[1]

    @property
    def beta(self) -> complex:
        return self.logical[2] + 1j * self.logical[3]

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment": self.experiment,
                "spec": json.loads(self.spec.to_json()),
                "code_id": self.code_id,
                "grid": list(self.grid),
                "samples": self.samples,
                "seed": self.seed,
                "logical": list(self.logical),
                "prune_below": self.prune_below,
                "version": self.version,
            },
            sort_keys=True,
        )


def _fill(out_dir: str | None, manifest: ExperimentManifest, count: int, evaluate,
          free=()) -> list[dict]:
    """Records for points 0..count-1, resumed from out_dir/points.jsonl where it can be.

    A points.jsonl is reused only under a manifest.json that matches this
    run's manifest in every field except those named in `free`, which set
    how many points there are rather than what each point is.  A mismatch
    raises before anything is written, so a resumed sweep never mixes
    points from a different run.  `evaluate(indices)` returns or yields one
    payload per index for the missing points, in chunks of at most _CHUNK;
    each record is appended to points.jsonl as it arrives.
    """
    done: dict[int, dict] = {}
    path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        manifest_path = os.path.join(out_dir, "manifest.json")
        path = os.path.join(out_dir, "points.jsonl")
        if os.path.exists(path):
            old = {}
            if os.path.exists(manifest_path):
                with open(manifest_path) as fh:
                    old = json.loads(fh.read())
            new = json.loads(manifest.to_json())
            for key in free:
                old.pop(key, None)
                new.pop(key)
            if old != new:
                raise ValueError(
                    f"{out_dir} holds points of a different run (manifest.json differs); "
                    "use a fresh output directory"
                )
            with open(path) as fh:
                for line in fh:
                    if line.strip():
                        rec = json.loads(line)
                        done[int(rec["index"])] = rec
        with open(manifest_path, "w") as fh:
            fh.write(manifest.to_json() + "\n")
    todo = [i for i in range(count) if i not in done]
    with open(path, "a") if path else contextlib.nullcontext() as fh:
        for start in range(0, len(todo), _CHUNK):
            chunk = todo[start:start + _CHUNK]
            for i, payload in zip(chunk, evaluate(chunk)):
                done[i] = rec = {"index": i, **payload}
                if fh is not None:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
                    fh.flush()
    return [done[i] for i in range(count)]


def _write_csv(out_dir: str | None, name: str, header: list[str], rows: list[list]) -> None:
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


class RevivalSetup:
    """Shared machinery for the revival experiments on one chain and code.

    Nothing here diagonalises a sector: every evolution is a Givens
    evolve.  The error-free arrival state e^{-iH duration}|encoded> is
    computed once; a phase flip on site s at time t then arrives as one
    rotated fermionic mode about it, so a batch of single-Z samples costs
    2(N-1) bond rotations per sample on the rows of one block per sector
    (hilbert.single_z_sectors) instead of two full evolutions.  Every
    revival state stays in the excitation sectors the encoded state
    occupies, the evaluator's support, so a chunk of samples is scored as
    one (S, support) block of rows, never scattered into a 2^N vector.
    Every array held here, the evaluator's included, is read-only, so one
    set-up can serve every sweep of a process (_revival_setup).
    """

    def __init__(
        self,
        spec: ChainSpec,
        codeobj: StabilizerCode,
        alpha: complex,
        beta: complex,
        prune_below: float = 0.0,
    ):
        if codeobj.n_qubits != spec.n_sites:
            raise ValueError("revival experiments need the code on the whole chain")
        self.spec = spec
        report = analyze_transfer(spec)
        if not report.is_perfect:
            raise ValueError("chain does not transfer perfectly")
        self.transfer_time = report.transfer_time
        self.duration = 2.0 * report.transfer_time
        self.spectral_bound = report.spectral_bound
        self.prune_below = float(prune_below)
        self.encoded = encode(codeobj, alpha, beta)
        self.evaluator = RevivalEvaluator(codeobj, alpha, beta)
        # the error-free state at the readout, e^{-iH duration}|encoded>
        self.arrival = evolve(self.encoded, spec, self.duration, method="givens")
        for state in (self.encoded, self.arrival):
            state.amps.flags.writeable = False

    def success_single_z(self, sites, t_errs) -> tuple[np.ndarray, np.ndarray]:
        """One phase flip per sample: Z on sites[k] at time t_errs[k] of the revival run.

        Returns (success probability, discarded mass) arrays, one entry per sample.
        """
        taus = np.asarray(t_errs, dtype=float) - self.duration
        blocks = single_z_sectors(self.arrival, self.spec, sites, taus)
        # the sectors, in weight order, are the evaluator's support
        rows = np.concatenate([block for _, block in blocks], axis=1)
        return self.evaluator.success(rows, self.prune_below)

    def success_timing(self, deltas) -> tuple[np.ndarray, np.ndarray]:
        """Readout at twice the transfer time plus each offset; arrays as success_single_z."""
        support = self.evaluator.support
        rows = np.array([
            evolve(self.encoded, self.spec, self.duration + delta, method="givens").amps[support]
            for delta in np.asarray(deltas, dtype=float)
        ])
        return self.evaluator.success(rows, self.prune_below)

    def success_coupling_instance(self, f: float, draw_seed: int) -> tuple[float, float, float]:
        """(success probability, largest perturbation singular value, discarded mass)."""
        perturbed, zeta = disordered_spec(self.spec, f, draw_seed)
        psi = evolve(self.encoded, perturbed, self.duration, method="givens")
        success, discarded = self.evaluator.success(
            psi.amps[self.evaluator.support], self.prune_below
        )
        return success, zeta, discarded


@lru_cache(maxsize=4)
def _revival_setup(
    spec: ChainSpec, code_id: str, alpha: complex, beta: complex, prune_below: float
) -> RevivalSetup:
    """The revival machinery for one chain, code, logical state and pruning.

    Built once per process and shared by every sweep with those inputs.
    """
    return RevivalSetup(spec, make_code(code_id), alpha, beta, prune_below)



@dataclass
class SingleZSummary:
    manifest: ExperimentManifest
    successes: tuple[float, ...]
    sites: tuple[int, ...]
    times: tuple[float, ...]
    discarded_mass: float = 0.0  # summed over samples; nonzero only when pruning

    @property
    def min_success(self) -> float:
        return min(self.successes) if self.successes else float("nan")

    @property
    def mean_success(self) -> float:
        return float(np.mean(self.successes)) if self.successes else float("nan")


def exp_single_z(
    samples: int = 1024,
    seed: int = 0,
    spec: ChainSpec | None = None,
    code_id: str = "minimal15",
    out_dir: str | None = None,
    prune_below: float = 0.0,
) -> SingleZSummary:
    """Random single phase flips (uniform site and time) on the revival setup."""
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    spec = spec or pst_couplings(15)
    manifest = ExperimentManifest(
        "single_z", spec, code_id, (), samples, seed, prune_below=prune_below
    )
    # an unknown code or chain is refused before anything is written
    setup = _revival_setup(spec, code_id, manifest.alpha, manifest.beta, prune_below)

    def evaluate(indices):
        draws = [sample_rng(seed, i) for i in indices]
        sites = [int(rng.integers(1, spec.n_sites + 1)) for rng in draws]
        t_errs = [float(rng.uniform(0.0, setup.duration)) for rng in draws]
        success, discarded = setup.success_single_z(sites, t_errs)
        return [
            {"site": site, "t_err": t, "success": float(p), "discarded_mass": float(d)}
            for site, t, p, d in zip(sites, t_errs, success, discarded)
        ]

    # sample i depends only on (seed, i): a run may extend an interrupted one
    recs = _fill(out_dir, manifest, samples, evaluate, free=("samples",))
    sites = [int(r["site"]) for r in recs]
    times = [float(r["t_err"]) for r in recs]
    successes = [float(r["success"]) for r in recs]
    rows = [[i, sites[i], times[i], successes[i]] for i in range(samples)]
    _write_csv(out_dir, "single_z.csv", ["sample", "site", "t_err", "success_probability"], rows)
    return SingleZSummary(
        manifest, tuple(successes), tuple(sites), tuple(times),
        float(sum(float(r["discarded_mass"]) for r in recs)),
    )


@dataclass
class TimingCurve:
    manifest: ExperimentManifest
    deltas: tuple[float, ...]
    smallness: tuple[float, ...]  # delta * lambda_max
    successes: tuple[float, ...]


def default_timing_grid(transfer_time: float) -> tuple[float, ...]:
    return tuple(
        np.linspace(0.0, DEFAULT_TIMING_GRID_MAX_FRACTION * transfer_time,
                    DEFAULT_TIMING_GRID_POINTS)
    )


def exp_timing(
    delta_grid=None,
    spec: ChainSpec | None = None,
    code_id: str = "minimal15",
    out_dir: str | None = None,
    prune_below: float = 0.0,
) -> TimingCurve:
    """Readout-time offsets on the revival setup: a Givens evolve per offset, scored per chunk."""
    spec = spec or pst_couplings(15)
    manifest = ExperimentManifest("timing", spec, code_id, (), 0, 0, prune_below=prune_below)
    setup = _revival_setup(spec, code_id, manifest.alpha, manifest.beta, prune_below)
    if delta_grid is None:
        delta_grid = default_timing_grid(setup.transfer_time)
    delta_grid = tuple(float(d) for d in delta_grid)
    if not all(np.isfinite(delta_grid)):
        raise ValueError("grid must be finite")
    manifest = replace(manifest, grid=delta_grid)

    def evaluate(indices):
        deltas = [delta_grid[i] for i in indices]
        success, discarded = setup.success_timing(deltas)
        return [
            {"delta": delta, "success": float(p), "discarded_mass": float(d)}
            for delta, p, d in zip(deltas, success, discarded)
        ]

    recs = _fill(out_dir, manifest, len(delta_grid), evaluate)
    successes = [float(r["success"]) for r in recs]
    smallness = tuple(abs(d) * setup.spectral_bound for d in delta_grid)
    rows = [
        [float(delta_grid[i]), float(smallness[i]), float(successes[i])]
        for i in range(len(delta_grid))
    ]
    _write_csv(
        out_dir, "timing.csv",
        ["delta_t", "delta_t_times_lambda_max", "success_probability"], rows,
    )
    return TimingCurve(manifest, delta_grid, smallness, tuple(successes))


@dataclass
class CouplingCurves:
    manifest: ExperimentManifest
    fractions: tuple[float, ...]
    mean_success: tuple[float, ...]
    min_success: tuple[float, ...]
    zeta_max_mean: tuple[float, ...]
    discarded_mass: tuple[float, ...]  # summed over instances; nonzero only when pruning


def exp_coupling(
    f_grid=None,
    instances: int = 1000,
    seed: int = 0,
    spec: ChainSpec | None = None,
    code_id: str = "minimal15",
    out_dir: str | None = None,
    prune_below: float = 0.0,
) -> CouplingCurves:
    """Static coupling disorder: per fraction, success over random instances."""
    spec = spec or pst_couplings(15)
    f_grid = DEFAULT_COUPLING_GRID if f_grid is None else tuple(float(f) for f in f_grid)
    if not all(0.0 <= f < 1.0 for f in f_grid):
        raise ValueError("disorder fraction must be finite and in [0, 1)")
    if instances < 0:
        raise ValueError("instances must be nonnegative")
    manifest = ExperimentManifest(
        "coupling", spec, code_id, f_grid, instances, seed, prune_below=prune_below
    )
    # an unknown code or chain is refused before anything is written
    setup = _revival_setup(spec, code_id, manifest.alpha, manifest.beta, prune_below)

    def evaluate(indices):
        for i in indices:  # one record per grid point, checkpointed as it is yielded
            vals = np.empty(instances)
            zeta_vals = np.empty(instances)
            discarded = np.empty(instances)
            for k in range(instances):
                # derive the per-instance key from the master seed, the grid
                # point and the instance index so draws are order-independent
                draw_seed = int(
                    sample_rng(seed, i * instances + k).integers(0, 2**63 - 1)
                )
                vals[k], zeta_vals[k], discarded[k] = setup.success_coupling_instance(
                    f_grid[i], draw_seed
                )
            yield {
                "f": f_grid[i],
                "mean": float(np.mean(vals)) if instances else 1.0,
                "min": float(np.min(vals)) if instances else 1.0,
                "zeta_mean": float(np.mean(zeta_vals)) if instances else 0.0,
                "discarded_mass": float(np.sum(discarded)),
            }

    recs = _fill(out_dir, manifest, len(f_grid), evaluate)
    means = [float(r["mean"]) for r in recs]
    mins = [float(r["min"]) for r in recs]
    zetas = [float(r["zeta_mean"]) for r in recs]
    rows = [
        [float(f_grid[i]), means[i], mins[i], zetas[i]] for i in range(len(f_grid))
    ]
    _write_csv(
        out_dir, "coupling.csv",
        ["f", "mean_success", "min_success", "zeta_max_mean"], rows,
    )
    return CouplingCurves(
        manifest, f_grid, tuple(means), tuple(mins), tuple(zetas),
        tuple(float(r["discarded_mass"]) for r in recs),
    )


@dataclass
class DephasingReport:
    manifest: ExperimentManifest
    gammas: tuple[float, ...]
    max_deviation: tuple[float, ...]  # from the closed-form mode decay


def exp_dephasing(
    spec: ChainSpec | None = None,
    gamma_grid=(0.01, 0.1),
    out_dir: str | None = None,
) -> DephasingReport:
    """Master-equation check of the mode-coherence decay on a small chain.

    Starts from |0...0+> (unit coherence in the last site's mode pair),
    evolves it exactly under the dephasing master equation (lindblad_evolve)
    across DEPHASING_TIME_POINTS times up to the transfer time, and reports,
    per gamma, the worst deviation of every mode coherence from
    e^{-2 gamma t} (freefermion.chi_decay) times its initial value.  One
    checkpointed record per gamma; a NaN deviation propagates into the report.
    """
    spec = spec or pst_couplings(5)
    n = spec.n_sites
    if n > 6:
        raise ResourceLimitError("dephasing experiment limited to N <= 6")
    gamma_grid = tuple(float(g) for g in gamma_grid)
    if not all(0.0 <= g < np.inf for g in gamma_grid):
        raise ValueError("gamma must be finite and nonnegative")
    manifest = ExperimentManifest("dephasing", spec, "", gamma_grid, DEPHASING_TIME_POINTS, 0)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[1] = 1 / np.sqrt(2)  # last site in |+>, rest |00..0>
    rho0 = from_density(StateVector(amps, n))
    times = np.linspace(0.0, analyze_transfer(spec).transfer_time, DEPHASING_TIME_POINTS)
    chi0 = [chi(rho0, spec, m, 0.0) for m in range(1, 2 * n + 1)]

    def evaluate(indices):
        for i in indices:  # one record per gamma, checkpointed as it is yielded
            gamma, rho, dev = gamma_grid[i], rho0, []
            for k in range(1, DEPHASING_TIME_POINTS):
                rho = lindblad_evolve(rho, spec, gamma, times[k] - times[k - 1])
                decay = chi_decay(gamma, times[k])[0]
                for m in range(1, 2 * n + 1):
                    dev.append(abs(chi(rho, spec, m, times[k]) - decay * chi0[m - 1]))
            yield {"gamma": gamma, "max_abs_deviation": float(np.max(dev))}

    recs = _fill(out_dir, manifest, len(gamma_grid), evaluate)
    devs = [float(r["max_abs_deviation"]) for r in recs]
    rows = [[gamma_grid[i], devs[i]] for i in range(len(gamma_grid))]
    _write_csv(out_dir, "dephasing.csv", ["gamma", "max_abs_deviation"], rows)
    return DephasingReport(manifest, gamma_grid, tuple(devs))


def brute_force_conjugate(p: PauliString, spec: ChainSpec, t: float) -> np.ndarray:
    """Dense e^{-iHt} P e^{iHt}: the small-N oracle for operator propagation."""
    if spec.n_sites > _BRUTE_FORCE_MAX_SITES:
        raise ResourceLimitError(
            f"brute-force conjugation limited to N <= {_BRUTE_FORCE_MAX_SITES}"
        )
    if p.n_sites != spec.n_sites:
        raise ValueError("size mismatch")
    u = dense_unitary(spec, t)
    return u @ p.dense() @ u.conj().T
