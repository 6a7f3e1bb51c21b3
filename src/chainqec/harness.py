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
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from . import __version__
from .chain import ChainSpec, analyze_transfer, pst_couplings
from .code import StabilizerCode, encode, minimal15, shor_code
from .decoder import RevivalEvaluator, _state_sums, check_prune
from .errors import ResourceLimitError
from .freefermion import chi_decay
from .hilbert import (
    StateVector,
    amplitude_plan,
    check_lindblad_work,
    check_mode_unitaries,
    check_sites,
    chi,
    dense_unitary,
    evolve,  # noqa: F401  unused here, but perfbench/spans.py traces harness.evolve
    from_density,
    hop_rows,
    lindblad_evolve,
    mode_minors,
    mode_unitaries,
    sample_rng,
)
from .noise import disordered_spec
from .pauli import PauliString

_BRUTE_FORCE_MAX_SITES = 6
# points evaluated together: the single-Z samples (or timing offsets) of one
# chunk are scored as one block, in one sparse product.  A point's value
# must not depend on its chunk, or a resumed run (which re-chunks the
# missing points) would differ from a fresh one; the chunk, batched-engine
# and resume tests check this.  On the 15-site chain (one BLAS thread,
# 2-core Xeon) a pruned single-Z sample took 0.41-0.45 ms in chunks of 8,
# 16 or 32 rows and about 0.5 ms in chunks of 64, whose (64, 3004) rows
# and pair overlaps outgrow the cache; an exact one took 0.06-0.12 ms at
# every size, less in larger chunks.
_CHUNK = 16

DEFAULT_TIMING_GRID_POINTS = 21
DEFAULT_TIMING_GRID_MAX_FRACTION = 0.1  # of t0
DEFAULT_COUPLING_GRID = tuple(np.linspace(0.0, 0.1, 11))
DEPHASING_TIME_POINTS = 9  # from 0 to the transfer time
# re/im of alpha then beta: the revival sweeps hold |+_L> = (|0_L> + |1_L>)/sqrt(2)
PLUS_LOGICAL = (1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 0.0)


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
    logical: tuple[float, float, float, float] = PLUS_LOGICAL
    prune_below: float = 0.0
    version: str = field(default=__version__)

    def __post_init__(self):
        object.__setattr__(self, "prune_below", check_prune(self.prune_below))

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
    """Shared machinery for the revival experiments on one chain.

    The read-out is the paper's: the minimal15 code on the whole chain,
    holding alpha|0_L> + beta|1_L>, corrected at twice the transfer time.

    Nothing here diagonalises a sector or evolves a state.  The chain is
    quadratic and number-conserving, so an error-free revival state, at a
    shifted read-out time or on a disordered chain, is Gamma(M)|encoded>
    for one N x N mode unitary M (mode_unitaries), and each of its
    amplitudes is a sum over the encoded state's entries x of
    c_x <y|Gamma(M)|x> = c_x det M[y, x], read as a minor of size
    min(w, N - w).  A minor plan (minor_plan) expands a set of them along
    their last columns as one graph of shared sub-minors, evaluated
    elementwise for a whole stack of M (mode_minors), and its fold
    (amplitude_plan) puts each pair's sign and c_x in its target's column.
    Two plans serve every call:

    - `plan`, built here, holds only the amplitudes W reads (154 of 3004
      on minimal15): with |+_L>, 459 5 x 5 complementary minors and the
      vacuum's constant 1, from 45, 315, 990, 945 and 459 sub-minors of
      sizes 1..5.  Its fold times W is `minor_weights`, held transposed
      (W column x pair) as the product reads it, so exact successes of a
      stack of M are sum_c |(minor_weights @ minors^T)_c|^2
      (success_mode_unitaries), with no support-sized row.
    - the support plan, built on first use (support_rows), holds the whole
      support: 9010 pairs with |+_L>.  Pruned scoring needs masses
      quadratic in the rows, so a pruned stack's rows are its minors times
      that fold, handed to the evaluator, and the arrival state is the
      same product at M = U(duration).

    A phase flip on site s at time t arrives as phi - 2 n_v phi, one
    rotated fermionic mode v about the error-free arrival state
    phi = Gamma(U(duration))|encoded> (`arrival`), instead of a new plan:
    v is row s of the mode unitary U(t - duration), from the same
    mode_unitaries that serves every other scenario (single_z_forms).
    Since n_v = sum_ij conj(v_i) v_j c_i^dag c_j, that state is a
    quadratic form in v: with q = conj(v) (x) v the rows on the
    evaluator's support are phi - 2 q H, H the sparse N^2 x support table
    of the hopped states c_i^dag c_j phi (hop_rows).  Every revival state
    stays in the excitation sectors the encoded state occupies, the
    support, so a chunk of samples is scored on (S, support) blocks, never
    scattered into a 2^N vector.  Exact scoring needs only rows @ W (W the
    evaluator's weights), so rows @ W = phi W - 2 q K: `arrival_overlaps`
    holds phi W and the sparse N^2 x column table `hop_overlaps` holds
    K = H W (225 x 304, 35 160 nonzeros on minimal15), and no row is
    built.  The arrival, phi W and K are built on the first single-Z
    call, so a process that runs only exact timing or coupling sweeps
    builds neither the support plan nor the arrival.  Pruned scoring
    needs masses quadratic in the rows, so it builds them (single_z_rows)
    from H, `hop_table` (180 180 nonzeros, about 3.4 MiB), which only a
    pruned call builds.  Every array held here, the evaluator's and the
    plans' included, is read-only, and the pruning threshold is an
    argument of each scoring call, so one set-up serves every sweep of a
    process on its chain (_revival_setup).
    """

    def __init__(self, spec: ChainSpec, alpha: complex, beta: complex):
        codeobj = minimal15()
        if codeobj.n_qubits != spec.n_sites:
            raise ValueError("revival experiments need the code on the whole chain")
        self.spec = spec
        report = analyze_transfer(spec)
        if not report.is_perfect:
            raise ValueError("chain does not transfer perfectly")
        self.transfer_time = report.transfer_time
        self.duration = 2.0 * report.transfer_time
        self.spectral_bound = report.spectral_bound
        self.encoded = encode(codeobj, alpha, beta)
        self.evaluator = RevivalEvaluator(codeobj, alpha, beta)
        # row p of minor_weights^T: pair p's sign and encoded amplitude times
        # its read row of W
        weights, support = self.evaluator.weights, self.evaluator.support
        read = np.unique(weights.indices)
        self.plan, fold = amplitude_plan(spec.n_sites, support[read], self.encoded.amps)
        self.minor_weights = sp.csc_array(fold @ sp.csr_array(weights)[read]).T
        for a in (self.encoded.amps, self.minor_weights.data,
                  self.minor_weights.indices, self.minor_weights.indptr):
            a.flags.writeable = False

    @cached_property
    def support_plan(self) -> tuple:
        """(minor plan, fold) of the whole support from the encoded state (amplitude_plan).

        Built on first use: exact timing and coupling sweeps never read it.
        """
        return amplitude_plan(self.spec.n_sites, self.evaluator.support, self.encoded.amps)

    def support_rows(self, m: np.ndarray) -> np.ndarray:
        """(S, support) rows Gamma(M)|encoded> on the support, one per member of the stack m."""
        plan, fold = self.support_plan
        return mode_minors(m, plan) @ fold

    @cached_property
    def arrival(self) -> StateVector:
        """phi = Gamma(U(duration))|encoded>, the error-free state at the read-out.

        Built on the first single-Z call, from the support plan.
        """
        amps = np.zeros_like(self.encoded.amps)
        m = mode_unitaries(self.spec, [self.duration])
        amps[self.evaluator.support] = self.support_rows(m)[0]
        amps.flags.writeable = False
        return StateVector(amps, self.spec.n_sites)

    @cached_property
    def arrival_overlaps(self) -> np.ndarray:
        """phi W, built on the first exact single-Z call."""
        weights, support = self.evaluator.weights, self.evaluator.support
        overlaps = self.arrival.amps[support] @ weights
        overlaps.flags.writeable = False
        return overlaps

    @cached_property
    def hop_overlaps(self) -> sp.csc_array:
        """K = H W, built on the first exact single-Z call.

        W reads only a few support positions (154 of 3004 on minimal15), so
        K needs the hopped states c_i^dag c_j phi there alone.  A sparse
        product: the 1 MiB dense one, once freed, left every later pruned
        chunk taking about a fifth more page faults (glibc's heap).
        """
        weights, support = self.evaluator.weights, self.evaluator.support
        read = np.unique(weights.indices)
        table = sp.csc_array(hop_rows(self.arrival, support[read]) @ weights[read])
        for a in (table.data, table.indices, table.indptr):
            a.flags.writeable = False
        return table

    @cached_property
    def hop_table(self) -> sp.csr_array:
        """H: row (i, j) holds c_i^dag c_j phi on the evaluator's support.

        Built on the first pruned call, not with the set-up: exact and
        coupling sweeps never read it.
        """
        table = hop_rows(self.arrival, self.evaluator.support)
        for a in (table.data, table.indices, table.indptr):
            a.flags.writeable = False
        return table

    def single_z_forms(self, sites, t_errs) -> np.ndarray:
        """(S, N^2) rows q_k = conj(v_k) (x) v_k, v_k the mode the flip of sample k rotates.

        Z_s conjugated by U(tau) = exp(-i H1 tau) is 1 - 2 n_v with v row s
        of U(tau) (mode_unitaries), tau = t_err - duration.  Refuses
        anything but one site per time, a site that is not a whole number
        in 1..N (check_sites) and a non-finite time.
        """
        t_errs = np.asarray(t_errs, dtype=float)
        if t_errs.ndim != 1 or np.shape(sites) != t_errs.shape:
            raise ValueError("need one site per time")
        rows = check_sites(self.spec.n_sites, sites) - 1
        v = mode_unitaries(self.spec, t_errs - self.duration)[np.arange(rows.size), rows]
        return (v.conj()[:, :, None] * v[:, None, :]).reshape(len(v), v.shape[1] ** 2)

    def single_z_rows(self, q: np.ndarray) -> np.ndarray:
        """(S, support) revival rows phi - 2 q H, one per row of q (single_z_forms)."""
        return self.arrival.amps[self.evaluator.support] - 2.0 * (q @ self.hop_table)

    def success_single_z(self, sites, t_errs,
                         prune_below: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """One phase flip per sample: Z on sites[k] at time t_errs[k] of the revival run.

        Returns (success probability, discarded mass) arrays, one entry per
        sample; branches below prune_below are discarded (0 = exact).  Each
        sample's v is a row of its own U(tau), and K or H is applied by
        scipy's sparse kernels, which sum each entry in a fixed order, so a
        value does not depend on its chunk.
        """
        q = self.single_z_forms(sites, t_errs)
        if prune_below <= 0.0:
            # as in the evaluator, at 0 nothing can be dropped, so only rows @ W
            # is needed: the quadratic form phi W - 2 q K, no row built
            overlaps = self.arrival_overlaps[:, None] - 2.0 * (self.hop_overlaps.T @ q.T)
            return _state_sums(np.abs(overlaps) ** 2), np.zeros(len(q))
        return self.evaluator.success(self.single_z_rows(q), prune_below)

    def success_mode_unitaries(self, m,
                               prune_below: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Success of Gamma(M)|encoded> per N x N unitary M of the stack m (S, N, N).

        Returns (success probability, discarded mass) arrays, as
        success_single_z does.  A timing offset is M = U(2T + delta), a
        disorder instance the perturbed chain's U'(2T) and a run with phase
        flips a jump_unitary.
        Refuses anything but a stack of finite unitaries on this chain's N
        sites: the complementary minors hold only for a unitary.  Exact
        members are read from the minors W reads (mode_minors, then a
        sparse product summing each entry in a fixed order), pruned members
        from their rows Gamma(M)|encoded> (support_rows, the same), so a
        member's values do not depend on the stack.
        """
        m = check_mode_unitaries(m, self.spec.n_sites)
        if prune_below <= 0.0:
            minors = mode_minors(m, self.plan)
            return _state_sums(np.abs(self.minor_weights @ minors.T) ** 2), np.zeros(len(m))
        return self.evaluator.success(self.support_rows(m), prune_below)

    def success_coupling_instance(self, f: float, draw_seed: int,
                                  prune_below: float = 0.0) -> tuple[float, float, float]:
        """(success probability, largest perturbation singular value, discarded mass).

        One disorder instance alone; exp_coupling scores its instances in
        stacks through success_mode_unitaries instead, to the same values.
        """
        perturbed, zeta = disordered_spec(self.spec, f, draw_seed)
        m = mode_unitaries(perturbed, [self.duration])
        success, discarded = self.success_mode_unitaries(m, prune_below)
        return float(success[0]), zeta, float(discarded[0])


@lru_cache(maxsize=4)
def _revival_setup(spec: ChainSpec) -> RevivalSetup:
    """The revival machinery for one chain, holding |+_L> (PLUS_LOGICAL).

    Built once per process for each chain and shared by every revival
    sweep on it, exact or pruned.
    """
    re_a, im_a, re_b, im_b = PLUS_LOGICAL
    return RevivalSetup(spec, complex(re_a, im_a), complex(re_b, im_b))


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
    out_dir: str | None = None,
    prune_below: float = 0.0,
) -> SingleZSummary:
    """Random single phase flips (uniform site and time) on the revival setup."""
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    spec = spec or pst_couplings(15)
    manifest = ExperimentManifest(
        "single_z", spec, "minimal15", (), samples, seed, prune_below=prune_below
    )
    # a chain of another length or without perfect transfer is refused
    # before anything is written
    setup = _revival_setup(spec)

    def evaluate(indices):
        draws = [sample_rng(seed, i) for i in indices]
        sites = [int(rng.integers(1, spec.n_sites + 1)) for rng in draws]
        t_errs = [float(rng.uniform(0.0, setup.duration)) for rng in draws]
        success, discarded = setup.success_single_z(sites, t_errs, prune_below)
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
    out_dir: str | None = None,
    prune_below: float = 0.0,
) -> TimingCurve:
    """Readout-time offsets on the revival setup, scored per chunk.

    Each offset is the mode unitary U(2T + delta), scored by
    RevivalSetup.success_mode_unitaries, exact or pruned.
    """
    spec = spec or pst_couplings(15)
    manifest = ExperimentManifest("timing", spec, "minimal15", (), 0, 0, prune_below=prune_below)
    setup = _revival_setup(spec)
    if delta_grid is None:
        delta_grid = default_timing_grid(setup.transfer_time)
    delta_grid = tuple(float(d) for d in delta_grid)
    if not all(np.isfinite(delta_grid)):
        raise ValueError("grid must be finite")
    manifest = replace(manifest, grid=delta_grid)

    def evaluate(indices):
        deltas = [delta_grid[i] for i in indices]
        m = mode_unitaries(spec, setup.duration + np.array(deltas))
        success, discarded = setup.success_mode_unitaries(m, prune_below)
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
    out_dir: str | None = None,
    prune_below: float = 0.0,
) -> CouplingCurves:
    """Static coupling disorder: per fraction, success over random instances.

    Each instance is the perturbed chain's mode unitary U'(2T), scored by
    RevivalSetup.success_mode_unitaries, exact or pruned, in stacks that
    may straddle grid points: a member's value does not depend on its stack.
    """
    spec = spec or pst_couplings(15)
    f_grid = DEFAULT_COUPLING_GRID if f_grid is None else tuple(float(f) for f in f_grid)
    if not all(0.0 <= f < 1.0 for f in f_grid):
        raise ValueError("disorder fraction must be finite and in [0, 1)")
    if instances < 1:
        raise ValueError("instances must be positive")
    manifest = ExperimentManifest(
        "coupling", spec, "minimal15", f_grid, instances, seed, prune_below=prune_below
    )
    # a chain of another length or without perfect transfer is refused
    # before anything is written
    setup = _revival_setup(spec)

    def evaluate(indices):
        # the chunk's (point, instance) jobs in order, scored in stacks of at
        # most _CHUNK mode unitaries; a point's record is yielded, and so
        # checkpointed, as soon as its last instance is scored
        jobs = [(i, k) for i in indices for k in range(instances)]
        vals, zeta_vals, discarded = (np.empty((len(indices), instances)) for _ in range(3))
        done = 0
        for start in range(0, len(jobs), _CHUNK):
            stack = []
            for j, (i, k) in enumerate(jobs[start:start + _CHUNK], start):
                # derive the per-instance key from the master seed, the grid
                # point and the instance index so draws are order-independent
                draw_seed = int(
                    sample_rng(seed, i * instances + k).integers(0, 2**63 - 1)
                )
                perturbed, zeta_vals.flat[j] = disordered_spec(spec, f_grid[i], draw_seed)
                stack.append(mode_unitaries(perturbed, [setup.duration])[0])
            scored = slice(start, start + len(stack))
            vals.flat[scored], discarded.flat[scored] = setup.success_mode_unitaries(
                np.array(stack), prune_below
            )
            while done < len(indices) and (done + 1) * instances <= scored.stop:
                yield {
                    "f": f_grid[indices[done]],
                    "mean": float(np.mean(vals[done])),
                    "min": float(np.min(vals[done])),
                    "zeta_mean": float(np.mean(zeta_vals[done])),
                    "discarded_mass": float(np.sum(discarded[done])),
                }
                done += 1

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
    evolves it exactly under the dephasing master equation, one
    lindblad_evolve call per gamma across DEPHASING_TIME_POINTS times up to
    the transfer time, and reports, per gamma, the worst deviation of the
    2N mode coherences (one chi call per time) from e^{-2 gamma t}
    (freefermion.chi_decay) times their initial values.  Every gamma's
    work bound is checked (check_lindblad_work) before the checkpoint
    opens.  One checkpointed record per gamma; a NaN deviation propagates
    into the report.
    """
    spec = spec or pst_couplings(5)
    n = spec.n_sites
    if n > 6:
        raise ResourceLimitError("dephasing experiment limited to N <= 6")
    gamma_grid = tuple(float(g) for g in gamma_grid)
    if not all(0.0 <= g < np.inf for g in gamma_grid):
        raise ValueError("gamma must be finite and nonnegative")
    manifest = ExperimentManifest("dephasing", spec, "", gamma_grid, DEPHASING_TIME_POINTS, 0)
    times = np.linspace(0.0, analyze_transfer(spec).transfer_time, DEPHASING_TIME_POINTS)
    for gamma in gamma_grid:
        check_lindblad_work(spec, gamma, times[-1])
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[1] = 1 / np.sqrt(2)  # last site in |+>, rest |00..0>
    rho0 = from_density(StateVector(amps, n))
    chi0 = chi(rho0, spec, 0.0)

    def evaluate(indices):
        for i in indices:  # one record per gamma, checkpointed as it is yielded
            gamma = gamma_grid[i]
            states = lindblad_evolve(rho0, spec, gamma, times[1:])
            dev = [np.abs(chi(rho, spec, t) - chi_decay(gamma, t)[0] * chi0)
                   for rho, t in zip(states, times[1:])]
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
