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

from . import __version__
from .chain import ChainSpec, analyze_transfer, pst_couplings
from .code import StabilizerCode, minimal15, shor_code
from .code import encode  # noqa: F401  unused here, but perfbench/spans.py traces harness.encode
from .decoder import RevivalEvaluator, check_prune
from .errors import ResourceLimitError
from .freefermion import chi_decay
from .hilbert import (
    DensityMatrix,
    StateVector,
    _read_only,
    amplitude_plan,
    check_lindblad_work,
    check_mode_unitaries,
    check_sites,
    chi,
    chi_support,
    dense_unitary,
    evolve,  # noqa: F401  unused here, but perfbench/spans.py traces harness.evolve
    apply_hops,
    from_density,
    hop_plan,
    lindblad_evolve,
    mode_minors,
    mode_unitaries,
    sample_rng,
    stack_mode_unitaries,
)
from .noise import disorder_stack, disordered_spec
from .pauli import PauliString

_BRUTE_FORCE_MAX_SITES = 6
# points evaluated together: the single-Z samples (or timing offsets) of one
# chunk are scored as one block, in one evaluator call.  A point's value
# must not depend on its chunk, or a resumed run (which re-chunks the
# missing points) would differ from a fresh one; the chunk, batched-engine
# and resume tests check this.  CHANGES.md records what a chunk costs.
_CHUNK = 16
# phi is planned in this many blocks of positions, so that no one plan of all
# their pairs is held at once (Readout._arrival_at)
_ARRIVAL_BLOCKS = 4

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
    each record is appended to points.jsonl as it arrives.  Only lines
    ending in a newline are read back: a record cut short by an
    interruption is dropped from the file and its point recomputed.
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
            with open(path, "rb+") as fh:
                # an interrupted write leaves a last line without its newline: cut it
                # off, so its point is computed again and appended on a line of its own
                complete = fh.read()
                complete = complete[:complete.rfind(b"\n") + 1]
                fh.truncate(len(complete))
            for line in complete.splitlines():
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


@dataclass(eq=False)
class Readout:
    """The positions a revival state is read at, its evaluator there, and two ways to build rows.

    `evaluator` scores (S, support) rows at its support positions, and
    each way to build those rows is planned for them alone, on first use:

    - `amplitudes`, the minor plan and fold of Gamma(M)|encoded> there
      (amplitude_plan), for a stack of mode unitaries M;
    - `hops`, the hop plan of phi = Gamma(U(duration))|encoded> there
      (hop_plan), for rows phi - 2 n_v phi.  phi is built only where that
      plan asks for it, on the positions' one-hop reach, and is not
      kept.

    `transport` is U(duration) as a one-member (1, N, N) stack.
    """

    evaluator: RevivalEvaluator
    transport: np.ndarray

    @cached_property
    def amplitudes(self) -> tuple:
        """(minor plan, fold) of Gamma(M)|encoded> at the evaluator's support (amplitude_plan)."""
        ev = self.evaluator
        return amplitude_plan(self.transport.shape[-1], ev.support, ev.reference)

    @cached_property
    def hops(self) -> tuple:
        """hop_plan of phi at the evaluator's support, phi built where the plan asks for it."""
        return hop_plan(self.transport.shape[-1], self._arrival_at, self.evaluator.support)

    def _arrival_at(self, positions: np.ndarray) -> np.ndarray:
        """phi = Gamma(U(duration))|encoded> at the basis indices `positions`, read-only.

        The positions are planned in _ARRIVAL_BLOCKS blocks, each plan the
        block's alone and freed once it is read (amplitude_plan), so no plan
        of all their pairs is held at once.  A target's amplitude does not
        depend on the targets planned with it, so phi has, at every index,
        the bits any one plan gives it.
        """
        n, reference = self.transport.shape[-1], self.evaluator.reference
        blocks = (amplitude_plan(n, block, reference)
                  for block in np.array_split(positions, _ARRIVAL_BLOCKS))
        return _read_only(np.concatenate([(mode_minors(self.transport, plan) @ fold)[0]
                                          for plan, fold in blocks]))


class RevivalSetup:
    """Shared machinery for the revival experiments on one chain.

    The read-out is the paper's: the minimal15 code on the whole chain,
    holding alpha|0_L> + beta|1_L>, corrected at twice the transfer time.

    Nothing here diagonalises a sector, evolves a state or holds an array
    with 2^N entries.  The encoded state is held as its nonzero entries,
    `reference` = (basis indices ascending, amplitudes): the evaluator's
    reference (code.encode_entries, 4 entries for |+_L>), so one set-up
    encodes once and never densely.  The chain is
    quadratic and number-conserving, so an error-free revival state, at a
    shifted read-out time or on a disordered chain, is Gamma(M)|encoded>
    for one N x N mode unitary M (mode_unitaries), and each of its
    amplitudes is a sum over the encoded state's entries x of
    c_x <y|Gamma(M)|x> = c_x det M[y, x], read as a minor of size
    min(w, N - w).  A minor plan (minor_plan) expands a set of them along
    their last columns as one graph of shared sub-minors, evaluated
    elementwise for a whole stack of M (mode_minors), and its fold
    (amplitude_plan) puts each pair's sign and c_x in its target's column.
    A phase flip on site s at time t arrives as phi - 2 n_v phi, one
    rotated fermionic mode v about the error-free arrival state
    phi = Gamma(U(duration))|encoded>: v is row s of the mode unitary
    U(t - duration), and a hop plan of phi (hop_plan, apply_hops) builds
    the rows.  Every revival state stays in the excitation sectors the
    encoded state occupies, the support, so a chunk is scored as
    (S, positions) rows, never scattered into a 2^N vector.

    Every score, exact or pruned, builds such rows through one Readout
    and is one call of its evaluator; the pruning threshold only picks
    the read-out:

    - `exact`, on the 154 support positions the weights W read (on
      minimal15), with the evaluator restricted to them
      (RevivalEvaluator.restricted): it shares the whole-support
      evaluator's decode tables and columns and keeps W's entries and
      stored order, so one set-up builds W once.  Its minor plan has 459
      5 x 5 complementary minors and the vacuum's 1 (with |+_L>), and phi
      for its hop plan is built on their one-hop reach, 1504 positions.
    - `pruned`, on the whole support (3004 positions), since the branch
      and leaf masses are quadratic in the rows.  Its minor plan has 9010
      pairs (with |+_L>), and its hop reach is the support itself.

    Each read-out builds its plans on first use, so no exact sweep builds
    a plan on the whole support and no single-Z sweep a minor plan.
    Support positions are found by lookups on the sorted support, not a
    2^N table (RevivalEvaluator).  No scoring loads scipy or numpy.ma.
    Every array held here, the evaluators' and the plans' included, is
    read-only, and the pruning threshold is an argument of each scoring
    call, so one set-up serves every sweep of a process on its chain
    (_revival_setup).
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
        evaluator = RevivalEvaluator(codeobj, alpha, beta)
        self.reference = evaluator.reference  # the encoded state's (indices, amplitudes)
        transport = _read_only(mode_unitaries(spec, [self.duration]))
        self.exact = Readout(evaluator.restricted(), transport)
        self.pruned = Readout(evaluator, transport)
        self._work: dict = {}  # apply_hops' block-bounded work buffers, both hop plans (hilbert._work_array)

    def _modes(self, sites, t_errs) -> np.ndarray:
        """(S, N) modes v_k the flip of sample k rotates: row s of U(t_err - duration).

        Z_s conjugated by U(tau) = exp(-i H1 tau) is 1 - 2 n_v with v row s
        of U(tau) (mode_unitaries).  Refuses anything but one site per
        time, a site that is not a whole number in 1..N (check_sites) and
        a non-finite time.
        """
        t_errs = np.asarray(t_errs, dtype=float)
        if t_errs.ndim != 1 or np.shape(sites) != t_errs.shape:
            raise ValueError("need one site per time")
        rows = check_sites(self.spec.n_sites, sites) - 1
        return mode_unitaries(self.spec, t_errs - self.duration)[np.arange(rows.size), rows]

    def success_single_z(self, sites, t_errs,
                         prune_below: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """One phase flip per sample: Z on sites[k] at time t_errs[k] of the revival run.

        Returns (success probability, discarded mass) arrays, one entry per
        sample; branches below prune_below are discarded (0 = exact).  Each
        sample's v is a row of its own U(tau), and its row phi - 2 n_v phi
        is built alone (apply_hops on the read-out's hop plan), so a value
        does not depend on its chunk.
        """
        v = self._modes(sites, t_errs)
        out = self.pruned if prune_below > 0.0 else self.exact
        rows = apply_hops(out.hops, -2.0 * v.conj(), v, self._work, shift=1.0).T
        return out.evaluator.success(rows, prune_below)

    def success_mode_unitaries(self, m,
                               prune_below: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Success of Gamma(M)|encoded> per N x N unitary M of the stack m (S, N, N).

        Returns (success probability, discarded mass) arrays, as
        success_single_z does.  A timing offset is M = U(2T + delta), a
        disorder instance the perturbed chain's U'(2T) and a run with phase
        flips a jump_unitary.
        Refuses anything but a stack of finite unitaries on this chain's N
        sites: the complementary minors hold only for a unitary.  A
        member's row Gamma(M)|encoded> is its minors times the read-out's
        fold (mode_minors, amplitudes).  Every step is per member, so a
        member's values do not depend on the stack.
        """
        m = check_mode_unitaries(m, self.spec.n_sites)
        out = self.pruned if prune_below > 0.0 else self.exact
        plan, fold = out.amplitudes
        return out.evaluator.success(mode_minors(m, plan) @ fold, prune_below)

    def success_coupling_instance(self, f: float, draw_seed: int,
                                  prune_below: float = 0.0) -> tuple[float, float, float]:
        """(success probability, largest perturbation singular value, discarded mass).

        One disorder instance alone; exp_coupling builds and scores its
        instances in stacks (disorder_stack, stack_mode_unitaries,
        success_mode_unitaries) instead, to the same values.
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
        sites, t_errs, rng = [], [], None
        for i in indices:  # one generator, re-keyed by (seed, i) for each sample
            rng = sample_rng(seed, i, reuse=rng)
            sites.append(int(rng.integers(1, spec.n_sites + 1)))
            t_errs.append(float(rng.uniform(0.0, setup.duration)))
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
    discarded_mass: tuple[float, ...]  # per offset; nonzero only when pruning


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
    delta_grid = tuple(float(d) + 0.0 for d in delta_grid)  # -0.0 is recorded as 0.0
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
    return TimingCurve(manifest, delta_grid, smallness, tuple(successes),
                       tuple(float(r["discarded_mass"]) for r in recs))


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
    RevivalSetup.success_mode_unitaries, exact or pruned.  Instances are
    built and scored in stacks of up to _CHUNK (point, instance) jobs,
    which may straddle grid points: instance k of point i draws its seed
    from the key (seed, i * instances + k), and its coupling factors from
    (that draw seed, 1), through one generator re-keyed for every draw
    (sample_rng); the stack's matrices and zeta come from disorder_stack
    and its mode unitaries from one stacked eigh (stack_mode_unitaries).
    A member's values do not depend on its stack: each equals what
    disordered_spec and mode_unitaries give that instance alone.
    """
    spec = spec or pst_couplings(15)
    # -0.0 is recorded as 0.0
    f_grid = DEFAULT_COUPLING_GRID if f_grid is None else tuple(float(f) + 0.0 for f in f_grid)
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
        done, rng = 0, None
        for start in range(0, len(jobs), _CHUNK):
            batch = jobs[start:start + _CHUNK]
            draw_seeds = []
            for i, k in batch:
                # the per-instance key: the master seed, the grid point and the
                # instance index, so draws are order-independent
                rng = sample_rng(seed, i * instances + k, reuse=rng)
                draw_seeds.append(int(rng.integers(0, 2**63 - 1)))
            scored = slice(start, start + len(batch))
            h1, zeta_vals.flat[scored] = disorder_stack(
                spec, [f_grid[i] for i, _ in batch], draw_seeds, rng
            )
            vals.flat[scored], discarded.flat[scored] = setup.success_mode_unitaries(
                stack_mode_unitaries(h1, setup.duration), prune_below
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
    2N mode coherences from e^{-2 gamma t} (freefermion.chi_decay) times
    their initial values.  One chi call per gamma reads the coherences of
    all its times, each as the single-particle rotation of the state's
    bare ones, so no 2^N x 2^N unitary is built.  Only the part of the
    state that chi reads is evolved: its weight-pair blocks one excitation
    apart (chi_support), 10 of the 36 Liouvillian positions the state
    occupies at N = 5.  The master equation is linear and keeps each
    weight-pair block apart, so the coherences are those of the whole
    state's evolution; the two blocks' Hamiltonian parts are built once
    per chain and shared by every gamma (lindblad_evolve).  Refuses
    N > 6 (ResourceLimitError) and a gamma that is negative or not
    finite; every gamma's work bound is checked
    (check_lindblad_work) before the checkpoint opens.  One checkpointed
    record per gamma; a NaN deviation propagates into the report.
    """
    spec = spec or pst_couplings(5)
    n = spec.n_sites
    if n > 6:
        raise ResourceLimitError("dephasing experiment limited to N <= 6")
    gamma_grid = tuple(float(g) + 0.0 for g in gamma_grid)  # -0.0 is recorded as 0.0
    if not all(0.0 <= g < np.inf for g in gamma_grid):
        raise ValueError("gamma must be finite and nonnegative")
    manifest = ExperimentManifest("dephasing", spec, "", gamma_grid, DEPHASING_TIME_POINTS, 0)
    times = np.linspace(0.0, analyze_transfer(spec).transfer_time, DEPHASING_TIME_POINTS)
    for gamma in gamma_grid:
        check_lindblad_work(spec, gamma, times[-1])
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[1] = 1 / np.sqrt(2)  # last site in |+>, rest |00..0>
    rho0 = from_density(StateVector(amps, n))
    chi0 = chi([rho0], spec, [0.0])[0]
    read = DensityMatrix(rho0.mat * chi_support(n), n)

    def evaluate(indices):
        for i in indices:  # one record per gamma, checkpointed as it is yielded
            gamma = gamma_grid[i]
            states = lindblad_evolve(read, spec, gamma, times[1:])
            decay = np.array([chi_decay(gamma, t)[0] for t in times[1:]])
            dev = np.abs(chi(states, spec, times[1:]) - decay[:, None] * chi0)
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
