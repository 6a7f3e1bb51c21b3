"""Error-scenario generators.

Each scenario produces the exact evolved state (or the perturbed chain)
handed to the decoder: a single phase flip injected mid-transfer, the
exact oracle for the single-Z read-out, or disorder instances of the
couplings, reproducible from their seeds and built as one stack
(disorder_stack; disordered_spec is its one-member case).  The other
scenarios are mode unitaries in hilbert: a timing offset on the readout
is the single-particle unitary of the shifted time (mode_unitaries), and
a run with phase flips, such as one stochastic dephasing trajectory
(trajectory_sample), is one product of those and reflections
(jump_unitary).
"""

from __future__ import annotations

import numpy as np

from .chain import ChainSpec, tridiagonal
from .hilbert import StateVector, apply_pauli, check_sites, evolve, sample_rng
from .pauli import pauli_z


def inject_single_z(
    state: StateVector,
    spec: ChainSpec,
    site: int,
    t_err: float,
    total_time: float,
) -> StateVector:
    """Evolve to t_err, flip the phase of one site, evolve out to total_time.

    The oracle for single-Z samples: both evolutions are hilbert.evolve,
    exact and independent of the minors engine.  Refuses a site that is not
    a whole number in 1..N (check_sites).
    """
    site = int(check_sites(spec.n_sites, site))
    if not 0 <= t_err <= total_time:
        raise ValueError("need 0 <= t_err <= total_time")
    psi = evolve(state, spec, t_err)
    psi = apply_pauli(psi, pauli_z(spec.n_sites, site))
    return evolve(psi, spec, total_time - t_err)


def disorder_stack(spec: ChainSpec, fractions, draw_seeds,
                   rng: np.random.Generator | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Disorder instances as one stack: (S, N, N) single-excitation matrices and (S,) zeta.

    Instance k multiplies each coupling by an independent uniform draw
    from [1 - f_k, 1 + f_k], f_k = fractions[k], drawn from the key
    (draw_seeds[k], 1) (sample_rng; `rng`, one generator sample_rng built,
    is re-keyed for each instance rather than a generator built per key).
    Fields are left untouched.  zeta_k is the largest singular value of
    the perturbation H1'_k - H1, from one stacked eigvalsh.  The matrices
    are built together (chain.tridiagonal), with no ChainSpec per instance,
    and numpy runs LAPACK per member, so member k does not depend on the
    stack: disordered_spec is the one-member case.  Refuses a fraction
    outside [0, 1), NaN included.
    """
    fractions = np.asarray(fractions, dtype=float)
    if not np.all((fractions >= 0) & (fractions < 1)):
        raise ValueError("disorder fraction must be in [0, 1)")
    couplings = np.array(spec.couplings)
    factors = np.empty((len(fractions), spec.n_sites - 1))
    for k, (f, draw_seed) in enumerate(zip(fractions, draw_seeds, strict=True)):
        rng = sample_rng(draw_seed, 1, reuse=rng)
        factors[k] = rng.uniform(1 - f, 1 + f, spec.n_sites - 1)
    js = couplings * factors
    dh = tridiagonal(np.zeros(spec.n_sites), js - couplings)
    zeta = np.max(np.abs(np.linalg.eigvalsh(dh)), axis=1)
    return tridiagonal(spec.fields, js), zeta


def disordered_spec(spec: ChainSpec, f: float, rng_seed: int) -> tuple[ChainSpec, float]:
    """One disorder instance: the perturbed spec and its zeta (disorder_stack, one member).

    Multiplies each coupling by an independent uniform draw from
    [1 - f, 1 + f] keyed by (rng_seed, 1); fields are left untouched.
    zeta is the largest singular value of the single-excitation
    perturbation.
    """
    h1, zeta = disorder_stack(spec, [f], [rng_seed])
    return ChainSpec(spec.n_sites, tuple(np.diagonal(h1[0], 1)), spec.fields), float(zeta[0])


coupling_disorder = disordered_spec
