"""Error-scenario generators.

Each scenario produces the exact evolved state (or the perturbed chain)
handed to the decoder: a single phase flip injected mid-transfer, a timing
offset on the readout, or a disorder instance of the couplings.  One
stochastic dephasing trajectory is hilbert.trajectory_sample.  Disorder
instances are reproducible from their seed.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainSpec, single_excitation_matrix
from .hilbert import StateVector, apply_pauli, evolve
from .pauli import PauliString, site_bit


def inject_single_z(
    state: StateVector,
    spec: ChainSpec,
    site: int,
    t_err: float,
    total_time: float,
    method: str = "eig",
) -> StateVector:
    """Evolve to t_err, flip the phase of one site, evolve out to total_time."""
    if not 1 <= site <= spec.n_sites:
        raise ValueError("site out of range")
    if not 0 <= t_err <= total_time:
        raise ValueError("need 0 <= t_err <= total_time")
    psi = evolve(state, spec, t_err, method=method)
    psi = apply_pauli(psi, PauliString(spec.n_sites, 0, site_bit(spec.n_sites, site)))
    return evolve(psi, spec, total_time - t_err, method=method)


def timing_offset(
    state: StateVector, spec: ChainSpec, nominal: float, delta: float, method: str = "eig"
) -> tuple[StateVector, float]:
    """Evolve for nominal + delta; also report |delta| * lambda_max.

    The report is the caller's handle on the perturbative condition: the
    offset is a small error only while it is well below 1.
    """
    lam_max = float(np.max(np.abs(np.linalg.eigvalsh(single_excitation_matrix(spec)))))
    psi = evolve(state, spec, nominal + delta, method=method)
    return psi, abs(delta) * lam_max


def coupling_disorder(spec: ChainSpec, f: float, rng_seed: int) -> tuple[ChainSpec, float]:
    """Multiply each coupling by an independent uniform draw from [1-f, 1+f].

    Fields are left untouched (pass through perturb_fields=True on
    disordered_spec for exploratory runs).  Returns the perturbed spec and
    the largest singular value of the single-excitation perturbation.
    """
    return disordered_spec(spec, f, rng_seed, perturb_fields=False)


def disordered_spec(
    spec: ChainSpec, f: float, rng_seed: int, perturb_fields: bool = False
) -> tuple[ChainSpec, float]:
    if not 0 <= f < 1:
        raise ValueError("disorder fraction must be in [0, 1)")
    rng = np.random.Generator(np.random.Philox(key=[int(rng_seed) & (2**64 - 1), 1]))
    js = np.array(spec.couplings) * rng.uniform(1 - f, 1 + f, spec.n_sites - 1)
    bs = np.array(spec.fields)
    if perturb_fields:
        bs = bs * rng.uniform(1 - f, 1 + f, spec.n_sites)
    perturbed = ChainSpec(spec.n_sites, tuple(js), tuple(bs))
    dh = single_excitation_matrix(perturbed) - single_excitation_matrix(spec)
    zeta_max = float(np.max(np.abs(np.linalg.eigvalsh(dh)))) if spec.n_sites else 0.0
    return perturbed, zeta_max
