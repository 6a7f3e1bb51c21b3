"""Error-scenario generators.

Each scenario produces the exact evolved state (or the perturbed chain)
handed to the decoder: a single phase flip injected mid-transfer, the
expm oracle for the single-Z read-out, or a disorder instance of the
couplings, reproducible from its seed.  The other scenarios are mode
unitaries in hilbert: a timing offset on the readout is the
single-particle unitary of the shifted time (mode_unitaries), and a run
with phase flips, such as one stochastic dephasing trajectory
(trajectory_sample), is one product of those and reflections
(jump_unitary).
"""

from __future__ import annotations

import numpy as np

from .chain import ChainSpec, single_excitation_matrix
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

    The oracle for single-Z samples: both evolutions are hilbert.evolve's
    exact "expm" method, independent of the free-fermion engine.  Refuses a
    site that is not a whole number in 1..N (check_sites).
    """
    site = int(check_sites(spec.n_sites, site))
    if not 0 <= t_err <= total_time:
        raise ValueError("need 0 <= t_err <= total_time")
    psi = evolve(state, spec, t_err, method="expm")
    psi = apply_pauli(psi, pauli_z(spec.n_sites, site))
    return evolve(psi, spec, total_time - t_err, method="expm")


def disordered_spec(spec: ChainSpec, f: float, rng_seed: int) -> tuple[ChainSpec, float]:
    """Multiply each coupling by an independent uniform draw from [1-f, 1+f].

    Fields are left untouched.  Returns the perturbed spec and the largest
    singular value of the single-excitation perturbation.
    """
    if not 0 <= f < 1:
        raise ValueError("disorder fraction must be in [0, 1)")
    rng = sample_rng(rng_seed, 1)
    js = np.array(spec.couplings) * rng.uniform(1 - f, 1 + f, spec.n_sites - 1)
    perturbed = ChainSpec(spec.n_sites, tuple(js), spec.fields)
    dh = single_excitation_matrix(perturbed) - single_excitation_matrix(spec)
    zeta_max = float(np.max(np.abs(np.linalg.eigvalsh(dh)))) if spec.n_sites else 0.0
    return perturbed, zeta_max


coupling_disorder = disordered_spec
