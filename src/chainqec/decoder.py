"""Modified syndrome decoding for chain-propagated errors.

The correction runs in two stages.  Bit-flip checks are measured first; the
decoded flip locations get X corrections plus a trailing-Z string fixed by a
parity rule: a Z lands on every site holding an odd number of detected flips
strictly on one side (below each flip for the revival setup, above it after
the controlled-phase network of the transfer setup).  The residual Z errors
sitting on the flip sites are then handled by the phase checks, with one
extra rule on three-block codes: a phase syndrome pointing at a block with
no detected flip, while flips exist elsewhere, is reinterpreted as phase
errors on the other two blocks.

These rules live in one place, DecoderTables, built once per (code, side).
RevivalEvaluator reads them to score the revival setup with a handful of
gathers and segment sums; every sweep, pruned or exact, goes through it.
decode_pipeline is the branch-recording oracle the evaluator is checked
against: it tracks every syndrome outcome as an explicit branch with its
Born probability, and also serves general mode.  The success probability
is the probability-weighted squared overlap with the reference state over
all leaves.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

import numpy as np

from .code import StabilizerCode, encode
from .hilbert import StateVector, apply_pauli, cz_network
from .pauli import PauliString, mask_of_sites, popcount

_EXACT_ZERO = 0.0
_MAX_X_CHECKS = 20  # the per-key arrays hold 2^(number of bit-flip checks) entries


@dataclass(frozen=True)
class BranchRecord:
    x_outcomes: tuple[int, ...]
    z_outcomes: tuple[int, ...]
    probability: float
    correction: PauliString
    fidelity: float
    corrected: bool  # False when a stage flagged the syndrome as undecodable


@dataclass
class CorrectionReport:
    branches: list[BranchRecord]
    success_probability: float
    discarded_mass: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "success_probability": self.success_probability,
                "discarded_mass": self.discarded_mass,
                "branches": [
                    {
                        "x_outcomes": "".join(map(str, b.x_outcomes)),
                        "z_outcomes": "".join(map(str, b.z_outcomes)),
                        "probability": b.probability,
                        "correction": b.correction.label(),
                        "fidelity": b.fidelity,
                        "corrected": b.corrected,
                    }
                    for b in self.branches
                ],
            }
        )


@dataclass
class DecodeOptions:
    mode: str = "revival"  # "revival" (trailing Z below each flip) or "general" (above)
    alpha: complex = 1 / np.sqrt(2)
    beta: complex = 1 / np.sqrt(2)
    prune_below: float = 0.0
    reference: StateVector | None = None  # expected state of the code qubits
    # general mode: each excitation reaching the far end carries the chain's
    # known arrival phase (TransferReport.global_phase); the receiver undoes
    # it per region excitation along with the controlled-phase network
    arrival_phase: complex = 1 + 0j
    # expected syndrome keys of a clean arrival (x, z); transfer conjugates the
    # stabilizers with mode-dependent signs, so a clean general-mode arrival can
    # sit in the -1 eigenspace of some checks.  Decoding is relative to this.
    syndrome_frame: tuple[int, int] = (0, 0)


# ---------------------------------------------------------------------------
# decode tables: the rule set, built once per (code, side)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DecoderTables:
    """The decode rules of one code and trailing-Z side; shared, so read-only.

    A syndrome key has bit g set iff check g reads -1.  The per-key arrays
    are indexed by bit-flip syndrome key; keys missing from x_table are
    undecodable and hold zeros.
    """

    code: StabilizerCode
    x_table: Mapping[int, tuple[int, ...]]  # bit-flip key -> flip sites
    z_table: Mapping[int, tuple[int, ...]]  # phase key -> Z-error sites
    block_of: Mapping[int, int]  # site -> index of its block
    correctable: np.ndarray  # bool per bit-flip key
    x_mask: np.ndarray  # X correction per bit-flip key
    z_trail: np.ndarray  # trailing-Z string of the parity rule per bit-flip key
    flip_blocks: np.ndarray  # bitmask of the blocks holding a flip per bit-flip key

    def cross_reference(self, z_key: int, flips) -> tuple[int, ...] | None:
        """Z-correction sites for phase key `z_key` after the X stage found `flips`.

        None when the key is undecodable.  On a three-block code a single
        phase error decoded onto a block holding no detected flip, while
        flips exist in other blocks, really means one phase error on each
        of the other two blocks (at their flip sites).
        """
        decoded = self.z_table.get(z_key)
        blocks = self.code.blocks
        if decoded is None or len(decoded) != 1 or len(blocks) != 3:
            return decoded
        flip_blocks = {self.block_of[s] for s in flips}

        def block_site(b: int) -> int:
            # put the Z on the block's detected flip when it has one; on the
            # inner-bitflip codes any site of the block is equivalent anyway
            return next((s for s in flips if s in blocks[b]), blocks[b][0])

        beta = self.block_of[decoded[0]]
        if beta not in flip_blocks and flip_blocks:
            return tuple(block_site(b) for b in range(3) if b != beta)
        if self.code.orientation == "inner-bitflip":
            return (block_site(beta),)
        return decoded


def _trailing_mask(n_sites: int, flips, side: str) -> int:
    """Z-mask of the parity rule: Z wherever an odd number of flips lies on `side`."""

    def count(q: int) -> int:  # flips strictly on `side` of site q
        return sum(1 for s in flips if (s > q if side == "below" else s < q))

    return mask_of_sites(
        n_sites, (q for q in range(1, n_sites + 1) if q not in flips and count(q) % 2)
    )


@lru_cache(maxsize=8)
def decoder_tables(codeobj: StabilizerCode, side: str) -> DecoderTables:
    """Build the decode tables of `codeobj` with the trailing Z string on `side`.

    The tables cover flip patterns up to floor((dx-1)/2) sites and Z
    patterns up to floor((dz-1)/2).  Collisions keep the first (lowest)
    representative; for the block codes here any two same-block patterns
    that collide differ by a stabilizer, so the representative acts
    identically on the code space.
    """
    if side not in ("below", "above"):
        raise ValueError("trailing side must be 'below' or 'above'")
    n_x = len(codeobj.x_detecting_generators)
    if n_x > _MAX_X_CHECKS:
        raise ValueError(f"decode tables sized for at most {_MAX_X_CHECKS} bit-flip checks")
    n = codeobj.n_qubits
    tables = []
    for gens, distance, x_error in (
        (codeobj.x_detecting_generators, codeobj.dx, True),
        (codeobj.z_detecting_generators, codeobj.dz, False),
    ):
        # an X error is seen by the checks' Z part, a Z error by their X part
        table: dict[int, tuple[int, ...]] = {0: ()}
        for w in range(1, (distance - 1) // 2 + 1):
            for sites in combinations(range(1, n + 1), w):
                mask = mask_of_sites(n, sites)
                key = 0
                for g, gen in enumerate(gens):
                    key |= (popcount(mask & (gen.z_mask if x_error else gen.x_mask)) & 1) << g
                table.setdefault(key, sites)
        tables.append(MappingProxyType(table))
    x_table, z_table = tables
    block_of = {s: b for b, blk in enumerate(codeobj.blocks) for s in blk}

    n_keys = 1 << n_x
    correctable = np.zeros(n_keys, dtype=bool)
    x_mask = np.zeros(n_keys, dtype=np.int64)
    z_trail = np.zeros(n_keys, dtype=np.int64)
    flip_blocks = np.zeros(n_keys, dtype=np.int64)
    for key, flips in x_table.items():
        correctable[key] = True
        x_mask[key] = mask_of_sites(n, flips)
        z_trail[key] = _trailing_mask(n, flips, side)
        for s in flips:
            flip_blocks[key] |= 1 << block_of[s]
    for arr in (correctable, x_mask, z_trail, flip_blocks):
        arr.flags.writeable = False
    return DecoderTables(
        codeobj, x_table, z_table, MappingProxyType(block_of),
        correctable, x_mask, z_trail, flip_blocks,
    )


# ---------------------------------------------------------------------------
# full pipeline (sparse branch engine; the evaluator's oracle)
# ---------------------------------------------------------------------------


def _reverse_bits(mask: int, n: int) -> int:
    out = 0
    for k in range(n):
        if mask & (1 << k):
            out |= 1 << (n - 1 - k)
    return out


def mirror_code(codeobj: StabilizerCode) -> StabilizerCode:
    """The site-mirrored code (qubit k <-> qubit n+1-k), as it arrives after transfer."""
    n = codeobj.n_qubits

    def rev(p: PauliString) -> PauliString:
        return PauliString(n, _reverse_bits(p.x_mask, n), _reverse_bits(p.z_mask, n), p.phase)

    return StabilizerCode(
        n_qubits=n,
        x_detecting_generators=tuple(rev(g) for g in codeobj.x_detecting_generators),
        z_detecting_generators=tuple(rev(g) for g in codeobj.z_detecting_generators),
        logical_x=rev(codeobj.logical_x),
        logical_z=rev(codeobj.logical_z),
        blocks=tuple(
            tuple(sorted(n + 1 - s for s in blk)) for blk in reversed(codeobj.blocks)
        ),
        dx=codeobj.dx,
        dz=codeobj.dz,
        orientation=codeobj.orientation,
        codeword_builder=codeobj.codeword_builder,
    )


def _restore_region(state: StateVector, m_qubits: int, arrival_phase: complex) -> np.ndarray:
    """Undo the arrival dressing on the last m_qubits sites.

    Applies the controlled-phase network over the region and removes the
    known per-excitation arrival phase, after which the plain mirrored code
    is restored up to deterministic check signs.
    """
    n_total = state.n_sites
    psi = cz_network(state, range(n_total - m_qubits + 1, n_total + 1)).amps
    if arrival_phase != 1:
        if abs(abs(arrival_phase) - 1) > 1e-9:
            raise ValueError("arrival phase must have unit modulus")
        idx = np.arange(psi.size, dtype=np.int64)
        w = np.bitwise_count(idx & ((1 << m_qubits) - 1))
        psi = psi * np.conj(arrival_phase) ** w
    return psi


def clean_arrival_frame(
    clean_state: StateVector, codeobj: StabilizerCode, arrival_phase: complex = 1 + 0j
) -> tuple[int, int]:
    """Syndrome keys a noiseless general-mode arrival produces.

    `clean_state` is the full chain state after evolving the encoded state
    for the transfer time, before the controlled-phase network.  The
    mirrored checks are deterministic (+/-1) on it after the dressing is
    undone; the returned keys feed DecodeOptions.syndrome_frame.
    """
    n_total = clean_state.n_sites
    psi = StateVector(_restore_region(clean_state, codeobj.n_qubits, arrival_phase), n_total)
    work = mirror_code(codeobj)
    keys = []
    for gens in (work.x_detecting_generators, work.z_detecting_generators):
        key = 0
        for g, gen in enumerate(gens):
            embedded = PauliString(n_total, gen.x_mask, gen.z_mask, gen.phase)
            val = np.vdot(psi.amps, apply_pauli(psi, embedded).amps).real
            if abs(abs(val) - 1) > 1e-6:
                raise ValueError("clean state does not have deterministic syndromes")
            if val < 0:
                key |= 1 << g
        keys.append(key)
    return keys[0], keys[1]


def _syndrome_keys_for_indices(gens, idx: np.ndarray) -> np.ndarray:
    keys = np.zeros(idx.shape, dtype=np.int64)
    for g, gen in enumerate(gens):
        if gen.x_mask:
            raise ValueError("bit-flip checks must be Z-type (diagonal)")
        keys |= (np.bitwise_count(idx & gen.z_mask) & 1).astype(np.int64) << g
    return keys


def _z_outcome_split(ind: np.ndarray, amp: np.ndarray, gen: PauliString):
    """Split a sparse branch by the two outcomes of an X-type generator."""
    if gen.z_mask or gen.phase != 1:
        raise ValueError("phase checks must be plain X-type")
    flipped_ind = ind ^ gen.x_mask
    union = np.union1d(ind, flipped_ind)
    v = np.zeros(union.size, dtype=complex)
    v[np.searchsorted(union, ind)] = amp
    w = np.zeros(union.size, dtype=complex)
    w[np.searchsorted(union, flipped_ind)] = amp
    return union, 0.5 * (v + w), 0.5 * (v - w)


def decode_pipeline(
    state: StateVector, codeobj: StabilizerCode, options: DecodeOptions | None = None
) -> CorrectionReport:
    """Run the two-stage correction on `state`, tracking every syndrome branch.

    Revival mode expects the state on exactly the code qubits with the code
    in its original orientation.  General mode expects the code to have
    arrived (mirrored) on the last n_qubits sites of a longer chain: the
    controlled-phase network is applied to that region first, the mirrored
    generators are measured, and fidelity is taken against
    options.reference, the expected pure state of the region.
    """
    opt = options or DecodeOptions()
    n_total = state.n_sites
    if opt.reference is not None and opt.reference.n_sites != codeobj.n_qubits:
        raise ValueError(
            f"options.reference has {opt.reference.n_sites} sites, the code {codeobj.n_qubits}"
        )
    if opt.mode == "revival":
        if codeobj.n_qubits != n_total:
            raise ValueError("revival mode needs the state on exactly the code qubits")
        tables = decoder_tables(codeobj, "below")
        psi = state.amps
        ref = (opt.reference or encode(codeobj, opt.alpha, opt.beta)).amps
        region_bits = None
    elif opt.mode == "general":
        m = codeobj.n_qubits
        if n_total < m:
            raise ValueError("state smaller than the code")
        if opt.reference is None:
            raise ValueError("general mode needs options.reference for the region")
        psi = _restore_region(state, m, opt.arrival_phase)
        tables = decoder_tables(mirror_code(codeobj), "above")
        ref = opt.reference.amps
        region_bits = m
    else:
        raise ValueError(f"unknown mode {opt.mode!r}")

    xgens = tables.code.x_detecting_generators
    zgens = tables.code.z_detecting_generators
    m_qubits = tables.code.n_qubits

    nz = np.nonzero(np.abs(psi) ** 2 > _EXACT_ZERO)[0].astype(np.int64)
    keys = _syndrome_keys_for_indices(xgens, nz)
    order = np.argsort(keys, kind="stable")
    nz, keys = nz[order], keys[order]
    cuts = np.nonzero(np.diff(keys))[0] + 1
    groups = np.split(np.arange(nz.size), cuts)

    def leaf_overlap(ind: np.ndarray, amp: np.ndarray) -> float:
        """|<ref| branch>|^2 without normalising (general mode: region-contracted)."""
        if region_bits is None:
            return float(abs(np.sum(np.conj(ref[ind]) * amp)) ** 2)
        low = (1 << region_bits) - 1
        rest = ind >> region_bits
        w = np.zeros(int(rest.max()) + 1 if rest.size else 1, dtype=complex)
        np.add.at(w, rest, np.conj(ref[ind & low]) * amp)
        return float(np.sum(np.abs(w) ** 2))

    x_frame, z_frame = opt.syndrome_frame
    records: list[BranchRecord] = []
    discarded = 0.0
    identity = PauliString(m_qubits, 0, 0)
    for grp in groups:
        ind = nz[grp]
        amp = psi[ind]
        key = int(keys[grp[0]])
        p_branch = float(np.sum(np.abs(amp) ** 2))
        if p_branch < opt.prune_below:
            discarded += p_branch
            continue
        x_out = tuple((key >> g) & 1 for g in range(len(xgens)))
        x_key = key ^ x_frame
        flips = tables.x_table.get(x_key)
        if flips is None:
            records.append(
                BranchRecord(
                    x_out, (), p_branch, identity,
                    leaf_overlap(ind, amp) / p_branch, corrected=False,
                )
            )
            continue
        x_mask, z_mask = int(tables.x_mask[x_key]), int(tables.z_trail[x_key])
        corr_x = PauliString(m_qubits, x_mask, z_mask)
        sign = 1.0 - 2.0 * (np.bitwise_count(ind & z_mask) & 1)
        ind2, amp2 = ind ^ x_mask, amp * sign
        srt = np.argsort(ind2)
        stack = [((), ind2[srt], amp2[srt])]
        for gen in zgens:
            nxt = []
            for z_out, bi, ba in stack:
                union, plus, minus = _z_outcome_split(bi, ba, gen)
                for bit, vec in ((0, plus), (1, minus)):
                    keep = np.abs(vec) ** 2 > _EXACT_ZERO
                    if not keep.any():
                        continue
                    nxt.append((z_out + (bit,), union[keep], vec[keep]))
            stack = nxt
        for z_out, bi, ba in stack:
            p_leaf = float(np.sum(np.abs(ba) ** 2))
            if p_leaf < opt.prune_below:
                discarded += p_leaf
                continue
            zkey = 0
            for g, bit in enumerate(z_out):
                zkey |= bit << g
            zc_sites = tables.cross_reference(zkey ^ z_frame, flips)
            if zc_sites is None:
                records.append(
                    BranchRecord(
                        x_out, z_out, p_leaf, corr_x,
                        leaf_overlap(bi, ba) / p_leaf, corrected=False,
                    )
                )
                continue
            zc_mask = mask_of_sites(m_qubits, zc_sites)
            ba_corr = ba * (1.0 - 2.0 * (np.bitwise_count(bi & zc_mask) & 1))
            fid = leaf_overlap(bi, ba_corr) / p_leaf
            records.append(
                BranchRecord(
                    x_out, z_out, p_leaf,
                    corr_x * PauliString(m_qubits, 0, zc_mask), fid, corrected=True,
                )
            )

    success = float(sum(b.probability * b.fidelity for b in records))
    return CorrectionReport(records, success, discarded)


# ---------------------------------------------------------------------------
# vectorised revival evaluator (no per-branch records; serves every sweep)
# ---------------------------------------------------------------------------


class RevivalEvaluator:
    """Success probability and pruned mass of the revival-mode pipeline, vectorised.

    Reads the per-key correction arrays of decoder_tables(code, "below") and
    precomputes, for every block class and phase outcome, the
    projected-and-corrected reference vectors; a decode is then a handful of
    gathers and segment sums.  It serves every revival sweep, pruned or not,
    without branch records, and agrees with decode_pipeline, its oracle, to
    roundoff in both success and discarded mass.
    """

    def __init__(self, codeobj: StabilizerCode, alpha: complex, beta: complex):
        n = codeobj.n_qubits
        self.n_qubits = n
        if codeobj.orientation != "inner-bitflip":
            raise ValueError("evaluator supports the inner-bitflip block codes")
        zgens = codeobj.z_detecting_generators
        n_z = len(zgens)
        if n_z > 6:
            raise ValueError("evaluator sized for small generator sets")
        for gen in zgens:
            if gen.z_mask or gen.phase != 1:
                raise ValueError("phase checks must be plain X-type")
        self.tables = tables = decoder_tables(codeobj, "below")
        dim = 1 << n
        idx = np.arange(dim, dtype=np.int64)
        self.keys = _syndrome_keys_for_indices(codeobj.x_detecting_generators, idx)

        blocks = codeobj.blocks
        n_out = 1 << n_z
        n_cls = 1 << len(blocks)
        # class = bitmask of blocks receiving a Z (representative site each);
        # on these codes the in-block position is a stabilizer choice, so the
        # representative acts on the reference exactly like the flip site
        self.cls_table = np.zeros((n_cls, n_out), dtype=np.int64)
        for fb in range(n_cls):
            fake_flips = tuple(blk[0] for b, blk in enumerate(blocks) if fb & (1 << b))
            for o in range(n_out):
                # undecodable: score with no correction
                for s in tables.cross_reference(o, fake_flips) or ():
                    self.cls_table[fb, o] |= 1 << tables.block_of[s]

        ref = encode(codeobj, alpha, beta).amps
        self.ref = ref
        # u[o, cls] = P_o * C2(cls) |ref> with C2 a Z at each class block's first site
        self.u = np.zeros((n_out, n_cls, dim), dtype=complex)
        for cls in range(n_cls):
            zm = mask_of_sites(n, (blk[0] for b, blk in enumerate(blocks) if cls & (1 << b)))
            v = ref * (1.0 - 2.0 * (np.bitwise_count(idx & zm) & 1))
            for o in range(n_out):
                w = v
                for g, gen in enumerate(zgens):
                    flipped = np.empty_like(w)
                    flipped[idx ^ gen.x_mask] = w
                    w = 0.5 * (w + (1 - 2 * ((o >> g) & 1)) * flipped)
                self.u[o, cls] = w
        self.n_out = n_out
        # check_masks[S]: X mask of the product of the phase checks in S;
        # leaf_signs[S, o] = (-1)^{|o & S|}, so P_o = 2^-n_z sum_S leaf_signs[S, o] X_S
        self.check_masks = np.zeros(n_out, dtype=np.int64)
        for g, gen in enumerate(zgens):
            self.check_masks[1 << g:2 << g] = self.check_masks[:1 << g] ^ gen.x_mask
        outcomes = np.arange(n_out)
        self.leaf_signs = 1.0 - 2.0 * (np.bitwise_count(outcomes[:, None] & outcomes) & 1)

    def success(self, psi: np.ndarray, prune_below: float = 0.0) -> tuple[float, float]:
        """(success probability, discarded mass) of decode_pipeline on `psi`.

        Pruning follows decode_pipeline: a bit-flip branch with mass below
        `prune_below` is discarded whole; an undecodable branch is never
        split; in a kept decodable branch each phase leaf with mass below
        `prune_below` is discarded.
        """
        t = self.tables
        ind = np.nonzero(np.abs(psi) ** 2 > _EXACT_ZERO)[0].astype(np.int64)
        amp = psi[ind]
        k = self.keys[ind]
        uniq, inv = np.unique(k, return_inverse=True)
        ok = t.correctable[k]
        branch_kept = np.ones(uniq.size, dtype=bool)
        leaf_kept = np.ones((uniq.size, self.n_out), dtype=bool)
        discarded = 0.0
        if prune_below > 0.0:  # at 0 nothing can be dropped, so the masses are not needed
            branch_kept, leaf_kept, discarded = self._pruned(
                psi, ind, amp, uniq, inv, prune_below
            )
        total = 0.0
        # undecodable branches score their raw overlap with the reference
        if not ok.all():
            bad = ~ok
            s = _segment_sum(np.conj(self.ref[ind[bad]]) * amp[bad], inv[bad], uniq.size)
            total += float(np.sum(np.abs(s[branch_kept]) ** 2))
        ind2 = ind ^ t.x_mask[k]
        amp2 = amp * (1.0 - 2.0 * (np.bitwise_count(ind & t.z_trail[k]) & 1))
        fb = t.flip_blocks[k]
        for o in range(self.n_out):
            cls = self.cls_table[fb, o]
            vals = np.conj(self.u[o, cls, ind2]) * amp2
            vals[~ok] = 0.0
            s = _segment_sum(vals, inv, uniq.size)
            total += float(np.sum(np.abs(s[leaf_kept[:, o]]) ** 2))
        return total, discarded

    def _pruned(self, psi, ind, amp, uniq, inv, prune_below):
        """Kept-branch mask, kept-leaf mask [key, o] and discarded mass at `prune_below`.

        Leaf o of the X-corrected branch x has mass <x|P_o|x> =
        2^-n_z sum_S (-1)^{|o & S|} <x|X_S|x>, X_S the product of the
        phase checks in S.  X_S commutes with the bit-flip checks, so it
        maps a branch onto itself, and the correction commutes with it up
        to the sign (-1)^{|m_S & trail|}: <x|X_S|x> is that sign times
        <psi_key|X_S|psi_key>, one gather from `psi` per S.
        """
        t = self.tables
        gram = np.empty((uniq.size, self.n_out))  # gram[key, S] = <x|X_S|x>
        gram[:, 0] = np.bincount(inv, weights=np.abs(amp) ** 2, minlength=uniq.size)
        trail = t.z_trail[uniq]
        for s in range(1, self.n_out):
            m = self.check_masks[s]
            overlap = np.bincount(
                inv, weights=(np.conj(psi[ind ^ m]) * amp).real, minlength=uniq.size
            )
            gram[:, s] = overlap * (1.0 - 2.0 * (np.bitwise_count(trail & m) & 1))
        # a leaf mass is a squared norm: clip the roundoff of empty leaves at 0
        p_leaf = np.maximum(gram @ self.leaf_signs / self.n_out, 0.0)
        branch_kept = gram[:, 0] >= prune_below
        leaf_dropped = (branch_kept & t.correctable[uniq])[:, None] & (p_leaf < prune_below)
        discarded = float(np.sum(gram[~branch_kept, 0])) + float(np.sum(p_leaf[leaf_dropped]))
        return branch_kept, branch_kept[:, None] & ~leaf_dropped, discarded


def _segment_sum(values: np.ndarray, seg: np.ndarray, n_seg: int) -> np.ndarray:
    re = np.bincount(seg, weights=values.real, minlength=n_seg)
    im = np.bincount(seg, weights=values.imag, minlength=n_seg)
    return re + 1j * im
