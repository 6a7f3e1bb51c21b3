"""Modified syndrome decoding for chain-propagated errors, read out at the revival time.

The correction runs in two stages.  Bit-flip checks are measured first; the
decoded flip locations get X corrections plus a trailing-Z string fixed by a
parity rule: a Z lands on every site holding an odd number of detected flips
strictly below it.  The residual Z errors sitting on the flip sites are
then handled by the phase checks, with one extra rule on three-block codes:
a phase syndrome pointing at a block with no detected flip, while flips
exist elsewhere, is reinterpreted as phase errors on the other two blocks.

These rules live in one place, DecoderTables, built once per code.
RevivalEvaluator folds them into one fixed sparse weight matrix on the
excitation sectors the encoded state occupies: one column per decodable
bit-flip key and phase outcome, built with the very correction
decode_pipeline applies to that leaf (the key's X/trailing-Z string, then
cross_reference).  Scoring a chunk of revival states is one fixed-order
product with it (hilbert.FixedOrderTable, numpy) and, when pruning, one
more, in real arithmetic, for the branch and leaf masses; every sweep,
pruned or exact, goes through it.
decode_pipeline is the branch-recording oracle the evaluator is checked
against: it tracks every syndrome outcome as an explicit branch with its
Born probability.  The success probability is the probability-weighted
squared overlap with the reference state over all leaves.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from types import MappingProxyType

import numpy as np

from .code import StabilizerCode, encode, encode_entries
from .hilbert import (FixedOrderTable, StateVector, _lookup, _read_only, _sorted_unique, _work_array,
                      sector_indices)
from .pauli import PauliString, mask_of_sites, z_sign

_EXACT_ZERO = 0.0
_MAX_X_CHECKS = 20  # the per-key arrays hold 2^(number of bit-flip checks) entries
_PRUNE_STATES = 4  # states per group of RevivalEvaluator._pruned's work buffers


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
    # the revival read-out is the only one; the field stays so that callers
    # naming it keep working, and any other value is refused
    mode: str = "revival"
    alpha: complex = 1 / np.sqrt(2)
    beta: complex = 1 / np.sqrt(2)
    prune_below: float = 0.0
    reference: StateVector | None = None  # expected state of the code qubits


def check_prune(prune_below: float) -> float:
    """The branch probability floor: finite and >= 0, with 0 exact.

    A sweep's manifest records it, so one threshold has one record: -0.0
    is returned as 0.0.
    """
    if not 0.0 <= prune_below < np.inf:
        raise ValueError(f"prune {prune_below!r} must be finite and >= 0")
    return float(prune_below) + 0.0


# ---------------------------------------------------------------------------
# decode tables: the rule set, built once per code
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DecoderTables:
    """The decode rules of one code; shared, so read-only.

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
        flipped = {self.block_of[s] for s in flips}

        def block_site(b: int) -> int:
            # put the Z on the block's detected flip when it has one; on the
            # inner-bitflip codes any site of the block is equivalent anyway
            return next((s for s in flips if s in blocks[b]), blocks[b][0])

        beta = self.block_of[decoded[0]]
        if beta not in flipped and flipped:
            return tuple(block_site(b) for b in range(3) if b != beta)
        if self.code.orientation == "inner-bitflip":
            return (block_site(beta),)
        return decoded


def _syndrome_keys(check_masks, masks) -> np.ndarray:
    """Syndrome key of each mask: bit g set iff it meets check_masks[g] an odd number of times."""
    masks, check_masks = np.asarray(masks, dtype=np.int64), np.asarray(check_masks, dtype=np.int64)
    # the parity is uint8: cast before the shift, or bits past the eighth are lost
    odd = (np.bitwise_count(masks[..., None] & check_masks) & 1).astype(np.int64)
    return (odd << np.arange(check_masks.size)).sum(axis=-1)


def _trailing_mask(n_sites: int, flips) -> int:
    """Z-mask of the parity rule: Z wherever an odd number of flips lies below."""
    return mask_of_sites(
        n_sites,
        (q for q in range(1, n_sites + 1) if q not in flips and sum(s > q for s in flips) % 2),
    )


@lru_cache(maxsize=8)
def decoder_tables(codeobj: StabilizerCode) -> DecoderTables:
    """Build the decode tables of `codeobj`, the trailing Z string below each flip.

    The tables cover flip patterns up to floor((dx-1)/2) sites and Z
    patterns up to floor((dz-1)/2).  Collisions keep the first (lowest)
    representative; for the block codes here any two same-block patterns
    that collide differ by a stabilizer, so the representative acts
    identically on the code space.
    """
    n_x = len(codeobj.x_detecting_generators)
    if n_x > _MAX_X_CHECKS:
        raise ValueError(f"decode tables sized for at most {_MAX_X_CHECKS} bit-flip checks")
    if any(gen.x_mask for gen in codeobj.x_detecting_generators):
        raise ValueError("bit-flip checks must be Z-type (diagonal)")
    n = codeobj.n_qubits
    tables = []
    # an X error is seen by the checks' Z part, a Z error by their X part
    for checks, distance in (
        ([gen.z_mask for gen in codeobj.x_detecting_generators], codeobj.dx),
        ([gen.x_mask for gen in codeobj.z_detecting_generators], codeobj.dz),
    ):
        patterns = [sites for w in range(1, (distance - 1) // 2 + 1)
                    for sites in combinations(range(1, n + 1), w)]
        keys = _syndrome_keys(checks, [mask_of_sites(n, sites) for sites in patterns])
        table: dict[int, tuple[int, ...]] = {0: ()}
        for key, sites in zip(keys.tolist(), patterns):
            table.setdefault(key, sites)
        tables.append(MappingProxyType(table))
    x_table, z_table = tables
    block_of = {s: b for b, blk in enumerate(codeobj.blocks) for s in blk}

    n_keys = 1 << n_x
    correctable = np.zeros(n_keys, dtype=bool)
    x_mask = np.zeros(n_keys, dtype=np.int64)
    z_trail = np.zeros(n_keys, dtype=np.int64)
    for key, flips in x_table.items():
        correctable[key] = True
        x_mask[key] = mask_of_sites(n, flips)
        z_trail[key] = _trailing_mask(n, flips)
    _read_only(correctable, x_mask, z_trail)
    return DecoderTables(
        codeobj, x_table, z_table, MappingProxyType(block_of), correctable, x_mask, z_trail
    )


# ---------------------------------------------------------------------------
# full pipeline (sparse branch engine; the evaluator's oracle)
# ---------------------------------------------------------------------------


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

    Expects the revival state: exactly the code qubits, the code in its
    original orientation.  Fidelity is taken against options.reference,
    by default the encoded state of options.alpha and options.beta.
    """
    opt = options or DecodeOptions()
    if opt.mode != "revival":
        raise ValueError(f"unknown mode {opt.mode!r}: the revival read-out is the only one")
    n_qubits = codeobj.n_qubits
    if opt.reference is not None and opt.reference.n_sites != n_qubits:
        raise ValueError(
            f"options.reference has {opt.reference.n_sites} sites, the code {n_qubits}"
        )
    if state.n_sites != n_qubits:
        raise ValueError("revival mode needs the state on exactly the code qubits")
    prune_below = check_prune(opt.prune_below)
    tables = decoder_tables(codeobj)
    psi = state.amps
    ref = (opt.reference or encode(codeobj, opt.alpha, opt.beta)).amps
    xgens = codeobj.x_detecting_generators
    zgens = codeobj.z_detecting_generators

    nz = np.nonzero(np.abs(psi) ** 2 > _EXACT_ZERO)[0].astype(np.int64)
    keys = _syndrome_keys([gen.z_mask for gen in xgens], nz)
    order = np.argsort(keys, kind="stable")
    nz, keys = nz[order], keys[order]
    cuts = np.nonzero(np.diff(keys))[0] + 1
    groups = np.split(np.arange(nz.size), cuts)

    def leaf_overlap(ind: np.ndarray, amp: np.ndarray) -> float:
        """|<ref| branch>|^2 without normalising."""
        return float(abs(np.sum(np.conj(ref[ind]) * amp)) ** 2)

    records: list[BranchRecord] = []
    discarded = 0.0
    identity = PauliString(n_qubits, 0, 0)
    for grp in groups:
        ind = nz[grp]
        amp = psi[ind]
        key = int(keys[grp[0]])
        p_branch = float(np.sum(np.abs(amp) ** 2))
        if p_branch < prune_below:
            discarded += p_branch
            continue
        x_out = tuple((key >> g) & 1 for g in range(len(xgens)))
        flips = tables.x_table.get(key)
        if flips is None:
            records.append(
                BranchRecord(
                    x_out, (), p_branch, identity,
                    leaf_overlap(ind, amp) / p_branch, corrected=False,
                )
            )
            continue
        x_mask, z_mask = int(tables.x_mask[key]), int(tables.z_trail[key])
        corr_x = PauliString(n_qubits, x_mask, z_mask)
        ind2, amp2 = ind ^ x_mask, amp * z_sign(ind & z_mask)
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
            if p_leaf < prune_below:
                discarded += p_leaf
                continue
            zkey = 0
            for g, bit in enumerate(z_out):
                zkey |= bit << g
            zc_sites = tables.cross_reference(zkey, flips)
            if zc_sites is None:
                records.append(
                    BranchRecord(
                        x_out, z_out, p_leaf, corr_x,
                        leaf_overlap(bi, ba) / p_leaf, corrected=False,
                    )
                )
                continue
            zc_mask = mask_of_sites(n_qubits, zc_sites)
            ba_corr = ba * z_sign(bi & zc_mask)
            fid = leaf_overlap(bi, ba_corr) / p_leaf
            records.append(
                BranchRecord(
                    x_out, z_out, p_leaf,
                    corr_x * PauliString(n_qubits, 0, zc_mask), fid, corrected=True,
                )
            )

    success = float(sum(b.probability * b.fidelity for b in records))
    return CorrectionReport(records, success, discarded)


# ---------------------------------------------------------------------------
# revival evaluator (no per-branch records; serves every sweep)
# ---------------------------------------------------------------------------


class RevivalEvaluator:
    """Success probability and pruned mass of the revival-mode pipeline, as fixed-order products.

    The reference alpha|0_L> + beta|1_L> is built and held as its nonzero
    entries, `reference` = (basis indices ascending, amplitudes)
    (code.encode_entries), never as a 2^N vector, and RevivalSetup reads
    it from here.  Scores rows of amplitudes on `support`, a fixed list of
    basis indices: by default the excitation sectors the reference
    occupies, which every revival state stays in (weights {0, 10}, 3004
    of 32768 indices, on minimal15; hilbert.sector_indices, which builds
    no 2^N array either); amplitudes off the support are not read.  A
    support that is not distinct whole numbers in [0, 2^N), in any order,
    is refused before any table is built.  A basis index's position on
    the support is a lookup on the sorted support (_positions), so no
    table over all 2^N indices is built.  Column (key, o) of the weight
    matrix W (support x column) folds the X/trailing-Z correction of
    bit-flip key `key`, the phase projector P_o and the Z correction
    cross_reference(o, flips) of the key's own flips into one
    conjugated, corrected copy of the reference, so that without pruning
    success = sum_c |rows @ W|^2.  A column is kept when o is the phase
    syndrome of that Z correction (otherwise P_o annihilates it) and the
    copy meets the support.  The reference has bit-flip key 0, so an
    undecodable branch overlaps it exactly 0 and W has no column for one.
    W is a numpy table (FixedOrderTable) with at most 4 entries a column
    on minimal15, each column summed in support order.  Pruning reads the
    branch and leaf masses as one real FixedOrderTable product over the
    support pairs the phase checks connect; those tables (_prune_tables)
    are built on the first pruned call.  No scoring imports scipy.  Every
    product sums each entry in a fixed order, so a row's value does not
    depend on the rows scored with it.  Agrees with decode_pipeline, its
    oracle, to roundoff in both success and discarded mass.
    """

    def __init__(self, codeobj: StabilizerCode, alpha: complex, beta: complex, support=None):
        if codeobj.orientation != "inner-bitflip":
            raise ValueError("evaluator supports the inner-bitflip block codes")
        zgens = codeobj.z_detecting_generators
        if len(zgens) > 6:
            raise ValueError("evaluator sized for small generator sets")
        if any(gen.z_mask or gen.phase != 1 for gen in zgens):
            raise ValueError("phase checks must be plain X-type")
        self.tables = tables = decoder_tables(codeobj)
        n = codeobj.n_qubits
        self.reference = ref_ind, ref_amps = encode_entries(codeobj, alpha, beta)
        if support is None:
            weights = _sorted_unique(np.bitwise_count(ref_ind)).tolist()
            support = np.concatenate([sector_indices(n, w) for w in weights])
        # a negative or repeated index would have no one position on the support
        given = np.asarray(support, dtype=float)
        if (given.ndim != 1 or np.any((given < 0) | (given >= 1 << n) | (given != np.floor(given)))
                or _sorted_unique(given).size != given.size):
            raise ValueError(f"support must be distinct whole numbers in [0, 2^N), N = {n}")
        self.support = support = given.astype(np.int64)

        n_out = self.n_out = 1 << len(zgens)
        # check_masks[S]: X mask of the product of the phase checks in S
        self.check_masks = check_masks = np.zeros(n_out, dtype=np.int64)
        for g, gen in enumerate(zgens):
            check_masks[1 << g:2 << g] = check_masks[:1 << g] ^ gen.x_mask

        # column (key, o) of W holds C2|ref> at i ^ x_mask[key], conjugated and
        # signed (-1)^{|i & z_trail[key]|}, so rows @ W is <ref|C2 P_o C1|row>
        # with C1 the key's X/trailing-Z correction (the entries all have
        # bit-flip key `key`: W reads only that branch) and C2 the Z correction
        # decode_pipeline gives leaf (key, o), cross_reference(o, flips).  The
        # reference is a +1 eigenstate of every phase check, so P_o C2|ref> is
        # C2|ref> when o is the phase syndrome of C2 and 0 otherwise.
        columns = np.array([  # (key, o, Z mask of C2)
            (key, o, mask_of_sites(n, tables.cross_reference(o, flips) or ()))
            for key, flips in sorted(tables.x_table.items()) for o in range(n_out)
        ], dtype=np.int64).reshape(-1, 3)
        syndromes = _syndrome_keys([gen.x_mask for gen in zgens], columns[:, 2])
        key, o, c2 = columns[syndromes == columns[:, 1]].T
        ind = ref_ind ^ tables.x_mask[key][:, None]  # (column, reference entry)
        vals = np.conj(ref_amps) * z_sign(ref_ind & c2[:, None])
        vals *= z_sign(ind & tables.z_trail[key][:, None])
        pos = self._positions(ind)
        cols = np.broadcast_to((key * n_out + o)[:, None], ind.shape)
        inner = pos < support.size  # columns with no entry on the support go
        # self.columns: the (key * n_out + o) of each column of W
        self.columns, col = np.unique(cols[inner], return_inverse=True)
        # distinct reference entries sit at distinct positions of a column,
        # so each (position, column) is one entry; stored in support order
        order = np.lexsort((pos[inner], col))
        self.weights = FixedOrderTable(pos[inner][order], col[order], vals[inner][order],
                                       (support.size, self.columns.size))
        self._work: dict = {}  # _pruned's per-group buffers, _state_sums' copies (hilbert._work_array)
        self.restricted_from = None  # the whole-support evaluator of restricted(), else None
        _read_only(*(value for value in vars(self).values() if isinstance(value, np.ndarray)))

    def restricted(self) -> RevivalEvaluator:
        """This evaluator on the support positions W reads, sharing its tables and columns.

        W keeps its columns, entries and stored order, each entry's row
        renumbered to its position among the kept ones, and the reference's
        entries are shared too, so the result is
        RevivalEvaluator(code, alpha, beta, support=support[read]) with
        `read` the positions W reads, built without re-encoding the
        reference or rebuilding a column.  Unpruned, it scores a row on
        those positions bit for bit as this evaluator scores any row that
        agrees with it there.  Pruned masses read the whole support, so it
        refuses a pruned call, and `restricted_from` is this evaluator.
        """
        w = self.weights
        read = _sorted_unique(w.row)
        sub = object.__new__(type(self))
        sub.tables, sub.reference, sub.n_out, sub.check_masks, sub.columns = (
            self.tables, self.reference, self.n_out, self.check_masks, self.columns)
        sub.support = _read_only(self.support[read])
        sub.weights = FixedOrderTable(np.searchsorted(read, w.row), w.col, w.value,
                                      (read.size, w.shape[1]))
        sub._work, sub.restricted_from = {}, self
        return sub

    def _positions(self, indices) -> np.ndarray:
        """Each of the basis indices' position on the support, support.size where it is off it.

        A lookup on the sorted support (hilbert._lookup): no table over all
        2^N indices is built.
        """
        return _lookup(self.support, np.arange(self.support.size), indices, self.support.size)

    @cached_property
    def _prune_tables(self) -> tuple:
        """(pairs, leaf_keys, mass_weights, col_key, col_out) of _pruned, built on its first call.

        The branch and leaf masses come from the overlaps of pairs (p, q) of
        support positions with support[q] = support[p] ^ m_S (pairs leaving
        the support read zero amplitudes and are left out, as are the S != 0
        pairs of undecodable keys, which no mass reads): mass_weights has
        one column per bit-flip key on the support for its branch mass (the
        S = 0 pairs), then n_out per decodable key (leaf_keys, positions
        among the keys present) for its leaf masses, with
        leaf_signs[S, o] = (-1)^{|o & S|}, so P_o = 2^-n_z sum_S
        leaf_signs[S, o] X_S.  col_key and col_out are each W column's
        decodable key and phase outcome.  mass_weights is a real
        FixedOrderTable whose columns sum their pairs in ascending order, so
        its masses are scipy's CSC product of the same entries, bit for bit.
        """
        tables, support, n_out = self.tables, self.support, self.n_out
        outcomes = np.arange(n_out)
        leaf_signs = z_sign(outcomes[:, None] & outcomes)
        checks = [g.z_mask for g in tables.code.x_detecting_generators]
        support_keys = _syndrome_keys(checks, support)
        present, key_col = np.unique(support_keys, return_inverse=True)
        leaf_keys = np.flatnonzero(tables.correctable[present])
        leaf_col = np.full(present.size, -1)
        leaf_col[leaf_keys] = np.arange(leaf_keys.size)
        partner = self._positions(support[:, None] ^ self.check_masks)  # (p, S)
        p, check = np.nonzero(partner < support.size)
        leaf = leaf_col[key_col[p]]
        # mass_weights reads the S = 0 pairs and the decodable keys' pairs, no other
        read = (check == 0) | (leaf >= 0)
        p, check, leaf = p[read], check[read], leaf[read]
        pairs = np.stack([p, partner[p, check]])
        own, dec = np.flatnonzero(check == 0), np.flatnonzero(leaf >= 0)
        # the correction commutes with X_S up to (-1)^{|m_S & trail|}
        trail = z_sign(tables.z_trail[support_keys[p[dec]]] & self.check_masks[check[dec]])
        data = [np.ones(own.size), (leaf_signs[check[dec]] * trail[:, None]).ravel() / n_out]
        pair = [own, np.repeat(dec, n_out)]
        col = [key_col[p[own]], present.size + (leaf[dec][:, None] * n_out + outcomes).ravel()]
        mass_weights = FixedOrderTable(np.concatenate(pair), np.concatenate(col), np.concatenate(data),
                                       (p.size, present.size + leaf_keys.size * n_out))
        col_key = leaf_col[np.searchsorted(present, self.columns // n_out)]  # decodable key
        col_out = self.columns % n_out
        _read_only(pairs, leaf_keys, col_key, col_out)
        return pairs, leaf_keys, mass_weights, col_key, col_out

    def success(self, rows: np.ndarray, prune_below: float = 0.0):
        """(success probability, discarded mass) of decode_pipeline on each row.

        `rows` holds amplitudes on the support, one state per row; a 1-D
        row returns two floats, an (S, support) block two arrays.  Pruning
        follows decode_pipeline: a bit-flip branch with mass below
        `prune_below` is discarded whole; an undecodable branch is never
        split; in a kept decodable branch each phase leaf with mass below
        `prune_below` is discarded.  The masses read the whole support, so
        a restricted evaluator (restricted) refuses a positive
        `prune_below`.
        """
        prune_below = check_prune(prune_below)
        if prune_below > 0.0 and self.restricted_from is not None:
            raise ValueError("a restricted evaluator scores exact calls only: prune with restricted_from")
        xt = np.ascontiguousarray(np.atleast_2d(rows).T, dtype=complex)  # (support, state)
        mass = np.abs((xt.T @ self.weights).T) ** 2  # (column of W, state)
        discarded = np.zeros(xt.shape[1])
        if prune_below > 0.0:  # at 0 nothing can be dropped, so the masses are not needed
            kept, discarded = self._pruned(xt, prune_below)
            mass[~kept] = 0.0
        success = _state_sums(mass, self._work)
        if np.ndim(rows) == 1:
            return float(success[0]), float(discarded[0])
        return success, discarded

    def _pruned(self, xt: np.ndarray, prune_below: float) -> tuple[np.ndarray, np.ndarray]:
        """Kept mask (column of W, state) and discarded mass per state at `prune_below`.

        Leaf o of the X-corrected branch x has mass <x|P_o|x> =
        2^-n_z sum_S (-1)^{|o & S|} <x|X_S|x>, X_S the product of the
        phase checks in S.  X_S commutes with the bit-flip checks, so it
        maps a branch onto itself, and the correction commutes with it up
        to the sign (-1)^{|m_S & trail|}: <x|X_S|x> is that sign times
        <psi_key|X_S|psi_key>, a sum of Re(conj(psi_q) psi_p) over the
        support pairs X_S connects.  Branch and leaf masses are therefore
        one real product of those pair overlaps (_prune_tables), each
        overlap formed as re re + im im in real arithmetic.  The states
        are taken _PRUNE_STATES at a time: each group's copy, its two pair
        gathers (complex), its overlaps (float) and the state-major copies
        its discarded sums read go into the evaluator's work buffers,
        sized by the group and reused, as are the mass table's, and the
        masses are clipped and masked in place, so a warm call maps no
        fresh pages for them (a call's fresh arrays then stay below what
        glibc's dynamic thresholds map or trim on every call); not for
        concurrent use.  Every step is per state, so a state's values do
        not depend on its group.
        """
        pairs, leaf_keys, mass_weights, col_key, col_out = self._prune_tables
        p, q = pairs
        n_keys = mass_weights.shape[1] - leaf_keys.size * self.n_out
        kept = np.empty((self.columns.size, xt.shape[1]), dtype=bool)
        discarded = np.empty(xt.shape[1])
        for start in range(0, xt.shape[1], _PRUNE_STATES):
            group = slice(start, start + _PRUNE_STATES)
            size = min(_PRUNE_STATES, xt.shape[1] - start)
            states = _work_array(self._work, "states", len(xt), size)
            np.copyto(states, xt[:, group])  # take would copy a strided source afresh
            at_q, at_p = (_work_array(self._work, name, p.size, size) for name in ("q", "p"))
            overlap = _work_array(self._work, "overlap", p.size, size, float)
            # mode="clip": with the default, take buffers its out= afresh
            np.take(states, q, axis=0, out=at_q, mode="clip")
            np.take(states, p, axis=0, out=at_p, mode="clip")
            # Re(conj(x_q) x_p) = re re + im im, each product and the sum rounded alone
            np.multiply(at_q.view(float), at_p.view(float), out=at_q.view(float))
            np.add(at_q.real, at_q.imag, out=overlap)
            masses = (overlap.T @ mass_weights).T  # (pair, state) overlaps in, masses out
            branch = masses[:n_keys]  # [key, state]
            # a leaf mass is a squared norm: clip the roundoff of empty leaves at 0;
            # leaf[decodable key, o, state]
            leaf = masses[n_keys:].reshape(leaf_keys.size, self.n_out, size)
            np.maximum(leaf, 0, out=leaf)
            branch_kept = branch >= prune_below
            leaf_dropped = branch_kept[leaf_keys][:, None] & (leaf < prune_below)
            # the dropped masses, in place: masses is this group's own array
            np.multiply(branch, ~branch_kept, out=branch)
            np.multiply(leaf, leaf_dropped, out=leaf)
            discarded[group] = _state_sums(branch, self._work) + _state_sums(leaf, self._work)
            kept[:, group] = branch_kept[leaf_keys[col_key]] & ~leaf_dropped[col_key, col_out]
        return kept, discarded


def _state_sums(a: np.ndarray, work: dict) -> np.ndarray:
    """Per-state sums of a real (..., state) array, added in an order independent of the state count.

    The sums read a state-major copy, made in `work`'s buffer (_work_array).
    """
    rows = a.reshape(-1 if a.size else 0, a.shape[-1])
    state_major = _work_array(work, "state_major", rows.shape[1], rows.shape[0], float)
    np.copyto(state_major, rows.T)
    return state_major.sum(axis=1)
