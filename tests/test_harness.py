import json
import shutil
import warnings
from functools import lru_cache

import numpy as np
import pytest

import chainqec
from chainqec import harness
from chainqec.chain import ChainSpec, pst_couplings, single_excitation_matrix
from chainqec.code import logical_readout, minimal15
from chainqec.errors import ResourceLimitError
from chainqec.freefermion import mode_propagator, pauli_to_fermion, propagate
from chainqec.harness import (
    ExperimentManifest,
    brute_force_conjugate,
    default_timing_grid,
    exp_coupling,
    exp_dephasing,
    exp_single_z,
    exp_timing,
    RevivalSetup,
    fmt,
    make_code,
    sample_rng,
)
from chainqec.hilbert import (
    FixedOrderTable,
    StateVector,
    amplitude_plan,
    apply_hops,
    apply_mode_unitary,
    apply_pauli,
    evolve,
    jump_unitary,
    mode_minors,
    mode_unitaries,
    sector_indices,
    sector_sparse,
    stack_mode_unitaries,
)
from chainqec.noise import disordered_spec
from chainqec.pauli import from_sites, pauli_z


def _encoded(setup) -> StateVector:
    """The set-up's encoded state as a dense 2^N vector, scattered from its entries (reference)."""
    indices, values = setup.reference
    amps = np.zeros(1 << setup.spec.n_sites, dtype=complex)
    amps[indices] = values
    return StateVector(amps, setup.spec.n_sites)


def _on_support(setup, rows) -> np.ndarray:
    """(S, 2^N) rows on the evaluator's support scattered into dense vectors, 0 off it."""
    rows = np.atleast_2d(rows)
    dense = np.zeros((len(rows), 1 << setup.spec.n_sites), dtype=complex)
    dense[:, setup.pruned.evaluator.support] = rows
    return dense


def _support_rows(setup, m) -> np.ndarray:
    """(S, support) rows Gamma(M)|encoded> on the whole support, as pruned scoring builds them."""
    plan, fold = setup.pruned.amplitudes
    return mode_minors(m, plan) @ fold


def _hop_rows(setup, readout, sites, t_errs) -> np.ndarray:
    """(S, positions) single-Z rows phi - 2 n_v phi at the read-out's positions, as scored."""
    v = setup._modes(sites, t_errs)
    return apply_hops(readout.hops, -2.0 * v.conj(), v, {}, shift=1.0).T


def _arrival(setup) -> np.ndarray:
    """phi, the error-free state at the read-out, on the whole support, as its hop plan reads it."""
    return setup.pruned._arrival_at(setup.pruned.evaluator.support)


def test_manifest_json_records_every_field():
    spec = pst_couplings(5)
    m = ExperimentManifest(
        "timing", spec, "minimal15", (0.0, 0.1), 7, 42, (1.0, 0.0, 0.0, 0.0), 1e-9
    )
    assert json.loads(m.to_json()) == {
        "experiment": "timing",
        "spec": json.loads(spec.to_json()),
        "code_id": "minimal15",
        "grid": [0.0, 0.1],
        "samples": 7,
        "seed": 42,
        "logical": [1.0, 0.0, 0.0, 0.0],
        "prune_below": 1e-9,
        "version": chainqec.__version__,
    }


def test_fmt_is_round_trip_exact():
    rng = np.random.default_rng(61)
    for _ in range(50):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
        assert float(fmt(x)) == x


def test_sample_rng_order_independent():
    a = sample_rng(5, 100).random(3)
    _ = sample_rng(5, 99).random(3)
    b = sample_rng(5, 100).random(3)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(sample_rng(5, 101).random(3), a)


def test_rekeyed_generator_draws_what_a_new_one_draws():
    # re-keying resets the counter, the buffered words and the half word a
    # bounded 32-bit draw leaves behind
    rng = sample_rng(9, 9)
    rng.random(3)
    for word in (-1, 0, 2**63 + 5):
        for key in ((word, 1), (4, word)):
            fresh = sample_rng(*key)
            assert sample_rng(*key, reuse=rng) is rng
            assert rng.integers(1, 16) == fresh.integers(1, 16), key
            assert rng.integers(0, 2**63 - 1) == fresh.integers(0, 2**63 - 1), key
            np.testing.assert_array_equal(rng.uniform(0.9, 1.1, 14), fresh.uniform(0.9, 1.1, 14))
            assert rng.integers(0, 5) == fresh.integers(0, 5), key  # leaves a half word
    with pytest.raises(ValueError, match="2 elements"):
        sample_rng(3, reuse=rng)


@pytest.mark.filterwarnings("error")
def test_negative_seeds_draw_their_own_samples():
    # a key word >= 2**63 once went through float64, so every seed in
    # [-1024, -1] replayed seed 0
    from chainqec.hilbert import basis_state, trajectory_sample
    from chainqec.noise import disordered_spec

    spec = pst_couplings(5)
    draws = {
        "sample_rng": lambda seed: tuple(sample_rng(seed, 0).random(3)),
        "disordered_spec": lambda seed: disordered_spec(spec, 0.1, seed)[0].couplings,
        "trajectory_sample": lambda seed: trajectory_sample(
            basis_state(5, [1]), 2.0, 1.0, seed, spec
        )[1],
        "exp_single_z": lambda seed: exp_single_z(samples=2, seed=seed).times,
    }
    for name, draw in draws.items():
        assert len({draw(seed) for seed in (-1, -2, 0)}) == 3, name
    # seeds in [0, 2**63) keep their draws
    first = exp_single_z(samples=1, seed=0)
    assert first.sites == (1,) and fmt(first.times[0]) == "0.75884918140195357"


def test_make_code():
    assert make_code("minimal15").n_qubits == 15
    assert make_code("shor:3").n_qubits == 9
    with pytest.raises(ValueError):
        make_code("steane")


# --- single-z ------------------------------------------------------------------


def test_single_z_small_run_all_perfect():
    summary = exp_single_z(samples=12, seed=7)
    assert len(summary.successes) == 12
    assert summary.min_success >= 1 - 1e-8
    assert summary.mean_success >= 1 - 1e-8


def test_single_z_zero_samples():
    summary = exp_single_z(samples=0, seed=1)
    assert summary.successes == ()
    assert np.isnan(summary.min_success)


@pytest.mark.parametrize("run, message", [
    (lambda out: exp_single_z(samples=-3, out_dir=out), "samples must be nonnegative"),
    (lambda out: exp_coupling(f_grid=(0.05,), instances=0, out_dir=out), "instances must be positive"),
    (lambda out: exp_coupling(f_grid=(0.05,), instances=-1, out_dir=out), "instances must be positive"),
], ids=["samples-3", "instances0", "instances-1"])
def test_sweeps_refuse_counts_before_writing(run, message, tmp_path):
    # the CLI's parser refuses these first; library callers meet this check
    with pytest.raises(ValueError, match=message):
        run(str(tmp_path / "bad"))
    assert not (tmp_path / "bad").exists()


def test_single_z_fixed_case():
    # site 8 at exactly the transfer time
    from chainqec.harness import RevivalSetup

    setup = RevivalSetup(pst_couplings(15), 2**-0.5, 2**-0.5)
    success, discarded = setup.success_single_z([8], [np.pi / 2])
    assert success[0] >= 1 - 1e-9
    assert discarded[0] == 0.0


def test_setup_engine_matches_success_probability(code15, chain15):
    # the one-mode sample path against expm evolution plus the branch pipeline
    from chainqec.decoder import DecodeOptions, decode_pipeline
    from chainqec.noise import inject_single_z

    logical = (1 / np.sqrt(2), 1 / np.sqrt(2))
    setup = RevivalSetup(chain15, *logical)
    opts = DecodeOptions(mode="revival", alpha=logical[0], beta=logical[1])
    cases = [(4, 0.31), (13, 2.9)]
    fast, _ = setup.success_single_z(*zip(*cases))
    for (site, t_err), got in zip(cases, fast):
        noisy = inject_single_z(_encoded(setup), chain15, site, t_err, setup.duration)
        want = decode_pipeline(noisy, code15, opts).success_probability
        assert got == pytest.approx(want, abs=1e-11)


def test_batched_single_z_matches_pipeline_and_ignores_order(code15, chain15):
    # one mixed-site batch (end sites, a repeated site, both ends of the
    # time window) against per-sample evolution plus the branch pipeline
    from chainqec.code import encode
    from chainqec.decoder import DecodeOptions, decode_pipeline
    from chainqec.harness import RevivalSetup
    from chainqec.noise import inject_single_z

    amp = 1 / np.sqrt(2)
    setup = RevivalSetup(chain15, amp, amp)
    sites = np.array([1, 15, 7, 7, 3, 12, 9])
    t_errs = np.array([0.0, setup.duration, 0.4, 2.3, 1.7, 0.05, 3.0])
    success, discarded = setup.success_single_z(sites, t_errs)
    # every single flip is corrected, so also compare the arriving states:
    # the rows a pruned sweep scores on the support, and nothing off it
    ev = setup.pruned.evaluator
    arrived = _hop_rows(setup, setup.pruned, sites, t_errs)
    assert arrived.shape == (sites.size, ev.support.size)
    off_support = np.ones(2**15, dtype=bool)
    off_support[ev.support] = False
    psi0 = encode(code15, amp, amp)
    for site, t_err, got, row in zip(sites, t_errs, success, arrived):
        noisy = inject_single_z(psi0, chain15, int(site), float(t_err), setup.duration)
        np.testing.assert_allclose(row, noisy.amps[ev.support], rtol=0, atol=1e-11)
        np.testing.assert_allclose(noisy.amps[off_support], 0.0, rtol=0, atol=1e-11)
        want = decode_pipeline(noisy, code15, DecodeOptions(mode="revival")).success_probability
        assert got == pytest.approx(want, abs=1e-11)
    np.testing.assert_array_equal(discarded, 0.0)
    # a sample's value does not depend on its row: resumed runs rely on it
    perm = np.random.default_rng(63).permutation(sites.size)
    again, _ = setup.success_single_z(sites[perm], t_errs[perm])
    np.testing.assert_array_equal(again, success[perm])


def test_single_z_one_mode_matches_expm_oracle(code15, chain15):
    # end sites and the middle, at both ends and a third of the time window:
    # the pruned path's rows and the exact quadratic-form success
    from chainqec.decoder import DecodeOptions, decode_pipeline
    from chainqec.noise import inject_single_z

    amp = 1 / np.sqrt(2)
    setup = RevivalSetup(chain15, amp, amp)
    total = setup.duration
    cases = [(site, t) for site in (1, 8, 15) for t in (0.0, total / 3, total)]
    sites, t_errs = (np.array(col) for col in zip(*cases))
    rows = _hop_rows(setup, setup.pruned, sites, t_errs)
    success, _ = setup.success_single_z(sites, t_errs)
    for k, (site, t_err) in enumerate(cases):
        got = _on_support(setup, rows[k])[0]
        want = inject_single_z(_encoded(setup), chain15, site, t_err, total)
        np.testing.assert_allclose(got, want.amps, rtol=0, atol=1e-12)
        oracle = decode_pipeline(want, code15, DecodeOptions(mode="revival"))
        assert success[k] == pytest.approx(oracle.success_probability, abs=1e-12)


def test_exact_single_z_matches_scored_rows(chain15):
    # the rows at W's read positions, scored by the exact evaluator, against
    # the rows phi - 2 n_v phi on the whole support scored by the evaluator;
    # the whole-support rows themselves are checked against the expm oracle
    rng = np.random.default_rng(65)
    sites = rng.integers(1, 16, 64)
    t_errs = rng.uniform(0.0, np.pi, 64)
    setup = harness._revival_setup(chain15)
    success, discarded = setup.success_single_z(sites, t_errs)
    read = _hop_rows(setup, setup.exact, sites, t_errs)
    assert success.tobytes() == setup.exact.evaluator.success(read)[0].tobytes()
    rows = _hop_rows(setup, setup.pruned, sites, t_errs)
    want, _ = setup.pruned.evaluator.success(rows)
    np.testing.assert_allclose(success, want, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(discarded, 0.0)
    # every single flip is corrected, so the success is blind to a wrong sign
    # in a hopped state: compare the rows and their overlaps themselves
    at_read = np.unique(setup.pruned.evaluator.weights.row)  # exact.evaluator.support = support[at_read]
    np.testing.assert_allclose(read, rows[:, at_read], rtol=0, atol=1e-13)
    np.testing.assert_allclose(read @ setup.exact.evaluator.weights, rows @ setup.pruned.evaluator.weights,
                               rtol=0, atol=1e-13)


def test_read_evaluator_is_the_evaluator_at_the_positions_w_reads(chain15, monkeypatch):
    # the same columns, entries and stored order on the 154 read positions,
    # so an exact score of a row there equals, bit for bit, the
    # whole-support evaluator's on any row agreeing with it there.  It is
    # derived from the evaluator (restricted), not built: one
    # RevivalEvaluator.__init__ per set-up
    from chainqec.decoder import RevivalEvaluator

    init, built = RevivalEvaluator.__init__, []
    monkeypatch.setattr(RevivalEvaluator, "__init__",
                        lambda self, *args, **kwargs: built.append(1) or init(self, *args, **kwargs))
    amp = 1 / np.sqrt(2)
    setup = RevivalSetup(chain15, amp, amp)
    assert len(built) == 1
    ev, read_ev = setup.pruned.evaluator, setup.exact.evaluator
    assert read_ev.tables is ev.tables and read_ev.columns is ev.columns
    read = np.unique(ev.weights.row)
    assert read.size == read_ev.support.size == 154
    assert np.array_equal(read_ev.support, ev.support[read])
    assert np.array_equal(read_ev.columns, ev.columns)
    w, rw = ev.weights, read_ev.weights
    assert np.array_equal(read[rw.row], w.row) and np.array_equal(rw.col, w.col)
    assert rw.value.tobytes() == w.value.tobytes()
    # a fresh evaluator built on those positions: the same support, columns,
    # W entries in the same stored order, and the same bits
    fresh = RevivalEvaluator(minimal15(), amp, amp, support=read_ev.support)
    assert set(vars(fresh)) == set(vars(read_ev))
    assert fresh.support.tobytes() == read_ev.support.tobytes()
    assert fresh.columns.tobytes() == read_ev.columns.tobytes()
    fw = fresh.weights
    assert fw.shape == rw.shape
    for name in ("row", "col", "value", "_gather", "_scale", "_place"):
        assert getattr(fw, name).tobytes() == getattr(rw, name).tobytes(), name
    assert fw._ends == rw._ends and fw._cross is None and rw._cross is None
    rng = np.random.default_rng(69)
    for s in (1, 5, 16):
        rows = rng.standard_normal((s, ev.support.size)) + 1j * rng.standard_normal((s, ev.support.size))
        success, _ = ev.success(rows)
        assert read_ev.success(rows[:, read])[0].tobytes() == success.tobytes()
        assert fresh.success(rows[:, read])[0].tobytes() == success.tobytes()


def test_exact_evaluator_is_the_pruned_one_restricted(chain15):
    # the two read-outs share one set of decode tables, W's columns and the
    # reference: the exact evaluator is the whole-support one restricted to
    # the positions W reads, entry for entry, and both build phi from one U(2T)
    setup = harness._revival_setup(chain15)
    exact, pruned = setup.exact.evaluator, setup.pruned.evaluator
    assert exact.restricted_from is pruned and pruned.restricted_from is None
    again = pruned.restricted()
    assert set(vars(again)) == set(vars(exact))
    for ev in (exact, again):
        assert ev.tables is pruned.tables and ev.columns is pruned.columns
        assert ev.reference is pruned.reference and ev.check_masks is pruned.check_masks
    assert exact.support.tobytes() == again.support.tobytes()
    for name in ("row", "col", "value", "_gather", "_scale", "_place"):
        assert getattr(exact.weights, name).tobytes() == getattr(again.weights, name).tobytes(), name
    assert setup.exact.transport is setup.pruned.transport
    assert setup.exact.transport.tobytes() == mode_unitaries(chain15, [setup.duration]).tobytes()


def _hop_rows_dense(state, support):
    """Row N i + j: c_{i+1}^dag c_{j+1} |state> on `support`, each entry one signed read.

    c_i^dag c_i is n_i; for i != j, c_i^dag c_j takes |x>, site j occupied
    and site i empty, to (-1)^{|x & sites strictly between i and j|}
    |x ^ b_i ^ b_j>.  The direct construction, independent of hop_plan's
    routes through the neighbouring weights.
    """
    from chainqec.pauli import z_sign

    n, y = state.n_sites, np.asarray(support)
    bits = [1 << (n - 1 - i) for i in range(n)]
    out = np.zeros((n * n, y.size), dtype=complex)
    for i, b_i in enumerate(bits):
        for j, b_j in enumerate(bits):
            lo, hi = max(b_i, b_j), min(b_i, b_j)
            between = lo - 2 * hi if lo > hi else 0  # the bits strictly between
            hit = ((y & b_i) != 0) & (((y & b_j) == 0) | (i == j))
            out[n * i + j, hit] = z_sign(y[hit] & between) * state.amps[y[hit] ^ b_i ^ b_j]
    return out


def test_hop_plan_reads_the_hopped_states_bit_for_bit(chain15):
    # the hopped states c_i^dag c_j phi from apply_hops equal their direct
    # construction byte for byte, at W's read positions (exact.hops, which
    # the exact samples use) and on the whole support (pruned.hops, the
    # pruned ones): each entry is a state amplitude with an exact sign, and
    # c_i^dag c_i phi through weight 11 is phi - phi = 0 or phi - 0 = phi exactly
    setup = harness._revival_setup(chain15)
    eye = np.eye(15, dtype=complex)
    for hops, support in ((setup.exact.hops, setup.exact.evaluator.support),
                          (setup.pruned.hops, setup.pruned.evaluator.support)):
        want = _hop_rows_dense(StateVector(_on_support(setup, _arrival(setup))[0], 15), support)
        for i in range(15):  # rows 15 i .. 15 i + 14: the pairs (e_i, e_j)
            hopped = apply_hops(hops, np.repeat(eye[i:i + 1], 15, axis=0), eye, {})
            assert hopped.T.tobytes() == want[15 * i:15 * i + 15].tobytes()


@pytest.mark.parametrize("prune", [0.0, 1e-12])
def test_single_z_refuses_bad_samples_exact_or_pruned(chain15, prune):
    setup = harness._revival_setup(chain15)
    bad = [
        ([0], [0.1], "site out of range"),  # unchecked, evecs[0 - 1] reads site 15
        ([16], [0.1], "site out of range"),
        ([3], [np.nan], "finite"),
        ([3], [np.inf], "finite"),
        ([1, 2], [0.1], "one site per time"),
        ([1.7], [0.3], "whole number"),  # unchecked, an int64 cast scores site 1
    ]
    for sites, t_errs, match in bad:
        with pytest.raises(ValueError, match=match):
            setup.success_single_z(sites, t_errs, prune)


def test_single_z_and_timing_never_diagonalise(monkeypatch):
    from chainqec import hilbert

    def refuse(spec, weight):
        raise AssertionError("sparse sector Hamiltonian requested")

    monkeypatch.setattr(hilbert, "sector_sparse", refuse)
    summary = exp_single_z(samples=4, seed=2)
    assert summary.min_success >= 1 - 1e-8
    curve = exp_timing(delta_grid=(0.0, 0.01))
    assert curve.successes[0] == pytest.approx(1.0, abs=1e-9)


def test_pruned_sweeps_never_run_the_pipeline(monkeypatch):
    from chainqec import decoder

    def refuse(*args, **kwargs):
        raise AssertionError("decode_pipeline called")

    monkeypatch.setattr(decoder, "decode_pipeline", refuse)
    summary = exp_single_z(samples=4, seed=2, prune_below=1e-12)
    assert summary.min_success >= 1 - 1e-8
    curve = exp_timing(delta_grid=(0.0, 0.01), prune_below=1e-7)
    assert curve.successes[0] == pytest.approx(1.0, abs=1e-9)
    curves = exp_coupling(f_grid=(0.05,), instances=2, seed=1, prune_below=1e-12)
    assert curves.discarded_mass[0] > 0


def test_exact_single_z_builds_no_rows(monkeypatch):
    # exact rows are built at the 154 positions W reads, from phi on their
    # one-hop reach (1504 positions); only pruned rows, whose masses read the
    # whole support, are built on it, and only they build phi there.  A fresh
    # set-up cache, so that no earlier call has built a read-out's plans
    monkeypatch.setattr(harness, "_revival_setup", lru_cache(harness._revival_setup.__wrapped__))
    hop, calls = harness.apply_hops, []  # (positions, samples) of each row block built
    monkeypatch.setattr(
        harness, "apply_hops",
        lambda plan, a, *args, **kwargs: calls.append((sum(g[0].size for g in plan), len(a)))
        or hop(plan, a, *args, **kwargs),
    )
    plan, planned = harness.amplitude_plan, []  # the targets of each amplitude plan
    monkeypatch.setattr(harness, "amplitude_plan",
                        lambda n, targets, amps: planned.append(len(targets)) or plan(n, targets, amps))
    exp_timing(delta_grid=(0.0, 0.01))
    exp_coupling(f_grid=(0.05,), instances=2, seed=1)
    setup = harness._revival_setup(pst_couplings(15))
    # exact M scoring: no whole-support plan, no phi, no hop plan
    assert "hops" not in vars(setup.exact) and not {"amplitudes", "hops"} & set(vars(setup.pruned))
    summary = exp_single_z(samples=20, seed=2)
    assert summary.min_success >= 1 - 1e-8
    assert calls == [(154, 16), (154, 4)]  # no row on the whole support
    assert "hops" in vars(setup.exact)
    # neither whole-support plan, nor phi on the whole support
    assert not {"amplitudes", "hops"} & set(vars(setup.pruned))
    # the exact fold on the first timing chunk, then phi on the reach, 1504
    # targets in 4 blocks
    assert planned == [154, 376, 376, 376, 376]
    assert [group[0].size for group in setup.exact.hops] == [1, 153]
    pruned = exp_single_z(samples=20, seed=2, prune_below=1e-12)
    assert calls[2:] == [(3004, 16), (3004, 4)]  # one per chunk of 16
    # phi on the whole support, 3004 targets in 4 blocks, and no whole-support
    # minor plan: a pruned single-Z call builds no amplitudes
    assert "hops" in vars(setup.pruned) and "amplitudes" not in vars(setup.pruned)
    assert planned == [154, 376, 376, 376, 376, 751, 751, 751, 751]
    np.testing.assert_allclose(pruned.successes, summary.successes, rtol=0, atol=1e-9)


def _held_arrays(*owners) -> list[np.ndarray]:
    """Every array the owners hold, those of their tables included."""
    held = [value for owner in owners for value in vars(owner).values()]
    held += [a for m in held if isinstance(m, FixedOrderTable) for a in vars(m).values()]
    return [a for a in held if isinstance(a, np.ndarray)]


def test_cached_setup_is_read_only():
    setup = harness._revival_setup(pst_couplings(15))
    setup.success_single_z([3], [0.4])  # an exact call builds phi on the reach and exact.hops
    setup.success_single_z([3], [0.4], 1e-12)  # a pruned call builds pruned.hops
    plan, read_fold = setup.exact.amplitudes
    support_plan, support_table = setup.pruned.amplitudes  # built here: no single-Z call reads it
    arrays = _held_arrays(setup, setup.exact, setup.pruned, setup.pruned.evaluator, setup.exact.evaluator,
                          setup.pruned.evaluator.tables, read_fold, support_table)
    arrays += [*setup.reference, _arrival(setup)]
    # the exact evaluator's support and W, derived from the pruned one's (restricted)
    arrays += [setup.exact.evaluator.support, *_held_arrays(setup.exact.evaluator.weights)]
    for p in (plan, support_plan):
        arrays += [p.pairs, p.complementary, p.sign, p.node, *p.entries, *p.children]
    pruning = setup.pruned.evaluator._prune_tables  # built by the pruned call
    arrays += [a for a in pruning if isinstance(a, np.ndarray)] + _held_arrays(pruning[2])
    # both hop plans' tables, amplitudes and slots (the vacuum's table and
    # slots are empty: nothing in them can be written)
    arrays += [a for hops in (setup.exact.hops, setup.pruned.hops) for group in hops for a in group[2:] if a.size]
    # the evaluators' arrays and W's table arrays, U(2T), the exact fold's,
    # the pruning tables (four arrays and a table), three decode-table
    # arrays, two states, each minor plan's four arrays and two tables per
    # level, the whole-support fold and both hop plans
    # the vacuum through weight -1 (no slot), weight 10 through weight 11
    assert [(group[0].size, group[1], group[2].shape) for group in setup.pruned.hops] == [
        (1, False, (15, 0)), (3003, True, (15, 1365))]
    assert [(group[0].size, group[1]) for group in setup.exact.hops] == [(1, False), (153, True)]
    assert [e.shape for e in plan.entries] == [(45, 1), (315, 2), (990, 3), (945, 4), (459, 5)]
    assert [c.shape for c in plan.children] == [e.shape for e in plan.entries]
    assert plan.node.shape == (460,) and read_fold.shape == (460, 154)
    assert len(arrays) >= 60
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0


def test_evaluator_holds_no_state_sized_array():
    # the set-up's evaluator works on the encoded sectors, weights {0, 10}
    ev = harness._revival_setup(pst_couplings(15)).pruned.evaluator
    assert ev.support.size == 1 + 3003
    sizes = [a.size for a in _held_arrays(ev, ev.tables)]
    assert max(sizes) < 2**15


def test_row_value_does_not_depend_on_its_chunk(chain15):
    # every product sums each entry in a fixed order, whatever the number of
    # rows; a resumed run re-chunks its missing points
    rng = np.random.default_rng(64)
    sites = rng.integers(1, 16, 64)
    t_errs = rng.uniform(0.0, 2 * np.pi / 2, 64)
    setup = harness._revival_setup(chain15)
    for prune in (0.0, 1e-12, 1e-6):
        success, discarded = setup.success_single_z(sites, t_errs, prune)
        if prune:
            assert discarded.max() > 0
        for k in range(64):
            alone = setup.success_single_z(sites[k:k + 1], t_errs[k:k + 1], prune)
            assert (alone[0][0], alone[1][0]) == (success[k], discarded[k]), (prune, k)


def test_revival_sweeps_share_one_setup_per_process(monkeypatch):
    built = []
    init = RevivalSetup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RevivalSetup, "__init__", counting_init)
    harness._revival_setup.cache_clear()
    exp_single_z(samples=2, seed=1, prune_below=1e-12)
    exp_single_z(samples=3, seed=2)  # exact and pruned sweeps share the set-up
    exp_timing(delta_grid=(0.0,), prune_below=1e-7)
    exp_coupling(f_grid=(0.05,), instances=1, seed=1)
    assert len(built) == 1
    exp_timing(delta_grid=(0.0,), spec=pst_couplings(15, scale=2.0))  # another chain
    assert len(built) == 2


def test_single_z_csv_and_resume(tmp_path):
    full_dir = tmp_path / "full"
    part_dir = tmp_path / "part"
    exp_single_z(samples=6, seed=3, out_dir=str(part_dir))  # "interrupted" prefix run
    exp_single_z(samples=10, seed=3, out_dir=str(part_dir))  # resume to 10
    exp_single_z(samples=10, seed=3, out_dir=str(full_dir))  # uninterrupted
    with open(part_dir / "single_z.csv", "rb") as fh:
        resumed = fh.read()
    with open(full_dir / "single_z.csv", "rb") as fh:
        fresh = fh.read()
    assert resumed == fresh
    header = fresh.decode().splitlines()[0]
    assert header == "sample,site,t_err,success_probability"
    manifest = json.loads((full_dir / "manifest.json").read_text())
    assert manifest["experiment"] == "single_z"
    assert "version" in manifest


@pytest.mark.parametrize("prune", [0.0, 1e-12])
def test_single_z_resume_across_chunk_boundary(tmp_path, prune):
    # 70 samples span five evaluation chunks; an interruption after 37 points
    # re-chunks the rest, and the CSV must not notice, exact or pruned
    full_dir = tmp_path / "full"
    part_dir = tmp_path / "part"
    exp_single_z(samples=70, seed=4, out_dir=str(full_dir), prune_below=prune)
    shutil.copytree(full_dir, part_dir)
    points = (part_dir / "points.jsonl").read_text().splitlines(keepends=True)
    (part_dir / "points.jsonl").write_text("".join(points[:37]))
    (part_dir / "single_z.csv").unlink()
    exp_single_z(samples=70, seed=4, out_dir=str(part_dir), prune_below=prune)
    assert (part_dir / "single_z.csv").read_bytes() == (full_dir / "single_z.csv").read_bytes()
    assert (part_dir / "points.jsonl").read_bytes() == (full_dir / "points.jsonl").read_bytes()


@pytest.mark.parametrize("cut", ["inside_record", "before_newline"])
def test_single_z_resumes_a_record_cut_short(tmp_path, cut):
    # an interruption while record 21 is written leaves it cut partway, or
    # whole without its newline; the resumed run recomputes it, appends the
    # rest on lines of their own, and a second resume reads them all
    full_dir = tmp_path / "full"
    part_dir = tmp_path / "part"
    exp_single_z(samples=40, seed=0, out_dir=str(full_dir))
    shutil.copytree(full_dir, part_dir)
    points = (part_dir / "points.jsonl").read_bytes().splitlines(keepends=True)
    record = points[21]
    cut_record = record[:len(record) // 2] if cut == "inside_record" else record[:-1]
    (part_dir / "points.jsonl").write_bytes(b"".join(points[:21]) + cut_record)
    (part_dir / "single_z.csv").unlink()
    for _ in range(2):
        exp_single_z(samples=40, seed=0, out_dir=str(part_dir))
        assert (part_dir / "single_z.csv").read_bytes() == (full_dir / "single_z.csv").read_bytes()
        assert (part_dir / "points.jsonl").read_bytes() == (full_dir / "points.jsonl").read_bytes()


def test_single_z_resume_refuses_other_seed(tmp_path):
    exp_single_z(samples=3, seed=1, out_dir=str(tmp_path))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValueError, match="different run"):
        exp_single_z(samples=3, seed=2, out_dir=str(tmp_path))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_single_z_pruned_mass_reported(tmp_path):
    summary = exp_single_z(samples=6, out_dir=str(tmp_path), prune_below=1e-12)
    lines = (tmp_path / "points.jsonl").read_text().splitlines()
    recs = [json.loads(line) for line in lines]
    for rec in recs:
        assert rec["success"] + rec["discarded_mass"] <= 1 + 1e-12
    assert summary.discarded_mass == pytest.approx(sum(r["discarded_mass"] for r in recs))
    assert summary.discarded_mass > 0
    header = (tmp_path / "single_z.csv").read_text().splitlines()[0]
    assert header == "sample,site,t_err,success_probability"


def test_single_z_resume_refuses_older_version(tmp_path):
    # 0.3.0 single-Z records came from the eigenbasis engine and differ in their last digits
    exp_single_z(samples=2, out_dir=str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["version"] = "0.3.0"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValueError, match="different run"):
        exp_single_z(samples=2, out_dir=str(tmp_path))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# --- exact scoring from minors of the mode unitary -------------------------------

# |0_L> and |1_L> occupy weights 0, 5, 10 and 15, |+_L> only 0 and 10
LOGICALS = {"zero": (1, 0), "one": (0, 1), "plus": (2**-0.5, 2**-0.5), "mixed": (0.6, 0.8j)}


@pytest.fixture(scope="module", params=list(LOGICALS))
def logical_setup(request):
    return RevivalSetup(pst_couplings(15), *LOGICALS[request.param])


class _NoStateSizedArrays:
    """numpy as a module sees it, refusing any function result with an axis of 2^n entries.

    Every array is made by a numpy function (a constructor, a gather, a
    sort) or derived from arrays that were, by arithmetic or indexing that
    keeps their axes, so an array over all 2^n basis indices shows here.
    Types and ufuncs pass through unwrapped: a ufunc's axes are its
    operands'.
    """

    def __init__(self, n: int):
        self.dim = 1 << n

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, (type, np.ufunc)):
            return attr

        def guarded(*args, **kwargs):
            out = attr(*args, **kwargs)
            for a in out if isinstance(out, tuple) else (out,):
                assert not (isinstance(a, np.ndarray) and self.dim in a.shape), (name, a.shape)
            return out

        return guarded


def test_revival_setup_holds_and_builds_no_state_sized_array(chain15, monkeypatch):
    # the set-up is built from the encoded state's nonzero entries: no 2^N
    # vector, position table or arrival buffer, and the reach's minor plans
    # are freed, not cached.  The traced peak of a fresh set-up was 2.51 MiB
    # with a dense encoded state (twice) and position table; 0.45 MiB here
    import sys
    import tracemalloc

    from chainqec import hilbert

    RevivalSetup(chain15, 2**-0.5, 2**-0.5)  # the per-chain and per-code caches, warm
    tracemalloc.start()
    try:
        setup = RevivalSetup(chain15, 2**-0.5, 2**-0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, peak
    guard = _NoStateSizedArrays(chain15.n_sites)
    for module in [m for name, m in sys.modules.items() if name.startswith("chainqec")]:
        if getattr(module, "np", None) is np:
            monkeypatch.setattr(module, "np", guard)
    cached = hilbert._cached_minor_plan.cache_info()
    fresh = RevivalSetup(chain15, 2**-0.5, 2**-0.5)
    rng = np.random.default_rng(73)
    sites, t_errs = rng.integers(1, 16, 16), rng.uniform(0.0, fresh.duration, 16)
    success, _ = fresh.success_single_z(sites, t_errs)  # the first exact chunk builds exact.hops
    m = mode_unitaries(chain15, fresh.duration + np.linspace(-0.1, 0.1, 16))
    stacked, _ = fresh.success_mode_unitaries(m)
    monkeypatch.undo()
    # no reach plan (or any other) was left in the cache of minor plans
    assert hilbert._cached_minor_plan.cache_info() == cached
    assert success.tobytes() == setup.success_single_z(sites, t_errs)[0].tobytes()
    assert stacked.tobytes() == setup.success_mode_unitaries(m)[0].tobytes()
    assert not any(isinstance(value, StateVector) for value in vars(fresh).values())


@pytest.mark.parametrize("logical", list(LOGICALS))
def test_revival_setup_encodes_nothing_and_reads_the_encoded_entries(chain15, code15, logical,
                                                                     monkeypatch):
    # one set-up builds the encoded state's entries once (in its evaluator)
    # and never the dense state: code.encode ran twice per set-up, once for
    # the set-up's state and once for the evaluator's reference
    from chainqec import code, decoder
    from chainqec.code import encode, encode_entries
    from chainqec.decoder import RevivalEvaluator
    from chainqec.pauli import mask_of_sites, z_sign

    alpha, beta = LOGICALS[logical]
    calls = []
    for module in (code, decoder, harness):
        monkeypatch.setattr(module, "encode", lambda *args: calls.append(args) or encode(*args),
                            raising=False)
    setup = RevivalSetup(chain15, alpha, beta)
    assert calls == []
    monkeypatch.undo()
    # the entries are the dense state's nonzero ones, and the codewords', byte for byte
    dense = encode(code15, alpha, beta).amps
    zero, one = code15.codewords()
    formula = alpha * zero.amps + beta * one.amps  # as encode once formed the dense state
    for indices, values in (setup.reference, encode_entries(code15, alpha, beta)):
        assert indices.dtype == np.int64 and values.dtype == complex
        assert indices.tobytes() == np.flatnonzero(dense).tobytes() == np.flatnonzero(formula).tobytes()
        assert values.tobytes() == dense[indices].tobytes() == formula[indices].tobytes()
    # the set-up's evaluator is RevivalEvaluator(code, alpha, beta), entry for entry
    ev, fresh = setup.pruned.evaluator, RevivalEvaluator(code15, alpha, beta)
    assert ev.support.tobytes() == fresh.support.tobytes()
    assert ev.columns.tobytes() == fresh.columns.tobytes()
    for name in ("row", "col", "value", "_gather", "_scale", "_place"):
        assert getattr(ev.weights, name).tobytes() == getattr(fresh.weights, name).tobytes(), name
    # and each W entry is the dense reference's conjugated, corrected amplitude:
    # row y of column (key, o) reads source y ^ x_mask[key], signed by the
    # key's trailing Z at y and the column's Z correction at the source
    tables, n_out = ev.tables, ev.n_out
    key, o = ev.columns[ev.weights.col] // n_out, ev.columns[ev.weights.col] % n_out
    y = ev.support[ev.weights.row]
    source = y ^ tables.x_mask[key]
    c2 = np.array([mask_of_sites(15, tables.cross_reference(int(b), tables.x_table[int(k)]) or ())
                   for k, b in zip(key, o)], dtype=np.int64)
    want = np.conj(dense[source]) * z_sign(source & c2) * z_sign(y & tables.z_trail[key])
    assert ev.weights.value.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha, beta", [(np.nan, 0.0), (0.0, np.nan), (complex(1, np.nan), 0.0),
                                         (np.inf, 0.0), (1.0, 0.5)])
def test_every_entry_point_refuses_logical_amplitudes_that_are_not_normalised(chain15, code15,
                                                                               alpha, beta):
    # a NaN amplitude once passed the normalisation check: encode returned a
    # NaN state, decode_pipeline a NaN success, and RevivalSetup died on a
    # minor plan of every basis index of the NaN state
    from chainqec.code import encode, encode_entries
    from chainqec.decoder import DecodeOptions, decode_pipeline

    state = encode(code15, 2**-0.5, 2**-0.5)
    for call in (lambda: encode(code15, alpha, beta), lambda: encode_entries(code15, alpha, beta),
                 lambda: decode_pipeline(state, code15, DecodeOptions(alpha=alpha, beta=beta)),
                 lambda: RevivalSetup(chain15, alpha, beta)):
        with pytest.raises(ValueError, match=r"normalised: \|alpha\|\^2 \+ \|beta\|\^2 = 1"):
            call()


@lru_cache(maxsize=None)
def _expm_codewords(spec, duration, jumps) -> tuple[np.ndarray, ...]:
    """|0_L> and |1_L> evolved by expm between the jumps' phase flips, once per scenario.

    Every logical set-up of a scenario combines these two, so the N = 15
    sector evolutions are not repeated per set-up.
    """
    out = []
    for psi in minimal15().codewords():
        prev = 0.0
        for t, site in jumps:
            psi = evolve(psi, spec, t - prev)
            psi = apply_pauli(psi, pauli_z(spec.n_sites, site))
            prev = t
        out.append(evolve(psi, spec, duration - prev).amps)
    return tuple(out)


def _expm_row(setup, spec, duration, jumps=()) -> np.ndarray:
    """The revival state on the support: expm evolves between the jumps' phase flips.

    Evolution is linear, so the state is alpha and beta times the evolved
    codewords (_expm_codewords), alpha and beta read from the encoded state.
    """
    alpha, beta, _ = logical_readout(minimal15(), _encoded(setup))
    zero, one = _expm_codewords(spec, float(duration), tuple(jumps))
    return (alpha * zero + beta * one)[setup.pruned.evaluator.support]


def _assert_matches_rows(setup, stack, rows):
    # exact members from the minors W reads, pruned ones from rows of the
    # whole support's minors, both against the oracle's rows
    for prune in (0.0, 1e-12):
        got, discarded = setup.success_mode_unitaries(stack, prune)
        want, want_discarded = setup.pruned.evaluator.success(np.array(rows), prune)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(discarded, want_discarded, rtol=0, atol=1e-12)
        if not prune:
            np.testing.assert_array_equal(discarded, 0.0)


# "givens" in the three test names below is historical: their oracle rows
# come from expm (_expm_row), and the names stay so that the test ids do
def test_minors_match_givens_at_timing_offsets(logical_setup, chain15):
    s = logical_setup
    deltas = np.array([-0.3, -0.01, 0.002, 0.05, 0.2])
    rows = [_expm_row(s, chain15, s.duration + d) for d in deltas]
    _assert_matches_rows(s, mode_unitaries(chain15, s.duration + deltas), rows)


def test_minors_match_givens_on_disordered_chains(logical_setup, chain15):
    s = logical_setup
    for f in (0.01, 0.1, 0.3):
        for draw in (3, 4):
            perturbed, zeta = disordered_spec(chain15, f, draw)
            row = _expm_row(s, perturbed, s.duration)
            _assert_matches_rows(s, mode_unitaries(perturbed, [s.duration]), [row])
            for prune in (0.0, 1e-12):
                success, discarded = s.success_mode_unitaries(
                    mode_unitaries(perturbed, [s.duration]), prune
                )
                got = s.success_coupling_instance(f, draw, prune)
                assert got == (success[0], zeta, discarded[0])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_minors_match_givens_on_jump_products(logical_setup, chain15, k):
    s = logical_setup
    rng = np.random.default_rng(70 + k)
    trajectories = [
        tuple(zip(np.sort(rng.uniform(0.0, s.duration, k)), rng.integers(1, 16, k)))
        for _ in range(3)
    ]
    stack = np.array([jump_unitary(chain15, s.duration, jumps) for jumps in trajectories])
    rows = [_expm_row(s, chain15, s.duration, jumps) for jumps in trajectories]
    _assert_matches_rows(s, stack, rows)


def test_minors_at_the_revival_time_read_the_encoded_state(logical_setup, chain15):
    # U(2T) is the identity up to roundoff: most 5 x 5 blocks are singular there
    s = logical_setup
    for m in (mode_unitaries(chain15, [s.duration]), np.eye(15)[None]):
        assert s.success_mode_unitaries(m)[0][0] == pytest.approx(1.0, abs=1e-12)


def test_single_z_matches_its_jump_unitary(logical_setup, chain15):
    # the two production read-outs of one phase flip: the quadratic form in
    # the flipped mode, and minors (or rows from minors) of U(D - t) R_s U(t)
    s = logical_setup
    rng = np.random.default_rng(72)
    sites = np.array([1, 15, 8, *rng.integers(1, 16, 5)])
    t_errs = np.array([0.0, s.duration, 1.1, *rng.uniform(0.0, s.duration, 5)])
    stack = np.array([jump_unitary(chain15, s.duration, [(t, site)])
                      for site, t in zip(sites, t_errs)])
    for prune in (0.0, 1e-12):
        got = s.success_single_z(sites, t_errs, prune)
        want = s.success_mode_unitaries(stack, prune)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(prune))


def test_minors_match_expm_and_pipeline(code15, chain15):
    from chainqec.decoder import DecodeOptions, decode_pipeline

    setup = harness._revival_setup(chain15)
    opts = DecodeOptions(mode="revival")
    deltas = (0.013, -0.07)
    m = mode_unitaries(chain15, setup.duration + np.array(deltas))
    got, _ = setup.success_mode_unitaries(m)
    cases = [(value, chain15, setup.duration + delta) for delta, value in zip(deltas, got)]
    for f, draw in ((0.05, 11), (0.2, 12)):
        perturbed = disordered_spec(chain15, f, draw)[0]
        value = setup.success_mode_unitaries(mode_unitaries(perturbed, [setup.duration]))[0][0]
        cases.append((value, perturbed, setup.duration))
    for value, spec, t in cases:
        psi = evolve(_encoded(setup), spec, t)
        want = decode_pipeline(psi, code15, opts).success_probability
        assert value == pytest.approx(want, abs=1e-10)


def test_stack_member_does_not_depend_on_its_stack(chain15):
    setup = harness._revival_setup(chain15)
    rng = np.random.default_rng(71)
    stack = np.concatenate([
        mode_unitaries(chain15, setup.duration + rng.uniform(-0.3, 0.3, 5)),
        mode_unitaries(disordered_spec(chain15, 0.1, 5)[0], [setup.duration]),
        [jump_unitary(chain15, setup.duration, ((0.4, 3), (2.2, 9)))],
    ])
    for prune in (0.0, 1e-12):
        success, discarded = setup.success_mode_unitaries(stack, prune)
        if prune:
            assert discarded.max() > 0
        for k in range(len(stack)):
            alone = setup.success_mode_unitaries(stack[k:k + 1], prune)
            assert (alone[0][0], alone[1][0]) == (success[k], discarded[k]), (prune, k)
    # pruned members are scored from rows of one mode_minors call on the
    # whole-support plan (pruned.amplitudes): each member's row is computed alone too
    rows = _support_rows(setup, stack)
    for k in range(len(stack)):
        np.testing.assert_array_equal(_support_rows(setup, stack[k:k + 1])[0], rows[k])
    # nor does a mode unitary depend on the other times it is built with
    times = setup.duration + rng.uniform(-0.3, 0.3, 7)
    whole, _ = setup.success_mode_unitaries(mode_unitaries(chain15, times))
    alone = [setup.success_mode_unitaries(mode_unitaries(chain15, [t]))[0][0] for t in times]
    np.testing.assert_array_equal(alone, whole)


def test_arrival_is_the_expm_evolution_built_on_first_use(chain15):
    setup = RevivalSetup(chain15, 2**-0.5, 2**-0.5)
    # exact scoring reads only the minors W reads: no whole-support plan, no phi
    setup.success_mode_unitaries(mode_unitaries(chain15, [setup.duration + 0.01]))
    assert "amplitudes" in vars(setup.exact)
    assert not {"amplitudes", "hops"} & set(vars(setup.pruned)) and "hops" not in vars(setup.exact)
    want = evolve(_encoded(setup), chain15, setup.duration).amps
    # phi on the support, and 0 off it
    assert np.abs(_on_support(setup, _arrival(setup))[0] - want).max() <= 1e-13
    plan, table = setup.pruned.amplitudes
    assert plan.pairs.shape == (2, 9010) and table.shape == (9010, setup.pruned.evaluator.support.size)
    # the whole-support plan is apply_mode_unitary's plan of the same state, in another target order
    engine = apply_mode_unitary(_encoded(setup), mode_unitaries(chain15, [setup.duration])[0])
    np.testing.assert_array_equal(engine.amps, _on_support(setup, _arrival(setup))[0])


def test_mode_unitary_scoring_refuses_bad_input(chain15):
    setup = harness._revival_setup(chain15)
    u = mode_unitaries(chain15, [setup.duration])
    with pytest.raises(ValueError, match="finite"):
        mode_unitaries(chain15, [np.nan])  # _u_of_t would turn it into a NaN success
    with pytest.raises(ValueError, match="finite"):
        mode_unitaries(chain15, setup.duration + np.array([0.0, np.inf]))
    with pytest.raises(ValueError, match="grid must be finite"):
        exp_timing(delta_grid=(0.0, np.nan))
    for prune in (0.0, 1e-12):  # exact and pruned members are checked alike
        for bad in (u[0], u[:, :14, :14], np.ones((1, 15, 16))):
            with pytest.raises(ValueError, match="stack of 15 x 15"):
                setup.success_mode_unitaries(bad, prune)
        with pytest.raises(ValueError, match="finite"):
            setup.success_mode_unitaries(np.where(np.eye(15), np.nan, u), prune)
        with pytest.raises(ValueError, match="unitary"):
            setup.success_mode_unitaries(2.0 * u, prune)


def test_exact_timing_and_coupling_never_evolve(monkeypatch):
    # once the set-up is cached, exact sweeps read the minors W reads: no
    # evolve, nothing of the pruned read-out (no whole-support row built or
    # scored), and the rows at W's read positions are scored by the exact
    # evaluator, never by the whole-support one
    setup = harness._revival_setup(pst_couplings(15))

    def refuse(*args, **kwargs):
        raise AssertionError("a state was evolved or a row scored")

    class Refused:
        def __getattr__(self, name):
            refuse()

    monkeypatch.setattr(harness, "evolve", refuse)
    monkeypatch.setattr(setup, "pruned", Refused())
    scored, score = [], setup.exact.evaluator.success
    monkeypatch.setattr(setup.exact.evaluator, "success",
                        lambda rows, prune_below: scored.append(rows.shape) or score(rows, prune_below))
    assert exp_timing(delta_grid=(0.0, 0.01)).successes[0] == pytest.approx(1.0, abs=1e-12)
    assert exp_coupling(f_grid=(0.0, 0.05), instances=2, seed=1).mean_success[0] == pytest.approx(
        1.0, abs=1e-12
    )
    assert scored == [(2, 154), (4, 154)]  # one call per chunk of each sweep
    # pruned scoring reads the pruned read-out
    with pytest.raises(AssertionError, match="evolved"):
        exp_timing(delta_grid=(0.01,), prune_below=1e-7)
    with pytest.raises(AssertionError, match="evolved"):
        exp_coupling(f_grid=(0.05,), instances=1, seed=1, prune_below=1e-12)


# --- timing --------------------------------------------------------------------


def test_timing_zero_delta_and_monotone_smallness():
    curve = exp_timing(delta_grid=(0.0, 0.005, 0.01))
    assert curve.successes[0] == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(curve.smallness, [0.0, 0.07, 0.14], atol=1e-12)
    assert curve.successes[1] >= curve.successes[2]


def test_timing_symmetric_in_delta():
    plus = exp_timing(delta_grid=(0.01,)).successes[0]
    minus = exp_timing(delta_grid=(-0.01,)).successes[0]
    assert plus == pytest.approx(minus, abs=1e-9)


def test_timing_quartic_onset():
    # leading failure probability grows as the fourth power of the offset
    deltas = (0.004, 0.008, 0.016, 0.032)
    curve = exp_timing(delta_grid=deltas)
    infid = 1.0 - np.array(curve.successes)
    slope = np.polyfit(np.log(deltas), np.log(infid), 1)[0]
    assert slope >= 3.5


def test_timing_quadratic_form_corrects_first_order():
    # Q(v) = |v|^2 - sum_c |v W_c|^2 is the failure a state v contributes;
    # U(2T) = I, so the timing offset's first-order term is H psi, which the
    # read-out corrects (Q = 0), and its second-order Q(H^2 psi) = 2500 sets
    # the 625 delta^4 below
    spec = pst_couplings(15)
    setup = harness._revival_setup(spec)
    weights, support = setup.pruned.evaluator.weights, setup.pruned.evaluator.support

    def apply_h(v):
        out = np.zeros_like(v)
        for w in (0, 10):  # the sectors |+_L> occupies
            states = sector_indices(spec.n_sites, w)
            out[states] = sector_sparse(spec, w) @ v[states]
        return out

    def q(v):
        return np.vdot(v, v).real - np.sum(np.abs(v[support] @ weights) ** 2)

    h_psi = apply_h(_encoded(setup).amps)
    assert q(h_psi) <= 1e-12
    assert q(apply_h(h_psi)) == pytest.approx(2500, rel=1e-9)
    assert np.vdot(h_psi, h_psi).real == pytest.approx(50, rel=1e-12)


def test_timing_failure_is_625_delta_to_the_fourth():
    # U(2T) = I and the read-out corrects H psi, so 1 - success is
    # Q(H^2 psi) delta^4 / 4 + O(delta^6) with Q(H^2 psi) = 2500; the delta^6
    # term accounts for the relative gaps (2.7e-5 to 2.0e-4)
    deltas = (-1e-3, 1e-3, 2e-3)
    curve = exp_timing(delta_grid=deltas)
    np.testing.assert_allclose(1.0 - np.array(curve.successes), 625 * np.array(deltas) ** 4,
                               rtol=3e-4, atol=0)


def test_timing_quartic_coefficient_by_spectral_differentiation(chain15):
    # U(t) has period pi (spectrum -14, -12, ..., 14), so success(2T + delta)
    # is a trigonometric polynomial of period pi in delta: 101 equispaced
    # offsets give its Taylor coefficients at 0 from the FFT.  The read-out
    # corrects the first order, so the delta^2 term vanishes and the
    # delta^4 term is -Q(H^2 psi) / 4 = -625 (measured -625.0000000007)
    setup = harness._revival_setup(chain15)
    points = 101
    deltas = np.arange(points) * np.pi / points
    success, _ = setup.success_mode_unitaries(mode_unitaries(chain15, setup.duration + deltas))
    coef = np.fft.fft(success) / points
    omega = 2.0 * np.fft.fftfreq(points, 1 / points)  # angular frequencies in delta
    second = np.sum(coef * -(omega**2)).real / 2
    fourth = np.sum(coef * omega**4).real / 24
    assert abs(second) <= 1e-9
    assert fourth == pytest.approx(-625, abs=1e-6)


def _coupling_failures(setup, h1) -> np.ndarray:
    """1 - success per single-excitation matrix of the stack h1, scored in stacks of 16."""
    return np.concatenate([
        1.0 - setup.success_mode_unitaries(stack_mode_unitaries(h1[k:k + 16], setup.duration))[0]
        for k in range(0, len(h1), 16)
    ])


def test_coupling_failure_is_c_c_f_to_the_fourth(chain15):
    # F(h v), the failure with J_i -> J_i (1 + h v_i), is quartic: the read-out
    # corrects first order, so [F(h e_i) + F(-h e_i)] / 2h^2 falls as h^2.
    # Q(v), the Richardson limit of [F(hv) + F(-hv)] / 2h^4 over h = 0.01,
    # 0.005 and 0.0025, on the 14 directions e_i and the 182 e_i +/- e_j gives
    # the mean over uniform factors in [1 - f, 1 + f]: c_C f^4 with c_C =
    # sum_i Q(e_i) E[u^4] + sum_{i<j} C_ij E[u^2]^2, where E[u^4] = 1/5,
    # E[u^2]^2 = 1/9 and 2 C_ij = Q(e_i + e_j) + Q(e_i - e_j) - 2 Q(e_i) -
    # 2 Q(e_j) (measured 1803.8373 and 1803.8404 at the first Richardson
    # step, 1803.8406 at the second)
    from chainqec.chain import tridiagonal
    from chainqec.noise import disorder_stack

    setup = harness._revival_setup(chain15)
    bonds = chain15.n_sites - 1
    eye = np.eye(bonds)
    pairs = [(i, j) for i in range(bonds) for j in range(i + 1, bonds)]
    directions = np.concatenate([eye, [eye[i] + sign * eye[j] for i, j in pairs for sign in (1, -1)]])
    hs = np.array([0.01, 0.005, 0.0025])
    steps = hs[:, None, None, None] * np.array([1.0, -1.0])[:, None, None] * directions
    couplings = np.array(chain15.couplings) * (1.0 + steps.reshape(-1, bonds))
    failure = _coupling_failures(setup, tridiagonal(chain15.fields, couplings)).reshape(3, 2, -1)
    q = failure.sum(axis=1) / (2 * hs[:, None] ** 4)  # (h, direction)
    quadratic = q[:, :bonds] * hs[:, None] ** 2  # per bond, halving h quarters it (3.9955-4.0000)
    assert np.all(np.abs(quadratic[:-1] / quadratic[1:] - 4) <= 0.01)
    first = (4 * q[1:] - q[:-1]) / 3  # the h^2 terms cancel
    q = (16 * first[1] - first[0]) / 15  # and the h^4 terms
    single, both = q[:bonds], q[bonds:].reshape(-1, 2)
    cross = [both[k].sum() - 2 * single[i] - 2 * single[j] for k, (i, j) in enumerate(pairs)]
    c_c = single.sum() / 5 + sum(cross) / 18
    assert abs(c_c - 1803.84) <= 1e-2
    # 1000 keyed instances, each keyed as the sweep keys instance k of its
    # one point, (seed 0, k): the mean failure lies within 3 standard errors
    # of c_C f^4 (measured z = -0.05 at f = 0.005 and -0.22 at 0.01), and is
    # the sweep's own mean
    draw_seeds, rng = [], None
    for k in range(1000):
        rng = sample_rng(0, k, reuse=rng)
        draw_seeds.append(int(rng.integers(0, 2**63 - 1)))
    for f in (0.005, 0.01):
        failures = _coupling_failures(setup, disorder_stack(chain15, [f] * 1000, draw_seeds)[0])
        z = (failures.mean() - c_c * f**4) / (failures.std(ddof=1) / np.sqrt(failures.size))
        assert abs(z) <= 3, (f, z)
        swept = exp_coupling(f_grid=(f,), instances=1000, seed=0)
        assert 1.0 - swept.mean_success[0] == pytest.approx(failures.mean(), rel=1e-9)


def test_fixed_order_products_are_scipys_bit_for_bit(chain15):
    # W and the read and support folds were scipy sparse matrices; their
    # numpy tables add each column's entries in scipy's stored order and
    # form each complex product as scipy does, so the products keep scipy's
    # bits
    import scipy.sparse as sp

    setup = harness._revival_setup(chain15)
    stack = mode_unitaries(chain15, setup.duration + np.linspace(-0.3, 0.3, 16))
    w = setup.pruned.evaluator.weights
    scipy_w = sp.csc_array((w.value, (w.row, w.col)), w.shape)
    scipy_w.sum_duplicates()
    rows = _support_rows(setup, stack)
    xt = np.ascontiguousarray(rows.T)
    assert (rows @ w).tobytes() == (scipy_w.T @ xt).T.tobytes()
    for plan, fold in (setup.pruned.amplitudes, setup.exact.amplitudes):
        scipy_fold = sp.csr_array((fold.value, (fold.row, fold.col)), fold.shape)
        minors = mode_minors(stack, plan)
        assert (minors @ fold).tobytes() == (minors @ scipy_fold).tobytes()


def test_every_replaced_product_scores_a_member_alone_as_in_its_stack(chain15):
    # the fixed-order tables, the hop plans and both evaluators, applied per
    # member: a member of a stack of 16 and the same member alone (a one-row
    # stack, a 1-D row) agree bit for bit
    setup = harness._revival_setup(chain15)
    rng = np.random.default_rng(66)
    stack = mode_unitaries(chain15, setup.duration + rng.uniform(-0.3, 0.3, 16))
    plan, fold = setup.pruned.amplitudes
    read_plan, read_fold = setup.exact.amplitudes
    read_rows = mode_minors(stack, read_plan) @ read_fold
    cases = [(mode_minors(stack, read_plan), read_fold),
             (read_rows, setup.exact.evaluator.weights),
             (_support_rows(setup, stack), setup.pruned.evaluator.weights),
             (mode_minors(stack, plan), fold)]
    for x, table in cases:
        whole = x @ table
        for k in range(16):
            assert (x[k:k + 1] @ table)[0].tobytes() == whole[k].tobytes()
            assert (x[k] @ table).tobytes() == whole[k].tobytes()
    # the exact and pruned rows phi - 2 n_v phi (apply_hops on exact.hops and
    # pruned.hops), the exact scores and the pruning masses
    sites, t_errs = rng.integers(1, 16, 16), rng.uniform(0, setup.duration, 16)
    rows, flips = _hop_rows(setup, setup.pruned, sites, t_errs), _hop_rows(setup, setup.exact, sites, t_errs)
    for x in (read_rows, flips):
        success, _ = setup.exact.evaluator.success(x)
        for k in range(16):
            assert setup.exact.evaluator.success(x[k])[0] == success[k]
            assert setup.exact.evaluator.success(x[k:k + 1])[0].tobytes() == success[k:k + 1].tobytes()
    masses = setup.pruned.evaluator._prune_tables[2]
    overlaps = rng.standard_normal((16, masses.shape[0]))
    whole = overlaps @ masses
    for k in range(16):
        assert _hop_rows(setup, setup.pruned, sites[k:k + 1], t_errs[k:k + 1])[0].tobytes() == rows[k].tobytes()
        assert _hop_rows(setup, setup.exact, sites[k:k + 1], t_errs[k:k + 1])[0].tobytes() == flips[k].tobytes()
        assert (overlaps[k] @ masses).tobytes() == whole[k].tobytes()


def test_pruning_masses_are_scipys_bit_for_bit(chain15):
    # the branch and leaf masses were a scipy CSC product with the real pair
    # overlaps; the numpy table sums each mass over its pairs in the same
    # order in real arithmetic, so it keeps scipy's bits
    import scipy.sparse as sp

    ev = harness._revival_setup(chain15).pruned.evaluator
    pairs, _, masses, _, _ = ev._prune_tables
    assert not masses.value.imag.any()
    old = sp.csc_array((masses.value.real, (masses.row, masses.col)), masses.shape)
    rng = np.random.default_rng(68)
    for s in (1, 5, 16):
        overlaps = rng.standard_normal((pairs.shape[1], s))  # (pair, state), as _pruned forms them
        got = overlaps.T @ masses
        assert got.dtype == float
        assert np.ascontiguousarray(got.T).tobytes() == (old.T @ overlaps).tobytes()


@pytest.mark.parametrize("prune", [np.inf, np.nan, -1e-3])
@pytest.mark.parametrize("sweep", ["single_z", "timing", "coupling"])
def test_sweeps_refuse_a_prune_floor_the_cli_refuses(sweep, prune, tmp_path):
    # inf once scored every point 0, nan wrote a manifest that is not JSON,
    # and a negative floor ran exactly under another manifest
    run = {
        "single_z": lambda **kw: exp_single_z(samples=1, **kw),
        "timing": lambda **kw: exp_timing(delta_grid=(0.0,), **kw),
        "coupling": lambda **kw: exp_coupling(f_grid=(0.05,), instances=1, **kw),
    }[sweep]
    with pytest.raises(ValueError, match="finite and >= 0"):
        run(out_dir=str(tmp_path / "bad"), prune_below=prune)
    assert not (tmp_path / "bad").exists()
    if prune < 0:  # while -0.0 is the exact run, and records its manifest
        run(out_dir=str(tmp_path / "zero"), prune_below=-0.0)
        run(out_dir=str(tmp_path / "exact"))
        for name in ("manifest.json", "points.jsonl"):
            zero, exact = (tmp_path / run_dir / name for run_dir in ("zero", "exact"))
            assert zero.read_bytes() == exact.read_bytes()


def test_timing_with_pruning_close_to_exact():
    exact = exp_timing(delta_grid=(0.02,)).successes[0]
    pruned = exp_timing(delta_grid=(0.02,), prune_below=1e-7).successes[0]
    assert pruned <= exact + 1e-12
    assert exact - pruned < 1e-3


def test_default_timing_grid():
    grid = default_timing_grid(np.pi / 2)
    assert len(grid) == 21
    assert grid[0] == 0.0
    np.testing.assert_allclose(grid[-1], 0.1 * np.pi / 2)


def test_timing_resume_refuses_other_grid(tmp_path):
    exp_timing(delta_grid=(0.0, 0.1), out_dir=str(tmp_path))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValueError, match="different run"):
        exp_timing(delta_grid=(0.0, 0.3), out_dir=str(tmp_path))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_timing_csv(tmp_path):
    exp_timing(delta_grid=(0.0, 0.01), out_dir=str(tmp_path))
    lines = (tmp_path / "timing.csv").read_text().splitlines()
    assert lines[0] == "delta_t,delta_t_times_lambda_max,success_probability"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[2]) == pytest.approx(1.0, abs=1e-9)


def test_timing_resume_across_chunk_boundary(tmp_path):
    # the default 21 offsets span two chunks; resuming after 7 re-chunks the
    # other 14 into one, and neither file may notice
    full_dir, part_dir = tmp_path / "full", tmp_path / "part"
    exp_timing(out_dir=str(full_dir))
    shutil.copytree(full_dir, part_dir)
    points = (part_dir / "points.jsonl").read_text().splitlines(keepends=True)
    (part_dir / "points.jsonl").write_text("".join(points[:7]))
    (part_dir / "timing.csv").unlink()
    exp_timing(out_dir=str(part_dir))
    for name in ("timing.csv", "points.jsonl"):
        assert (part_dir / name).read_bytes() == (full_dir / name).read_bytes()


# --- coupling ------------------------------------------------------------------


def test_coupling_noiseless_point():
    curves = exp_coupling(f_grid=(0.0,), instances=3)
    assert curves.mean_success[0] == pytest.approx(1.0, abs=1e-9)
    assert curves.min_success[0] == pytest.approx(1.0, abs=1e-9)
    assert curves.zeta_max_mean[0] == 0.0


def test_coupling_min_below_mean_and_reproducible():
    a = exp_coupling(f_grid=(0.03, 0.08), instances=6, seed=5)
    b = exp_coupling(f_grid=(0.03, 0.08), instances=6, seed=5)
    assert a.mean_success == b.mean_success
    for mn, mean in zip(a.min_success, a.mean_success):
        assert mn <= mean + 1e-12


def test_coupling_csv_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    exp_coupling(f_grid=(0.0, 0.05), instances=4, seed=9, out_dir=str(d1))
    exp_coupling(f_grid=(0.0, 0.05), instances=4, seed=9, out_dir=str(d2))
    assert (d1 / "coupling.csv").read_bytes() == (d2 / "coupling.csv").read_bytes()
    header = (d1 / "coupling.csv").read_text().splitlines()[0]
    assert header == "f,mean_success,min_success,zeta_max_mean"


def test_coupling_pruned_mass_reported(tmp_path):
    curves = exp_coupling(
        f_grid=(0.0, 0.05), instances=3, seed=2, out_dir=str(tmp_path), prune_below=1e-12
    )
    recs = [json.loads(line) for line in (tmp_path / "points.jsonl").read_text().splitlines()]
    for rec in recs:
        assert rec["mean"] + rec["discarded_mass"] <= 1 + 1e-12
    assert curves.discarded_mass == tuple(r["discarded_mass"] for r in recs)
    assert curves.discarded_mass[1] > 0
    header = (tmp_path / "coupling.csv").read_text().splitlines()[0]
    assert header == "f,mean_success,min_success,zeta_max_mean"


@pytest.mark.parametrize("grid, instances, seed, prune", [
    pytest.param((0.02, 0.05, 0.1), 7, 4, 0.0, id="0.0"),
    pytest.param((0.02, 0.05, 0.1), 7, 4, 1e-12, id="1e-12"),
    pytest.param((0.03, 0.09), 37, 7, 0.0, id="37-instances-0.0"),
    pytest.param((0.03, 0.09), 37, 7, 1e-12, id="37-instances-1e-12"),
])
def test_coupling_resume_across_a_stack_boundary(tmp_path, grid, instances, seed, prune):
    # 3 points x 7 instances are 21 jobs, scored in stacks of 16 and 5 that
    # straddle point 2; resuming after point 0 scores the other 14 jobs as
    # one stack.  2 points x 37 instances are 74 jobs, in stacks of 16 that
    # straddle point 1 and a 10-member remainder; resuming after point 0
    # scores the other 37 as 16, 16 and 5.  Neither file may notice, exact
    # or pruned
    assert harness._CHUNK == 16
    full_dir, part_dir = tmp_path / "full", tmp_path / "part"
    curves = exp_coupling(f_grid=grid, instances=instances, seed=seed, out_dir=str(full_dir),
                          prune_below=prune)
    shutil.copytree(full_dir, part_dir)
    points = (part_dir / "points.jsonl").read_text().splitlines(keepends=True)
    (part_dir / "points.jsonl").write_text(points[0])
    (part_dir / "coupling.csv").unlink()
    exp_coupling(f_grid=grid, instances=instances, seed=seed, out_dir=str(part_dir),
                 prune_below=prune)
    for name in ("coupling.csv", "points.jsonl"):
        assert (part_dir / name).read_bytes() == (full_dir / name).read_bytes()
    # each point is the mean over its instances scored one at a time
    setup = harness._revival_setup(pst_couplings(15))
    for i, f in enumerate(grid):
        alone, zetas = [], []
        for k in range(instances):
            draw = int(sample_rng(seed, i * instances + k).integers(0, 2**63 - 1))
            perturbed, zeta = disordered_spec(pst_couplings(15), f, draw)
            m = mode_unitaries(perturbed, [setup.duration])
            alone.append(setup.success_mode_unitaries(m, prune)[0][0])
            zetas.append(zeta)
        assert curves.mean_success[i] == float(np.mean(alone))
        assert curves.min_success[i] == min(alone)
        assert curves.zeta_max_mean[i] == float(np.mean(zetas))


def test_coupling_instances_are_built_as_stacks(monkeypatch):
    # 3 points x 7 instances in one checkpoint chunk: one generator for all
    # 42 keyed draws, no ChainSpec and no mode_unitaries call per instance
    from chainqec import noise

    built = []

    def counting(*words, reuse=None):
        if reuse is None:
            built.append(words)
        return sample_rng(*words, reuse=reuse)

    def refuse(*args, **kwargs):
        raise AssertionError("an instance was built alone")

    harness._revival_setup(pst_couplings(15))
    monkeypatch.setattr(harness, "sample_rng", counting)
    monkeypatch.setattr(noise, "sample_rng", counting)
    monkeypatch.setattr(harness, "disordered_spec", refuse)
    monkeypatch.setattr(harness, "mode_unitaries", refuse)
    curves = exp_coupling(f_grid=(0.02, 0.05, 0.1), instances=7, seed=4)
    assert len(built) == 1
    assert curves.min_success[2] < curves.mean_success[2] < 1.0


def test_warm_mode_minors_maps_no_fresh_pages(chain15):
    # the revival set-up's 460-pair plan keeps its levels, gathers and
    # transposed M in work buffers: a warm 16-member call maps no fresh
    # pages (fresh per-call temporaries took 144 to 439 minor faults a call)
    resource = pytest.importorskip("resource")
    from chainqec.hilbert import minor_plan, mode_minors

    setup = harness._revival_setup(chain15)
    stack = mode_unitaries(chain15, setup.duration + np.linspace(-0.3, 0.3, 16))
    plan = setup.exact.amplitudes[0]
    got = mode_minors(stack, plan)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    mode_minors(stack, plan)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 20, faults
    # a call after one with another S reads the buffers' leading parts, to
    # the values a fresh plan gives
    read = np.unique(setup.pruned.evaluator.weights.row)
    targets, sources = setup.pruned.evaluator.support[read], setup.reference[0]
    for size in (5, 1, 16):
        fresh = mode_minors(stack[:size], minor_plan(15, targets, sources))
        np.testing.assert_array_equal(mode_minors(stack[:size], plan), fresh)
        np.testing.assert_array_equal(fresh, got[:size])


_WARM_PRUNED_FAULTS = """
import resource, sys
import numpy as np
from chainqec.chain import pst_couplings
from chainqec.harness import RevivalSetup
setup = RevivalSetup(pst_couplings(15), 2**-0.5, 2**-0.5)
rng = np.random.default_rng(74)
sites, t_errs = rng.integers(1, 16, 16), rng.uniform(0.0, setup.duration, 16)
for _ in range(3):
    setup.success_single_z(sites, t_errs, 1e-12)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    setup.success_single_z(sites, t_errs, 1e-12)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def test_warm_pruned_single_z_maps_no_fresh_pages():
    # in a fresh process, whose allocator has seen no larger transient than
    # the sweep's own: a warm pruned 16-sample chunk once took about 480
    # minor faults a call (its fresh arrays, about 2 MB, were trimmed from
    # the heap after each call and mapped again), 0 with the evaluator's
    # and tables' internal temporaries in work buffers
    import os
    import platform
    import subprocess
    import sys
    from pathlib import Path

    pytest.importorskip("resource")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the fault count is a property of glibc's allocator")
    src = str(Path(chainqec.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _WARM_PRUNED_FAULTS], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert float(run.stdout) < 20, run.stdout


@pytest.mark.parametrize("block", [1, 5, 7, None])
def test_hop_rows_and_pruned_scores_keep_their_bits_across_block_sizes(monkeypatch, block):
    # apply_hops walks each weight's positions in blocks of _HOP_BLOCK, and
    # the pruned masses a chunk's states in groups of _PRUNE_STATES; rows and
    # scores must equal, bit for bit, those of one block per group and one
    # group per chunk.  Blocks of 5 leave a partial block of the pruned
    # weight-10 group (3003 positions), blocks of 7 one of the exact
    # read-out's (153), and both a partial group of states in a 16-state
    # chunk; None keeps the defaults
    from chainqec import decoder, hilbert

    setup = harness._revival_setup(pst_couplings(15))
    rng = np.random.default_rng(41)
    modes = [setup._modes(rng.integers(1, 16, s), rng.uniform(0.0, setup.duration, s))
             for s in (1, 5, 16)]

    def scores():
        got = []
        for v in modes:
            for readout, prune in ((setup.pruned, 1e-12), (setup.exact, 0.0)):
                rows = apply_hops(readout.hops, -2.0 * v.conj(), v, {}, shift=1.0).T
                got.append((rows, *readout.evaluator.success(rows, prune)))
        return got

    with monkeypatch.context() as whole:
        whole.setattr(hilbert, "_HOP_BLOCK", 1 << 30)
        whole.setattr(decoder, "_PRUNE_STATES", 1 << 30)
        reference = scores()
    if block is not None:
        monkeypatch.setattr(hilbert, "_HOP_BLOCK", block)
        monkeypatch.setattr(decoder, "_PRUNE_STATES", block)
    for got, want in zip(scores(), reference, strict=True):
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert any(d.any() for _, _, d in reference[::2])  # the pruned calls drop mass


def test_warm_pruned_chunk_work_buffers_are_bounded_by_their_blocks():
    # after warm 16-sample pruned chunks, the work buffers of apply_hops, the
    # evaluator, W and the mass table hold at most 3 MiB; sized by the whole
    # 3003-position group and the whole chunk, they held 8.66 MiB
    setup = RevivalSetup(pst_couplings(15), 2**-0.5, 2**-0.5)
    rng = np.random.default_rng(74)
    sites, t_errs = rng.integers(1, 16, 16), rng.uniform(0.0, setup.duration, 16)
    for _ in range(3):
        setup.success_single_z(sites, t_errs, 1e-12)
    ev = setup.pruned.evaluator
    works = (setup._work, ev._work, ev.weights._work, ev._prune_tables[2]._work)
    total = sum(buf.nbytes for work in works for buf in work.values())
    assert total <= 3 * 2**20, total


def test_coupling_resume_refuses_older_version(tmp_path):
    # 0.2.0 coupling records lack discarded_mass and differ in their last digits
    exp_coupling(f_grid=(0.0,), instances=1, out_dir=str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["version"] = "0.2.0"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValueError, match="different run"):
        exp_coupling(f_grid=(0.0,), instances=1, out_dir=str(tmp_path))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# --- dephasing -----------------------------------------------------------------


def test_dephasing_gamma_zero():
    report = exp_dephasing(pst_couplings(4), (0.0,))
    assert report.max_deviation[0] < 1e-8


def test_dephasing_small_chain_closed_form():
    report = exp_dephasing(pst_couplings(4), (0.05,))
    assert report.max_deviation[0] < 1e-6


def test_dephasing_nan_coherence_is_reported(monkeypatch):
    # max(0.0, nan) is 0.0: a fold through max() would report a perfect check
    def chi(rhos, spec, times):
        return np.where(np.asarray(times)[:, None] != 0, np.nan, np.ones(2 * spec.n_sites))

    monkeypatch.setattr("chainqec.harness.chi", chi)
    report = exp_dephasing(pst_couplings(3), (0.1,))
    assert np.isnan(report.max_deviation[0])


def test_dephasing_resume_reuses_points(tmp_path, monkeypatch):
    first = exp_dephasing(pst_couplings(3), (0.0, 0.1), out_dir=str(tmp_path))
    csv = (tmp_path / "dephasing.csv").read_bytes()
    assert len((tmp_path / "points.jsonl").read_text().splitlines()) == 2

    def no_evolution(*args):
        raise AssertionError("a resumed run re-evaluated a finished gamma")

    monkeypatch.setattr("chainqec.harness.lindblad_evolve", no_evolution)
    again = exp_dephasing(pst_couplings(3), (0.0, 0.1), out_dir=str(tmp_path))
    assert again.max_deviation == first.max_deviation
    assert (tmp_path / "dephasing.csv").read_bytes() == csv
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValueError, match="different run"):
        exp_dephasing(pst_couplings(3), (0.05,), out_dir=str(tmp_path))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("sweep", ["dephasing", "coupling", "timing"])
def test_a_zero_grid_point_is_recorded_alike_however_zero_is_spelled(tmp_path, sweep):
    # -0.0 was written as -0 in the CSV and -0.0 in the manifest, so a run's
    # bytes depended on how the user spelled zero
    run, point = {
        "dephasing": (lambda grid, out: exp_dephasing(pst_couplings(3), grid, out_dir=out), 0.1),
        "coupling": (lambda grid, out: exp_coupling(grid, instances=1, out_dir=out), 0.05),
        "timing": (lambda grid, out: exp_timing(grid, out_dir=out), 0.01),
    }[sweep]
    written = []
    for name, zero in (("negative", -0.0), ("positive", 0.0)):
        run((zero, point), str(tmp_path / name))
        written.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert written[0] == written[1]
    assert all(b"-0" not in data for data in written[0].values())


def test_dephasing_evolves_only_the_blocks_chi_reads(monkeypatch):
    # |0...0+> on N = 5 occupies 36 Liouvillian positions, the blocks of
    # weights (0, 0), (0, 1), (1, 0) and (1, 1); chi reads the 10 of (0, 1)
    # and (1, 0)
    from chainqec import hilbert

    kept = []

    def spy(spec, occupied):
        groups = blocks(spec, occupied)
        kept.append(sum(keep.size for keep, _, _ in groups))
        return groups

    blocks = hilbert._lindblad_blocks
    monkeypatch.setattr(hilbert, "_lindblad_blocks", spy)
    report = exp_dephasing(pst_couplings(5), (0.05,))
    assert kept == [10]
    assert report.max_deviation[0] <= 1e-12


_FIELDS_5 = ChainSpec(5, (2.0, 2.449489742783178, 2.449489742783178, 2.0), (0.4, -0.2, 0.1, -0.2, 0.4))


@pytest.mark.parametrize("spec", [pst_couplings(n) for n in (3, 4, 5, 6)] + [_FIELDS_5],
                         ids=["pst3", "pst4", "pst5", "pst6", "fields5"])
def test_dephasing_keeps_the_closed_form_decay_to_roundoff(spec):
    # the Liouvillian restricted to the blocks chi reads keeps the
    # closed-form decay to roundoff on every chain the sweep admits; the
    # chain with fields has a generic complex mode unitary, so chi's
    # rotation reads both Re U and Im U
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        devs = exp_dephasing(spec, (0.01, 0.1)).max_deviation
    assert max(devs) <= 1e-12


def test_dephasing_sweep_runs_no_dense_eigendecomposition(monkeypatch):
    # chi rotates the bare coherences by the N x N single-particle unitary,
    # so no 2^N x 2^N eigendecomposition is left on the sweep's path
    from chainqec import hilbert

    monkeypatch.setattr(hilbert, "_dense_eig", lambda spec: pytest.fail("2^N eigh on the sweep"))
    for n in (3, 5):
        report = exp_dephasing(pst_couplings(n), (0.01, 0.1))
        assert max(report.max_deviation) <= 1e-12


def test_dephasing_guard():
    with pytest.raises(ResourceLimitError):
        exp_dephasing(pst_couplings(7))


@pytest.mark.parametrize("gamma, scale", [(1e308, 1.0), (0.05, 1e-300)])
def test_dephasing_refuses_a_run_past_the_work_bound_before_writing(tmp_path, monkeypatch, gamma, scale):
    # each gamma's Lindblad work bound is checked before the checkpoint opens,
    # so a refused run leaves no directory that would block a later one
    monkeypatch.setattr("chainqec.hilbert.dense_hamiltonian", lambda spec: pytest.fail("H built"))
    out = tmp_path / "d"
    with pytest.raises(ResourceLimitError, match="work bound"):
        exp_dephasing(pst_couplings(5, scale=scale), (0.01, gamma), out_dir=str(out))
    assert not out.exists()


# --- brute-force oracle ----------------------------------------------------------


def test_brute_force_zero_time():
    spec = pst_couplings(3)
    p = pauli_z(3, 2)
    np.testing.assert_allclose(brute_force_conjugate(p, spec, 0.0), p.dense(), atol=1e-12)


def test_brute_force_unitary_conjugation():
    spec = pst_couplings(4)
    p = from_sites(4, xs=(2, 3))
    m = brute_force_conjugate(p, spec, 0.83)
    np.testing.assert_allclose(m @ m.conj().T, np.eye(16), atol=1e-10)


def test_brute_force_matches_fermion_propagation():
    rng = np.random.default_rng(62)
    spec = ChainSpec(3, (0.9, 1.2), (0.0, 0.0, 0.0))
    t = 1.37
    direct = brute_force_conjugate(pauli_z(3, 2), spec, t)
    prop = mode_propagator(single_excitation_matrix(spec), t)
    ferm = propagate(pauli_to_fermion(pauli_z(3, 2)), prop)
    np.testing.assert_allclose(direct, ferm.dense(), atol=1e-10)


def test_brute_force_guard():
    with pytest.raises(ResourceLimitError):
        brute_force_conjugate(pauli_z(7, 1), pst_couplings(7), 0.1)
