import json
import shutil
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp

import chainqec
from chainqec import harness
from chainqec.chain import ChainSpec, pst_couplings, single_excitation_matrix
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
from chainqec.hilbert import apply_mode_unitary, apply_pauli, evolve, jump_unitary, mode_unitaries
from chainqec.noise import disordered_spec
from chainqec.pauli import from_sites, pauli_z


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
        noisy = inject_single_z(setup.encoded, chain15, site, t_err, setup.duration)
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
    ev = setup.evaluator
    arrived = setup.single_z_rows(setup.single_z_forms(sites, t_errs))
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
    rows = setup.single_z_rows(setup.single_z_forms(sites, t_errs))
    success, _ = setup.success_single_z(sites, t_errs)
    for k, (site, t_err) in enumerate(cases):
        got = np.zeros_like(setup.encoded.amps)
        got[setup.evaluator.support] = rows[k]
        want = inject_single_z(setup.encoded, chain15, site, t_err, total)
        np.testing.assert_allclose(got, want.amps, rtol=0, atol=1e-12)
        oracle = decode_pipeline(want, code15, DecodeOptions(mode="revival"))
        assert success[k] == pytest.approx(oracle.success_probability, abs=1e-12)


def test_exact_single_z_matches_scored_rows(chain15):
    # the quadratic form phi W - 2 q K against building the rows phi - 2 q H
    # and scoring them; the rows themselves are checked against the expm oracle
    rng = np.random.default_rng(65)
    sites = rng.integers(1, 16, 64)
    t_errs = rng.uniform(0.0, np.pi, 64)
    setup = harness._revival_setup(chain15)
    success, discarded = setup.success_single_z(sites, t_errs)
    q = setup.single_z_forms(sites, t_errs)
    rows = setup.single_z_rows(q)
    want, _ = setup.evaluator.success(rows)
    np.testing.assert_allclose(success, want, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(discarded, 0.0)
    # every single flip is corrected, so the success is blind to a wrong sign
    # in K: compare the overlaps themselves
    overlaps = setup.arrival_overlaps[:, None] - 2.0 * (setup.hop_overlaps.T @ q.T)
    np.testing.assert_allclose(overlaps, setup.evaluator.weights.T @ rows.T, rtol=0, atol=1e-13)


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
    # exact samples are a quadratic form in the flipped mode; pruned ones
    # still build rows, whose masses have no small table.  A fresh set-up
    # cache, so that no earlier pruned call has built H
    monkeypatch.setattr(harness, "_revival_setup", lru_cache(harness._revival_setup.__wrapped__))
    build, calls = RevivalSetup.single_z_rows, []
    monkeypatch.setattr(
        RevivalSetup, "single_z_rows", lambda self, q: calls.append(len(q)) or build(self, q)
    )
    summary = exp_single_z(samples=20, seed=2)
    assert summary.min_success >= 1 - 1e-8
    exp_coupling(f_grid=(0.05,), instances=2, seed=1)
    assert not calls
    assert "hop_table" not in vars(harness._revival_setup(pst_couplings(15)))  # H unbuilt
    pruned = exp_single_z(samples=20, seed=2, prune_below=1e-12)
    assert calls == [16, 4]  # one per chunk of 16
    np.testing.assert_allclose(pruned.successes, summary.successes, rtol=0, atol=1e-9)


def _held_arrays(*owners) -> list[np.ndarray]:
    """Every array the owners hold, the buffers of their sparse matrices included."""
    held = [value for owner in owners for value in vars(owner).values()]
    sparse = [buf for m in held if sp.issparse(m) for buf in (m.data, m.indices, m.indptr)]
    return [a for a in held if isinstance(a, np.ndarray)] + sparse


def test_cached_setup_is_read_only():
    setup = harness._revival_setup(pst_couplings(15))
    setup.success_single_z([3], [0.4])  # an exact call builds phi W and K
    setup.success_single_z([3], [0.4], 1e-12)  # a pruned call builds H
    plan = setup.plan
    support_plan, support_table = setup.support_plan  # built with the arrival
    arrays = _held_arrays(setup, setup.evaluator, setup.evaluator.tables)
    arrays += [setup.encoded.amps, setup.arrival.amps]
    for p in (plan, support_plan):
        arrays += [p.pairs, p.complementary, p.sign, p.node, *p.entries, *p.children]
    arrays += [support_table.data, support_table.indices, support_table.indptr]
    # the set-up's phi W and the three buffers of each of its tables K, H and
    # minor_weights, five evaluator arrays, two sparse matrices of three
    # buffers each, three table arrays, two states, each minor plan's four
    # arrays and two tables per level, and the support plan's fold
    assert setup.arrival_overlaps.size and setup.hop_overlaps.nnz and setup.hop_table.nnz
    assert [e.shape for e in plan.entries] == [(45, 1), (315, 2), (990, 3), (945, 4), (459, 5)]
    assert [c.shape for c in plan.children] == [e.shape for e in plan.entries]
    assert plan.node.shape == (460,) and setup.minor_weights.nnz
    assert len(arrays) >= 40
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0


def test_evaluator_holds_no_state_sized_array():
    # the set-up's evaluator works on the encoded sectors, weights {0, 10}
    ev = harness._revival_setup(pst_couplings(15)).evaluator
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


def test_single_z_resume_across_chunk_boundary(tmp_path):
    # 70 samples span five evaluation chunks; an interruption after 37 points
    # re-chunks the rest, and the CSV must not notice
    full_dir = tmp_path / "full"
    part_dir = tmp_path / "part"
    exp_single_z(samples=70, seed=4, out_dir=str(full_dir))
    shutil.copytree(full_dir, part_dir)
    points = (part_dir / "points.jsonl").read_text().splitlines(keepends=True)
    (part_dir / "points.jsonl").write_text("".join(points[:37]))
    (part_dir / "single_z.csv").unlink()
    exp_single_z(samples=70, seed=4, out_dir=str(part_dir))
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


def _expm_row(setup, spec, duration, jumps=()) -> np.ndarray:
    """The revival state on the support: expm evolves between the jumps' phase flips."""
    psi, prev = setup.encoded, 0.0
    for t, site in jumps:
        psi = evolve(psi, spec, t - prev)
        psi = apply_pauli(psi, pauli_z(spec.n_sites, site))
        prev = t
    return evolve(psi, spec, duration - prev).amps[setup.evaluator.support]


def _assert_matches_rows(setup, stack, rows):
    # exact members from the minors W reads, pruned ones from rows of the
    # whole support's minors, both against the oracle's rows
    for prune in (0.0, 1e-12):
        got, discarded = setup.success_mode_unitaries(stack, prune)
        want, want_discarded = setup.evaluator.success(np.array(rows), prune)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(discarded, want_discarded, rtol=0, atol=1e-12)
        if not prune:
            np.testing.assert_array_equal(discarded, 0.0)


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
        psi = evolve(setup.encoded, spec, t)
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
    # support plan: each member's row is computed alone too
    rows = setup.support_rows(stack)
    for k in range(len(stack)):
        np.testing.assert_array_equal(setup.support_rows(stack[k:k + 1])[0], rows[k])
    # nor does a mode unitary depend on the other times it is built with
    times = setup.duration + rng.uniform(-0.3, 0.3, 7)
    whole, _ = setup.success_mode_unitaries(mode_unitaries(chain15, times))
    alone = [setup.success_mode_unitaries(mode_unitaries(chain15, [t]))[0][0] for t in times]
    np.testing.assert_array_equal(alone, whole)


def test_arrival_is_the_expm_evolution_built_on_first_use(chain15):
    setup = RevivalSetup(chain15, 2**-0.5, 2**-0.5)
    # exact scoring reads only the minors W reads: no support plan, no arrival
    setup.success_mode_unitaries(mode_unitaries(chain15, [setup.duration + 0.01]))
    assert "support_plan" not in vars(setup) and "arrival" not in vars(setup)
    want = evolve(setup.encoded, chain15, setup.duration).amps
    assert np.abs(setup.arrival.amps - want).max() <= 1e-13
    plan, table = setup.support_plan
    assert plan.pairs.shape == (2, 9010) and table.shape == (9010, setup.evaluator.support.size)
    # the support plan is apply_mode_unitary's plan of the same state, in another target order
    engine = apply_mode_unitary(setup.encoded, mode_unitaries(chain15, [setup.duration])[0])
    np.testing.assert_array_equal(engine.amps, setup.arrival.amps)


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
    # evolve, no support row built and none scored
    harness._revival_setup(pst_couplings(15))

    def refuse(*args, **kwargs):
        raise AssertionError("a state was evolved or a row scored")

    monkeypatch.setattr(harness, "evolve", refuse)
    monkeypatch.setattr(harness.RevivalSetup, "support_rows", refuse)
    monkeypatch.setattr(harness.RevivalEvaluator, "success", refuse)
    assert exp_timing(delta_grid=(0.0, 0.01)).successes[0] == pytest.approx(1.0, abs=1e-12)
    assert exp_coupling(f_grid=(0.0, 0.05), instances=2, seed=1).mean_success[0] == pytest.approx(
        1.0, abs=1e-12
    )
    # pruned scoring builds each mode unitary's row on the support once
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


def test_coupling_resume_across_a_stack_boundary(tmp_path):
    # 3 points x 7 instances are 21 jobs, scored in stacks of 16 and 5 that
    # straddle point 2; resuming after point 0 scores the other 14 jobs as
    # one stack, and neither file may notice
    assert harness._CHUNK == 16
    grid, instances, seed = (0.02, 0.05, 0.1), 7, 4
    full_dir, part_dir = tmp_path / "full", tmp_path / "part"
    curves = exp_coupling(f_grid=grid, instances=instances, seed=seed, out_dir=str(full_dir))
    shutil.copytree(full_dir, part_dir)
    points = (part_dir / "points.jsonl").read_text().splitlines(keepends=True)
    (part_dir / "points.jsonl").write_text(points[0])
    (part_dir / "coupling.csv").unlink()
    exp_coupling(f_grid=grid, instances=instances, seed=seed, out_dir=str(part_dir))
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
            alone.append(setup.success_mode_unitaries(m)[0][0])
            zetas.append(zeta)
        assert curves.mean_success[i] == float(np.mean(alone))
        assert curves.min_success[i] == min(alone)
        assert curves.zeta_max_mean[i] == float(np.mean(zetas))


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
    monkeypatch.setattr(
        "chainqec.harness.chi", lambda rho, spec, t: np.full(2 * spec.n_sites, np.nan if t else 1.0)
    )
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
