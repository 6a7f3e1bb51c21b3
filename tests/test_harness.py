import json
import shutil

import numpy as np
import pytest
import scipy.sparse as sp

import chainqec
from chainqec import harness
from chainqec.chain import ChainSpec, pst_couplings
from chainqec.errors import ResourceLimitError
from chainqec.freefermion import mode_propagator_for, pauli_to_fermion, propagate
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

    setup = RevivalSetup(pst_couplings(15), make_code("minimal15"), 2**-0.5, 2**-0.5)
    success, discarded = setup.success_single_z([8], [np.pi / 2])
    assert success[0] >= 1 - 1e-9
    assert discarded[0] == 0.0


def test_setup_engine_matches_success_probability(code15, chain15):
    # the one-mode sample path against expm evolution plus the branch pipeline
    from chainqec.decoder import DecodeOptions, decode_pipeline
    from chainqec.noise import inject_single_z

    logical = (1 / np.sqrt(2), 1 / np.sqrt(2))
    setup = RevivalSetup(chain15, code15, *logical)
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
    setup = RevivalSetup(chain15, code15, amp, amp)
    sites = np.array([1, 15, 7, 7, 3, 12, 9])
    t_errs = np.array([0.0, setup.duration, 0.4, 2.3, 1.7, 0.05, 3.0])
    success, discarded = setup.success_single_z(sites, t_errs)
    # every single flip is corrected, so also compare the arriving states:
    # the scored rows on the support, and nothing off it
    ev = setup.evaluator
    decode = ev.success
    arrived = []
    ev.success = lambda rows, p: arrived.extend(rows.copy()) or decode(rows, p)
    setup.success_single_z(sites, t_errs)
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
    del ev.success
    perm = np.random.default_rng(63).permutation(sites.size)
    again, _ = setup.success_single_z(sites[perm], t_errs[perm])
    np.testing.assert_array_equal(again, success[perm])


def test_single_z_one_mode_matches_expm_oracle(code15, chain15):
    # end sites and the middle, at both ends and a third of the time window
    from chainqec.hilbert import single_z_sectors
    from chainqec.noise import inject_single_z

    amp = 1 / np.sqrt(2)
    setup = RevivalSetup(chain15, code15, amp, amp)
    total = setup.duration
    cases = [(site, t) for site in (1, 8, 15) for t in (0.0, total / 3, total)]
    sites, t_errs = (np.array(col) for col in zip(*cases))
    blocks = single_z_sectors(setup.arrival, chain15, sites, t_errs - total)
    for k, (site, t_err) in enumerate(cases):
        got = np.zeros_like(setup.encoded.amps)
        for states, rows in blocks:
            got[states] = rows[k]
        want = inject_single_z(setup.encoded, chain15, site, t_err, total)
        np.testing.assert_allclose(got, want.amps, rtol=0, atol=1e-12)


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


def _held_arrays(*owners) -> list[np.ndarray]:
    """Every array the owners hold, the buffers of their sparse matrices included."""
    held = [value for owner in owners for value in vars(owner).values()]
    sparse = [buf for m in held if sp.issparse(m) for buf in (m.data, m.indices, m.indptr)]
    return [a for a in held if isinstance(a, np.ndarray)] + sparse


def test_cached_setup_is_read_only():
    amp = 1 / np.sqrt(2)
    setup = harness._revival_setup(pst_couplings(15), "minimal15", amp, amp, 0.0)
    arrays = _held_arrays(setup.evaluator, setup.evaluator.tables)
    arrays += [setup.encoded.amps, setup.arrival.amps]
    # five evaluator arrays, two sparse matrices of three buffers each, four
    # table arrays, two states
    assert len(arrays) >= 17
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0


def test_evaluator_holds_no_state_sized_array():
    # the set-up's evaluator works on the encoded sectors, weights {0, 10}
    amp = 1 / np.sqrt(2)
    ev = harness._revival_setup(pst_couplings(15), "minimal15", amp, amp, 0.0).evaluator
    assert ev.support.size == 1 + 3003
    sizes = [a.size for a in _held_arrays(ev, ev.tables)]
    assert max(sizes) < 2**15


def test_row_value_does_not_depend_on_its_chunk(chain15):
    # every product sums each entry in a fixed order, whatever the number of
    # rows; a resumed run re-chunks its missing points
    amp = 1 / np.sqrt(2)
    rng = np.random.default_rng(64)
    sites = rng.integers(1, 16, 64)
    t_errs = rng.uniform(0.0, 2 * np.pi / 2, 64)
    for prune in (0.0, 1e-12, 1e-6):
        setup = harness._revival_setup(chain15, "minimal15", amp, amp, prune)
        success, discarded = setup.success_single_z(sites, t_errs)
        if prune:
            assert discarded.max() > 0
        for k in range(64):
            alone = setup.success_single_z(sites[k:k + 1], t_errs[k:k + 1])
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
    exp_single_z(samples=3, seed=2, prune_below=1e-12)
    exp_timing(delta_grid=(0.0,), prune_below=1e-12)
    assert len(built) == 1
    exp_single_z(samples=2, seed=1)  # another prune gets its own set-up
    assert len(built) == 2
    harness._revival_setup(pst_couplings(15), "minimal15", 1.0, 0.0, 0.0)  # another state
    assert len(built) == 3


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
    # 70 samples span two evaluation chunks; an interruption after 37 points
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
    monkeypatch.setattr("chainqec.harness.chi", lambda rho, spec, m, t: np.nan if t else 1.0)
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
    ferm = propagate(pauli_to_fermion(pauli_z(3, 2)), mode_propagator_for(spec, t))
    np.testing.assert_allclose(direct, ferm.dense(), atol=1e-10)


def test_brute_force_guard():
    with pytest.raises(ResourceLimitError):
        brute_force_conjugate(pauli_z(7, 1), pst_couplings(7), 0.1)
