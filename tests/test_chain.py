import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from chainqec.chain import (
    ChainSpec,
    _uniform_gap,
    analyze_transfer,
    pst_couplings,
    single_excitation_matrix,
)


def test_pst_couplings_small_cases():
    assert pst_couplings(2).couplings == (1.0,)
    np.testing.assert_allclose(pst_couplings(4).couplings, [np.sqrt(3), 2.0, np.sqrt(3)])
    spec = pst_couplings(15)
    np.testing.assert_allclose(spec.couplings[6], np.sqrt(56))
    np.testing.assert_allclose(spec.couplings[7], np.sqrt(56))
    assert spec.fields == (0.0,) * 15


def test_pst_couplings_mirror_symmetric():
    for n in (3, 8, 15, 20):
        j = pst_couplings(n).couplings
        assert j == tuple(reversed(j))


def test_pst_couplings_rejects_small_chain():
    with pytest.raises(ValueError):
        pst_couplings(1)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(3, (1.0,), (0.0, 0.0, 0.0))  # wrong coupling count
    with pytest.raises(ValueError):
        ChainSpec(3, (1.0, np.inf), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ChainSpec(3, (1.0, 1.0), (0.0, 0.0))  # wrong field count


def test_single_excitation_matrix_examples():
    m = single_excitation_matrix(ChainSpec(2, (1.0,), (0.0, 0.0)))
    np.testing.assert_allclose(m, [[0, 1], [1, 0]])
    m = single_excitation_matrix(pst_couplings(3))
    r2 = np.sqrt(2)
    np.testing.assert_allclose(m, [[0, r2, 0], [r2, 0, r2], [0, r2, 0]])
    m = single_excitation_matrix(ChainSpec(2, (0.5,), (1.0, 2.0)))
    np.testing.assert_allclose(m, [[1, 0.5], [0.5, 2]])


def test_equally_spaced_spectrum():
    # eigenvalues of the engineered chain are N-1-2k, gap 2
    for n in range(2, 21):
        evals = np.sort(np.linalg.eigvalsh(single_excitation_matrix(pst_couplings(n))))
        np.testing.assert_allclose(evals, np.arange(-(n - 1), n, 2), atol=1e-10)


def test_transfer_report_is_cached_and_frozen():
    spec = pst_couplings(6)
    rep = analyze_transfer(spec)
    assert analyze_transfer(spec) is rep
    assert analyze_transfer(spec, 1e-6) is not rep  # another tolerance, another key
    with pytest.raises(AttributeError):
        rep.transfer_time = 0.0


@pytest.mark.parametrize("n", range(2, 21))
def test_transfer_time_is_pi_over_two(n):
    rep = analyze_transfer(pst_couplings(n))
    assert rep.is_perfect
    np.testing.assert_allclose(rep.transfer_time, np.pi / 2, rtol=1e-12)
    assert rep.mirror_fidelity >= 1 - 1e-12


def test_transfer_scale_halves_time():
    rep = analyze_transfer(pst_couplings(8, scale=2.0))
    np.testing.assert_allclose(rep.transfer_time, np.pi / 4, rtol=1e-12)


def test_two_site_analytic():
    rep = analyze_transfer(ChainSpec(2, (1.0,), (0.0, 0.0)))
    np.testing.assert_allclose(rep.transfer_time, np.pi / 2, rtol=1e-12)
    np.testing.assert_allclose(rep.global_phase, -1j, atol=1e-10)


@pytest.mark.parametrize("j", [0.7, 1.0, 1.3, 2.0])
def test_transfer_time_from_the_common_unit_of_incommensurate_gaps(j):
    # a centre field B = J sqrt(8/15) gives gaps 3B/2 and 5B/2: odd multiples
    # of B/2 but not multiples of the smallest gap, so transfer is at 2 pi / B
    # (Christandl et al., PRA 71, 032312 (2005))
    b = j * np.sqrt(8 / 15)
    rep = analyze_transfer(ChainSpec(3, (j, j), (0.0, b, 0.0)))
    assert rep.is_perfect
    np.testing.assert_allclose(rep.transfer_time, 2 * np.pi / b, rtol=1e-12)


def test_mirror_property_all_modes():
    # U(t0) sends |n> to a unit-modulus multiple of |N+1-n> for every n
    for n in (5, 12):
        rep = analyze_transfer(pst_couplings(n))
        assert all(abs(abs(ph) - 1) < 1e-10 for ph in rep.mirror_phases)


def test_spectral_bound():
    for n in (4, 9, 15):
        rep = analyze_transfer(pst_couplings(n))
        np.testing.assert_allclose(rep.spectral_bound, n - 1, atol=1e-12)
    spec = ChainSpec(3, (0.7, 0.3), (0.2, -0.5, 0.1))
    rep = analyze_transfer(spec)
    evals = np.linalg.eigvalsh(single_excitation_matrix(spec))
    np.testing.assert_allclose(rep.spectral_bound, np.max(np.abs(evals)), atol=1e-12)


def test_non_pst_chain_flagged():
    # uniform couplings do not transfer perfectly beyond N=3
    rep = analyze_transfer(ChainSpec(6, (1.0,) * 5, (0.0,) * 6))
    assert not rep.is_perfect
    assert 0 < rep.mirror_fidelity < 1 - 1e-10


def _scan_grid(spec):
    """The scan's 4000 grid times and |<N| U(t) |1>| on them, from the eigenpairs."""
    evals, evecs = np.linalg.eigh(single_excitation_matrix(spec))
    grid = np.linspace(0, 8 * np.pi * spec.n_sites / (evals[-1] - evals[0]), 4001)[1:]
    end_fidelity = lambda t: np.abs(np.exp(-1j * np.multiply.outer(t, evals)) @ (evecs[-1] * evecs[0]))
    return grid, end_fidelity


def test_scan_ends_at_or_above_its_grid_maximum():
    # a bounded search (xatol 1e-5) once refined this grid maximum, 0.949795390128,
    # down to 0.949795105258
    spec = ChainSpec(5, (1.0149, 1.1229, 0.8282, 0.8925), (0.0,) * 5)
    grid, end_fidelity = _scan_grid(spec)
    rep = analyze_transfer(spec)
    assert not rep.is_perfect
    assert rep.mirror_fidelity >= end_fidelity(grid).max() - 1e-15
    assert rep.mirror_fidelity >= 0.949795390128


@st.composite
def _scanned_chains(draw):
    n = draw(st.integers(3, 15))
    fields = draw(st.one_of(st.just((0.0,) * n), st.tuples(*[st.floats(-0.5, 0.5)] * n)))
    spec = ChainSpec(n, draw(st.tuples(*[st.floats(0.3, 1.5)] * (n - 1))), fields)
    assume(_uniform_gap(np.linalg.eigvalsh(single_excitation_matrix(spec))) is None)
    return spec


@settings(max_examples=60, deadline=None)
@given(_scanned_chains())
def test_scan_refines_its_grid_point_as_well_as_a_fine_bounded_search(spec):
    grid, end_fidelity = _scan_grid(spec)
    amps = end_fidelity(grid)
    k = int(np.argmax(amps))
    rep = analyze_transfer(spec)
    assert rep.mirror_fidelity >= amps[k] - 1e-15
    # one-sided: with the grid maximum at a bracket end, which a bounded search
    # never evaluates, or with its step floor sqrt(eps) |t|, the search ends lower
    res = minimize_scalar(lambda t: -end_fidelity(t), method="bounded", options={"xatol": 1e-13},
                          bounds=(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]))
    assert rep.mirror_fidelity >= -res.fun - 1e-14


def test_scan_prefers_the_earliest_grid_time_of_the_same_quality():
    # the flat 4-site chain reaches 0.9532 near t = 2.547 and its grid maximum,
    # 0.9962, near t = 28.10; at tolerance 0.05 the first hit is refined instead
    spec = ChainSpec(4, (1.0,) * 3, (0.0,) * 4)
    grid, end_fidelity = _scan_grid(spec)
    amps = end_fidelity(grid)
    first = int(np.nonzero(amps >= 0.95)[0][0])
    assert grid[int(np.argmax(amps))] == pytest.approx(28.10, abs=0.01)
    rep = analyze_transfer(spec, tolerance=0.05)
    assert rep.is_perfect
    assert rep.transfer_time == pytest.approx(2.5474, abs=1e-4)
    assert rep.mirror_fidelity == pytest.approx(0.9532, abs=1e-4)
    assert rep.mirror_fidelity >= amps[first] - 1e-15
    assert grid[first - 1] <= rep.transfer_time <= grid[first + 1]


@pytest.mark.parametrize("tolerance", [np.inf, np.nan, 0.0, 1.0, 2.0])
def test_tolerance_outside_unit_interval_refused(tolerance):
    # a tolerance of 1 or more would call any chain perfect
    with pytest.raises(ValueError, match="tolerance"):
        analyze_transfer(ChainSpec(4, (1.0,) * 3, (0.0,) * 4), tolerance)


def test_global_phase_alternates_with_length():
    # engineered chain: end-to-end phase is (-i)^(N-1)
    for n in (2, 3, 4, 5, 15):
        rep = analyze_transfer(pst_couplings(n))
        np.testing.assert_allclose(rep.global_phase, (-1j) ** (n - 1), atol=1e-9)


def test_json_roundtrip():
    spec = ChainSpec(3, (0.25, 1.5), (0.0, -1.0, 2.0))
    assert ChainSpec.from_json(spec.to_json()) == spec


def test_config_roundtrip():
    spec = pst_couplings(5)
    text = spec.to_config()
    assert "n_sites = 5" in text
    assert ChainSpec.from_config(text) == spec


def test_config_parsing_errors():
    with pytest.raises(ValueError):
        ChainSpec.from_config("n_sites = 3\ncouplings = 1, 1\n")  # fields missing


@pytest.mark.parametrize("n_sites", [4.9, 4.0, True, "4", None])
def test_json_n_sites_must_be_an_integer(n_sites):
    # int() once read 4.9 as a 4-site chain and true as 1
    d = json.loads(pst_couplings(4).to_json())
    d["n_sites"] = n_sites
    with pytest.raises(ValueError, match="n_sites must be an integer"):
        ChainSpec.from_json(json.dumps(d))


@pytest.mark.parametrize("key, value", [
    ("couplings", "12"), ("couplings", [1.0, True]), ("fields", [0, 0, "0"]), ("fields", None),
])
def test_json_lists_must_hold_numbers(key, value):
    # tuple("12") once read as the couplings (1.0, 2.0), true as 1.0
    d = {"n_sites": 3, "couplings": [1.0, 2.0], "fields": [0.0, 0.0, 0.0], key: value}
    with pytest.raises(ValueError, match=f"{key} must be a list of numbers"):
        ChainSpec.from_json(json.dumps(d))


def test_json_keys_checked():
    d = json.loads(pst_couplings(4).to_json())
    with pytest.raises(ValueError, match="unknown key 'bogus'"):
        ChainSpec.from_json(json.dumps({**d, "bogus": 3}))
    with pytest.raises(ValueError, match="missing key 'fields'"):
        ChainSpec.from_json(json.dumps({k: v for k, v in d.items() if k != "fields"}))
    repeated = json.dumps(d)[:-1] + ', "n_sites": 5}'
    with pytest.raises(ValueError, match="repeats key 'n_sites'"):
        ChainSpec.from_json(repeated)
    with pytest.raises(ValueError, match="one object"):
        ChainSpec.from_json(json.dumps([d]))


def test_config_keys_checked():
    text = pst_couplings(4).to_config()
    with pytest.raises(ValueError, match="unknown key 'bogus'"):
        ChainSpec.from_config(text + "bogus = 3\n")
    # a repeated key once silently won over the first
    with pytest.raises(ValueError, match="repeats key 'fields'"):
        ChainSpec.from_config(text + "fields = 1, 1, 1, 1\n")
    with pytest.raises(ValueError):
        ChainSpec.from_config(text.replace("n_sites = 4", "n_sites = 4.9"))
    # an empty entry was once dropped: both of these read as a perfect 3-site chain
    perfect = "n_sites = 3\ncouplings = 1.4142135623730951, 1.4142135623730951\nfields = 0, 0, 0\n"
    assert ChainSpec.from_config(perfect) == pst_couplings(3)
    with pytest.raises(ValueError, match="empty entry in couplings"):
        ChainSpec.from_config(perfect.replace("951, 1.414", "951,,1.414"))
    with pytest.raises(ValueError, match="empty entry in fields"):
        ChainSpec.from_config(perfect.replace("0, 0, 0", "0, 0, 0,"))
