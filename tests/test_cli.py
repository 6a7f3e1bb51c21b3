import json

import numpy as np
import pytest

from chainqec.cli import main


def test_transfer_check(capsys):
    assert main(["transfer-check", "--pst", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_perfect"] is True
    np.testing.assert_allclose(payload["transfer_time"], np.pi / 2, rtol=1e-10)
    np.testing.assert_allclose(payload["spectral_bound"], 5.0, atol=1e-10)


def test_transfer_check_config_file(tmp_path, capsys):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("n_sites = 2\ncouplings = 1.0\nfields = 0.0, 0.0\n")
    assert main(["transfer-check", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_sites"] == 2
    assert payload["is_perfect"] is True


def test_code_info(capsys):
    assert main(["code-info", "--code", "shor:4"]) == 0
    out = capsys.readouterr().out
    assert "# n_qubits 16" in out
    assert "# parity_condition True" in out
    assert "# logical_qubits 1" in out


def test_error_json_on_failure(capsys):
    rc = main(["code-info", "--code", "nonsense"])
    assert rc != 0
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "nonsense" in err["message"]


def test_single_z_cli_json(tmp_path, capsys):
    rc = main([
        "single-z", "--samples", "4", "--seed", "2",
        "--out", str(tmp_path), "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["min_success"] >= 1 - 1e-8
    assert payload["discarded_mass"] == 0.0
    assert (tmp_path / "single_z.csv").exists()
    assert (tmp_path / "manifest.json").exists()
    # resuming into the directory of a different run is refused
    rc = main(["single-z", "--samples", "4", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "different run" in err["message"]


def test_coupling_cli_reports_discarded_mass(tmp_path, capsys):
    rc = main([
        "coupling-sweep", "--grid", "0.05", "--instances", "2", "--prune", "1e-12",
        "--out", str(tmp_path), "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    rec = json.loads((tmp_path / "points.jsonl").read_text())
    assert payload["discarded_mass"] == rec["discarded_mass"] > 0
    assert payload["points"] == 1


def test_dephasing_cli(tmp_path, capsys):
    rc = main([
        "dephasing", "--pst", "4", "--gammas", "0.05",
        "--out", str(tmp_path), "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_deviation"] < 1e-6


def test_dephasing_refuses_another_runs_directory(tmp_path, capsys):
    assert main(["single-z", "--samples", "2", "--out", str(tmp_path)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    rc = main(["dephasing", "--pst", "3", "--gammas", "0.05", "--out", str(tmp_path)])
    assert rc == 1
    assert "different run" in json.loads(capsys.readouterr().err)["message"]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("argv", [
    ["dephasing", "--seed", "1"],
    ["dephasing", "--prune", "0.1"],
    ["timing-sweep", "--seed", "1"],
])
def test_parser_rejects_flags_that_select_nothing(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_dephasing_cli_rejects_non_finite_gamma(tmp_path, capsys):
    rc = main(["dephasing", "--pst", "3", "--gammas", "nan", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "finite" in err["message"]
    assert not (tmp_path / "dephasing.csv").exists()


def test_timing_cli_grid_parsing(capsys):
    rc = main(["timing-sweep", "--grid", "0:0.01:3", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["points"] == 3
    assert payload["success_at_zero"] == pytest.approx(1.0, abs=1e-9)
