import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chainqec
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


@pytest.mark.parametrize("name, text", [
    # int() once read this as a perfect 4-site chain, exit code 0
    ("chain.json", '{"n_sites": 4.9, "couplings": [1.7320508075688772, 2.0, 1.7320508075688772],'
                   ' "fields": [0.0, 0.0, 0.0, 0.0]}'),
    ("chain.cfg", "n_sites = 2\ncouplings = 1.0\nfields = 0.0, 0.0\nbogus = 3\n"),
    ("chain.cfg", "n_sites = 2\ncouplings = 1.0\nfields = 0.0, 0.0\ncouplings = 0.5\n"),
], ids=["json-fractional-n_sites", "config-unknown-key", "config-repeated-key"])
def test_transfer_check_refuses_loose_chain_files(name, text, tmp_path, capsys):
    cfg = tmp_path / name
    cfg.write_text(text)
    assert main(["transfer-check", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("tolerance", ["inf", "nan", "0", "1", "2"])
def test_transfer_check_refuses_tolerance_outside_unit_interval(tolerance, tmp_path, capsys):
    # the flat 4-site chain is far from perfect; no tolerance may call it so
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("n_sites = 4\ncouplings = 1, 1, 1\nfields = 0, 0, 0, 0\n")
    assert main(["transfer-check", "--config", str(cfg), "--tolerance", tolerance]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


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


@pytest.mark.parametrize("sweep, flag", [
    (["single-z"], "--samples"),
    (["coupling-sweep", "--grid", "0.05"], "--instances"),
], ids=["samples", "instances"])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_count_below_one_refused_by_the_parser(sweep, flag, count, tmp_path, capsys):
    # --samples 0 once ran, printed a NaN mean as JSON (not valid JSON) and
    # left a manifest and an empty CSV behind
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([*sweep, flag, count, "--out", str(out), "--format", "json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag}: count '{count}' is below 1" in captured.err
    assert not out.exists()
    assert main([*sweep, flag, "1", "--out", str(out)]) == 0


@pytest.mark.parametrize("bad", [["--grid", "1.5"], ["--grid", "nan"]])
def test_coupling_cli_refuses_bad_input_before_writing(bad, tmp_path, capsys):
    out = tmp_path / "cp"
    assert main(["coupling-sweep", *bad, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert not (out / "manifest.json").exists()
    assert not (out / "points.jsonl").exists()
    # the refused run leaves nothing that blocks a valid run into the same directory
    assert main(["coupling-sweep", "--grid", "0.05", "--instances", "1", "--out", str(out)]) == 0


@pytest.mark.parametrize("sweep", [
    ["single-z", "--samples", "1"],
    ["coupling-sweep", "--grid", "0.05", "--instances", "1"],
])
@pytest.mark.parametrize("bad", ["code", "chain", "length"])
def test_unknown_code_or_imperfect_chain_refused_before_writing(sweep, bad, tmp_path, capsys):
    flat = tmp_path / "flat.cfg"  # uniform couplings: no perfect transfer at N = 15
    flat.write_text(f"n_sites = 15\ncouplings = {', '.join(['1.0'] * 14)}\n"
                    f"fields = {', '.join(['0.0'] * 15)}\n")
    out = tmp_path / "run"
    if bad == "code":  # the revival read-out runs minimal15 only: the parser refuses
        with pytest.raises(SystemExit) as exc:
            main([*sweep, "--code", "nonsense", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
    else:
        args = {"chain": ["--config", str(flat)], "length": ["--pst", "9"]}[bad]
        assert main([*sweep, *args, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert {"chain": "transfer perfectly", "length": "whole chain"}[bad] in err["message"]
        assert not (out / "manifest.json").exists()
    assert main([*sweep, "--out", str(out)]) == 0


@pytest.mark.parametrize("sweep", [
    ["single-z", "--samples", "1"],
    ["timing-sweep", "--grid", "0"],
    ["coupling-sweep", "--grid", "0.05", "--instances", "1"],
])
@pytest.mark.parametrize("prune", ["nan", "inf", "-1e-3"])
def test_prune_not_finite_or_negative_refused_by_the_parser(sweep, prune, tmp_path, capsys):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([*sweep, f"--prune={prune}", "--out", str(out)])
    assert exc.value.code == 2
    assert "finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("empty, valid", [
    (["timing-sweep", "--grid", "0:0.1:0"], ["timing-sweep", "--grid", "0,0.01"]),
    (["coupling-sweep", "--grid", "0:0.1:0", "--instances", "1"],
     ["coupling-sweep", "--grid", "0.05", "--instances", "1"]),
    (["dephasing", "--pst", "3", "--gammas", "0:0.1:0"],
     ["dephasing", "--pst", "3", "--gammas", "0.05"]),
])
def test_empty_grid_refused_by_the_parser(empty, valid, tmp_path, capsys):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([*empty, "--out", str(out)])
    assert exc.value.code == 2
    assert "no points" in capsys.readouterr().err
    assert not out.exists()
    assert main([*valid, "--out", str(out)]) == 0


@pytest.mark.parametrize("argv, rule", [
    (["single-z", "--samples", "x"], "whole number >= 1"),
    (["single-z", "--samples", "2.5"], "whole number >= 1"),
    (["coupling-sweep", "--grid", "0.05", "--instances", "many"], "whole number >= 1"),
    (["timing-sweep", "--grid", "0:1"], '"start:stop:count"'),
    (["timing-sweep", "--grid", "0:0.1:x"], '"start:stop:count"'),
    (["dephasing", "--pst", "3", "--gammas", "a"], '"a,b,c"'),
])
def test_malformed_count_or_grid_names_the_rule(argv, rule, tmp_path, capsys):
    # argparse names a type callable that raised ValueError ("invalid _count
    # value"), a name the user cannot act on
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert rule in err
    assert "_count" not in err and "_grid" not in err
    assert not out.exists()


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


def _csv_column(path: Path, name: str) -> list[float]:
    with open(path) as fh:
        return [float(r[name]) for r in csv.DictReader(fh)]


@pytest.mark.parametrize("argv, prune, csv_name, column, points", [
    (["single-z", "--samples", "40", "--seed", "3"], "1e-12", "single_z.csv",
     "success_probability", 40),
    (["coupling-sweep", "--grid", "0.02,0.1", "--instances", "3", "--seed", "2"], "1e-12",
     "coupling.csv", "mean_success", 2),
    (["timing-sweep", "--grid", "0,0.01"], "1e-7", "timing.csv", "success_probability", 2),
], ids=["single-z", "coupling-sweep", "timing-sweep"])
def test_exact_and_pruned_runs_read_out_the_same_states(argv, prune, csv_name, column, points,
                                                        tmp_path):
    # exact runs score rows at the positions W reads, pruned ones rows on the
    # whole support: their successes differ only by the pruned mass.  That is
    # far below 1e-9 for single-Z samples and disorder instances; at the
    # timing floor it is 5.8e-8 at delta = 0.01, so there each gap is bounded
    # by the point's recorded discarded mass instead
    assert main([*argv, "--out", str(tmp_path / "exact")]) == 0
    assert main([*argv, "--prune", prune, "--out", str(tmp_path / "pruned")]) == 0
    exact, pruned = (_csv_column(tmp_path / run / csv_name, column) for run in ("exact", "pruned"))
    assert len(exact) == len(pruned) == points
    if argv[0] != "timing-sweep":
        gap = max(abs(a - b) for a, b in zip(exact, pruned))
        assert gap <= 1e-9, gap
        return
    with open(tmp_path / "pruned" / "points.jsonl") as fh:
        lost = [json.loads(line)["discarded_mass"] for line in fh]
    assert len(lost) == points
    for a, b, mass in zip(exact, pruned, lost):
        assert -1e-12 <= a - b <= mass + 1e-12, (a, b, mass)


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


def test_timing_success_at_zero_reads_the_zero_offset(capsys):
    # the grid's first point is delta = -0.2, whose success is about 0.789
    assert main(["timing-sweep", "--grid=-0.2,0,0.2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["success_at_zero"] == pytest.approx(1.0, abs=1e-12)
    assert payload["min_success"] < 0.8
    # a grid without delta = 0 has no success there: null, not another point's
    assert main(["timing-sweep", "--grid", "0.01,0.02", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["points"] == 2 and payload["success_at_zero"] is None
    assert main(["timing-sweep", "--grid", "0.01,0.02"]) == 0
    assert "success_at_zero: None" in capsys.readouterr().out


# the scipy a process loads after cli.main: every scipy module, and the
# scipy packages among them that are not private (scipy.sparse, scipy.linalg)
_LOADED_AFTER_MAIN = """
import json, sys
from chainqec.cli import main
rc = main(sys.argv[1:])
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
packages = [m for m in scipy if hasattr(sys.modules[m], "__path__")
            and not any(part.startswith("_") for part in m.split("."))]
print(json.dumps({"rc": rc, "scipy": scipy, "packages": packages,
                  "numpy_ma": "numpy.ma" in sys.modules}))
"""


def _fresh_main(argv, tmp_path) -> dict:
    """cli.main(argv) in a new interpreter: its exit code and what it loaded (scipy, numpy.ma)."""
    if argv[0] not in ("transfer-check", "code-info"):
        argv = [*argv, "--out", str(tmp_path / "run")]
    src = str(Path(chainqec.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_MAIN, *argv], capture_output=True, text=True,
        check=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    lines = run.stdout.splitlines()
    out = json.loads(lines[-1])
    assert out["rc"] == 0, run.stderr
    if argv[0] == "transfer-check":
        out["report"] = json.loads(lines[0])
    return out


@pytest.mark.parametrize("argv, packages", [
    (["single-z", "--samples", "2"], []),
    # pruned rows (hop_plan) and masses (RevivalEvaluator._prune_tables) are numpy's
    (["single-z", "--samples", "2", "--prune", "1e-12"], []),
    (["timing-sweep", "--grid", "0,0.01"], []),
    (["timing-sweep", "--grid", "0,0.01", "--prune", "1e-7"], []),
    (["coupling-sweep", "--grid", "0.05", "--instances", "1"], []),
    (["coupling-sweep", "--grid", "0.05", "--instances", "1", "--prune", "1e-7"], []),
    (["dephasing", "--pst", "5"], []),  # its dense Pade steps are numpy's
    (["transfer-check", "--pst", "6"], []),
    (["code-info"], []),
], ids=["single-z", "single-z-pruned", "timing-sweep", "timing-sweep-pruned", "coupling-sweep",
        "coupling-sweep-pruned", "dephasing", "transfer-check", "code-info"])
def test_subcommand_loads_only_the_scipy_it_calls(argv, packages, tmp_path):
    # a fresh interpreter: this one has imported scipy for other tests
    out = _fresh_main(argv, tmp_path)
    assert out["packages"] == packages
    # np.unique(a) alone loads numpy.ma, which no subcommand uses
    assert out["numpy_ma"] is False
    if not packages:  # no scipy module at all, private ones included
        assert out["scipy"] == []


def test_transfer_scan_fallback_loads_its_optimizer(tmp_path):
    # a uniform chain's spectrum is not commensurate, so analyze_transfer scans
    cfg = tmp_path / "uniform6.cfg"
    cfg.write_text("n_sites = 6\ncouplings = 1, 1, 1, 1, 1\nfields = 0, 0, 0, 0, 0, 0\n")
    out = _fresh_main(["transfer-check", "--config", str(cfg)], tmp_path)
    assert out["report"]["is_perfect"] is False
    assert "scipy.optimize" in out["packages"]
