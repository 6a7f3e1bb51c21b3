"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q

Tiny sizes: every workload once, traced, with its checks; about half a
minute, most of it the cold N=15 sector eigendecompositions.
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_has_no_failed_ops_and_self_times_sum_to_root(name, tmp_path):
    tracer = spans.Tracer()
    result = worker.run(workloads.get(name, tiny=True), 3, 0.01, str(tmp_path), tracer=tracer)
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert all(r["ok"] for r in result["spot_checks"])
    assert len(result["sweep_ops_per_s"]) == 1
    root = tracer.spans[0]
    assert root.name == spans.ROOT and root.parent == -1
    assert sum(tracer.self_times()) == pytest.approx(root.end - root.start, abs=1e-9)
    layers = result["layers"]
    assert layers["cli.main.calls"] == 2  # the one-op sweep and one timed sweep
    assert layers[f"harness.exp_{name.split('_pruned')[0]}.calls"] == 2


def test_tracer_restores_every_patched_name():
    owners = [(spans._owner(path), attr) for path, attr, _ in spans.TARGETS]
    originals = [vars(owner)[attr] for owner, attr in owners]  # every target exists
    with pytest.raises(KeyError):
        with spans.Tracer():
            for (owner, attr), original in zip(owners, originals):
                assert vars(owner)[attr] is not original
            raise KeyError("leaves the traced block by an exception")
    for (owner, attr), original in zip(owners, originals):
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


def test_refuses_to_time_into_a_non_empty_out_dir(tmp_path):
    (tmp_path / "points.jsonl").write_text('{"index": 0}\n')
    with pytest.raises(RuntimeError, match="non-empty"):
        worker.run_sweep(workloads.get("single_z", tiny=True), 0, 0, str(tmp_path))


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single_z", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
