"""Spans around the package's public functions, installed from outside.

Each target is patched where its caller looks it up (a module attribute or
a class attribute), so no file of the package changes.  Spans are kept in
memory with a link to their parent and summarised when the run ends; the
originals are restored on exit.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

import numpy as np

# (owner, attribute, span name).  The owner is where the caller looks the
# name up: harness imports evolve/disordered_spec/... at module load, while
# RevivalSetup imports sector_eig and decode_pipeline lazily from their home
# modules and hilbert.chi imports jordan_wigner lazily.  pauli is not wrapped:
# its calls are sub-microsecond and nested inside decoder, so its cost shows
# as decoder self time.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("chainqec.cli", "main", "cli.main"),
    ("chainqec.cli", "exp_single_z", "harness.exp_single_z"),
    ("chainqec.cli", "exp_coupling", "harness.exp_coupling"),
    ("chainqec.cli", "exp_dephasing", "harness.exp_dephasing"),
    ("chainqec.harness:RevivalSetup", "__init__", "harness.RevivalSetup.init"),
    ("chainqec.harness:RevivalSetup", "success_single_z", "harness.RevivalSetup.success_single_z"),
    (
        "chainqec.harness:RevivalSetup",
        "success_coupling_instance",
        "harness.RevivalSetup.success_coupling_instance",
    ),
    ("chainqec.harness", "analyze_transfer", "chain.analyze_transfer"),
    ("chainqec.harness", "minimal15", "code.minimal15"),
    ("chainqec.harness", "encode", "code.encode"),
    ("chainqec.decoder", "encode", "code.encode"),
    ("chainqec.decoder:RevivalEvaluator", "__init__", "decoder.RevivalEvaluator.init"),
    ("chainqec.decoder:RevivalEvaluator", "success", "decoder.RevivalEvaluator.success"),
    ("chainqec.decoder", "decode_pipeline", "decoder.decode_pipeline"),
    ("chainqec.hilbert", "sector_eig", "hilbert.sector_eig"),
    ("chainqec.hilbert", "sector_indices", "hilbert.sector_indices"),
    ("chainqec.hilbert", "sector_sparse", "hilbert.sector_sparse"),
    ("chainqec.harness", "evolve", "hilbert.evolve"),
    ("chainqec.harness", "disordered_spec", "noise.disordered_spec"),
    ("chainqec.harness", "lindblad_evolve", "hilbert.lindblad_evolve"),
    ("chainqec.harness", "chi", "hilbert.chi"),
    ("chainqec.hilbert", "dense_unitary", "hilbert.dense_unitary"),
    ("chainqec.freefermion", "jordan_wigner", "freefermion.jordan_wigner"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for _, _, name in TARGETS))
# per-op harness methods: their span durations are reported as percentiles
PER_OP = ("harness.RevivalSetup.success_single_z", "harness.RevivalSetup.success_coupling_instance")
ROOT = "perfbench.root"


def _owner(path: str):
    """The module or class named by "module[:Class]", or None if it is gone."""
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls, None) if cls else obj


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for the root
    start: float
    end: float = 0.0


class Tracer:
    """Records one span per wrapped call; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.branches = 0
        self.discarded_mass = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if name == "decoder.decode_pipeline":
                tracer.branches += len(result.branches)
                tracer.discarded_mass += result.discarded_mass
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        # a target the package no longer has is skipped: it reports 0 calls
        for path, attr, name in TARGETS:
            owner = _owner(path)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        self._open(ROOT)
        return self

    def __exit__(self, *exc) -> None:
        self._close(0)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self) -> dict[str, float]:
        """calls and self_s per span name, p50/p99 for the per-op methods."""
        own = self.self_times()
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        durations: dict[str, list[float]] = {name: [] for name in PER_OP}
        for s, t in zip(self.spans, own):
            if s.name == ROOT:
                continue
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += t
            if s.name in durations:
                durations[s.name].append(s.end - s.start)
        for name, ds in durations.items():
            ms = np.array(ds) * 1e3 if ds else np.zeros(1)
            out[f"{name}.p50_ms"] = float(np.percentile(ms, 50))
            out[f"{name}.p99_ms"] = float(np.percentile(ms, 99))
        root = self.spans[0]
        out[f"{ROOT}.duration_s"] = root.end - root.start
        out[f"{ROOT}.self_s"] = own[0]
        out["decoder.decode_pipeline.branches"] = self.branches
        out["decoder.decode_pipeline.discarded_mass"] = self.discarded_mass
        calls = out["decoder.decode_pipeline.calls"]
        # useful vs attempted: mean probability mass a decode keeps after pruning
        out["decoder.decode_pipeline.kept_ratio"] = (
            1.0 - self.discarded_mass / calls if calls else 1.0
        )
        return out
