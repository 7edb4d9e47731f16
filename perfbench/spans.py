"""In-memory span recorder that wraps public functions of ``legendre_pairs``.

Each wrapped call records one span: name, start, end, parent span and run
id.  Spans live in flat arrays while the benchmark runs and are written out
once, at exit.  A function is wrapped under every module-level name that is
bound to it inside the package, because callers look functions up in
different places: ``search`` imports ``psd`` by name, ``verify`` reaches it as
``sq.psd``, and ``pipeline`` imports ``run_chunk`` by name.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: Layer functions, named by the module that defines them.
TRACED = (
    "nt.orbit_decomposition",
    "nt.spectrum_mod3",
    "nt.orbit_psd_values",
    "sequences.paf",
    "sequences.psd",
    "ranking.subset_unrank",
    "ranking.decode_selection",
    "search.fingerprint",
    "search.run_chunk",
    "search.read_records",
    "search.match_candidates",
    "verify.verify_pair",
    "verify.pair_class_id",
    "verify.compression_certificate",
    "verify.hadamard_from_pair",
    "verify.symmetry_reduce",
    "pipeline.third_psd_filter",
    "pipeline.write_pairs",
)

PACKAGE = "legendre_pairs"
NO_PARENT = -1


class SpanRecorder:
    """Records spans of wrapped calls and of the benchmark's own phases."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = 0
        self._stack = [NO_PARENT]
        self._patches: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str, run_id: int):
        """Span of a benchmark phase (set-up or one iteration) and its run id."""
        self.run_id = run_id
        idx = self._open(self._name(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._name(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def install(self) -> None:
        """Rebind every package-level name of each TRACED function to a wrapper."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for label in TRACED:
            home, attr = label.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{home}"], attr)
            wrapper = self.wrap(label, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int64).copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            np.savez(f, names=np.array(json.dumps(self.names)), **self.arrays())


class SpanTable:
    """Self time and call counts per (run id, span name), derived from spans.

    A span's self time is its duration minus the durations of its direct
    children.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        a = rec.arrays()
        self.names = rec.names
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.run = a["run"]
        dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self.self_s = dur - child

    def _mask(self, name: str, run_id: int) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.run), dtype=bool)
        return (self.name_id == self.names.index(name)) & (self.run == run_id)

    def calls(self, name: str, run_id: int) -> int:
        return int(self._mask(name, run_id).sum())

    def self_time(self, name: str, run_id: int) -> float:
        return float(self.self_s[self._mask(name, run_id)].sum())

    def child_calls(self, name: str, parent_name: str, run_id: int) -> int:
        """Calls of ``name`` made directly from a ``parent_name`` span."""
        if parent_name not in self.names:
            return 0
        mask = self._mask(name, run_id) & (self.parent >= 0)
        parents = self.name_id[self.parent[mask]]
        return int((parents == self.names.index(parent_name)).sum())
