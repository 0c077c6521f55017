"""Boundary tracer for medli, installed from outside the package at run time.

Every public function that a ``medli`` module imports from a sibling module
is replaced, in the importing module's namespace, by a wrapper that records
a span (name, start, end, parent). The ``numpy.linalg`` entry points that
medli calls are wrapped the same way. Spans stay in memory, in flat arrays,
until the run ends; ``write`` then stores them. A span's self time is its
duration minus the time covered by its child spans.

Because each wrapper sits on one (caller module, callee) binding, the tracer
also counts calls per edge, e.g. ``solver->linalg.expi_herm``: that is how
calls into a layer are attributed to the layer that made them.
"""

from __future__ import annotations

import collections
import functools
import gzip
import inspect
import sys
import time
from array import array

import numpy as np

MEDLI_MODULES = (
    "medli",
    "medli.linalg",
    "medli.ensembles",
    "medli.pgm",
    "medli.belavkin",
    "medli.certify",
    "medli.solver",
    "medli.serialize",
    "medli.cli",
)
LINALG_ENTRY_POINTS = ("eigh", "eigvalsh", "svd", "qr", "pinv", "solve", "norm")


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    """Spans and counters for one traced run; not thread-safe (none is needed)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        self.edges: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self._undo: list[tuple[object, str, object]] = []
        self._ascent_code = None
        self._ascent_frame = None
        self._ascent_len = 0
        self._ascent_cap = 0

    # --- recording ---

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self._intern(name))
        self.parents.append(self.current)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.current = idx
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.current = self.parents[idx]

    def wrap(self, name: str, fn, edge: str | None = None, note=None):
        """Wrapper recording a span around ``fn``; ``note(args, result)`` runs on success."""
        nid = self._intern(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        clock = time.perf_counter
        edges = self.edges
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(tracer.current)
            ends.append(0.0)
            tracer.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parents[idx]
            if edge is not None:
                edges[edge] += 1
            if note is not None:
                note(args, result)
            return result

        return traced

    # --- installing wrappers ---

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap sibling imports in every loaded medli module, and numpy.linalg."""
        for mod_name in MEDLI_MODULES:
            module = sys.modules.get(mod_name)
            if module is None:
                continue
            caller = _short(mod_name)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("medli.") or home == mod_name:
                    continue
                callee = f"{_short(home)}.{obj.__name__}"
                note = self._note_dumps if callee == "serialize.dumps" else None
                self._replace(module, attr, self.wrap(callee, obj, f"{caller}->{callee}", note))
        solver = sys.modules.get("medli.solver")
        ascend = getattr(solver, "_ascend", None) if solver is not None else None
        self._ascent_code = getattr(ascend, "__code__", None)
        config = getattr(solver, "SolveConfig", None) if solver is not None else None
        self._ascent_cap = int(getattr(config(), "max_iters", 0)) if config is not None else 0
        for name in LINALG_ENTRY_POINTS:
            fn = getattr(np.linalg, name)
            note = self._note_eigh if name == "eigh" else None
            traced = self.wrap(f"numpy.linalg.{name}", fn, note=note)
            if name == "norm":
                traced = self._ascent_probe(traced)
            self._replace(np.linalg, name, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._end_ascent()

    # --- notes: work counts taken at the boundary ---

    def _note_eigh(self, args, result) -> None:
        shape = np.shape(args[0])
        self.counts["eigh.n3"] += int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3

    def _note_dumps(self, args, result) -> None:
        self.counts["dumps.bytes"] += len(result.encode("utf-8"))

    def _ascent_probe(self, traced_norm):
        """Count ascent iterations: the ascent loop takes one gradient norm per iteration.

        Calls are attributed by the calling frame's code object, so norms taken
        elsewhere (polish, validation) are not counted. An ascent that takes
        ``max_iters`` norms ran to its iteration cap.
        """
        getframe = sys._getframe
        tracer = self

        @functools.wraps(traced_norm)
        def probe(*args, **kwargs):
            frame = getframe(1)
            if frame.f_code is tracer._ascent_code:
                if frame is not tracer._ascent_frame:
                    tracer._end_ascent()
                    tracer._ascent_frame = frame
                tracer._ascent_len += 1
            return traced_norm(*args, **kwargs)

        return probe

    def _end_ascent(self) -> None:
        if self._ascent_frame is None:
            return
        self.counts["ascent.steps"] += self._ascent_len
        if self._ascent_cap and self._ascent_len >= self._ascent_cap:
            self.counts["ascent.capped"] += 1
        self._ascent_frame = None
        self._ascent_len = 0

    # --- results ---

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.starts)
        if n == 0:
            return {}
        starts = np.frombuffer(self.starts, dtype=float, count=n)
        ends = np.frombuffer(self.ends, dtype=float, count=n)
        parents = np.frombuffer(self.parents, dtype=np.int32, count=n)
        names = np.frombuffer(self.name_ids, dtype=np.int32, count=n)
        duration = ends - starts
        covered = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], duration[has_parent])
        self_time = duration - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def absorb(self, doc: dict, parent: int) -> None:
        """Append spans and counters recorded by a traced child process."""
        offset = len(self.starts)
        for nid, par, start, end in zip(doc["name_ids"], doc["parents"], doc["starts"], doc["ends"]):
            self.name_ids.append(self._intern(doc["names"][nid]))
            self.parents.append(parent if par < 0 else par + offset)
            self.starts.append(start)
            self.ends.append(end)
        self.edges.update(doc["edges"])
        self.counts.update(doc["counts"])

    def export(self) -> dict:
        self._end_ascent()
        return {
            "names": self.names,
            "name_ids": self.name_ids.tolist(),
            "parents": self.parents.tolist(),
            "starts": self.starts.tolist(),
            "ends": self.ends.tolist(),
            "edges": dict(self.edges),
            "counts": dict(self.counts),
        }

    def write(self, path, header: str) -> None:
        """Spans as gzipped TSV: index, op (root span index), parent, name, start, end."""
        root = array("i")
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write(f"# {header}\n")
            out.write("index\top\tparent\tname\tstart_s\tend_s\n")
            for i, (nid, par, start, end) in enumerate(
                zip(self.name_ids, self.parents, self.starts, self.ends)
            ):
                root.append(i if par < 0 else root[par])
                out.write(f"{i}\t{root[i]}\t{par}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\n")
