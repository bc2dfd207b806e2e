"""Spans around the calls that ``plancode.codec`` and ``plancode.separation``
make into the other modules, recorded from outside the library.

``Tracer.install()`` swaps each traced name in its calling module for a
wrapper that records a span (name, duration, parent) and ``uninstall()``
puts the originals back, so untraced runs execute the library untouched.
A span's self time is its duration minus the time its child spans cover.
Spans stay in memory; ``Tracer.totals()`` folds them into per-name sums.
"""

from __future__ import annotations

import functools
import time

# (calling module, attribute, span name) for every traced name.  The span
# name is "<module that defines the function>.<function>".
MODULE_NAMES = (
    ("plancode.codec", "triangulate", "embgraph.triangulate"),
    ("plancode.codec", "canonical_labeling", "embgraph.canonical_labeling"),
    ("plancode.codec", "build_separations", "separation.build_separations"),
    ("plancode.separation", "decompose_cut", "planar_sep.decompose_cut"),
    ("plancode.separation", "planarize", "planar_sep.planarize"),
    ("plancode.codec", "complete", "patcher.complete"),
    ("plancode.codec", "apply_fix", "patcher.apply_fix"),
    ("plancode.codec", "encode_level", "recovery.encode_level"),
    ("plancode.codec", "decode_level_from", "recovery.decode_level_from"),
    ("plancode.codec", "stats", "codec.stats"),
    ("plancode.codec", "build_table", "table.build_table"),
)
TABLE_METHODS = ("index_of", "member_graph", "deserialize_from")


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self) -> None:
        # Per span: [name, duration, child time, parent index, under
        # self-parse, name of the outermost span]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # Shape of every separation chain built while tracing:
        # (finest-level center nodes, host nodes, finest-level parts).
        self.separations: list[tuple[int, int, int]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            up = self.spans[parent]
            in_parse, root = up[4] or up[0] == "codec.stats", up[5]
        else:
            in_parse, root = False, name
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, parent, in_parse, root]
        self.spans.append(rec)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            rec[1] = dur
            if parent >= 0:
                self.spans[parent][2] += dur

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        import importlib

        from plancode.table import ClassTable

        for mod_name, attr, span_name in MODULE_NAMES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            wrapped = self._wrap(span_name, orig)
            if attr == "build_separations":
                wrapped = self._shape_recorder(wrapped)
            setattr(mod, attr, wrapped)
        for meth in TABLE_METHODS:
            orig = ClassTable.__dict__[meth]
            self._saved.append((ClassTable, meth, orig))
            if isinstance(orig, classmethod):
                setattr(ClassTable, meth, classmethod(self._wrap(f"table.{meth}", orig.__func__)))
            else:
                setattr(ClassTable, meth, self._wrap(f"table.{meth}", orig))

    def _shape_recorder(self, fn):
        @functools.wraps(fn)
        def wrapper(host, *args, **kwargs):
            seps = fn(host, *args, **kwargs)
            finest = seps[-1]
            self.separations.append((len(finest.parts[0]), host.n, finest.p))
            return seps

        return wrapper

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (total duration, total self time, calls).  Spans
        inside the ``stats`` self-parse count only toward ``codec.stats``."""
        out: dict[str, list] = {}
        for name, dur, child, _parent, in_parse, _root in self.spans:
            if in_parse:
                continue
            acc = out.setdefault(name, [0.0, 0.0, 0])
            acc[0] += dur
            acc[1] += dur - child
            acc[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def root_total(self, root: str, name: str) -> float:
        """Total duration of the spans called name under a root span."""
        return sum(
            rec[1] for rec in self.spans if rec[0] == name and rec[5] == root and not rec[4]
        )

    def reset(self) -> None:
        self.spans.clear()
        self.separations.clear()
