"""Span tracing for the traced benchmark pass.

The benchmark times calls *into* each layer from its own files: it
replaces a layer's entry points with wrappers that record one span per
call (name, start, end, parent span, run id) and leaves the program's
code untouched.  Spans stay in memory in flat arrays and are written
out when the pass ends.

A layer's self time is its span duration minus the time covered by its
direct child spans.  The wrappers compute it as spans close, which is
the same quantity as a post-hoc pass over the written arrays.

Python binds imported functions by name (``from .serialization import
digest``), so wrapping a module attribute alone misses every other
binding site.  :meth:`Tracer.patch_function` therefore rebinds every
``repro.*`` module attribute that still refers to the original, and
:meth:`Tracer.audit` fails the benchmark when any binding site that
should be wrapped still holds an original.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """In-memory span recorder plus the patching that feeds it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_run = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.run_id = 0
        # Open spans: [span index, time covered by direct children].
        self._stack: List[list] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.incl_s: List[float] = []
        # Inclusive durations kept per name for percentile metrics.
        self.durations: Dict[int, array] = {}
        # Counts observed at the wrapped boundaries, for cross-checks.
        self.observed: Dict[str, int] = {}
        self._originals: List[Tuple[Any, str, Any, Any, frozenset]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def intern(self, name: str, keep_durations: bool = False) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        if keep_durations and nid not in self.durations:
            self.durations[nid] = array("d")
        return nid

    def observe(self, key: str, amount: int = 1) -> None:
        self.observed[key] = self.observed.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable, keep_durations: bool = False,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped so each call records a span named ``name``.

        ``after(args, result)`` runs once the span has closed, so what
        it costs is tracing overhead, not the layer's time.
        """
        nid = self.intern(name, keep_durations)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_run, span_start, span_end = self.span_run, self.span_start, self.span_end
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        durations = self.durations.get(nid)

        def traced(*args, **kwargs):
            index = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_run.append(self.run_id)
            span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span_end[index] = end
                stack.pop()
                elapsed = end - start
                calls[nid] += 1
                incl_s[nid] += elapsed
                self_s[nid] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if durations is not None:
                    durations.append(elapsed)
            if after is not None:
                after(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str, **kw) -> Callable:
        original = cls.__dict__[attr]
        wrapped = self.wrap(name, original, **kw)
        setattr(cls, attr, wrapped)
        self._originals.append((cls, attr, original, wrapped, frozenset()))
        return wrapped

    def patch_function(self, module: Any, attr: str, name: str,
                       skip: Tuple[str, ...] = (), **kw) -> Callable:
        """Wrap a module-level function at every ``repro.*`` binding
        site except the modules named in ``skip``."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, **kw)
        for mod in _repro_modules():
            if mod.__name__ in skip:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._originals.append((mod, key, original, wrapped, frozenset(skip)))
        return wrapped

    def audit(self) -> List[str]:
        """Binding sites that still hold an original function.

        A site is reported when a ``repro.*`` module (outside the
        deliberately skipped ones) still refers to an original that was
        wrapped elsewhere: calls through it would go untraced.
        """
        problems = []
        for _owner, _key, original, _wrapped, skip in self._originals:
            for mod in _repro_modules():
                if mod.__name__ in skip:
                    continue
                for key, value in vars(mod).items():
                    if value is original:
                        problems.append(f"{mod.__name__}.{key} is untraced")
        return sorted(set(problems))

    def unpatch(self) -> None:
        for owner, key, original, _wrapped, _skip in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def stat(self, name: str) -> Tuple[int, float, float]:
        """``(calls, self seconds, inclusive seconds)`` for a span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.self_s[nid], self.incl_s[nid]

    def percentile_us(self, name: str, q: float) -> float:
        nid = self._ids.get(name)
        values = sorted(self.durations.get(nid, ())) if nid is not None else []
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))] * 1e6

    def write(self, directory: Path, stem: str, runs: List[Dict[str, Any]]) -> Path:
        """Write the spans as flat arrays plus an index.

        ``<stem>.spans.json`` names the span ids, the per-run metadata
        and the array layout; ``<stem>.<field>.bin`` holds one array per
        span field in native byte order (``parent`` is a span index, -1
        for a root span).
        """
        directory.mkdir(parents=True, exist_ok=True)
        fields = {
            "name": self.span_name, "parent": self.span_parent,
            "run": self.span_run, "start": self.span_start, "end": self.span_end,
        }
        for field, values in fields.items():
            with open(directory / f"{stem}.{field}.bin", "wb") as out:
                values.tofile(out)
        index = directory / f"{stem}.spans.json"
        index.write_text(json.dumps({
            "names": self.names,
            "spans": len(self.span_start),
            "byteorder": sys.byteorder,
            "fields": {f: {"typecode": v.typecode, "itemsize": v.itemsize}
                       for f, v in fields.items()},
            "runs": runs,
        }, indent=1) + "\n")
        return index


def _repro_modules() -> List[Any]:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]
