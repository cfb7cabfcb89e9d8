"""In-memory span recorder that wraps functions from the outside.

A :class:`Tracer` replaces attributes of modules and classes with wrappers
that record one span per call: its name, start, end and the span that was
open when it started (its parent).  Spans stay in parallel lists until the
run ends; :meth:`Tracer.self_times` then derives each span's self time as its
duration minus the durations of its direct children.  :meth:`Tracer.restore`
puts every original attribute back.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: ``before(args, kwargs) -> state``, called ahead of the wrapped function.
Before = Callable[[tuple, dict], Any]
#: ``after(tracer, args, kwargs, result, state, span_index)``; the index is
#: ``-1`` for a wrapper that records no span.
After = Callable[["Tracer", tuple, dict, Any, Any, int], None]


class Tracer:
    """Records spans and counters for the functions it wraps."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name: List[int] = []
        self.span_start: List[float] = []
        self.span_end: List[float] = []
        self.span_parent: List[int] = []
        #: One number per span that hooks may set (a batch size, a flag).
        self.span_value: List[float] = []
        self._open: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: ``(owner, attribute, value in the owner's own __dict__ or None)``.
        self._patched: List[tuple] = []

    # ------------------------------------------------------------------ spans
    def name_id(self, name: str) -> int:
        """Index of ``name`` in the span-name table (added on first use)."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        """Open a span named ``self.names[nid]`` and return its index."""
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(float("nan"))
        self.span_value.append(0.0)
        self._open.append(index)
        self.span_start.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        """Close the innermost open span, which must be ``index``."""
        self.span_end[index] = perf_counter()
        if self._open.pop() != index:
            raise RuntimeError("spans must close in the order they opened")

    # --------------------------------------------------------------- wrapping
    def wrap(
        self,
        owner: Any,
        attribute: str,
        span: Optional[str] = None,
        *,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> None:
        """Replace ``owner.attribute`` (a plain function) with a recording wrapper.

        ``span`` names the span each call records; ``None`` records none and
        only runs the hooks.  Methods inherited from a base class are
        wrapped on ``owner`` alone and removed from it again by
        :meth:`restore`.
        """
        own = vars(owner).get(attribute) if isinstance(owner, type) else getattr(owner, attribute)
        fn = getattr(owner, attribute)
        if isinstance(owner, type) and isinstance(own, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {owner.__name__}.{attribute}: not a plain method")
        nid = None if span is None else self.name_id(span)
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            index = -1
            if nid is None:
                result = fn(*args, **kwargs)
            else:
                index = tracer.begin(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(index)
            if after is not None:
                after(tracer, args, kwargs, result, state, index)
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_probe = True
        wrapper.__name__ = getattr(fn, "__name__", attribute)
        setattr(owner, attribute, wrapper)
        self._patched.append((owner, attribute, own))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attribute, own = self._patched.pop()
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    @property
    def installed(self) -> int:
        """How many wrappers are currently in place."""
        return len(self._patched)

    # --------------------------------------------------------------- analysis
    def arrays(self) -> Dict[str, np.ndarray]:
        """The span table as NumPy arrays (``name``, ``start``, ``end``, ``parent``, ``value``)."""
        return {
            "name": np.asarray(self.span_name, dtype=np.int64),
            "start": np.asarray(self.span_start, dtype=float),
            "end": np.asarray(self.span_end, dtype=float),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "value": np.asarray(self.span_value, dtype=float),
        }

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the summed durations of its direct children."""
        return self_times(self.arrays())

    def write(self, path, meta: Dict[str, Any]) -> None:
        """Write the spans, names and counters as gzipped JSON."""
        table = self.arrays()
        payload = {
            "meta": meta,
            "names": self.names,
            "counters": dict(self.counters),
            "spans": {
                "name": table["name"].tolist(),
                "start": table["start"].tolist(),
                "end": table["end"].tolist(),
                "parent": table["parent"].tolist(),
                "value": table["value"].tolist(),
            },
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)


def self_times(table: Dict[str, np.ndarray]) -> np.ndarray:
    """Self time of every span in a span table.

    Children are intervals nested inside their parent (the wrappers open and
    close spans in call order), so the part of the parent they cover is the
    sum of their durations.
    """
    durations = table["end"] - table["start"]
    covered = np.zeros_like(durations)
    parents = table["parent"]
    nested = parents >= 0
    np.add.at(covered, parents[nested], durations[nested])
    return durations - covered


def descends_from(table: Dict[str, np.ndarray], roots: np.ndarray) -> np.ndarray:
    """Boolean mask of spans that are, or descend from, a span in ``roots``.

    Parents always precede their children in the table, so one forward pass
    settles every span.
    """
    inside = np.zeros(len(table["parent"]), dtype=bool)
    inside[roots] = True
    parents = table["parent"].tolist()
    flags = inside.tolist()
    for index, parent in enumerate(parents):
        if parent >= 0 and flags[parent]:
            flags[index] = True
    return np.asarray(flags, dtype=bool)
