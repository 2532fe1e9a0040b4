"""Span recorder for the traced benchmark run.

The benchmark wraps public functions of the library from its own files
(nothing under ``src/`` is instrumented) and restores them afterwards.
Every wrapped call pushes a frame on a per-thread stack; when it returns
its self time (duration minus the time its child frames cover) is booked
to its layer.  Two kinds of wrap exist:

* ``span`` calls are recorded one by one (layer, name, start, end,
  parent span) and exported to the Chrome trace;
* ``agg`` calls sit inside hot loops (per-record ``fwrite``, the 1M flow
  submits, per-rank replays) and are folded into a per-parent count and
  summed time instead of one span each.

Spans carry wall-clock start and end.  Self time is measured in the
calling thread's CPU time (``time.thread_time``): the bulk engine's
default pool runs up to 32 threads that mostly wait for the interpreter
lock, and wall-clock self times would count each such wait once per
waiting thread.  Wall time minus the summed self times of all layers is
reported as unattributed time: lock hand-offs, I/O waits, idle loops.

Bulk-pool worker threads start with an empty stack; their top-level
frames name the innermost open span of the thread that entered the
traced phase (``Tracer.phase``) as their parent.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: Cap on individually recorded spans exported to the Chrome trace.
MAX_SPANS = 200_000


class _Frame:
    __slots__ = ("layer", "name", "start", "cpu", "child", "span_id", "parent_id", "book")

    def __init__(self, layer: str, name: str, span_id: int | None, parent_id: int | None,
                 book: "_Book") -> None:
        self.layer = layer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.book = book
        self.child = 0.0
        self.start = time.perf_counter()
        self.cpu = time.thread_time()


class _Book:
    """One thread's records; merged into the tracer's views on demand."""

    def __init__(self, generation: int) -> None:
        self.generation = generation
        self.stack: list[_Frame] = []
        #: (layer, name) -> [calls, summed wall seconds, summed self seconds]
        self.stats: dict[tuple[str, str], list] = {}
        #: (parent span id, layer, name) -> [calls, summed wall seconds]
        self.agg: dict[tuple, list] = {}
        self.spans: list[tuple] = []
        self.values: dict[str, list[float]] = defaultdict(list)


class Tracer:
    """Recorder of spans, aggregated calls and layer self time.

    Each thread books into its own :class:`_Book`, so the bulk pool's
    threads never contend on a lock per call; the views below merge the
    books when read.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._phase_frames: list[_Frame] = []
        self.t0 = time.perf_counter()
        self.last_service_s = 0.0
        self._generation = 0
        self._books: list[_Book] = []

    def reset(self) -> None:
        """Drop everything recorded so far (a new repetition starts)."""
        with self._lock:
            self._generation += 1
            self._books = []

    # -- frames --------------------------------------------------------------

    def _book(self) -> _Book:
        book = getattr(self._local, "book", None)
        if book is None or book.generation != self._generation:
            book = self._local.book = _Book(self._generation)
            with self._lock:
                self._books.append(book)
        return book

    def _enter(self, layer: str, name: str, keep: bool) -> _Frame:
        book = self._book()
        stack = book.stack
        if stack:
            parent = stack[-1]
        else:
            parent = self._phase_frames[-1] if self._phase_frames else None
        parent_id = None
        if parent is not None:
            parent_id = parent.span_id if parent.span_id is not None else parent.parent_id
        span_id = None
        if keep:
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
        frame = _Frame(layer, name, span_id, parent_id, book)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> float:
        cpu = time.thread_time() - frame.cpu
        end = time.perf_counter()
        book = frame.book
        stack = book.stack
        stack.pop()
        if stack:
            stack[-1].child += cpu
        dur = end - frame.start
        key = (frame.layer, frame.name)
        row = book.stats.get(key)
        if row is None:
            row = book.stats[key] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur
        row[2] += cpu - frame.child
        if frame.span_id is None:
            akey = (frame.parent_id, frame.layer, frame.name)
            slot = book.agg.get(akey)
            if slot is None:
                slot = book.agg[akey] = [0, 0.0]
            slot[0] += 1
            slot[1] += dur
        else:
            book.spans.append((frame.span_id, frame.parent_id, frame.layer, frame.name,
                               frame.start, end, threading.get_ident()))
        return dur

    def phase(self, layer: str, name: str) -> "_Phase":
        """Context manager for a top-level span that adopts pool threads."""
        return _Phase(self, layer, name)

    def record(self, name: str, value: float) -> None:
        """Keep a sample of a named per-call value (service times, sizes)."""
        self._book().values[name].append(value)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, name: str, keep: bool) -> Callable:
        """Return ``fn`` wrapped in a frame of ``layer``/``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer._enter(layer, name, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    # -- views ---------------------------------------------------------------

    def _merged(self, index: int) -> dict[tuple[str, str], float]:
        out: dict[tuple[str, str], float] = defaultdict(float)
        for book in list(self._books):
            for key, row in book.stats.items():
                out[key] += row[index]
        return out

    @property
    def calls(self) -> dict[tuple[str, str], int]:
        return self._merged(0)

    @property
    def total_s(self) -> dict[tuple[str, str], float]:
        """Summed wall time per wrapped function."""
        return self._merged(1)

    @property
    def self_s(self) -> dict[str, float]:
        """Summed self (CPU) time per layer."""
        out: dict[str, float] = defaultdict(float)
        for (layer, _), v in self._merged(2).items():
            out[layer] += v
        return out

    @property
    def values(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for book in list(self._books):
            for name, vals in book.values.items():
                out[name].extend(vals)
        return out

    @property
    def agg(self) -> dict[tuple, list]:
        out: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        for book in list(self._books):
            for key, (n, total) in book.agg.items():
                out[key][0] += n
                out[key][1] += total
        return out

    @property
    def spans(self) -> list[tuple]:
        merged = sorted((s for book in list(self._books) for s in book.spans),
                        key=lambda s: s[4])
        return merged[:MAX_SPANS]

    def count(self, layer: str, name: str) -> int:
        """Calls made to one wrapped function."""
        return int(self.calls.get((layer, name), 0))

    def self_of(self, layer: str, name: str) -> float:
        """Summed self (CPU) time of one wrapped function."""
        return self._merged(2).get((layer, name), 0.0)

    def layer_table(self) -> list[tuple[str, float, int]]:
        """``(layer, self seconds, calls)`` rows, largest self time first."""
        calls: dict[str, int] = defaultdict(int)
        for (layer, _), n in self.calls.items():
            calls[layer] += int(n)
        rows = [(layer, s, calls[layer]) for layer, s in self.self_s.items()]
        return sorted(rows, key=lambda r: -r[1])

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (opens in ui.perfetto.dev)."""
        events = []
        tids: dict[int, int] = {}
        starts: dict[int, float] = {}
        for span_id, parent_id, layer, name, start, end, tid in self.spans:
            t = tids.setdefault(tid, len(tids) + 1)
            starts[span_id] = start
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": t,
                "ts": (start - self.t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": span_id, "parent": parent_id},
            })
        agg_tid = len(tids) + 1
        for (parent_id, layer, name), (n, total) in sorted(
            self.agg.items(), key=lambda kv: (kv[0][0] or 0, kv[0][1], kv[0][2])
        ):
            start = starts.get(parent_id, self.t0)
            events.append({
                "name": f"{name} x{n}", "cat": layer, "ph": "X", "pid": 1,
                "tid": agg_tid, "ts": (start - self.t0) * 1e6, "dur": total * 1e6,
                "args": {"parent": parent_id, "calls": n, "summed_s": total},
            })
        meta = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": agg_tid,
                 "args": {"name": "aggregated hot calls (summed time)"}}]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


class _Phase:
    def __init__(self, tracer: Tracer, layer: str, name: str) -> None:
        self.tracer = tracer
        self.layer = layer
        self.name = name
        self.frame: _Frame | None = None
        self.duration = 0.0

    def __enter__(self) -> "_Phase":
        self.frame = self.tracer._enter(self.layer, self.name, True)
        self.tracer._phase_frames.append(self.frame)
        return self

    def __exit__(self, *exc: object) -> None:
        assert self.frame is not None
        self.tracer._phase_frames.pop()
        self.duration = self.tracer._exit(self.frame)


class Patches:
    """Set attributes for the traced run and put the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner: Any, attr: str, layer: str,
             name: str | None = None, keep: bool = False) -> None:
        """Replace ``owner.attr`` by a traced wrapper of itself.

        Class attributes are read from ``__dict__`` so a ``classmethod``
        stays a ``classmethod``; module attributes are patched on the
        module whose globals the callers resolve at call time.
        """
        label = name or attr
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            value: Any = classmethod(tracer.wrap(raw.__func__, layer, label, keep))
        else:
            value = tracer.wrap(raw, layer, label, keep)
        self.set(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()
