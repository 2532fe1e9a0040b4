"""Where the traced run hooks into the library, and the per-layer metrics.

Layers are named after the modules that implement them.  Every hook
patches the attribute its callers resolve at call time:

* ``sion.openspec`` — the module globals ``compile_write_plan`` /
  ``compile_read_plan`` (``open_access`` looks them up on every open) and
  ``repro.sion.parallel.open_access`` (the name ``paropen`` calls);
* ``sion.format`` — ``Metablock1``/``Metablock2`` ``encode`` and
  ``decode_from`` on the classes;
* ``sion.readwrite`` — the handle methods ``fwrite``/``fread``/
  ``parclose`` of ``SionParallelFile`` and ``SionPartitionedReadFile``;
* ``backends`` — a timing ``RawFile`` proxy under a ``CountingBackend``;
* ``fs.cache`` — ``CachingRawFile.gather_read``;
* ``serve.gateway`` — ``ContainerHandle.read_range``/``read_task``;
* ``fs.flows`` — ``FlowScheduler.submit``, ``Engine.run`` and the
  ``parallel_io`` name ``repro.workloads.bandwidth`` calls.

``simmpi`` is timed around the benchmark's own ``run_spmd`` calls and
rank bodies.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Sequence

from repro.backends.base import Backend, RawFile
from repro.backends.instrument import DATA_READ_METHODS, DATA_WRITE_METHODS

from spans import Patches, Tracer

BACKEND = "backends"

#: Every per-layer metric, in the order BENCHMARK.json lists them.  Each
#: workload reports all of them; a layer the workload never enters reads 0.
PER_LAYER = (
    ("simmpi.executions_per_rank", "count"),
    ("simmpi.waves", "count"),
    ("simmpi.useful_exec_ratio", "ratio"),
    ("simmpi.collective_wait_s", "s"),
    ("simmpi.self_s", "s"),
    ("sion.openspec.compile_calls_per_rank", "count"),
    ("sion.openspec.compile_self_s", "s"),
    ("sion.openspec.open_self_s", "s"),
    ("sion.format.encode_calls", "count"),
    ("sion.format.decode_calls", "count"),
    ("sion.format.encode_s", "s"),
    ("sion.format.decode_s", "s"),
    ("sion.format.mb_bytes", "bytes"),
    ("sion.fwrite_calls", "count"),
    ("sion.fwrite_self_s", "s"),
    ("sion.fread_calls", "count"),
    ("sion.fread_self_s", "s"),
    ("sion.parclose_self_s", "s"),
    ("backends.data_write_calls", "count"),
    ("backends.data_read_calls", "count"),
    ("backends.fragments", "count"),
    ("backends.copies", "count"),
    ("backends.bytes_written", "bytes"),
    ("backends.bytes_read", "bytes"),
    ("backends.write_s", "s"),
    ("backends.read_s", "s"),
    ("backends.file_bytes_per_user_byte", "ratio"),
    ("fs.cache.hit_rate", "ratio"),
    ("fs.cache.evictions", "count"),
    ("fs.cache.fetch_bytes_per_served_byte", "ratio"),
    ("serve.gateway.service_ms_p50", "ms"),
    ("serve.gateway.service_ms_p99", "ms"),
    ("serve.gateway.queue_ms_p99", "ms"),
    ("serve.gateway.container_loads", "count"),
    ("fs.flows.submit_calls", "count"),
    ("fs.flows.parallel_io_calls", "count"),
    ("fs.flows.submit_s", "s"),
    ("fs.flows.run_s", "s"),
    ("bench.gen_late_ms_p99", "ms"),
    ("bench.littles_law_err", "ratio"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead_work_s", "s"),
    ("bench.trace_overhead_setup_s", "s"),
    ("bench.trace_overhead_peak_rss_mb", "MiB"),
)

#: Counts that must repeat exactly for the same code and seed.  They are
#: compared between the traced repetitions of one run and against the
#: previous run of the same source tree and seed.
EXACT = (
    "simmpi.waves",
    "sion.format.encode_calls",
    "sion.format.decode_calls",
    "sion.format.mb_bytes",
    "backends.data_write_calls",
    "backends.data_read_calls",
    "backends.fragments",
    "backends.copies",
    "backends.bytes_written",
    "backends.bytes_read",
    "fs.cache.evictions",
    "serve.gateway.container_loads",
    "fs.flows.submit_calls",
    "fs.flows.parallel_io_calls",
)


# ---------------------------------------------------------------------------
# The timing RawFile proxy (sits under CountingBackend).


class TimingRawFile(RawFile):
    """Times every call into a backend handle as a ``backends`` frame."""

    def __init__(self, inner: RawFile, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def _call(self, name: str, *args: Any) -> Any:
        frame = self._tracer._enter(BACKEND, name, False)
        try:
            return getattr(self._inner, name)(*args)
        finally:
            self._tracer._exit(frame)

    def _wrote(self, n: int) -> int:
        self._tracer.record("proxy_bytes_written", n)
        return n

    def _got(self, data: bytes) -> bytes:
        self._tracer.record("proxy_bytes_read", len(data))
        return data

    def _got_all(self, pieces: list[bytes]) -> list[bytes]:
        self._tracer.record("proxy_bytes_read", sum(len(p) for p in pieces))
        return pieces

    def seek(self, offset: int, whence: int = 0) -> int:
        return self._call("seek", offset, whence)

    def tell(self) -> int:
        return self._call("tell")

    def read(self, n: int = -1) -> bytes:
        return self._got(self._call("read", n))

    def write(self, data) -> int:
        return self._wrote(self._call("write", data))

    def write_zeros(self, n: int) -> int:
        n = self._call("write_zeros", n)
        self._tracer.record("proxy_zero_bytes", n)
        return n

    def truncate(self, size: int) -> None:
        self._call("truncate", size)

    def flush(self) -> None:
        self._call("flush")

    def close(self) -> None:
        self._call("close")

    def pwrite(self, offset: int, data) -> int:
        return self._wrote(self._call("pwrite", offset, data))

    def pread(self, offset: int, n: int) -> bytes:
        return self._got(self._call("pread", offset, n))

    def pwritev(self, offset: int, views: Sequence) -> int:
        return self._wrote(self._call("pwritev", offset, views))

    def preadv(self, offset: int, sizes: Sequence[int]) -> list[bytes]:
        return self._got_all(self._call("preadv", offset, sizes))

    def scatter_write(self, fragments) -> int:
        return self._wrote(self._call("scatter_write", list(fragments)))

    def gather_read(self, requests: Sequence) -> list[bytes]:
        return self._got_all(self._call("gather_read", requests))


class TimingBackend(Backend):
    """Backend decorator whose handles are :class:`TimingRawFile` proxies."""

    def __init__(self, inner: Backend, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def open(self, path: str, mode: str) -> RawFile:
        return TimingRawFile(self.inner.open(path, mode), self.tracer)

    def exists(self, path: str) -> bool:
        return self.inner.exists(path)

    def unlink(self, path: str) -> None:
        self.inner.unlink(path)

    def file_size(self, path: str) -> int:
        return self.inner.file_size(path)

    def stat_blocksize(self, path: str) -> int:
        return self.inner.stat_blocksize(path)

    def allocated_size(self, path: str) -> int:
        return self.inner.allocated_size(path)

    def identity_token(self, path: str) -> tuple:
        return self.inner.identity_token(path)


# ---------------------------------------------------------------------------
# Hooks.


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer's public functions; ``patches.restore()`` undoes it."""
    import repro.fs.events as events
    import repro.sion.openspec as openspec
    import repro.sion.parallel as parallel
    import repro.workloads.bandwidth as bandwidth
    from repro.backends.caching import CachingRawFile
    from repro.fs.flows import FlowScheduler
    from repro.serve.gateway import ContainerHandle
    from repro.sion.format import Metablock1, Metablock2

    for attr in ("compile_write_plan", "compile_read_plan"):
        patches.wrap(tracer, openspec, attr, "sion.openspec", "compile_plan")
    patches.wrap(tracer, parallel, "open_access", "sion.openspec", "open_access")

    for cls in (Metablock1, Metablock2):
        patches.set(cls, "encode", _encode_wrapper(tracer, cls.__dict__["encode"]))
        patches.wrap(tracer, cls, "decode_from", "sion.format", "decode", keep=True)

    from repro.sion.openspec import SionPartitionedReadFile
    from repro.sion.parallel import SionParallelFile

    patches.wrap(tracer, SionParallelFile, "fwrite", "sion.readwrite")
    for cls in (SionParallelFile, SionPartitionedReadFile):
        patches.wrap(tracer, cls, "fread", "sion.readwrite")
        patches.wrap(tracer, cls, "parclose", "sion.readwrite")

    patches.wrap(tracer, CachingRawFile, "gather_read", "fs.cache")
    for attr in ("read_range", "read_task"):
        patches.set(ContainerHandle, attr,
                    _service_wrapper(tracer, ContainerHandle.__dict__[attr], attr))

    patches.wrap(tracer, FlowScheduler, "submit", "fs.flows")
    patches.wrap(tracer, events.Engine, "run", "fs.flows", "engine_run", keep=True)
    patches.wrap(tracer, bandwidth, "parallel_io", "fs.flows", keep=True)


def _encode_wrapper(tracer: Tracer, fn):
    def encode(self):
        frame = tracer._enter("sion.format", "encode", True)
        try:
            out = fn(self)
        finally:
            tracer._exit(frame)
        tracer.record("mb_bytes", len(out))
        return out

    return encode


def _service_wrapper(tracer: Tracer, fn, name: str):
    """Time the gateway's synchronous core; keep each call's duration."""

    def service(self, *args):
        frame = tracer._enter("serve.gateway", name, False)
        t0 = time.perf_counter()
        try:
            return fn(self, *args)
        finally:
            tracer.last_service_s = time.perf_counter() - t0
            tracer._exit(frame)

    return service


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced repetition.


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0.0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, rep: dict) -> dict[str, float]:
    """Every per-layer metric of one repetition.

    ``rep`` carries what the workload saw outside the tracer: the engine
    stats of its worlds (``ranks``, ``executions``, ``waves``,
    ``collective_wait_s``), the ``CountingBackend`` snapshot, the cache
    and gateway snapshots, the user bytes it moved, the generator's
    health figures, the traced phase wall time and the rank-body count.
    """
    t = tracer
    m: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    ranks = rep.get("ranks", 0)
    execs = rep.get("executions", 0)
    if ranks:
        m["simmpi.executions_per_rank"] = execs / ranks
        m["simmpi.useful_exec_ratio"] = ranks / execs
        m["sion.openspec.compile_calls_per_rank"] = t.count("sion.openspec", "compile_plan") / ranks
    m["simmpi.waves"] = rep.get("waves", 0)
    m["simmpi.collective_wait_s"] = rep.get("collective_wait_s", 0.0)
    m["simmpi.self_s"] = t.self_s.get("simmpi", 0.0)
    m["sion.openspec.compile_self_s"] = t.self_of("sion.openspec", "compile_plan")
    m["sion.openspec.open_self_s"] = t.self_of("sion.openspec", "open_access")
    m["sion.format.encode_calls"] = t.count("sion.format", "encode")
    m["sion.format.decode_calls"] = t.count("sion.format", "decode")
    m["sion.format.encode_s"] = t.total_s.get(("sion.format", "encode"), 0.0)
    m["sion.format.decode_s"] = t.total_s.get(("sion.format", "decode"), 0.0)
    m["sion.format.mb_bytes"] = sum(t.values.get("mb_bytes", ()))
    m["sion.fwrite_calls"] = t.count("sion.readwrite", "fwrite")
    m["sion.fwrite_self_s"] = t.self_of("sion.readwrite", "fwrite")
    m["sion.fread_calls"] = t.count("sion.readwrite", "fread")
    m["sion.fread_self_s"] = t.self_of("sion.readwrite", "fread")
    m["sion.parclose_self_s"] = t.self_of("sion.readwrite", "parclose")

    io = rep.get("io")
    if io is not None:
        m["backends.data_write_calls"] = sum(t.count(BACKEND, x) for x in DATA_WRITE_METHODS)
        m["backends.data_read_calls"] = sum(t.count(BACKEND, x) for x in DATA_READ_METHODS)
        m["backends.fragments"] = io["fragments_written"] + io["fragments_read"]
        m["backends.copies"] = io["copied_fragments"]
        m["backends.bytes_written"] = io["bytes_written"]
        m["backends.bytes_read"] = io["bytes_read"]
        m["backends.write_s"] = sum(t.total_s.get((BACKEND, x), 0.0) for x in DATA_WRITE_METHODS)
        m["backends.read_s"] = sum(t.total_s.get((BACKEND, x), 0.0) for x in DATA_READ_METHODS)
        user = rep.get("user_bytes", 0)
        if user:
            m["backends.file_bytes_per_user_byte"] = (
                io["bytes_written"] + io["bytes_read"]) / user

    cache = rep.get("cache")
    if cache is not None:
        m["fs.cache.hit_rate"] = cache["hit_rate"]
        m["fs.cache.evictions"] = cache["evictions"]
        if rep.get("served_bytes"):
            m["fs.cache.fetch_bytes_per_served_byte"] = cache["bytes_fetched"] / rep["served_bytes"]
    service = rep.get("service_s", ())
    m["serve.gateway.service_ms_p50"] = percentile(service, 50) * 1e3
    m["serve.gateway.service_ms_p99"] = percentile(service, 99) * 1e3
    m["serve.gateway.queue_ms_p99"] = percentile(rep.get("queue_s", ()), 99) * 1e3
    m["serve.gateway.container_loads"] = rep.get("container_loads", 0)

    m["fs.flows.submit_calls"] = t.count("fs.flows", "submit")
    m["fs.flows.parallel_io_calls"] = t.count("fs.flows", "parallel_io")
    m["fs.flows.submit_s"] = t.total_s.get(("fs.flows", "submit"), 0.0)
    m["fs.flows.run_s"] = t.total_s.get(("fs.flows", "engine_run"), 0.0)

    m["bench.gen_late_ms_p99"] = rep.get("gen_late_ms_p99", 0.0)
    m["bench.littles_law_err"] = rep.get("littles_law_err", 0.0)
    m["bench.unattributed_s"] = rep["wall_s"] - sum(t.self_s.values())
    return m


def cross_check(tracer: Tracer, rep: dict) -> list[str]:
    """Disagreements between the wraps and the library's own counters."""
    errors = []
    store = rep.get("store")
    if store is not None:
        # The store's own byte accounting sits below every wrap, so a
        # data call that bypassed the proxy, or one it counted twice,
        # shows as a difference.
        values = tracer.values
        written = sum(values.get("proxy_bytes_written", ()))
        if store["zeros_written"]:
            written += sum(values.get("proxy_zero_bytes", ()))
        read = sum(values.get("proxy_bytes_read", ()))
        for label, mine in (("written", written), ("read", read)):
            if mine != store[label]:
                errors.append(f"timing proxy saw {mine} bytes {label}, "
                              f"the store accounted {store[label]}")
    if rep.get("ranks"):
        bodies = tracer.count("simmpi", "rank_execution")
        if bodies != rep["executions"]:
            errors.append(
                f"{bodies} traced rank-body executions, engine_stats {rep['executions']}"
            )
        if rep.get("opens_per_execution"):
            compiles = tracer.count("sion.openspec", "compile_plan")
            want = rep["executions"] * rep["opens_per_execution"]
            if compiles != want:
                errors.append(f"{compiles} planner calls, expected {want} "
                              "(one per open per rank-body execution)")
    return errors
