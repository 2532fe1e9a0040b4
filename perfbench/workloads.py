"""The four workloads: inputs from the seed, one timed unit, its checks.

Each workload has ``setup`` (timed, repeated), ``rep`` (one timed unit
of work, verified), and ``teardown``.  ``rep`` returns a dict with
``work_s`` (the gated end-to-end time), the workload's named metrics,
``attempted``/``failed`` operation counts, and the raw material the
traced run turns into per-layer metrics.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.backends.instrument import CountingBackend
from repro.backends.localfs import LocalBackend
from repro.backends.simfs_backend import SimBackend
from repro.fs.simfs import SimFS
from repro.simmpi import run_spmd
from repro.sion import paropen, serial
from repro.sion.mapping import ReadPartition, physical_path

from layers import TimingBackend, percentile

HERE = Path(__file__).resolve().parent
MB = 1e6
KiB = 1024


class Failure(Exception):
    """A wrong byte or a broken invariant: the run is not correct."""


class Context:
    """What a workload needs from the runner: seed, budget, tracer, tmp."""

    def __init__(self, seed: int, seconds: float, tmp_root: Path, tracer=None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tmp_root = tmp_root
        self.tracer = tracer
        self.counting: CountingBackend | None = None
        self.store = None
        self.world_io = (0, 0)

    def backend(self, inner):
        """``inner`` as shipped, or under CountingBackend + timing proxy."""
        if self.tracer is None:
            return inner
        self.store = inner
        if not isinstance(inner, SimBackend):
            # Each bulk-engine world reads sysfs when it sizes its pool
            # (os.cpu_count); the kernel counts that too.  Measure it on
            # an empty world so store_delta can take it out.
            before = kernel_io()
            run_spmd(1, lambda comm: None, engine="bulk")
            after = kernel_io()
            self.world_io = (after[0] - before[0], after[1] - before[1])
        self.counting = CountingBackend(TimingBackend(inner, self.tracer))
        return self.counting

    def store_bytes(self) -> dict | None:
        """Bytes the store itself has accounted so far (traced runs only).

        The count is independent of every wrap: SimFS's own data
        accounting, or for real files the kernel's per-process
        ``wchar``/``rchar``.  SimFS counts a sparse ``write_zeros`` as
        written bytes; the kernel sees no write for it.
        """
        if self.tracer is None:
            return None
        if isinstance(self.store, SimBackend):
            counts = self.store.fs.op_counts
            return {"written": counts.get("write_bytes", 0),
                    "read": counts.get("read_bytes", 0), "zeros_written": True}
        written, read = kernel_io()
        return {"written": written, "read": read, "zeros_written": False}

    def store_delta(self, before: dict | None, worlds: int) -> dict | None:
        """What the store accounted since ``before``, over ``worlds`` worlds."""
        if before is None:
            return None
        after = self.store_bytes()
        return dict(after,
                    written=after["written"] - before["written"] - worlds * self.world_io[0],
                    read=after["read"] - before["read"] - worlds * self.world_io[1])

    def span(self, layer: str, name: str):
        """A traced phase (a parent for the pool threads' calls), or nothing."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.phase(layer, name)

    def body(self, fn):
        """The rank body handed to ``run_spmd`` (timed when tracing)."""
        if self.tracer is None:
            return fn
        return self.tracer.wrap(fn, "simmpi", "rank_execution", False)

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])


#: Bytes this process has read from /proc/self/io itself; they are taken
#: out of ``rchar`` so that a difference counts only the store's reads.
_proc_io_read = 0


def kernel_io() -> tuple[int, int]:
    """``(wchar, rchar)`` of this process, without these reads' own bytes."""
    global _proc_io_read
    fd = os.open("/proc/self/io", os.O_RDONLY)
    try:
        text = os.read(fd, 4096)
    finally:
        os.close(fd)
    fields = dict(line.split(b":") for line in text.splitlines())
    rchar = int(fields[b"rchar"]) - _proc_io_read
    _proc_io_read += len(text)
    return int(fields[b"wchar"]), rchar


def reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def engine_info(stats_list: list[dict]) -> dict:
    """Sum the engine stats of the worlds one repetition ran."""
    ranks = sum(s["ranks"] for s in stats_list)
    execs = sum(s["executions"] for s in stats_list)
    waves = [w for s in stats_list for w in s["waves"]]
    if any(s.get("waves_dropped") for s in stats_list):
        raise Failure("engine wave log overflowed; wave counts are incomplete")
    return {
        "ranks": ranks,
        "executions": execs,
        "waves": len(waves),
        "collective_wait_s": sum(t_done - t_open for _, _, t_open, t_done in waves),
        "opens_per_execution": 1,
    }


# ---------------------------------------------------------------------------
# ckpt-16k: the paper's control plane (open -> one record -> close, restart).


class Ckpt16k:
    """16,384 bulk-engine tasks checkpoint 64 B each and restart from it."""

    NTASKS = 16384
    NFILES = 4
    CHUNK = 4096
    FSBLK = 4096
    REC = 64
    PATH = "/ckpt.sion"
    SETUP_REPS = 31
    #: One repetition (about 23 s on two cores) fills the run's time
    #: budget; a second would double the run.
    MAX_REPS = 1

    def setup(self, ctx: Context) -> dict:
        inner = SimBackend(SimFS(blocksize_override=self.FSBLK))
        blob = ctx.rng(1).bytes(self.NTASKS * self.REC)
        return {"inner": inner, "backend": ctx.backend(inner), "blob": blob,
                "digests": set()}

    def teardown(self, state: dict) -> None:
        state.clear()

    def geometry(self, filenum: int) -> tuple[int, int]:
        """Closed-form ``(start_of_data, metablock2_offset)`` of one file.

        Independent arithmetic: metablock 1 is a 56-byte header plus two
        u64 arrays and a u32 mapping kind; data starts at the next FS
        block, one aligned chunk per task.
        """
        nlocal = self.NTASKS // self.NFILES
        start = -(-(56 + 16 * nlocal + 4) // self.FSBLK) * self.FSBLK
        return start, start + nlocal * self.CHUNK

    def rep(self, ctx: Context, state: dict) -> dict:
        be, blob, rec = state["backend"], state["blob"], self.REC
        view = memoryview(blob)
        if ctx.counting is not None:
            ctx.counting.track_source(blob)

        def write(comm):
            f = paropen(self.PATH, "w", comm, chunksize=self.CHUNK, fsblksize=self.FSBLK,
                        nfiles=self.NFILES, backend=be)
            r = comm.rank
            f.fwrite(view[r * rec:(r + 1) * rec])
            f.parclose()
            return f.filenum, f.layout.start_of_data, f.mb1.metablock2_offset

        def restart(comm):
            f = paropen(self.PATH, "r", comm, backend=be)
            got = f.fread(rec)
            f.parclose()
            return got

        store = ctx.store_bytes()
        wstats: dict = {}
        t0 = time.perf_counter()
        with ctx.span("simmpi", "run_spmd checkpoint"):
            geo = run_spmd(self.NTASKS, ctx.body(write), engine="bulk", engine_stats=wstats)
        ckpt_s = time.perf_counter() - t0
        rstats: dict = {}
        t0 = time.perf_counter()
        with ctx.span("simmpi", "run_spmd restart"):
            records = run_spmd(self.NTASKS, ctx.body(restart), engine="bulk",
                               engine_stats=rstats)
        restart_s = time.perf_counter() - t0
        store = ctx.store_delta(store, worlds=2)

        wrong = 0
        for r, (filenum, start, mb2) in enumerate(geo):
            if filenum != r // (self.NTASKS // self.NFILES) or (start, mb2) != self.geometry(filenum):
                raise Failure(f"rank {r}: geometry ({filenum}, {start}, {mb2}) is not the "
                              f"closed form {self.geometry(r // (self.NTASKS // self.NFILES))}")
        for r, got in enumerate(records):
            if got != view[r * rec:(r + 1) * rec]:
                wrong += 1
        full, masked = self.fingerprints(state["inner"], blob)
        state["digests"].add(full)
        if len(state["digests"]) != 1:
            raise Failure("multifile sha256 differs between repetitions of one seed")
        if masked != reference()["ckpt-16k"]["masked_sha256"]:
            raise Failure(f"multifile sha256 with records masked is {masked}, "
                          f"reference {reference()['ckpt-16k']['masked_sha256']}")
        if wrong:
            raise Failure(f"{wrong} restart records differ from what was written")
        out = {
            "work_s": ckpt_s + restart_s,
            "named": {"ckpt_s": (ckpt_s, "s"), "restart_s": (restart_s, "s")},
            "attempted": 2 * self.NTASKS,
            "failed": 0,
            "user_bytes": 2 * len(blob),
            "sha256": full,
            "store": store,
        }
        out.update(engine_info([wstats, rstats]))
        return out

    def fingerprints(self, inner: SimBackend, blob: bytes) -> tuple[str, str]:
        """sha256 of the multifile, and of it with every record zeroed.

        Zeroing happens only after each record is found at its closed-form
        offset, so the masked digest pins every other byte (metablocks,
        padding, holes) to the reference recorded for any seed.
        """
        full = hashlib.sha256()
        masked = hashlib.sha256()
        nlocal = self.NTASKS // self.NFILES
        zero = bytes(self.REC)
        for f in range(self.NFILES):
            path = physical_path(self.PATH, f)
            size = inner.file_size(path)
            raw = inner.open(path, "rb")
            try:
                data = bytearray(raw.pread(0, size))
            finally:
                raw.close()
            header = b"file %d size %d\n" % (f, size)
            full.update(header)
            full.update(data)
            start, _ = self.geometry(f)
            for lrank in range(nlocal):
                off = start + lrank * self.CHUNK
                g = f * nlocal + lrank
                if data[off:off + self.REC] != blob[g * self.REC:(g + 1) * self.REC]:
                    raise Failure(f"rank {g}: record not at its closed-form offset {off}")
                data[off:off + self.REC] = zero
            masked.update(header)
            masked.update(data)
        return full.hexdigest(), masked.hexdigest()


# ---------------------------------------------------------------------------
# stream-local: the data plane on real files, m != n read back.


class StreamLocal:
    """64 writers x 1 MiB in 4,000 B records; 4 partitioned readers."""

    NTASKS = 64
    PER_TASK = 1 << 20
    REC = 4000
    NFILES = 2
    CHUNK = 16 * KiB
    FSBLK = 4 * KiB
    READERS = 4
    SETUP_REPS = 3

    def setup(self, ctx: Context) -> dict:
        tmp = Path(tempfile.mkdtemp(prefix="stream-", dir=ctx.tmp_root))
        blob = ctx.rng(2).bytes(self.NTASKS * self.PER_TASK)
        part = ReadPartition.balanced(self.NTASKS, self.READERS)
        expect = []
        for reader in range(self.READERS):
            ws = part.writers_of(reader)
            lo, hi = ws.start * self.PER_TASK, ws.stop * self.PER_TASK
            expect.append((hashlib.sha256(blob[lo:hi]).hexdigest(), hi - lo))
        return {"tmp": tmp, "blob": blob, "expect": expect,
                "backend": ctx.backend(LocalBackend()), "path": str(tmp / "stream.sion")}

    def teardown(self, state: dict) -> None:
        shutil.rmtree(state["tmp"], ignore_errors=True)
        state.clear()

    def rep(self, ctx: Context, state: dict) -> dict:
        be, path, blob = state["backend"], state["path"], state["blob"]
        per, rec = self.PER_TASK, self.REC
        if ctx.counting is not None:
            ctx.counting.track_source(blob)
        view = memoryview(blob)

        def write(comm):
            f = paropen(path, "w", comm, chunksize=self.CHUNK, fsblksize=self.FSBLK,
                        nfiles=self.NFILES, backend=be)
            mine = view[comm.rank * per:(comm.rank + 1) * per]
            for off in range(0, per, rec):
                f.fwrite(mine[off:off + rec])
            f.parclose()

        def read(comm):
            f = paropen(path, "r", comm, partitioned=True, backend=be)
            h = hashlib.sha256()
            n = 0
            while True:
                piece = f.fread(rec)
                if not piece:
                    break
                h.update(piece)
                n += len(piece)
            f.parclose()
            return h.hexdigest(), n

        store = ctx.store_bytes()
        wstats: dict = {}
        t0 = time.perf_counter()
        with ctx.span("simmpi", "run_spmd write"):
            run_spmd(self.NTASKS, ctx.body(write), engine="bulk", engine_stats=wstats)
        write_s = time.perf_counter() - t0
        rstats: dict = {}
        t0 = time.perf_counter()
        with ctx.span("simmpi", "run_spmd partitioned read"):
            got = run_spmd(self.READERS, ctx.body(read), engine="bulk", engine_stats=rstats)
        read_s = time.perf_counter() - t0
        store = ctx.store_delta(store, worlds=2)
        for f in range(self.NFILES):
            be.unlink(physical_path(path, f))
        wrong = sum(g != e for g, e in zip(got, state["expect"]))
        if wrong:
            raise Failure(f"{wrong} of {self.READERS} partitioned readers saw other bytes")
        nbytes = len(blob)
        out = {
            "work_s": write_s + read_s,
            "named": {"write_MBps": (nbytes / write_s / MB, "MB/s"),
                      "read_MBps": (nbytes / read_s / MB, "MB/s")},
            "attempted": self.NTASKS + self.READERS,
            "failed": 0,
            "user_bytes": 2 * nbytes,
            "store": store,
        }
        out.update(engine_info([wstats, rstats]))
        return out


# ---------------------------------------------------------------------------
# serve-zipf: the read gateway under open-loop arrivals.

#: Offered request rates (req/s), lowest first.  Constants: never
#: calibrated at run time, so every run and every commit sees the same
#: ladder.
LADDER = (1000, 2000, 4000, 6000, 8000, 10000, 12000)
#: p99 latency limit a rung must meet (ms), timed from each due time.
P99_LIMIT_MS = 20.0
#: Share of ``--seconds`` that the ladder takes; each rung lasts this
#: share over the number of rungs, but long enough for
#: ``MIN_RUNG_REQUESTS`` arrivals: with fewer, one stall of the host
#: weighs enough in a rung's means to fail Little's law.
LADDER_SHARE = 0.5
MIN_RUNG_REQUESTS = 3000
#: ``work_s`` comes from a closed loop: after each rung, seeded requests
#: are served back to back, and ``work_s`` is their summed service time
#: over their number, the mean time per request.  They are
#: ``CLOSED_SHARE`` x ``--seconds`` x ``CLOSED_RPS`` in all, a number
#: fixed by ``--seconds`` and not by the clock, so the cache counters
#: repeat exactly; ``CLOSED_RPS`` is a little below the rate at which one
#: core serves the mix.  The clock stops every ``CLOSED_BATCH`` requests
#: while their responses are checked.  Not a median of short timings: a
#: virtual CPU of a shared host runs in fast and slow spells of seconds,
#: and such a median jumps between them with the share of the run spent
#: in each, while the mean moves in proportion to that share.
CLOSED_SHARE = 0.45
CLOSED_RPS = 10000
CLOSED_BATCH = 500
#: Untimed requests that warm the cache before the ladder.
WARMUP_REQUESTS = 4000
#: Little's law tolerance on a rung that meets the limit (p99 within
#: ``P99_LIMIT_MS``, backlog not growing): the number in system seen by
#: arrivals may differ from rate x mean latency by this share of it, plus
#: an absolute slack of requests for the nearly empty system at low rates,
#: where few arrivals find anyone waiting.  An overloaded rung is left
#: out even when its backlog grows too little to be flagged: its queue is
#: in no steady state, and the arrivals do not see the drain after the
#: last of them, which rate x mean latency includes.
LITTLE_REL_TOL = 0.1
LITTLE_ABS_TOL = 0.05


class ServeZipf:
    """A sealed 4,096-writer container served from a 4x-too-small cache."""

    NTASKS = 4096
    PER_TASK = 16 * KiB
    NFILES = 4
    FSBLK = 4 * KiB
    CACHE_BYTES = 16 << 20
    CACHE_BLOCK = 64 * KiB
    RANGE = 4 * KiB
    ZIPF_S = 0.9
    RANGE_SHARE = 0.8
    SETUP_REPS = 5
    #: One ladder fills the run's time budget.
    MAX_REPS = 1

    def setup(self, ctx: Context) -> dict:
        from repro.serve.gateway import ReadGateway

        tmp = Path(tempfile.mkdtemp(prefix="serve-", dir=ctx.tmp_root))
        path = str(tmp / "served.sion")
        blob = ctx.rng(3).bytes(self.NTASKS * self.PER_TASK)
        be = ctx.backend(LocalBackend())
        view = memoryview(blob)
        f = serial.open(path, "w", chunksizes=[self.PER_TASK] * self.NTASKS,
                        fsblksize=self.FSBLK, nfiles=self.NFILES, backend=be)
        for r in range(self.NTASKS):
            f.seek(r)
            f.fwrite(view[r * self.PER_TASK:(r + 1) * self.PER_TASK])
        f.close()
        gw = ReadGateway(be, cache_bytes=self.CACHE_BYTES, cache_block=self.CACHE_BLOCK)
        gw.open_container(path)
        return {"tmp": tmp, "path": path, "blob": blob, "gw": gw}

    def teardown(self, state: dict) -> None:
        state["gw"].close()
        shutil.rmtree(state["tmp"], ignore_errors=True)
        state.clear()

    def requests(self, ctx: Context, rung: int, rate: int, duration: float):
        """Seeded Poisson arrivals with Zipf(0.9) rank popularity."""
        rng = ctx.rng(100 + rung)
        n = int(rate * duration)
        due = np.cumsum(rng.exponential(1.0 / rate, n))
        weights = 1.0 / np.arange(1, self.NTASKS + 1) ** self.ZIPF_S
        popular = rng.permutation(self.NTASKS)
        ranks = popular[rng.choice(self.NTASKS, size=n, p=weights / weights.sum())]
        ranged = rng.random(n) < self.RANGE_SHARE
        offsets = rng.integers(0, self.PER_TASK - self.RANGE + 1, n)
        return due, ranks.tolist(), ranged.tolist(), offsets.tolist()

    def rep(self, ctx: Context, state: dict) -> dict:
        rung_s = LADDER_SHARE * ctx.seconds / len(LADDER)
        gw = state["gw"]
        # Every repetition starts from the same cache state: emptied, then
        # warmed by the same seeded requests (untimed), so the lowest rung
        # does not measure a cold start and the counts repeat exactly.
        gw.cache.clear()
        store = ctx.store_bytes()
        with ctx.span("bench", "cache warm-up"):
            warm_bytes = asyncio.run(self._warm(ctx, state))
        before = gw.cache.snapshot()
        per_rung = CLOSED_SHARE * ctx.seconds * CLOSED_RPS / len(LADDER)
        closed_n = CLOSED_BATCH * max(1, round(per_rung / CLOSED_BATCH))
        rungs = []
        closed = {"n": 0, "failed": 0, "wrong": 0, "bytes": 0, "busy_s": 0.0}
        for i, rate in enumerate(LADDER):
            with ctx.span("bench", f"rung {rate} req/s"):
                rungs.append(asyncio.run(self._rung(
                    ctx, state, i, rate, max(rung_s, MIN_RUNG_REQUESTS / rate))))
            with ctx.span("bench", "closed loop"):
                part = asyncio.run(self._closed(ctx, state, i, closed_n))
            for key, value in part.items():
                closed[key] += value
        store = ctx.store_delta(store, worlds=0)
        after = gw.cache.snapshot()
        cache = {k: after[k] - before[k] for k in ("lookups", "hits", "evictions",
                                                     "bytes_fetched")}
        cache["hit_rate"] = cache["hits"] / cache["lookups"] if cache["lookups"] else 0.0
        passing = [r for r in rungs if r["p99_ms"] <= P99_LIMIT_MS and not r["backlog_grows"]]
        broken = [r for r in passing if not r["littles_ok"]]
        if broken:
            raise Failure("Little's law does not hold at " + ", ".join(
                f"{r['rate']} req/s (arrivals saw {r['littles_L']:.3f} in system, "
                f"rate x mean latency {r['littles_lw']:.3f})" for r in broken))
        low = rungs[0]
        max_rps = max((r["rate"] for r in passing), default=0)
        snap = gw.snapshot()
        failed = sum(r["failed"] for r in rungs) + closed["failed"]
        wrong = sum(r["wrong"] for r in rungs) + closed["wrong"]
        if wrong:
            raise Failure(f"{wrong} gateway responses differ from the written bytes")
        return {
            "work_s": closed["busy_s"] / closed["n"],
            "named": {
                "serve_p50_ms": (low["p50_ms"], "ms"),
                "serve_p99_ms": (low["p99_ms"], "ms"),
                "serve_max_rps": (max_rps, "req/s"),
            },
            "attempted": sum(r["n"] for r in rungs) + closed["n"],
            "failed": failed,
            "rungs": rungs,
            "cache": cache,
            "store": store,
            "container_loads": snap["containers_opened"],
            "served_bytes": sum(r["bytes"] for r in rungs) + closed["bytes"],
            "user_bytes": warm_bytes + sum(r["bytes"] for r in rungs) + closed["bytes"],
            # The service/queue split and the generator's lateness are
            # taken where serve_p50_ms/serve_p99_ms are; Little's law must
            # hold on every rung that meets the limit.
            "service_s": low.pop("service_s"),
            "queue_s": low.pop("queue_s"),
            "gen_late_ms_p99": low["late_ms_p99"],
            "littles_law_err": max((r["littles_err"] for r in passing), default=0.0),
        }

    async def _warm(self, ctx: Context, state: dict) -> int:
        """Untimed seeded requests; returns the bytes they read."""
        _, ranks, ranged, offsets = self.requests(ctx, 99, WARMUP_REQUESTS, 1.0)
        gw, path = state["gw"], state["path"]
        nbytes = 0
        for rank, is_range, off in zip(ranks, ranged, offsets):
            if is_range:
                nbytes += len(await gw.read_range(path, rank, off, self.RANGE))
            else:
                nbytes += len(await gw.read_task(path, rank))
        return nbytes

    async def _rung(self, ctx: Context, state: dict, index: int, rate: int,
                    duration: float) -> dict:
        gw, path, blob, per = state["gw"], state["path"], state["blob"], self.PER_TASK
        due, ranks, ranged, offsets = self.requests(ctx, index, rate, duration)
        n = len(ranks)
        tracer = ctx.tracer
        clock = time.perf_counter
        done_at = [float("inf")] * n
        service: list[float] = []
        queue: list[float] = []
        late: list[float] = []
        tally = {"failed": 0, "wrong": 0, "bytes": 0}
        pending: set = set()

        async def one(i: int, t_due: float) -> None:
            rank = ranks[i]
            try:
                if ranged[i]:
                    off = offsets[i]
                    got = await gw.read_range(path, rank, off, self.RANGE)
                    want = blob[rank * per + off:rank * per + off + self.RANGE]
                else:
                    got = await gw.read_task(path, rank)
                    want = blob[rank * per:(rank + 1) * per]
            except Exception:  # noqa: BLE001 - a refused request is a failure
                tally["failed"] += 1
                return
            done_at[i] = clock()
            if tracer is not None:
                service.append(tracer.last_service_s)
                queue.append(done_at[i] - t_due - tracer.last_service_s)
            if got != want:
                tally["wrong"] += 1
            tally["bytes"] += len(got)

        start = clock() + 0.001
        due_abs = (start + due).tolist()
        issued = 0
        while issued < n:
            now = clock()
            if due_abs[issued] > now:
                # Spin on sleep(0) rather than sleep until the due time: the
                # loop's timers have millisecond grain, and an idle CPU of a
                # virtual machine can take milliseconds more to wake up, which
                # would show as generator lateness at the low rates.
                await asyncio.sleep(0)
                continue
            while issued < n and due_abs[issued] <= now:
                late.append(now - due_abs[issued])
                task = asyncio.create_task(one(issued, due_abs[issued]))
                pending.add(task)
                task.add_done_callback(pending.discard)
                issued += 1
        if pending:
            await asyncio.gather(*pending)
        latency = [d - t for d, t in zip(done_at, due_abs)]
        finished = [x for x in latency if x != float("inf")]
        found = in_system_at_arrival(due_abs, done_at)
        window = due_abs[-1] - start if n else duration
        lam_w = (n / window) * (statistics.fmean(finished) if finished else 0.0)
        seen = statistics.fmean(found) if found else 0.0
        thirds = [found[k * n // 3:(k + 1) * n // 3] or [0] for k in range(3)]
        first, last = statistics.fmean(thirds[0]), statistics.fmean(thirds[2])
        return {
            "rate": rate,
            "n": n,
            "p50_ms": percentile(finished, 50) * 1e3,
            "p99_ms": percentile(latency, 99) * 1e3,
            "late_ms_p99": percentile(late, 99) * 1e3,
            "littles_err": abs(seen - lam_w) / max(lam_w, 1e-9),
            "littles_L": seen,
            "littles_lw": lam_w,
            "littles_ok": abs(seen - lam_w) <= LITTLE_REL_TOL * lam_w + LITTLE_ABS_TOL,
            "backlog_first": first,
            "backlog_last": last,
            "backlog_grows": last > 2 * first + 2,
            "failed": tally["failed"],
            "wrong": tally["wrong"],
            "bytes": tally["bytes"],
            "service_s": service,
            "queue_s": queue,
        }

    async def _closed(self, ctx: Context, state: dict, index: int, n: int) -> dict:
        """``n`` seeded requests back to back; ``busy_s`` is their summed time.

        Requests are timed a batch at a time, and a batch's responses are
        checked after the clock stops.
        """
        gw, path, blob, per = state["gw"], state["path"], state["blob"], self.PER_TASK
        _, ranks, ranged, offsets = self.requests(ctx, 200 + index, n, 1.0)
        clock = time.perf_counter
        out = {"n": n, "failed": 0, "wrong": 0, "bytes": 0, "busy_s": 0.0}
        for lo in range(0, n, CLOSED_BATCH):
            batch = range(lo, min(lo + CLOSED_BATCH, n))
            got: list = []
            t0 = clock()
            for i in batch:
                try:
                    if ranged[i]:
                        got.append(await gw.read_range(path, ranks[i], offsets[i], self.RANGE))
                    else:
                        got.append(await gw.read_task(path, ranks[i]))
                except Exception:  # noqa: BLE001 - a refused request is a failure
                    got.append(None)
            out["busy_s"] += clock() - t0
            for i, data in zip(batch, got):
                if data is None:
                    out["failed"] += 1
                    continue
                start = ranks[i] * per + (offsets[i] if ranged[i] else 0)
                if data != blob[start:start + (self.RANGE if ranged[i] else per)]:
                    out["wrong"] += 1
                out["bytes"] += len(data)
        return out


def in_system_at_arrival(due: list[float], done: list[float]) -> list[int]:
    """Requests still in the system at each arrival (due, not yet done).

    With Poisson arrivals the mean of these counts is the time-average
    number in system (PASTA), which Little's law ties to rate x mean
    latency; a rung whose counts climb has a growing backlog.
    """
    import heapq

    heap: list[float] = []
    out = []
    for t, d in zip(due, done):
        while heap and heap[0] <= t:
            heapq.heappop(heap)
        out.append(len(heap))
        heapq.heappush(heap, d)
    return out


# ---------------------------------------------------------------------------
# paper-fig4: the flow model behind Fig. 4a.


class PaperFig4:
    """``run_fig4a(jugene())``: 65,536 tasks, 1 TB, 1-128 files."""

    SETUP_REPS = 101
    #: Three sweeps of about 11 s each.  ``--seconds`` is long enough for
    #: serve-zipf's ladder plus its closed loop; here a fourth or fifth
    #: sweep would only lengthen every run.
    MAX_REPS = 3

    def setup(self, ctx: Context) -> dict:
        from repro.fs.systems import jugene

        return {"profile": jugene()}

    def teardown(self, state: dict) -> None:
        state.clear()

    def rep(self, ctx: Context, state: dict) -> dict:
        from repro.workloads.bandwidth import run_fig4a

        t0 = time.perf_counter()
        pts = run_fig4a(state["profile"])
        model_s = time.perf_counter() - t0
        ref = reference()["paper-fig4"]
        got = {}
        for p in pts:
            got[f"write[#files={p.nfiles}]"] = p.write_mb_s
            got[f"read[#files={p.nfiles}]"] = p.read_mb_s
        wrong = [k for k in ref if got.get(k) != ref[k]]
        if wrong or len(got) != len(ref):
            raise Failure(f"Fig. 4a curve differs from the smoke baseline at {wrong}")
        return {
            "work_s": model_s,
            "named": {"model_s": (model_s, "s")},
            "attempted": len(ref),
            "failed": 0,
        }


WORKLOADS = {
    "ckpt-16k": Ckpt16k,
    "stream-local": StreamLocal,
    "serve-zipf": ServeZipf,
    "paper-fig4": PaperFig4,
}


def new_tmp_root(root: Path) -> Path:
    """A private scratch directory under the checkout."""
    base = root / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base))
