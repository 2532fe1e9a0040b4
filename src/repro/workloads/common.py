"""Shared machinery for the bandwidth experiments.

:func:`parallel_io` turns a symmetric "N tasks move D bytes through F
files" scenario into a fluid-flow simulation over the machine profile's
resources:

* one *client* resource capping what the compute side can push
  (per-task link x I/O-node fan-in);
* one *backplane* resource for the file servers, reduced by per-file
  token/metadata traffic;
* per-file caps (GPFS token manager) or shared OST resources (Lustre
  striping), depending on the profile's file-system type;
* optional false-sharing inflation (Table 1) and stripe-depth efficiency.

The tasks are symmetric, so the simulation submits one flow class per
distinct path, not one flow per task: a file's tasks share its path, and
files with identical weighted paths (all task-local GPFS files, Lustre
files on the same OST set) share one class.

All experiments funnel through this one function, so the figures differ
only in the scenario parameters — exactly how the paper's measurement
campaigns were structured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.fs.events import Engine
from repro.fs.flows import FlowScheduler, Resource, path_key
from repro.fs.striping import StripingPolicy
from repro.fs.systems import SystemProfile
from repro.sion.mapping import TaskMapping

MB = 10**6


@dataclass
class IOResult:
    """Outcome of one simulated parallel transfer."""

    op: str
    ntasks: int
    nfiles: int
    total_mb: float
    time_s: float
    bandwidth_mb_s: float
    cached_bandwidth_mb_s: float | None = None

    @property
    def effective_bandwidth(self) -> float:
        """Cache-adjusted bandwidth when applicable, raw otherwise."""
        return (
            self.cached_bandwidth_mb_s
            if self.cached_bandwidth_mb_s is not None
            else self.bandwidth_mb_s
        )


def parallel_io(
    profile: SystemProfile,
    ntasks: int,
    total_bytes: float,
    op: str = "write",
    nfiles: int = 1,
    striping: StripingPolicy | None = None,
    chunk_align_bytes: int | None = None,
    tasklocal: bool = False,
    use_cache: bool = False,
    rate_cap_per_task: float | None = None,
    seed: int = 0,
) -> IOResult:
    """Simulate ``ntasks`` symmetric tasks transferring ``total_bytes``.

    ``tasklocal=True`` models one physical file per task (no shared-file
    caps, per-file presence overhead on the backplane); otherwise the
    tasks share ``nfiles`` SION physical files (blocked mapping).

    ``chunk_align_bytes`` smaller than the true FS block size inflates the
    transfer via the profile's lock-contention model (GPFS false sharing).
    ``use_cache`` post-processes reads through the client-cache model
    (Jaguar's >peak artifact).  ``rate_cap_per_task`` overrides the
    client-link cap (used to model per-task compression throughput).
    """
    if op not in ("write", "read"):
        raise ReproError(f"op must be 'write' or 'read', got {op!r}")
    if ntasks < 1 or total_bytes < 0:
        raise ReproError("need >= 1 task and non-negative bytes")
    if tasklocal:
        nfiles = ntasks
    if nfiles < 1 or nfiles > ntasks:
        raise ReproError(f"nfiles {nfiles} invalid for {ntasks} tasks")

    per_task_mb = (total_bytes / ntasks) / MB

    # False-sharing inflation: serialized lock handoffs stretch the
    # transfer exactly like extra bytes on the wire.
    if chunk_align_bytes is not None and not tasklocal:
        k = profile.lock_model.sharers_per_block(
            chunk_align_bytes, profile.fs_block_size
        )
        penalty = (
            profile.lock_model.write_penalty(k)
            if op == "write"
            else profile.lock_model.read_penalty(k)
        )
        per_task_mb *= penalty

    # Shared resources.
    clients = Resource("clients", profile.aggregate_client_bw(ntasks))
    backplane = Resource(
        "backplane",
        profile.backplane_after_overheads(
            op,
            n_shared_files=0 if tasklocal else nfiles,
            n_tasklocal_files=ntasks if tasklocal else 0,
        ),
    )
    rate_cap = (
        rate_cap_per_task
        if rate_cap_per_task is not None
        else profile.client_bw_per_task
    )

    file_resources = _file_resources(
        profile, nfiles, op, striping, tasklocal, seed
    )

    # Tasks -> files, blocked (the SION default); task-local is identity.
    # Files with identical weighted paths pool their tasks into one class.
    counts = TaskMapping.blocked(ntasks, nfiles).file_counts().tolist()
    classes: dict[tuple, list] = {}
    for fres, n in zip(file_resources, counts):
        path = (clients, backplane, *fres)
        classes.setdefault(path_key(path), [path, 0])[1] += n

    engine = Engine()
    sched = FlowScheduler(engine)
    with sched.batch():
        flows = [
            sched.submit(per_task_mb, path, rate_cap=rate_cap, count=n)
            for path, n in classes.values()
        ]
    engine.run()
    if sched.active_flows:
        raise ReproError("transfer stalled: a resource has zero capacity")
    time_s = max((f.finish_time for f in flows), default=0.0)
    total_mb = total_bytes / MB
    bw = total_mb / time_s if time_s > 0 else math.inf

    cached_bw: float | None = None
    if use_cache and op == "read":
        cached_bw = profile.cache_model.effective_read_bandwidth(
            bw, total_bytes, profile.n_nodes(ntasks)
        )
    return IOResult(
        op=op,
        ntasks=ntasks,
        nfiles=nfiles,
        total_mb=total_mb,
        time_s=time_s,
        bandwidth_mb_s=bw,
        cached_bandwidth_mb_s=cached_bw,
    )


def _file_resources(
    profile: SystemProfile,
    nfiles: int,
    op: str,
    striping: StripingPolicy | None,
    tasklocal: bool,
    seed: int,
) -> list[tuple]:
    """Per-file weighted resource tuples: GPFS token caps or Lustre OST sets.

    A striped file spreads each flow's bytes evenly over its stripe
    targets, so every OST carries ``1/stripe_count`` of the flow's rate —
    hence the fractional weights.
    """
    if profile.fs_type == "gpfs":
        if tasklocal:
            # Single-writer files: the token manager never arbitrates.
            return [() for _ in range(nfiles)]
        cap = profile.per_file_bw(op)
        return [(Resource(f"file{f}", cap),) for f in range(nfiles)]

    # Lustre: files stripe over OSTs; OSTs are the shared hardware.  The
    # allocator hands out targets round-robin from a moving cursor (plus a
    # seeded initial offset), so placements are collision-free until the
    # target pool wraps — matching Lustre's QOS allocator behaviour.
    pol = striping or profile.default_striping
    per_target = (
        profile.target_write_bw if op == "write" else profile.target_read_bw
    )
    osts = [
        Resource(f"ost{i}", per_target) for i in range(profile.n_targets)
    ]
    start = int(np.random.default_rng(seed).integers(0, profile.n_targets))
    out: list[tuple] = []
    stripe = min(pol.stripe_count, profile.n_targets)
    # Each payload byte spreads over `stripe` targets (1/stripe), and small
    # stripe depths burn extra OST service time on per-RPC overhead
    # (1/depth_efficiency) — overhead that never crosses the server
    # backplane as payload.
    weight = (1.0 / stripe) / pol.depth_efficiency()
    cursor = start
    for _ in range(nfiles):
        chosen = tuple(
            (osts[(cursor + k) % profile.n_targets], weight) for k in range(stripe)
        )
        out.append(chosen)
        cursor = (cursor + stripe) % profile.n_targets
    return out
