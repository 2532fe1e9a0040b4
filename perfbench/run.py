"""Run one benchmark workload and print its metrics.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload ckpt-16k --seed 1 --seconds 45 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` the run
measures untraced first, then repeats the workload with every layer's
public functions wrapped and reports the per-layer metrics.  Details,
the Chrome trace and the per-layer self-time table go to
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

END_TO_END = (("setup_s", "s"), ("work_s", "s"), ("peak_rss_mb", "MiB"))
#: Traced repetitions per traced run (the exact counters are compared
#: between them).
TRACED_REPS = 2


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim  # glibc
except (OSError, AttributeError):
    _malloc_trim = None


def release_memory() -> None:
    """Collect garbage and hand the freed heap back to the OS.

    Called before every set-up and repetition, so each one starts from a
    trimmed heap: the peak resident set then shows one repetition's
    footprint, not how many repetitions fitted in the time budget (glibc
    otherwise keeps freed buffers in the pool threads' arenas, and the
    resident set climbs with every round).
    """
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (``VmHWM``)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def source_digest() -> str:
    """sha256 over the library sources and the benchmark's own files."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(workload, ctx, seconds: float, min_reps: int, max_reps: int | None = None):
    """Set up ``SETUP_REPS`` times, then run reps for ``seconds``."""
    setups = []
    state = None
    for i in range(workload.SETUP_REPS):
        release_memory()
        t0 = time.perf_counter()
        state = workload.setup(ctx)
        setups.append(time.perf_counter() - t0)
        if i + 1 < workload.SETUP_REPS:
            workload.teardown(state)
    reps = []
    t_start = time.perf_counter()
    try:
        while len(reps) < min_reps or (
            time.perf_counter() - t_start < seconds
            and (max_reps is None or len(reps) < max_reps)
        ):
            release_memory()
            if ctx.tracer is not None:
                ctx.tracer.reset()
                before = ctx.counting.snapshot() if ctx.counting is not None else None
                with ctx.tracer.phase("bench", "repetition") as ph:
                    rep = workload.rep(ctx, state)
                rep["wall_s"] = ph.duration
                if before is not None:
                    after = ctx.counting.snapshot()
                    rep["io"] = {k: after[k] - before[k] for k in after}
                rep["tracer"] = snapshot_tracer(ctx.tracer, rep)
            else:
                rep = workload.rep(ctx, state)
            reps.append(rep)
    finally:
        workload.teardown(state)
    return setups, reps


def snapshot_tracer(tracer, rep: dict) -> dict:
    from layers import cross_check, layer_metrics

    return {
        "metrics": layer_metrics(tracer, rep),
        "errors": cross_check(tracer, rep),
        "table": tracer.layer_table(),
    }


def median_over(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import numpy  # noqa: F401
        import repro  # noqa: F401
        from repro.simmpi.runner import default_bulk_nworkers
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tmp_root = wl.new_tmp_root(ROOT)
    workload = wl.WORKLOADS[args.workload]()
    stem = f"{args.workload}-seed{args.seed}"
    provenance = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "bulk_nworkers": default_bulk_nworkers(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    detail: dict = {"provenance": provenance}
    problems: list[str] = []
    try:
        ctx = wl.Context(args.seed, args.seconds, tmp_root)
        setups, reps = measure(workload, ctx, args.seconds, min_reps=1,
                               max_reps=getattr(workload, "MAX_REPS", None))
        e2e = {
            "setup_s": statistics.median(setups),
            "work_s": median_over(reps, "work_s"),
            "peak_rss_mb": peak_rss_mb(),
        }
        detail["untraced"] = summarize(setups, reps, e2e)
        result["attempted"] = sum(r["attempted"] for r in reps)
        result["failed"] = sum(r["failed"] for r in reps)
        if args.trace:
            per_layer, traced = traced_run(workload, args, tmp_root, e2e, out_dir, stem,
                                           provenance, problems)
            detail["traced"] = traced
            result["metrics"] = per_layer
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
        else:
            result["metrics"] = {name: {"value": e2e[name], "unit": unit}
                                 for name, unit in END_TO_END}
    except wl.Failure as exc:
        problems.append(str(exc))
    except Exception as exc:  # noqa: BLE001 - a failed world is reported, not hidden
        import traceback

        traceback.print_exc()
        problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_root.parent.rmdir()
        except OSError:
            pass
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} operations failed")
    result["correct"] = not problems
    detail["problems"] = problems
    detail["result"] = result
    (out_dir / f"{stem}-trace{args.trace}-result.json").write_text(
        json.dumps(detail, indent=1, default=str))
    report(args, provenance, detail, problems)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def summarize(setups: list[float], reps: list[dict], e2e: dict) -> dict:
    """Named metrics: median, sample count and a tail where it has support."""
    named: dict = {}
    for key in reps[0]["named"]:
        vals = sorted(r["named"][key][0] for r in reps)
        entry = {"median": statistics.median(vals), "unit": reps[0]["named"][key][1],
                 "samples": len(vals)}
        tail = tail_percentile(len(vals))
        if tail:
            entry[f"p{tail}"] = statistics.quantiles(vals, n=100, method="inclusive")[tail - 1]
        named[key] = entry
    out = {"end_to_end": e2e, "setup_samples": setups, "named": named,
           "work_samples": [r["work_s"] for r in reps]}
    if "rungs" in reps[0]:
        out["rungs"] = [r["rungs"] for r in reps]
    return out


def tail_percentile(n: int) -> int | None:
    """Highest of p90/p99 with at least ten samples beyond it."""
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def traced_run(workload, args, tmp_root, e2e, out_dir, stem, provenance, problems):
    from layers import EXACT, PER_LAYER, install
    from spans import Patches, Tracer

    import workloads as wl

    tracer = Tracer()
    ctx = wl.Context(args.seed, args.seconds, tmp_root, tracer=tracer)
    with Patches() as patches:
        install(tracer, patches)
        setups, reps = measure(workload, ctx, 0.0, min_reps=TRACED_REPS, max_reps=TRACED_REPS)
    layer_reps = [r["tracer"]["metrics"] for r in reps]
    for r in reps:
        problems.extend(r["tracer"]["errors"])
    for name in EXACT:
        vals = {m[name] for m in layer_reps}
        if len(vals) != 1:
            problems.append(f"exact counter {name} differs between repetitions: {sorted(vals)}")
    exact_now = {name: layer_reps[0][name] for name in EXACT}
    record = out_dir / f"{stem}-exact.json"
    if record.exists():
        prev = json.loads(record.read_text())
        if prev.get("source_sha256") == provenance["source_sha256"]:
            for name, value in exact_now.items():
                if prev["exact"].get(name) != value:
                    problems.append(f"exact counter {name} is {value}; the previous run "
                                    f"of this code and seed saw {prev['exact'].get(name)}")
    record.write_text(json.dumps({"source_sha256": provenance["source_sha256"],
                                  "exact": exact_now}, indent=1))

    per_layer = {}
    for name, unit in PER_LAYER:
        per_layer[name] = {"value": statistics.median(m[name] for m in layer_reps),
                           "unit": unit}
    traced_work = median_over(reps, "work_s")
    per_layer["bench.trace_overhead_work_s"]["value"] = traced_work - e2e["work_s"]
    per_layer["bench.trace_overhead_setup_s"]["value"] = (
        statistics.median(setups) - e2e["setup_s"])
    per_layer["bench.trace_overhead_peak_rss_mb"]["value"] = peak_rss_mb() - e2e["peak_rss_mb"]

    tracer.write_chrome_trace(str(out_dir / f"{stem}-chrome-trace.json"))
    last = reps[-1]
    lines = [f"per-layer self time, last traced repetition of {args.workload} "
             f"(wall {last['wall_s']:.3f} s)",
             f"{'layer':<16} {'self_s':>10} {'share':>7} {'calls':>10}"]
    for layer, self_s, calls in last["tracer"]["table"]:
        lines.append(f"{layer:<16} {self_s:10.4f} {self_s / last['wall_s']:7.1%} {calls:10d}")
    unattributed = last["wall_s"] - sum(row[1] for row in last["tracer"]["table"])
    lines.append(f"{'unattributed':<16} {unattributed:10.4f} "
                 f"{unattributed / last['wall_s']:7.1%}")
    (out_dir / f"{stem}-layers.txt").write_text("\n".join(lines) + "\n")
    traced = {
        "per_layer_reps": layer_reps,
        "work_samples": [r["work_s"] for r in reps],
        "setup_samples": setups,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "layer_table": "\n".join(lines),
    }
    return per_layer, traced


def report(args, provenance, detail, problems) -> None:
    """Human-readable lines before the JSON result."""
    p = provenance
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"sha={p['git_sha'][:12]} src={p['source_sha256'][:12]} cpus={p['cpu_count']} "
          f"python={p['python']} bulk_nworkers={p['bulk_nworkers']}")
    untraced = detail.get("untraced")
    if untraced:
        for name, unit in END_TO_END:
            print(f"  {name:<14} {untraced['end_to_end'][name]:.6g} {unit}")
        for name, entry in untraced["named"].items():
            tail = "".join(f" {k}={v:.6g}" for k, v in entry.items() if k.startswith("p"))
            print(f"  {name:<14} {entry['median']:.6g} {entry['unit']} "
                  f"(median of {entry['samples']}{tail})")
        attempted = detail["result"]["attempted"]
        print(f"  failed_frac    {detail['result']['failed'] / max(attempted, 1):.6g} ratio "
              f"({detail['result']['failed']} of {attempted})")
        for rungs in untraced.get("rungs", [])[:1]:
            for r in rungs:
                print(f"  rung {r['rate']:>5} req/s: p50 {r['p50_ms']:.3f} ms p99 "
                      f"{r['p99_ms']:.3f} ms late_p99 {r['late_ms_p99']:.3f} ms "
                      f"little_err {r['littles_err']:.3f} backlog "
                      f"{r['backlog_first']:.1f}->{r['backlog_last']:.1f}"
                      f"{' GROWS' if r['backlog_grows'] else ''}")
    traced = detail.get("traced")
    if traced:
        print(traced["layer_table"])
    for msg in problems:
        print(f"  FAILED: {msg}")


if __name__ == "__main__":
    sys.exit(main())
