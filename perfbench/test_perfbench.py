"""Self-tests of the benchmark: the tracer, and attribution of a slowdown.

Run from the root of the repository (not part of the tier-1 suite; the
whole file takes five to ten minutes on two cores)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Patches, Tracer  # noqa: E402

#: Busy-wait added to every planner call by the injected slowdown.
DELAY_S = 50e-6


def bound(metric: str) -> float:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


def delayed(fn, delay_s: float):
    """``fn`` with a busy-wait of ``delay_s`` before every call."""

    def slowed(*args, **kwargs):
        end = time.perf_counter() + delay_s
        while time.perf_counter() < end:
            pass
        return fn(*args, **kwargs)

    return slowed


def one_rep(name: str, tmp_path: Path, seconds: float, traced: bool, delay: float):
    """One repetition of a workload, optionally traced, optionally slowed.

    The slowdown is patched into the planner first, so the traced wrap
    installed on top of it puts the busy-wait inside the ``compile_plan``
    frame.  Returns the repetition's result and the tracer (``None``
    untraced).
    """
    import repro.sion.openspec as openspec

    tracer = Tracer() if traced else None
    ctx = wl.Context(7, seconds, tmp_path, tracer=tracer)
    with Patches() as patches:
        if delay:
            for attr in ("compile_write_plan", "compile_read_plan"):
                patches.set(openspec, attr, delayed(getattr(openspec, attr), delay))
        if traced:
            layers.install(tracer, patches)
        _, reps = run.measure(wl.WORKLOADS[name](), ctx, 0.0, min_reps=1, max_reps=1)
    return reps[0], tracer


# ---------------------------------------------------------------------------
# The tracer.


def burn(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_self_time_excludes_children_and_patches_restore():
    import repro.sion.openspec as openspec

    original = openspec.compile_write_plan
    tracer = Tracer()
    with Patches() as patches:
        patches.wrap(tracer, openspec, "compile_write_plan", "sion.openspec")
        assert openspec.compile_write_plan is not original
        child = tracer.wrap(lambda: burn(0.02), "inner", "child", keep=True)

        def body():
            child()
            burn(0.01)

        tracer.wrap(body, "outer", "body", keep=True)()
    assert openspec.compile_write_plan is original
    assert tracer.count("inner", "child") == 1
    assert tracer.self_of("inner", "child") == pytest.approx(0.02, abs=0.005)
    assert tracer.self_of("outer", "body") == pytest.approx(0.01, abs=0.005)
    events = tracer.chrome_trace()["traceEvents"]
    spans = {e["name"]: e for e in events if e["ph"] == "X"}
    assert spans["child"]["args"]["parent"] == spans["body"]["args"]["span"]


def test_concurrent_recording_loses_no_call():
    tracer = Tracer()
    work = tracer.wrap(lambda: None, "layer", "call", keep=False)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [work() for _ in range(5000)])
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert tracer.count("layer", "call") == 8 * 5000


# ---------------------------------------------------------------------------
# Attribution: a slowdown injected into the planner shows where it belongs.


def test_planner_slowdown_lands_in_openspec_and_ckpt_s(tmp_path):
    base, _ = one_rep("ckpt-16k", tmp_path, 0.0, traced=True, delay=0.0)
    slow, tracer = one_rep("ckpt-16k", tmp_path, 0.0, traced=True, delay=DELAY_S)
    added = tracer.count("sion.openspec", "compile_plan") * DELAY_S
    grew = (slow["tracer"]["metrics"]["sion.openspec.compile_self_s"]
            - base["tracer"]["metrics"]["sion.openspec.compile_self_s"])
    assert grew >= 0.8 * added, (grew, added)

    base_e2e, _ = one_rep("ckpt-16k", tmp_path, 0.0, traced=False, delay=0.0)
    slow_e2e, _ = one_rep("ckpt-16k", tmp_path, 0.0, traced=False, delay=DELAY_S)
    # The checkpoint world runs 4 of the 7 rank-body executions per rank.
    write_added = 0.4 * slow_e2e["executions"] * DELAY_S
    ckpt_grew = slow_e2e["named"]["ckpt_s"][0] - base_e2e["named"]["ckpt_s"][0]
    assert ckpt_grew >= 0.5 * write_added, (ckpt_grew, write_added)


@pytest.mark.parametrize("name, seconds", [("paper-fig4", 0.0), ("serve-zipf", 7.0)])
def test_planner_slowdown_leaves_other_workloads_alone(tmp_path, name, seconds):
    _, tracer = one_rep(name, tmp_path, seconds, traced=True, delay=DELAY_S)
    assert tracer.count("sion.openspec", "compile_plan") == 0
    # Alternate the two sides and compare their best runs, so that a slow
    # spell of the host during one run does not decide the outcome.
    runs: dict[float, list[float]] = {0.0: [], DELAY_S: []}
    for _ in range(2):
        for delay in runs:
            runs[delay].append(one_rep(name, tmp_path, seconds, traced=False,
                                       delay=delay)[0]["work_s"])
    assert min(runs[DELAY_S]) <= min(runs[0.0]) * (1 + bound("work_s")), runs
