"""Vectored sub-world collectives (gatherv/scatterv) on both engines.

These are the communication primitives behind collector-rank aggregation
(ISSUE 4): variable-length fragment sequences per rank, the payload
snapshot contract per fragment, sub-world (split) operation, and
replay safety under the bulk engine.
"""

import numpy as np
import pytest

from repro.errors import CommunicatorError, SpmdWorkerError
from repro.simmpi import run_spmd

ENGINES = ("threads", "bulk")


# --------------------------------------------------------------------------
# Basic semantics and engine conformance.


def _gatherv_program(c):
    frags = [bytes([c.rank] * (i + 1)) for i in range(c.rank)]
    return c.gatherv(frags, root=1)


def _scatterv_program(c):
    if c.rank == 0:
        values = [
            [bytes([dst]) * (i + 1) for i in range(dst)] for dst in range(c.size)
        ]
        return c.scatterv(values)
    return c.scatterv(None)


def _roundtrip_program(c):
    """scatterv of what gatherv collected is the identity."""
    frags = tuple(bytes([c.rank, i]) for i in range(c.rank % 3))
    gathered = c.gatherv(frags, root=0)
    if c.rank == 0:
        back = c.scatterv(gathered)
    else:
        back = c.scatterv(None)
    return back == frags


def _subworld_program(c):
    """gatherv/scatterv inside split groups (the collector pattern)."""
    group = c.rank // 2
    sub = c.split(color=group, key=c.rank)
    gathered = sub.gatherv([bytes([c.rank])] * (sub.rank + 1), root=0)
    if sub.rank == 0:
        flat = tuple(b for frags in gathered for b in frags)
        out = sub.scatterv([flat] * sub.size)
    else:
        out = sub.scatterv(None)
    return out


@pytest.mark.parametrize("engine", ENGINES)
def test_gatherv_collects_variable_fragments(engine):
    out = run_spmd(4, _gatherv_program, engine=engine)
    assert out[0] is None and out[2] is None and out[3] is None
    assert out[1] == [
        (),
        (b"\x01",),
        (b"\x02", b"\x02\x02"),
        (b"\x03", b"\x03\x03", b"\x03\x03\x03"),
    ]


@pytest.mark.parametrize("engine", ENGINES)
def test_scatterv_distributes_variable_fragments(engine):
    out = run_spmd(4, _scatterv_program, engine=engine)
    assert out == [
        (),
        (b"\x01",),
        (b"\x02", b"\x02\x02"),
        (b"\x03", b"\x03\x03", b"\x03\x03\x03"),
    ]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("program", [_roundtrip_program, _subworld_program],
                         ids=["roundtrip", "subworld"])
def test_engine_conformance(engine, program):
    assert run_spmd(6, program, engine=engine) == run_spmd(6, program)


# --------------------------------------------------------------------------
# Payload contract: fragments snapshot at deposit.


@pytest.mark.parametrize("engine", ENGINES)
def test_gatherv_snapshots_mutable_fragments(engine):
    def program(c):
        buf = bytearray(b"live")
        view = memoryview(buf)
        gathered = c.gatherv([buf, view], root=0)
        buf[:] = b"dead"  # mutation after the call must not be visible
        return gathered

    out = run_spmd(2, program, engine=engine)
    for frags in out[0]:
        assert bytes(frags[0]) == b"live"
        # memoryview fragments arrive as immutable bytes (contract).
        assert isinstance(frags[1], bytes) and frags[1] == b"live"
        assert isinstance(frags[0], bytearray)


@pytest.mark.parametrize("engine", ENGINES)
def test_scatterv_snapshots_and_accepts_arrays(engine):
    def program(c):
        if c.rank == 0:
            arr = np.arange(3, dtype=np.uint8)
            values = [[arr, bytearray(b"x")] for _ in range(c.size)]
            got = c.scatterv(values)
            arr += 100  # root may reuse its buffer immediately
        else:
            got = c.scatterv(None)
        return (got[0].tolist(), bytes(got[1]))

    out = run_spmd(3, program, engine=engine)
    assert out == [([0, 1, 2], b"x")] * 3


# --------------------------------------------------------------------------
# Errors.


@pytest.mark.parametrize("engine", ENGINES)
def test_scatterv_wrong_shape_fails(engine):
    def program(c):
        return c.scatterv([[b"a"]] if c.rank == 0 else None)  # len 1 != size 2

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, program, engine=engine)
    assert any(
        isinstance(e, CommunicatorError) for e in exc_info.value.failures.values()
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_root_range_checked(engine):
    def program(c):
        c.gatherv([b"x"], root=9)

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, program, engine=engine)


# --------------------------------------------------------------------------
# Bulk-engine replay safety: the collector pattern (gatherv + exec_once'd
# side effect + scatterv) must run the side effect exactly once per rank
# even though collective parking re-executes rank bodies.


def test_bulk_replay_runs_wave_side_effect_once():
    effects: dict[int, int] = {}

    def program(c):
        sub = c.split(color=c.rank // 2, key=c.rank)
        gathered = sub.gatherv([bytes([c.rank])], root=0)
        if sub.rank == 0:
            flat = tuple(b for frags in gathered for b in frags)

            def wave():
                effects[c.rank] = effects.get(c.rank, 0) + 1
                return flat

            payload = sub.exec_once(wave)
            out = sub.scatterv([payload] * sub.size)
        else:
            out = sub.scatterv(None)
        c.barrier()  # force parking after the wave -> replays happen
        return out

    out = run_spmd(6, program, engine="bulk")
    assert effects == {0: 1, 2: 1, 4: 1}
    for rank, got in enumerate(out):
        group_root = (rank // 2) * 2
        assert got == (bytes([group_root]), bytes([group_root + 1]))


def test_bulk_gatherv_only_blocks_the_root():
    # MPI-relaxed readiness: non-root senders return before the root
    # consumed; their later ops proceed without the whole group.
    def program(c):
        c.gatherv([bytes([c.rank])], root=0)
        if c.rank != 0:
            c.send(c.rank * 10, dest=0)
            return "sent"
        return sorted(c.recv() for _ in range(c.size - 1))

    out = run_spmd(4, program, engine="bulk")
    assert out[0] == [10, 20, 30]
