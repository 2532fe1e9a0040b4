"""``parallel_io`` submits one flow class per distinct path, not one flow per task."""

import json
import pathlib

import pytest

from repro.fs.flows import FlowScheduler
from repro.fs.systems import jaguar, jugene
from repro.workloads.bandwidth import run_fig4a
from repro.workloads.common import parallel_io

TB = 10**12
SMOKE = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "baselines" / "smoke.json"


@pytest.fixture
def submits(monkeypatch):
    """Record the ``count`` of every ``FlowScheduler.submit`` call."""
    calls: list[int] = []
    real = FlowScheduler.submit

    def counting(self, *args, **kwargs):
        calls.append(kwargs.get("count", 1))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FlowScheduler, "submit", counting)
    return calls


@pytest.mark.parametrize("nfiles", [1, 4, 128])
def test_one_class_per_shared_file(submits, nfiles):
    parallel_io(jugene(), 65536, 1 * TB, "write", nfiles=nfiles)
    assert len(submits) == nfiles
    assert submits == [65536 // nfiles] * nfiles


def test_uneven_blocked_mapping_keeps_per_file_counts(submits):
    parallel_io(jugene(), 1000, 1 * TB, "read", nfiles=3)
    assert submits == [334, 333, 333]


def test_gpfs_tasklocal_is_one_class(submits):
    parallel_io(jugene(), 65536, 1 * TB, "write", tasklocal=True)
    assert submits == [65536]


def test_lustre_tasklocal_one_class_per_ost_set(submits):
    ja = jaguar()
    parallel_io(ja, 65536, 1 * TB, "write", tasklocal=True)
    assert 1 <= len(submits) <= ja.n_targets
    assert sum(submits) == 65536


def test_fig4a_matches_smoke_baseline_exactly():
    metrics = json.loads(SMOKE.read_text())["scenarios"]["fig4/nfiles-jugene"]["metrics"]
    want = {k: m["value"] for k, m in metrics.items() if k != "wall_s"}
    got = {}
    for p in run_fig4a(jugene()):
        got[f"write[#files={p.nfiles}]"] = p.write_mb_s
        got[f"read[#files={p.nfiles}]"] = p.read_mb_s
    assert got == want
