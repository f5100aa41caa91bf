"""Smoke tests of the end-to-end benchmark; run with ``pytest benchmarks/e2e``.

Every workload runs at a smoke size (small simulations, low service
rates, short runs), so the module finishes in well under 30 s.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

import recorder
import refclock
import run
import sim_workloads
import svc_workloads

SPEC = run.load_spec()

SMOKE_SIMS = {
    "sift-seq-16k": sim_workloads.SimWorkload(
        "sift", "heterogeneous", 64, 8, "sequential", "e3", 2),
    "elect-random-256": sim_workloads.SimWorkload(
        "elect", "poison_pill", 16, None, "random", "e2", 3),
    "elect-coinaware-256": sim_workloads.SimWorkload(
        "elect", "poison_pill", 16, None, "coin_aware", "e2", 1),
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Shrink every workload to smoke size, with digests recorded for it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_workloads, "SIM_WORKLOADS", SMOKE_SIMS)
        patch.setattr(sim_workloads, "SETUPS", 1)
        patch.setattr(sim_workloads, "FINGERPRINTS",
                      str(tmp_path_factory.mktemp("smoke") / "fingerprints.json"))
        sim_workloads.record_fingerprints(list(SMOKE_SIMS), lambda line: None)
        patch.setattr(svc_workloads, "SETUPS", 2)
        patch.setattr(svc_workloads, "OPEN_RATES", (200, 400))
        patch.setattr(svc_workloads, "SATURATED_OPS_PER_S", 1000)
        patch.setattr(svc_workloads, "LANES", 4)
        patch.setattr(svc_workloads, "CONTENDED_KEYS", 16)
        patch.setattr(svc_workloads, "CYCLES_PER_S", 500)
        patch.setattr(svc_workloads, "CRASH_EVERY", 100)
        yield patch


def _wrapped_functions() -> list[str]:
    """Names of benchmark-wrapped functions still wrapped in this process."""
    import importlib

    still = []
    for module_name, owner, attr, *_ in recorder.SIM_WRAPPERS + recorder.CLIENT_WRAPPERS:
        module = importlib.import_module(module_name)
        if hasattr(vars(getattr(module, owner))[attr], "__wrapped__"):
            still.append(f"{owner}.{attr}")
    return still


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_prints_every_metric(smoke, name, trace, tmp_path, capsys):
    seconds = 1.0 if name.startswith("svc") else 0.2
    line = run.run_one(name, 1, seconds, trace, str(tmp_path), SPEC)
    out = capsys.readouterr().out
    assert line["correct"] and line["failed"] == 0, out
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {metric["name"] for metric in section}
    for metric in section:
        pattern = rf"^  {re.escape(metric['name'])} +\S+ {re.escape(metric['unit'])}$"
        assert re.search(pattern, out, re.MULTILINE), metric["name"]
    if trace:
        assert (tmp_path / f"trace-{name}.json").exists()
        assert _wrapped_functions() == []


def test_perturbed_fingerprint_exits_1(smoke, monkeypatch, tmp_path, capsys):
    name, seed = "elect-random-256", 5
    with open(sim_workloads.FINGERPRINTS, encoding="utf-8") as fp:
        table = json.load(fp)
    table[name]["0"] = "0" * 16
    perturbed = tmp_path / "fingerprints.json"
    perturbed.write_text(json.dumps(table))
    monkeypatch.setattr(sim_workloads, "FINGERPRINTS", str(perturbed))
    code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0.1",
                     "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED" in out
    assert json.loads(out.splitlines()[-1])["correct"] is False


def test_traced_self_times_within_inclusive(smoke, tmp_path):
    run.run_one("elect-random-256", 2, 0.2, True, str(tmp_path), SPEC)
    with open(tmp_path / "trace-elect-random-256.json", encoding="utf-8") as fp:
        spans = json.load(fp)["spans"]
    assert {"adversary.choose", "execute.deliver", "sim.registers.merge"} <= {
        row["span"] for row in spans}
    for row in spans:
        assert 0.0 <= row["self_ms"] <= row["incl_ms"], row


def test_recorder_self_time_excludes_children():
    rec = recorder.Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            time.sleep(0.02)
    rows = {row["span"]: row for row in rec.rows()}
    assert rows["inner"]["parent"] == "outer"
    assert rows["inner"]["incl_ms"] >= 20.0
    assert rows["outer"]["self_ms"] < 10.0
    assert rows["outer"]["incl_ms"] >= rows["inner"]["incl_ms"]


def test_installed_restores_originals_on_error():
    import importlib

    targets = recorder.SIM_WRAPPERS + recorder.SVC_WRAPPERS + recorder.CLIENT_WRAPPERS

    def current():
        found = []
        for module_name, owner, attr, *_ in targets:
            module = importlib.import_module(module_name)
            found.append(vars(module if owner is None else getattr(module, owner))[attr])
        return found

    before = current()
    with pytest.raises(RuntimeError):
        with recorder.installed(recorder.Recorder(), targets):
            assert all(hasattr(fn, "__wrapped__") for fn in current())
            raise RuntimeError("stop")
    assert current() == before


class _StallingClient:
    """Replies at once, except one reply that blocks the whole event loop."""

    client_id = "stalling"

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.calls = 0
        self.stall_at = stall_at
        self.stall_s = stall_s

    async def acquire(self, key, wait_ms=0.0):
        from repro.net.client import Lease

        self.calls += 1
        if self.calls == self.stall_at:
            time.sleep(self.stall_s)
        return Lease(key=key, epoch=self.calls, ttl_ms=1.0, deadline=0.0)

    async def release(self, lease):
        return True


def test_reference_clock_counts_cpu_and_restores_the_signal():
    with refclock.ReferenceClock() as clock:
        began = time.thread_time()
        while time.thread_time() - began < 0.05:
            pass
        assert clock.now() > 0.0
        assert signal.getitimer(signal.ITIMER_PROF)[1] == refclock.PERIOD_S
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL


def test_open_loop_counts_a_stall_against_queued_ops(monkeypatch):
    monkeypatch.setattr(svc_workloads, "OPEN_RATES", (1000,))
    client = _StallingClient(stall_at=100, stall_s=0.05)
    steps, grants = asyncio.run(svc_workloads._open_loop([client, client], 0, 0.3))
    step = steps[0]
    assert len(grants) == len(step.latencies_ms) == 300
    # About 50 operations fell due during the 50 ms stall.  Timed from their
    # due time they waited for it; timed from their (late) send they would not.
    assert sum(latency >= 10.0 for latency in step.latencies_ms) >= 30
    assert max(step.latencies_ms) >= 45.0
    assert step.late_max_ms >= 40.0


def test_same_seed_same_inputs():
    assert svc_workloads.open_keys(7) == svc_workloads.open_keys(7)
    assert svc_workloads.open_keys(7) != svc_workloads.open_keys(8)

    def lane(seed):
        return list(itertools.islice(svc_workloads.lane_keys(seed, 3), 64))

    assert lane(7) == lane(7) != lane(8)


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero, no result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "svc-open",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
