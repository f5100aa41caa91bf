"""Tests for the chaos soak harness and its incident artifacts.

The soaks here are seconds, not minutes — the CI smoke job runs the
long one.  What is pinned: the mid-stream grant gate, restart-and-recover
counting, the mid-soak service restart with namespace continuity, the
injected negative control, and the deterministic incident replay.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.check.invariants import stream_folds
from repro.harness.soak import (
    SoakError,
    SoakViolation,
    _gate,
    _SoakState,
    replay_incident,
    run_soak,
)
from repro.net.client import ServiceClient
from repro.net.service import ElectionService, GrantRecord
from repro.obs.jsonl import ArtifactError, canonical_json, read_artifact, sha256_lines


def grant(key, epoch, holder="h", granted_ns=0):
    """A minimal GrantRecord for gate-level tests."""
    return GrantRecord(
        key=key, epoch=epoch, holder=holder, session=1, granted_ns=granted_ns
    )


def gate(*records):
    """``(grant index, invariant)`` for each grant the soak's gate flags.

    Every grant goes through the soak's own grant gate, over one set of
    the registry's streaming serve folds.
    """
    folds = stream_folds("serve")
    flagged = (_gate(folds, record, index) for index, record in enumerate(records))
    return [(v.grant_index, v.invariant) for v in flagged if v is not None]


def write_incident(path, records):
    """A minimal replayable incident artifact holding ``records``."""
    grants = [record.to_obj() for record in records]
    path.write_text(json.dumps({
        "kind": "soak-incident", "version": 1, "plan": {},
        "violation": None, "grants": grants,
        "grants_sha256": sha256_lines(map(canonical_json, grants)),
    }), encoding="utf-8")
    return str(path)


class TestGrantGate:
    """The grant gate: the registry's streaming serve folds, per grant."""

    def test_increasing_epochs_pass(self):
        epochs = [grant("k", epoch) for epoch in (1, 2, 3)]
        assert gate(*epochs) == []
        # The fencing floor is now 3.
        assert gate(*epochs, grant("k", 3)) == [(3, "lease_epoch_monotonic")]

    def test_keys_are_independent(self):
        assert gate(grant("a", 5), grant("b", 1)) == []

    def test_stale_epoch_flagged_at_its_index(self):
        flagged = gate(grant("k", 1), grant("k", 2), grant("k", 2, holder="twin"))
        assert flagged == [(2, "lease_epoch_monotonic")]

    def test_epoch_regression_flagged(self):
        assert gate(grant("k", 7), grant("k", 3)) == [(1, "lease_epoch_monotonic")]

    def test_only_first_violation_is_kept(self, tmp_path):
        # A flagged grant does not move the floor, so every later stale
        # grant is flagged too; the live soak and its replay keep the first.
        records = [grant("k", 1), grant("k", 1), grant("k", 1, holder="twin")]
        assert gate(*records) == [
            (1, "lease_epoch_monotonic"), (2, "lease_epoch_monotonic"),
        ]
        folds = stream_folds("serve")
        clean, first, second = (
            _gate(folds, record, index) for index, record in enumerate(records)
        )
        assert clean is None
        state = _SoakState(stop=asyncio.Event(), registry=None, service=None)
        state.flag(first)
        state.flag(second)
        assert state.violation is first
        replay = replay_incident(write_incident(tmp_path / "i.json", records))
        assert replay.digest_ok
        assert replay.replayed == first


class TestRunSoakValidation:
    def test_bad_duration_rejected(self):
        with pytest.raises(SoakError, match="duration"):
            run_soak(duration_s=0.0)

    def test_unknown_profile_rejected(self):
        with pytest.raises(SoakError, match="hurricane"):
            run_soak(duration_s=1.0, profile="hurricane")

    def test_bad_restart_fraction_rejected(self):
        with pytest.raises(SoakError, match="restart_service_at"):
            run_soak(duration_s=1.0, restart_service_at=1.5)

    def test_zero_contenders_rejected(self):
        with pytest.raises(SoakError, match="contender"):
            run_soak(duration_s=1.0, contenders=0)


class TestShortSoak:
    def test_positive_soak_recovers_and_restarts_clean(self, tmp_path):
        report = run_soak(
            duration_s=3.0, seed=0, profile="rolling", keys=2, contenders=3,
            ttl_ms=250.0, hold_ms=5.0, kill_every=3,
            restart_service_at=0.5, out_dir=str(tmp_path),
        )
        assert report.ok, report.violation
        assert report.incident_path is None
        assert report.grants > 0
        # The acceptance bar: at least two node kill + restart-and-recover
        # events, plus the whole-service restart, all violation-free.
        assert report.kills >= 2
        assert report.recoveries >= 2
        assert report.service_restarts == 1
        assert report.phases_seen and report.phases_seen[0] == "calm"
        assert "all hold" in report.describe()

    def test_soak_without_service_restart(self, tmp_path):
        report = run_soak(
            duration_s=1.0, seed=1, profile="gentle", keys=1, contenders=2,
            ttl_ms=250.0, hold_ms=5.0, kill_every=4,
            restart_service_at=None, out_dir=str(tmp_path),
        )
        assert report.ok, report.violation
        assert report.service_restarts == 0


class TestNegativeControl:
    @pytest.fixture(scope="class")
    def incident(self, tmp_path_factory):
        """One injected-violation soak, shared across the class's tests."""
        out_dir = tmp_path_factory.mktemp("incident")
        report = run_soak(
            duration_s=20.0, seed=2, profile="gentle", keys=2, contenders=2,
            ttl_ms=250.0, hold_ms=5.0, kill_every=4, restart_service_at=None,
            out_dir=str(out_dir), inject_violation_at_s=0.4,
        )
        return report

    def test_injected_violation_caught_mid_stream(self, incident):
        assert not incident.ok
        assert incident.injected
        violation = incident.violation
        assert violation.source == "monitor"
        assert violation.invariant == "lease_epoch_monotonic"
        assert "soak-evil-twin" in violation.message
        # Mid-stream means the soak aborted well before its deadline.
        assert incident.elapsed_s < incident.duration_s / 2

    def test_incident_artifact_written_and_loadable(self, incident):
        assert incident.incident_path is not None
        _, obj = read_artifact(incident.incident_path, "soak-incident")
        assert obj["kind"] == "soak-incident"
        assert obj["injected"] is True
        assert obj["profile"] == "gentle"
        assert obj["plan"]["phases"]
        assert len(obj["grants"]) == incident.grants
        # The gate fired at the forged grant itself.
        forged = obj["grants"][incident.violation.grant_index]
        assert forged["holder"] == "soak-evil-twin"

    def test_incident_replays_deterministically(self, incident):
        first = replay_incident(incident.incident_path)
        second = replay_incident(incident.incident_path)
        assert first.ok and second.ok
        assert first.replayed == second.replayed
        assert first.replayed.grant_index == incident.violation.grant_index
        assert first.replayed.message == incident.violation.message
        assert "replay:        ok" in first.describe()

    def test_tampered_grant_log_fails_replay(self, incident, tmp_path):
        _, obj = read_artifact(incident.incident_path, "soak-incident")
        obj["grants"][0]["holder"] = "forged"
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(obj), encoding="utf-8")
        replay = replay_incident(str(tampered))
        assert not replay.digest_ok
        assert not replay.ok
        assert "MISMATCH" in replay.describe()

    def test_non_incident_file_rejected(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"kind": "other"}', encoding="utf-8")
        with pytest.raises(ArtifactError, match="not a replayable artifact"):
            replay_incident(str(path))

    def test_unreadable_file_is_artifact_error(self):
        with pytest.raises(ArtifactError, match="cannot read"):
            replay_incident("/nonexistent/incident.json")


class TestNamespaceContinuity:
    def test_restart_with_namespace_keeps_epochs_fenced(self):
        # The property the mid-soak restart depends on: a successor
        # seeded with export_namespace() grants strictly above the
        # epochs its predecessor reached.
        async def main():
            first = ElectionService(seed=0, default_ttl_ms=5000.0)
            host, port = await first.start()
            client = await ServiceClient.connect(host, port, client_id="a")
            lease = await client.acquire("k", ttl_ms=5000.0)
            assert lease.epoch == 1
            await client.release(lease)
            lease = await client.acquire("k", ttl_ms=5000.0)
            assert lease.epoch == 2
            client.abort()
            namespace = first.export_namespace()
            await first.stop()

            second = ElectionService(
                seed=0, default_ttl_ms=5000.0, namespace=namespace
            )
            host, port = await second.start()
            client = await ServiceClient.connect(host, port, client_id="a")
            lease = await client.acquire("k", ttl_ms=5000.0)
            await client.close()
            await second.stop()
            return namespace, lease

        namespace, lease = asyncio.run(main())
        assert namespace == {"k": 2}
        assert lease.epoch == 3

    def test_soak_grant_log_spans_the_restart_monotonically(self, tmp_path):
        report = run_soak(
            duration_s=2.0, seed=3, profile="gentle", keys=1, contenders=2,
            ttl_ms=250.0, hold_ms=5.0, kill_every=0,
            restart_service_at=0.5, out_dir=str(tmp_path),
        )
        assert report.ok, report.violation
        assert report.service_restarts == 1
        # A violation-free report already implies this (the monitor saw
        # every grant from both incarnations), so just confirm both
        # incarnations actually granted.
        assert report.grants > 0


class TestSoakViolationRoundTrip:
    def test_to_from_obj(self):
        violation = SoakViolation(
            invariant="lease_epoch_monotonic", message="m",
            grant_index=4, source="monitor",
        )
        assert SoakViolation.from_obj(violation.to_obj()) == violation
