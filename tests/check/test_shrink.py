"""Shrinker tests: minimality against a committed golden bound, and
byte-identical artifact replay."""

from __future__ import annotations

import json
import os

import pytest

from repro.check.explore import TrialSpec, capture_run, explore
from repro.check.invariants import INVARIANTS, PROTOCOLS
from repro.check.shrink import replay_artifact, run_schedule, shrink_schedule
from repro.obs.jsonl import ArtifactError, event_line, read_artifact, sha256_lines
from repro.obs.replay import SchedulePrefixAdversary, schedule_of

#: The seeded violation below (naive sifter, coin_aware batch, n=8,
#: seed=0) must shrink to no more than this many schedule entries.  The
#: shrinker currently reaches 98 from an original of ~225; the bound has
#: a little headroom so unrelated schedule drift does not flake the
#: test, while still failing loudly if shrinking regresses.
GOLDEN_SHRUNK_LEN = 110


@pytest.fixture(scope="module")
def seeded_violation(tmp_path_factory):
    """One deterministic naive-sifter violation, shrunk into a tmp dir."""
    out_dir = str(tmp_path_factory.mktemp("artifacts"))
    report = explore(
        "naive_sifter", n=8, budget=6, seed=0,
        adversaries=("coin_aware",), modes=("random",),
        shrink=True, out_dir=out_dir,
    )
    assert not report.ok, "seeded violation disappeared; update the test"
    return report.violations[0]


class TestSchedulePrefixAdversary:
    def test_replays_full_schedule_exactly(self):
        spec = PROTOCOLS["poison_pill"]
        trial = TrialSpec(index=0, mode="random", adversary="coin_aware", seed=3)
        _, events = capture_run(spec, trial, 8, None)
        schedule = schedule_of(events)
        ctx = run_schedule(spec, schedule, 8, None, trial.seed)
        assert schedule_of(ctx.events) == schedule

    def test_skips_unresolvable_entries(self):
        spec = PROTOCOLS["poison_pill"]
        trial = TrialSpec(index=0, mode="random", adversary="eager", seed=5)
        _, events = capture_run(spec, trial, 8, None)
        schedule = schedule_of(events)
        # Drop a delivery from the middle: the tolerant replayer must
        # still complete the run (deterministically) instead of failing.
        deliveries = [
            i for i, entry in enumerate(schedule)
            if entry["e"] == "msg.deliver"
        ]
        del schedule[deliveries[len(deliveries) // 2]]
        ctx = run_schedule(spec, schedule, 8, None, trial.seed)
        assert ctx.result.terminated

    def test_reuse_contract(self):
        spec = PROTOCOLS["poison_pill"]
        trial = TrialSpec(index=0, mode="random", adversary="eager", seed=5)
        _, events = capture_run(spec, trial, 8, None)
        adversary = SchedulePrefixAdversary(schedule_of(events))
        from repro.check.invariants import run_protocol
        from repro.obs.events import ListSink

        digests = []
        for _ in range(2):
            sink = ListSink()
            run_protocol(spec, 8, None, adversary, trial.seed, sink=sink)
            digests.append(schedule_of(sink.events))
        assert digests[0] == digests[1]


class TestShrinkSchedule:
    def test_non_violating_schedule_returned_unshrunk(self):
        spec = PROTOCOLS["poison_pill"]
        trial = TrialSpec(index=0, mode="random", adversary="eager", seed=1)
        _, events = capture_run(spec, trial, 8, None)
        schedule = schedule_of(events)
        result = shrink_schedule(
            spec, schedule, lambda ctx: False, 8, None, trial.seed
        )
        assert result.shrunk_len == result.original_len == len(schedule)

    def test_eval_budget_is_respected(self):
        spec = PROTOCOLS["naive_sifter"]
        trial = TrialSpec(index=0, mode="random", adversary="coin_aware", seed=0)
        _, events = capture_run(spec, trial, 8, None)
        schedule = schedule_of(events)
        result = shrink_schedule(
            spec, schedule, INVARIANTS["sifting_effective"].witness,
            8, None, trial.seed, max_evals=10,
        )
        assert result.evaluations <= 10


class TestSeededViolation:
    def test_shrinks_below_golden_length(self, seeded_violation):
        record = seeded_violation
        assert record.shrunk_schedule_len is not None
        assert record.shrunk_schedule_len <= GOLDEN_SHRUNK_LEN, (
            f"shrinker regressed: {record.original_schedule_len} -> "
            f"{record.shrunk_schedule_len} (golden {GOLDEN_SHRUNK_LEN})"
        )
        assert record.shrunk_schedule_len < record.original_schedule_len

    def test_artifacts_exist(self, seeded_violation):
        record = seeded_violation
        for path in (record.artifact_path, record.trace_path, record.script_path):
            assert path is not None and os.path.exists(path)

    def test_artifact_replays_byte_identically(self, seeded_violation):
        replay = replay_artifact(seeded_violation.artifact_path)
        assert replay.digest_matches, replay.describe()
        assert replay.ok, replay.describe()
        assert replay.replayed_violation == replay.expected_violation

    def test_replay_detects_tampered_schedule(self, seeded_violation, tmp_path):
        _, obj = read_artifact(seeded_violation.artifact_path)
        obj["schedule"] = obj["schedule"][: len(obj["schedule"]) // 2]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(obj))
        replay = replay_artifact(str(tampered))
        assert not replay.digest_matches

    def test_replay_of_a_non_string_message_kind_diverges(self, seeded_violation, tmp_path):
        # The replayer keeps entries compact (interned strings); a value of
        # another JSON type must fail to resolve, not fail to load.
        _, obj = read_artifact(seeded_violation.artifact_path)
        entry = next(e for e in obj["schedule"] if e["e"] == "msg.deliver")
        entry["f"]["kind"] = 5
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(obj))
        replay = replay_artifact(str(tampered))
        assert not replay.digest_matches

    def test_artifact_digest_matches_fresh_execution(self, seeded_violation):
        _, obj = read_artifact(seeded_violation.artifact_path)
        spec = PROTOCOLS[obj["protocol"]]
        ctx = run_schedule(
            spec, obj["schedule"], obj["n"], obj["k"], obj["seed"],
            obj["pattern"],
        )
        assert sha256_lines(map(event_line, ctx.events)) == obj["stream_sha256"]

    def test_trace_replays_via_obs(self, seeded_violation):
        from repro.obs.replay import replay_trace

        report = replay_trace(seeded_violation.trace_path)
        assert report.ok, "violation trace must replay byte-identically"

    def test_repro_script_names_the_claim(self, seeded_violation):
        with open(seeded_violation.script_path, "r", encoding="utf-8") as fp:
            text = fp.read()
        assert "sifting_effective" in text
        assert "repro replay" in text


class TestArtifactValidation:
    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "check-violation", "version": 999}))
        with pytest.raises(ArtifactError, match="unsupported check-violation version"):
            read_artifact(str(path))
