"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_elect_defaults(self):
        args = build_parser().parse_args(["elect"])
        assert args.n == 16
        assert args.adversary == "random"
        assert args.algorithm == "poison_pill"

    def test_unknown_adversary_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["elect", "--adversary", "nope"])

    def test_sift_bias(self):
        args = build_parser().parse_args(["sift", "--bias", "0.5"])
        assert args.bias == 0.5

    def test_sweep_ns(self):
        args = build_parser().parse_args(["sweep", "--ns", "4", "8"])
        assert args.ns == [4, 8]

    def test_sweep_workers_default_serial(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workers == 1

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.exp == ["e1"]
        assert args.workers == 1
        assert args.repeats == 3
        assert not args.baseline
        assert args.compare is None
        assert not args.check_serial

    def test_bench_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--exp", "e99"])

    def test_bench_multiple_experiments(self):
        args = build_parser().parse_args(["bench", "--exp", "e1", "e3"])
        assert args.exp == ["e1", "e3"]


class TestCommands:
    def test_elect(self, capsys):
        assert main(["elect", "--n", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "winner:" in out
        assert "messages:" in out

    def test_elect_tournament(self, capsys):
        assert main(["elect", "--n", "4", "--algorithm", "tournament"]) == 0
        assert "winner:" in capsys.readouterr().out

    def test_sift(self, capsys):
        assert main(["sift", "--n", "8", "--kind", "poison_pill"]) == 0
        assert "survivors:" in capsys.readouterr().out

    def test_rename(self, capsys):
        assert main(["rename", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "names:" in out
        assert "max trials:" in out

    def test_rename_linear(self, capsys):
        assert main(["rename", "--n", "4", "--algorithm", "linear"]) == 0
        assert "names:" in capsys.readouterr().out

    def test_sweep_elect(self, capsys):
        assert main(["sweep", "--task", "elect", "--ns", "4", "8", "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        assert "comm calls" in out and "rounds" in out

    def test_sweep_sift(self, capsys):
        assert main(["sweep", "--task", "sift", "--ns", "4", "8", "--repeats", "2"]) == 0
        assert "survivors" in capsys.readouterr().out

    def test_sweep_rename(self, capsys):
        assert main(["sweep", "--task", "rename", "--ns", "4", "--repeats", "2"]) == 0
        assert "trials" in capsys.readouterr().out

    def test_partial_participation(self, capsys):
        assert main(["elect", "--n", "8", "--k", "3", "--pattern", "spread"]) == 0
        assert "winner:" in capsys.readouterr().out

    def test_sweep_parallel_matches_serial_output(self, capsys):
        argv = ["sweep", "--task", "elect", "--ns", "4", "8", "--repeats", "2"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main([*argv, "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_bench_writes_baseline(self, capsys, tmp_path, monkeypatch):
        assert main([
            "bench", "--exp", "e1", "--repeats", "1",
            "--baseline", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "wall s" in out
        assert (tmp_path / "BENCH_E1.json").exists()

    def test_bench_compare_against_fresh_baseline_ok(self, capsys, tmp_path):
        baseline_path = tmp_path / "BENCH_E1.json"
        assert main(["bench", "--exp", "e1", "--repeats", "1",
                     "--baseline", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["bench", "--exp", "e1", "--repeats", "1",
                     "--compare", str(baseline_path)]) == 0
        out = capsys.readouterr().out
        assert "bench comparison" in out
        assert "verdict: OK" in out

    def test_bench_check_serial(self, capsys):
        assert main(["bench", "--exp", "e1", "--repeats", "1",
                     "--workers", "2", "--check-serial"]) == 0
        assert "identical" in capsys.readouterr().out

    def test_bench_check_serial_profile_renders_spans(self, capsys, tmp_path):
        assert main(["bench", "--exp", "e1", "--repeats", "1", "--workers", "2",
                     "--check-serial", "--profile", "--baseline",
                     "--out", str(tmp_path)]) == 0
        assert "self time by span" in capsys.readouterr().out
        assert main(["bench", "--render-tables", "--out", str(tmp_path)]) == 0
        assert "execute.deliver" in (tmp_path / "bench_tables.txt").read_text()


class TestObservabilityVerbs:
    """trace/report/watch plumbing, including the clean-error satellite."""

    def _record(self, tmp_path, snapshots=False):
        """Record a small election trace (optionally with live snapshots)."""
        trace = str(tmp_path / "run.jsonl")
        argv = ["trace", "--n", "8", "--adversary", "sequential",
                "--seed", "2", "--out", trace]
        stream = None
        if snapshots:
            stream = str(tmp_path / "live.jsonl")
            argv += ["--snapshots", stream]
        assert main(argv) == 0
        return trace, stream

    def test_trace_with_snapshots_writes_both_files(self, capsys, tmp_path):
        trace, stream = self._record(tmp_path, snapshots=True)
        out = capsys.readouterr().out
        assert "snapshots:" in out
        from repro.obs.live import read_snapshots

        _, snapshots, end = read_snapshots(stream)
        assert snapshots and end is not None

    def test_trace_and_snapshot_headers_name_the_default_algorithm(
        self, capsys, tmp_path
    ):
        from repro.obs.jsonl import read_artifact
        from repro.obs.live import read_snapshots

        trace, stream = self._record(tmp_path, snapshots=True)
        assert read_artifact(trace, "trace")[1]["algorithm"] == "poison_pill"
        assert read_snapshots(stream)[0]["algorithm"] == "poison_pill"

    def test_rejected_algorithm_leaves_existing_files_untouched(
        self, capsys, tmp_path
    ):
        trace, stream = self._record(tmp_path, snapshots=True)
        before = {path: open(path, "rb").read() for path in (trace, stream)}
        capsys.readouterr()
        argv = ["trace", "--algorithm", "bogus", "--out", trace, "--snapshots", stream]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith("error:") and len(out.splitlines()) == 1
        assert {path: open(path, "rb").read() for path in before} == before

    @pytest.mark.parametrize("snapshots", [False, True], ids=["trace", "snapshots"])
    def test_run_that_cannot_start_creates_no_file(self, capsys, tmp_path, snapshots):
        argv = ["trace", "--n", "0", "--out", str(tmp_path / "run.jsonl")]
        if snapshots:
            argv += ["--snapshots", str(tmp_path / "live.jsonl")]
        assert main(argv) == 2
        assert capsys.readouterr().out.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_report_critical_path_and_lineage(self, capsys, tmp_path):
        trace, _ = self._record(tmp_path)
        capsys.readouterr()
        assert main(["report", trace, "--critical-path", "--lineage", "0"]) == 0
        out = capsys.readouterr().out
        assert "critical paths" in out or "depth (msgs)" in out
        assert "message lineage of p0" in out

    def test_report_missing_file_is_clean_one_liner(self, capsys):
        assert main(["report", "/nonexistent/run.jsonl"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error:")
        assert "Traceback" not in out

    def test_report_truncated_jsonl_is_clean_one_liner(self, capsys, tmp_path):
        # Satellite regression: a producer killed mid-write leaves a
        # trailing partial line; report must not dump a traceback.
        trace, _ = self._record(tmp_path)
        text = open(trace, encoding="utf-8").read()
        truncated = str(tmp_path / "truncated.jsonl")
        with open(truncated, "w", encoding="utf-8") as fp:
            fp.write(text[: int(len(text) * 0.6)])
        capsys.readouterr()
        assert main(["report", truncated]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error:")
        assert "Traceback" not in out

    @pytest.mark.parametrize("verb", ["report", "replay"])
    @pytest.mark.parametrize("case", ["truncated", "non-object", "missing-keys"])
    def test_malformed_trace_line_is_one_error_line(self, verb, case, capsys, tmp_path):
        trace, _ = self._record(tmp_path)
        with open(trace, encoding="utf-8") as fp:
            lines = fp.read().splitlines()
        if case == "truncated":  # the writer died mid-line
            number = len(lines)
            lines[-1] = lines[-1][: len(lines[-1]) // 2]
        else:
            number = 3
            lines[2] = "[1, 2, 3]" if case == "non-object" else '{"t": 1, "e": "proc.decide"}'
        bad = str(tmp_path / "bad.jsonl")
        with open(bad, "w", encoding="utf-8") as fp:
            fp.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([verb, bad]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(f"error: {bad}: line {number}: ")

    def test_report_reads_its_trace_once(self, capsys, tmp_path, monkeypatch):
        import builtins

        trace, _ = self._record(tmp_path)
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if file == trace:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(["report", trace, "--critical-path", "--lineage", "0"]) == 0
        assert opened == [trace]

    def test_watch_no_follow_renders_last_snapshot(self, capsys, tmp_path):
        _, stream = self._record(tmp_path, snapshots=True)
        capsys.readouterr()
        assert main(["watch", stream, "--no-follow"]) == 0
        out = capsys.readouterr().out
        assert "snapshot #" in out

    def test_watch_no_follow_missing_end_marker_names_file_and_seq(
        self, capsys, tmp_path
    ):
        # Satellite regression: a stream whose writer was interrupted has
        # no end marker; --no-follow must exit 1 and say which file and
        # the last seq it saw, not silently return 0.
        _, stream = self._record(tmp_path, snapshots=True)
        lines = [
            line for line in open(stream, encoding="utf-8").read().splitlines()
            if '"end"' not in line
        ]
        headless = str(tmp_path / "interrupted.jsonl")
        with open(headless, "w", encoding="utf-8") as fp:
            fp.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["watch", headless, "--no-follow"]) == 1
        out = capsys.readouterr().out
        assert "snapshot #" in out  # the last snapshot still renders
        assert "error:" in out
        assert headless in out
        assert "seq=" in out
        assert "no end marker" in out

    def test_watch_follow_terminates_on_end_marker(self, capsys, tmp_path):
        _, stream = self._record(tmp_path, snapshots=True)
        capsys.readouterr()
        assert main(["watch", stream, "--interval", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "stream ended" in out

    def test_watch_prometheus_output(self, capsys, tmp_path):
        _, stream = self._record(tmp_path, snapshots=True)
        capsys.readouterr()
        assert main(["watch", stream, "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_" in out

    def test_watch_missing_file_is_clean_one_liner(self, capsys):
        assert main(["watch", "/nonexistent/live.jsonl", "--no-follow"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error:")
        assert "Traceback" not in out

    def test_watch_truncated_stream_is_clean_one_liner(self, capsys, tmp_path):
        _, stream = self._record(tmp_path, snapshots=True)
        text = open(stream, encoding="utf-8").read()
        truncated = str(tmp_path / "cut.jsonl")
        with open(truncated, "w", encoding="utf-8") as fp:
            fp.write(text[: int(len(text) * 0.6)])
        capsys.readouterr()
        assert main(["watch", truncated, "--no-follow"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error:")
        assert "Traceback" not in out


class TestSoakCommand:
    def test_soak_parser_defaults(self):
        args = build_parser().parse_args(["soak"])
        assert args.duration == 60.0
        assert args.profile == "rolling"
        assert args.kill_every == 6
        assert args.restart_service_at == 0.5
        assert "replay" not in vars(args)
        assert args.inject_violation is None

    def test_soak_list_profiles(self, capsys):
        assert main(["soak", "--list-profiles"]) == 0
        out = capsys.readouterr().out
        assert "rolling" in out and "gentle" in out

    def test_soak_unknown_profile_is_clean_error(self, capsys):
        assert main(["soak", "--duration", "1", "--profile", "nope"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error:")
        assert "rolling" in out  # names the known profiles

    def test_soak_clean_run_exits_0(self, capsys, tmp_path):
        assert main([
            "soak", "--duration", "1", "--profile", "gentle",
            "--keys", "1", "--contenders", "2", "--ttl", "250",
            "--hold-ms", "5", "--out-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "invariants:    all hold" in out

    def test_soak_negative_control_exits_1_and_replays(self, capsys, tmp_path):
        assert main([
            "soak", "--duration", "15", "--profile", "gentle",
            "--keys", "1", "--contenders", "2", "--ttl", "250",
            "--hold-ms", "5", "--restart-service-at", "-1",
            "--inject-violation", "0.3", "--out-dir", str(tmp_path),
        ]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION:" in out and "[injected]" in out
        assert "incident:" in out
        incident = next(tmp_path.glob("soak-incident-*.json"))
        assert main(["replay", str(incident)]) == 0
        out = capsys.readouterr().out
        assert "replay:        ok" in out

    def test_soak_replay_missing_file_is_clean_error(self, capsys):
        assert main(["replay", "/nonexistent/incident.json"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error:")
        assert "Traceback" not in out


#: Bad input for every verb class: each must exit 2 with one ``error:``
#: line, never a traceback (exit 1 is reserved for invariant violations).
BAD_INPUT = [
    ["elect", "--n", "0"],
    ["elect", "--n", "4", "--k", "9"],
    ["sweep", "--ns", "0"],
    ["bench", "--exp", "e1", "--compare", "/nonexistent/x.json"],
    ["bench", "--render-tables", "--out", "/nonexistent"],
    ["sift", "--kind", "poison_pill", "--bias", "2", "--n", "8"],
    ["sift", "--bias", "0.5", "--n", "8"],
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_is_one_error_line_and_exit_2(argv, capsys):
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error:")
    assert len(out.splitlines()) == 1
    assert "Traceback" not in out


@pytest.mark.parametrize("verb", ["net", "trace", "sweep"])
def test_unknown_algorithm_lists_the_task_algorithms(verb, capsys, tmp_path, monkeypatch):
    # Rejected before anything starts: no node is spawned, no file written.
    monkeypatch.chdir(tmp_path)
    assert main([verb, "--task", "sift", "--algorithm", "bogus"]) == 2
    assert capsys.readouterr().out == (
        "error: unknown algorithm 'bogus' for task 'sift'; "
        "expected one of ('poison_pill', 'heterogeneous', 'naive')\n"
    )
    assert list(tmp_path.iterdir()) == []


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -X importtime -m repro ARGV`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )


class TestColdStart:
    """A verb imports only what it runs: ``elect`` loads no service stack."""

    def test_elect_loads_no_socket_stack(self):
        child = run_cli("elect", "--n", "8")
        assert child.returncode == 0
        assert "winner:" in child.stdout
        # -X importtime writes one "import time: ... | module" line per import.
        loaded = {line.rsplit("|", 1)[1].strip() for line in child.stderr.splitlines()
                  if line.startswith("import time:")}
        assert "repro.harness.runners" in loaded
        for module in ("asyncio", "multiprocessing", "repro.net", "repro.harness.soak",
                       "repro.harness.bench", "repro.obs.replay"):
            assert module not in loaded

    def test_caught_errors_share_one_base_and_keep_theirs(self):
        from repro.errors import ReproError
        from repro.harness.soak import SoakError
        from repro.net.driver import NetError
        from repro.net.service import ServiceError
        from repro.obs.replay import ReplayError

        for error in (NetError, ServiceError, SoakError):
            assert issubclass(error, ReproError) and issubclass(error, RuntimeError)
        assert issubclass(ReplayError, ReproError)

    def test_bad_input_is_still_one_error_line(self):
        child = run_cli("elect", "--n", "0")
        assert child.returncode == 2
        assert child.stdout.startswith("error:")
        assert len(child.stdout.splitlines()) == 1
        assert "Traceback" not in child.stderr


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One file of each replayable kind, as its writer left it, plus a net trace."""
    from repro.check.explore import explore
    from repro.harness.soak import run_soak
    from repro.net import run_net
    from repro.obs.replay import record_trace

    out = tmp_path_factory.mktemp("artifacts")
    trace = str(out / "run.jsonl")
    record_trace(trace, task="elect", n=8, adversary="sequential", seed=2)
    check = explore(
        "naive_sifter", n=8, budget=6, seed=0, adversaries=("coin_aware",),
        modes=("random",), out_dir=str(out),
    )
    soak = run_soak(
        duration_s=15.0, profile="gentle", keys=1, contenders=2, ttl_ms=250.0,
        hold_ms=5.0, restart_service_at=None, inject_violation_at_s=0.3,
        out_dir=str(out),
    )
    net_trace = str(out / "net.jsonl")
    run_net(task="elect", n=3, seed=0, trace_path=net_trace)
    return {
        "trace": trace,
        "check-violation": check.violations[0].artifact_path,
        "soak-incident": soak.incident_path,
        "net-trace": net_trace,
    }


def _edit_schedule_entry(text):
    """Point the first recorded delivery at a call that was never made."""
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if '"e":"msg.deliver"' in line)
    entry = json.loads(lines[index])
    entry["f"]["call"] += 1000
    lines[index] = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines) + "\n"


def _halve_schedule(text):
    obj = json.loads(text)
    obj["schedule"] = obj["schedule"][: len(obj["schedule"]) // 2]
    return json.dumps(obj)


def _edit_grant_holder(text):
    obj = json.loads(text)
    obj["grants"][0]["holder"] = "forged"
    return json.dumps(obj)


def _insert_crashes(text, pids):
    """Crash ``pids`` before the recorded schedule's first entry."""
    lines = text.splitlines()
    crashes = [
        json.dumps({"e": "sched.crash", "f": {}, "p": pid, "t": 0},
                   sort_keys=True, separators=(",", ":"))
        for pid in pids
    ]
    return "\n".join(lines[:1] + crashes + lines[1:]) + "\n"


#: Traces whose schedule stops resolving at a crash entry, with the
#: verdict naming the first entry that does not resolve: a crash past
#: the n=8 budget of 3, and a step of the processor a crash took down.
CRASH_TAMPER = {
    "over-budget-crash": (
        lambda text: _insert_crashes(text, range(4)),
        "schedule entry 3: cannot crash processor 3",
    ),
    "step-of-crashed": (
        lambda text: _insert_crashes(text, [0]),
        "processor 0 has crashed and cannot step",
    ),
}


TAMPER = {
    "trace": _edit_schedule_entry,
    "check-violation": _halve_schedule,
    "soak-incident": _edit_grant_holder,
}


class TestReplay:
    """``repro replay``: one entry point, one 0/1/2 contract, every kind."""

    @pytest.mark.parametrize("kind", sorted(TAMPER))
    def test_artifact_as_written_reproduces(self, artifacts, kind, capsys):
        assert main(["replay", artifacts[kind]]) == 0
        assert "Traceback" not in capsys.readouterr().out

    @pytest.mark.parametrize("kind", sorted(TAMPER))
    def test_tampered_copy_does_not_reproduce(self, artifacts, kind, tmp_path, capsys):
        with open(artifacts[kind], encoding="utf-8") as fp:
            text = fp.read()
        tampered = tmp_path / "tampered"
        tampered.write_text(TAMPER[kind](text), encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", str(tampered)]) == 1
        out = capsys.readouterr().out
        assert not out.startswith("error:")
        if kind == "trace":
            assert "schedule entry" in out

    @pytest.mark.parametrize("case", sorted(CRASH_TAMPER))
    def test_tampered_crash_entry_diverges(self, artifacts, case, tmp_path, capsys):
        tamper, verdict = CRASH_TAMPER[case]
        with open(artifacts["trace"], encoding="utf-8") as fp:
            text = fp.read()
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text(tamper(text), encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", str(tampered)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("replay DIVERGED: schedule entry ")
        assert verdict in out

    @pytest.mark.parametrize(
        "case", ["missing", "invalid-json", "other-kind", "net-trace"]
    )
    def test_not_an_artifact_is_one_error_line(self, artifacts, case, tmp_path, capsys):
        path = tmp_path / "input"
        if case == "missing":
            path = tmp_path / "absent.json"
        elif case == "invalid-json":
            path.write_text("{not json", encoding="utf-8")
        elif case == "other-kind":
            path.write_text('{"kind": "other"}', encoding="utf-8")
        else:
            path = artifacts["net-trace"]
        capsys.readouterr()
        assert main(["replay", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error:")
        assert len(out.splitlines()) == 1
