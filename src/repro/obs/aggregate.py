"""Streaming aggregation of event streams into per-round rollups.

:class:`TraceAggregator` is an :class:`~repro.obs.events.EventSink` that
consumes events one at a time — attach it live to a simulation, or
``feed(iter_events(path), aggregator)`` a recorded JSONL trace (see
:func:`~repro.obs.events.feed`) — and maintains exactly the quantities
the paper's statements are about:

* per-round survivor curves for the Heterogeneous PoisonPill loop
  (Lemmas 3.6-3.7): entrants, survivors, deaths, and PreRound verdicts;
* per-processor ``communicate``-call counts and call durations in logical
  time (Claim 2.1's time metric);
* message-kind histograms, the raw material of the ``O(kn)`` message
  bound (Theorem A.5);
* coin-flip tallies and decision outcomes.

Aggregation is incremental (O(1) per event, O(rounds + pids + kinds)
memory besides one duration per ``communicate`` call), so it scales to
arbitrarily long streams where storing the full event list would not.
That holds for files too: :func:`~repro.obs.jsonl.iter_events` streams
the trace line by line and never holds its event list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .events import Event, EventType, call_key, json_safe


@dataclass(slots=True)
class RoundStats:
    """Sifting statistics for one round of the leader-election loop."""

    round: int
    entered: int = 0
    survived: int = 0
    died: int = 0
    preround_wins: int = 0
    preround_losses: int = 0

    @property
    def completed(self) -> int:
        """Participants whose round-``r`` sifting phase returned."""
        return self.survived + self.died


@dataclass(slots=True)
class PhaseStats:
    """Entry/exit tallies for one sifting-phase namespace."""

    namespace: str
    kind: str = ""
    entered: int = 0
    survived: int = 0
    died: int = 0


class TraceAggregator:
    """Event sink computing rollups the benchmark tables can reuse."""

    def __init__(self) -> None:
        self.events_seen = 0
        self.last_clock = 0
        self.counts_by_type: dict[str, int] = {}
        self.message_histogram: dict[str, int] = {}
        self.comm_calls_by: dict[int, int] = {}
        self.comm_durations_by: dict[int, list[int]] = {}
        self.coin_flips: dict[int, int] = {}
        self.decisions: dict[int, Any] = {}
        self.decide_times: dict[int, int] = {}
        self.crashes: list[int] = []
        self._rounds: dict[int, RoundStats] = {}
        self._phases: dict[str, PhaseStats] = {}
        self._open_calls: dict[tuple[int, int], int] = {}  # (pid, call) -> issue clock

    # ------------------------------------------------------------------
    # Sink interface
    # ------------------------------------------------------------------

    def emit(self, event: Event) -> None:
        """Fold one event into the running rollups."""
        self.events_seen += 1
        self.last_clock = event.time
        counts = self.counts_by_type
        counts[event.etype] = counts.get(event.etype, 0) + 1
        handler = self._HANDLERS.get(event.etype)
        if handler is not None:
            handler(self, event)

    def close(self) -> None:
        """No-op: aggregation state stays readable after the run."""
        pass

    # ------------------------------------------------------------------
    # Per-type handlers
    # ------------------------------------------------------------------

    def _on_send(self, event: Event) -> None:
        kind = event.fields["kind"]
        histogram = self.message_histogram
        histogram[kind] = histogram.get(kind, 0) + 1

    def _on_comm_call(self, event: Event) -> None:
        pid = event.pid
        self.comm_calls_by[pid] = self.comm_calls_by.get(pid, 0) + 1
        self._open_calls[call_key(event)] = event.time

    def _on_comm_done(self, event: Event) -> None:
        issued = self._open_calls.pop(call_key(event), None)
        if issued is not None:
            self.comm_durations_by.setdefault(event.pid, []).append(
                event.time - issued
            )

    def _on_coin(self, event: Event) -> None:
        pid = event.pid
        self.coin_flips[pid] = self.coin_flips.get(pid, 0) + 1

    def _on_decide(self, event: Event) -> None:
        self.decisions[event.pid] = event.fields.get("result")
        self.decide_times[event.pid] = event.time

    def _on_crash(self, event: Event) -> None:
        self.crashes.append(event.pid)

    def _on_phase_enter(self, event: Event) -> None:
        stats = self._phase(event.fields["ns"], event.fields.get("kind", ""))
        stats.entered += 1

    def _on_phase_exit(self, event: Event) -> None:
        stats = self._phase(event.fields["ns"], event.fields.get("kind", ""))
        if event.fields.get("outcome") == "survive":
            stats.survived += 1
        else:
            stats.died += 1

    def _on_round_exit(self, event: Event) -> None:
        stats = self._round(event.fields["round"])
        if event.fields.get("outcome") == "survive":
            stats.survived += 1
        else:
            stats.died += 1

    def _on_preround(self, event: Event) -> None:
        stats = self._round(event.fields["round"])
        verdict = event.fields.get("verdict")
        stats.entered += 1
        if verdict == "win":
            stats.preround_wins += 1
        elif verdict == "lose":
            stats.preround_losses += 1

    _HANDLERS = {
        EventType.MSG_SEND: _on_send,
        EventType.COMM_CALL: _on_comm_call,
        EventType.COMM_DONE: _on_comm_done,
        EventType.COIN_FLIP: _on_coin,
        EventType.COIN_CHOICE: _on_coin,
        EventType.PROC_DECIDE: _on_decide,
        EventType.SCHED_CRASH: _on_crash,
        EventType.PHASE_ENTER: _on_phase_enter,
        EventType.PHASE_EXIT: _on_phase_exit,
        EventType.ROUND_EXIT: _on_round_exit,
        EventType.PREROUND: _on_preround,
    }

    def _phase(self, namespace: str, kind: str) -> PhaseStats:
        stats = self._phases.get(namespace)
        if stats is None:
            stats = self._phases[namespace] = PhaseStats(namespace=namespace, kind=kind)
        elif kind and not stats.kind:
            stats.kind = kind
        return stats

    def _round(self, round_index: int) -> RoundStats:
        stats = self._rounds.get(round_index)
        if stats is None:
            stats = self._rounds[round_index] = RoundStats(round=round_index)
        return stats

    # ------------------------------------------------------------------
    # Rollup views
    # ------------------------------------------------------------------

    def survivor_curve(self) -> list[RoundStats]:
        """Per-round sifting statistics, sorted by round number."""
        return [self._rounds[r] for r in sorted(self._rounds)]

    def survivors_by_round(self) -> dict[int, int]:
        """``{round: survivor count}`` for the leader-election loop."""
        return {r: stats.survived for r, stats in sorted(self._rounds.items())}

    def phase_stats(self) -> list[PhaseStats]:
        """Per-namespace sifting-phase statistics, sorted by namespace."""
        return [self._phases[ns] for ns in sorted(self._phases)]

    @property
    def max_comm_calls(self) -> int:
        """Max communicate calls by any processor (Claim 2.1's metric)."""
        return max(self.comm_calls_by.values(), default=0)

    @property
    def messages_total(self) -> int:
        """Total messages sent, summed over the kind histogram."""
        return sum(self.message_histogram.values())

    def comm_duration_summary(self, pid: int | None = None):
        """Percentile :class:`~repro.analysis.stats.Summary` of communicate
        call durations (in logical-clock ticks), for one processor or all.

        Returns ``None`` when no completed calls were observed.
        """
        from ..analysis.stats import summarize

        if pid is None:
            durations = [
                duration
                for per_pid in self.comm_durations_by.values()
                for duration in per_pid
            ]
        else:
            durations = list(self.comm_durations_by.get(pid, ()))
        return summarize(durations) if durations else None

    def comm_timeline(self, pid: int) -> list[int]:
        """Durations of ``pid``'s completed communicate calls, in order."""
        return list(self.comm_durations_by.get(pid, ()))

    def outcome_histogram(self) -> dict[str, int]:
        """Decision results tallied by their serialized form."""
        histogram: dict[str, int] = {}
        for result in self.decisions.values():
            key = str(json_safe(result))
            histogram[key] = histogram.get(key, 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def report(self, title: str = "trace report") -> str:
        """Human-readable rollup: rounds, phases, messages, comm stats."""
        from ..harness.tables import Table

        sections: list[str] = []
        curve = self.survivor_curve()
        if curve:
            rounds = Table(
                f"{title}: per-round survivors",
                ["round", "entered", "survived", "died", "pre-won", "pre-lost"],
            )
            for stats in curve:
                rounds.add_row(
                    stats.round,
                    stats.entered,
                    stats.survived,
                    stats.died,
                    stats.preround_wins,
                    stats.preround_losses,
                )
            sections.append(rounds.render())
        phases = self.phase_stats()
        if phases:
            table = Table(
                f"{title}: sifting phases",
                ["namespace", "kind", "entered", "survived", "died"],
            )
            for stats in phases:
                table.add_row(
                    stats.namespace, stats.kind, stats.entered,
                    stats.survived, stats.died,
                )
            sections.append(table.render())
        if self.message_histogram:
            table = Table(f"{title}: messages by kind", ["kind", "count"])
            for kind in sorted(self.message_histogram):
                table.add_row(kind, self.message_histogram[kind])
            table.add_note(f"total {self.messages_total:,}")
            sections.append(table.render())
        if self.comm_calls_by:
            table = Table(
                f"{title}: communicate calls", ["metric", "value"],
            )
            table.add_row("max per processor", self.max_comm_calls)
            table.add_row("total", sum(self.comm_calls_by.values()))
            summary = self.comm_duration_summary()
            if summary is not None:
                table.add_row("mean duration (ticks)", summary.mean)
                table.add_row("p90 duration (ticks)", summary.p90)
            sections.append(table.render())
        outcomes = self.outcome_histogram()
        if outcomes:
            table = Table(f"{title}: decisions", ["outcome", "count"])
            for key in sorted(outcomes):
                table.add_row(key, outcomes[key])
            sections.append(table.render())
        summary_line = (
            f"{self.events_seen:,} events, final clock {self.last_clock:,}, "
            f"{len(self.crashes)} crashes"
        )
        return "\n\n".join([summary_line, *sections])
