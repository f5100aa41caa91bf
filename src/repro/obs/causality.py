"""Happens-before reconstruction and message-lineage analysis of traces.

The paper measures time in ``communicate`` quorums, but the *reason* a
schedule is slow or fast lives one level deeper: the longest chain of
causally-ordered messages any decision depends on.  This module rebuilds
the happens-before relation of a recorded (or in-memory) event stream —
program order within each processor, plus a send→deliver edge for every
matched message — and reduces it to the two quantities the algorithm
shootout needs:

* **critical-path depth** per decision: the length, in messages, of the
  longest causal chain ending at that processor's decide event.  A
  tournament's winner sits at depth Θ(log n · quorum-round-trips); the
  paper's election should beat it — now measurable per run.
* **lineage** per processor: the actual chain of message hops behind
  its current state, oldest first — the "why did p7 decide that"
  debugging view, surfaced as ``repro report --lineage 7``.

Send and deliver events are matched FIFO per ``(src, dst, kind, call)``
channel, which is exact for the simulator (per-call messages are
delivered at most once) and degrades gracefully on net traces where
chaos duplication can replay a frame: a duplicate deliver with no
waiting send is counted in :attr:`CausalReport.unmatched_delivers`
rather than corrupting depths.

The analysis is a single forward pass, O(events) time and O(pids +
in-flight messages) state, so it handles arbitrarily long streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .events import Event, EventType

__all__ = [
    "CausalReport",
    "MessageHop",
    "critical_path_report",
    "lineage_report",
]


@dataclass(frozen=True, slots=True)
class MessageHop:
    """One send→deliver edge on a causal chain.

    ``depth`` is the hop's position on its chain (1-based: the first
    message ever to influence a processor is depth 1).  ``parent`` links
    to the previous hop on the same chain, forming the lineage spine.
    """

    src: int
    dst: int
    kind: str
    call: int
    send_index: int
    send_time: int
    deliver_index: int
    deliver_time: int
    depth: int
    parent: "MessageHop | None" = field(repr=False, default=None)


@dataclass(slots=True)
class _PendingSend:
    """A sent-but-not-yet-delivered message: its causal context at send."""

    send_index: int
    send_time: int
    sender_depth: int
    sender_hop: MessageHop | None


class CausalReport:
    """An :class:`~repro.obs.events.EventSink` rebuilding happens-before.

    One forward pass: attach it live to a run, or
    ``feed(iter_events(path), report)`` a recorded trace (see
    :func:`~repro.obs.events.feed`).  Per processor,
    ``depth_by_pid`` holds the length of the longest message chain that
    happens-before its current state.  A send stamps the message with
    the sender's depth; the matching deliver extends the chain by one
    hop and raises the recipient's depth if the new chain is longer.
    ``proc.decide`` freezes the recipient's depth as that decision's
    critical path.
    """

    __slots__ = (
        "depth_by_pid",
        "last_hop_by_pid",
        "decision_depths",
        "decision_hops",
        "decide_times",
        "events_seen",
        "matched_messages",
        "unmatched_delivers",
        "_pending",
    )

    def __init__(self) -> None:
        #: Current causal message-depth of each processor's state.
        self.depth_by_pid: dict[int, int] = {}
        #: Deepest hop currently influencing each processor.
        self.last_hop_by_pid: dict[int, MessageHop | None] = {}
        #: Critical-path depth (in messages) at each decide event.
        self.decision_depths: dict[int, int] = {}
        #: The hop terminating each decision's critical path.
        self.decision_hops: dict[int, MessageHop | None] = {}
        #: Logical decide time per pid.
        self.decide_times: dict[int, int] = {}
        self.events_seen = 0
        self.matched_messages = 0
        self.unmatched_delivers = 0
        self._pending: dict[tuple[int, int, str, int], list[_PendingSend]] = {}

    @property
    def max_decision_depth(self) -> int:
        """The deepest critical path over all decisions (0 when none)."""
        return max(self.decision_depths.values(), default=0)

    def lineage(self, pid: int) -> list[MessageHop]:
        """The message chain behind ``pid``'s state, oldest hop first.

        Uses the decision-time hop when ``pid`` decided, else the live
        one; empty when no message ever influenced the processor.
        """
        hop = self.decision_hops.get(pid, self.last_hop_by_pid.get(pid))
        chain: list[MessageHop] = []
        while hop is not None:
            chain.append(hop)
            hop = hop.parent
        chain.reverse()
        return chain

    def emit(self, event: Event) -> None:
        """Fold one event into the happens-before state."""
        index = self.events_seen
        self.events_seen += 1
        etype = event.etype
        depth = self.depth_by_pid
        last_hop = self.last_hop_by_pid
        if etype == EventType.MSG_SEND:
            fields = event.fields
            src = fields["src"]
            key = (src, fields["dst"], fields["kind"], fields.get("call", 0))
            self._pending.setdefault(key, []).append(_PendingSend(
                send_index=index,
                send_time=event.time,
                sender_depth=depth.get(src, 0),
                sender_hop=last_hop.get(src),
            ))
        elif etype == EventType.MSG_DELIVER:
            fields = event.fields
            src = fields["src"]
            dst = fields["dst"]
            key = (src, dst, fields["kind"], fields.get("call", 0))
            queue = self._pending.get(key)
            if not queue:
                # Net chaos can duplicate a frame: the second delivery has
                # no waiting send.  Count it; the first matched delivery
                # already carried the causal edge.
                self.unmatched_delivers += 1
                return
            send = queue.pop(0)
            if not queue:
                del self._pending[key]
            self.matched_messages += 1
            hop_depth = send.sender_depth + 1
            if hop_depth > depth.get(dst, 0):
                hop = MessageHop(
                    src=src,
                    dst=dst,
                    kind=fields["kind"],
                    call=fields.get("call", 0),
                    send_index=send.send_index,
                    send_time=send.send_time,
                    deliver_index=index,
                    deliver_time=event.time,
                    depth=hop_depth,
                    parent=send.sender_hop,
                )
                depth[dst] = hop_depth
                last_hop[dst] = hop
        elif etype == EventType.PROC_DECIDE:
            pid = event.pid
            self.decision_depths[pid] = depth.get(pid, 0)
            self.decision_hops[pid] = last_hop.get(pid)
            self.decide_times[pid] = event.time

    def close(self) -> None:
        """No-op: the analysis stays readable after the stream ends."""
        pass


def critical_path_report(report: CausalReport, title: str = "critical paths") -> str:
    """Render per-decision critical-path depths as a table."""
    from ..harness.tables import Table

    table = Table(title, ["pid", "depth (msgs)", "decided at"])
    for pid in sorted(report.decision_depths):
        table.add_row(
            pid, report.decision_depths[pid], report.decide_times.get(pid, 0)
        )
    table.add_note(
        f"max depth {report.max_decision_depth}; "
        f"{report.matched_messages:,} matched messages, "
        f"{report.unmatched_delivers} unmatched delivers"
    )
    return table.render()


def lineage_report(report: CausalReport, pid: int) -> str:
    """Render the message lineage behind ``pid``'s state as a table."""
    from ..harness.tables import Table

    chain = report.lineage(pid)
    table = Table(
        f"message lineage of p{pid}",
        ["hop", "src", "dst", "kind", "call", "sent t", "delivered t"],
    )
    for hop in chain:
        table.add_row(
            hop.depth, hop.src, hop.dst, hop.kind, hop.call,
            hop.send_time, hop.deliver_time,
        )
    if not chain:
        table.add_note("no message ever influenced this processor")
    else:
        depth = report.decision_depths.get(pid)
        if depth is not None:
            table.add_note(f"decision critical-path depth {depth} messages")
    return table.render()
