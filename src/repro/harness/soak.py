"""Time-boxed chaos soak: rolling weather over the live election stack.

``repro soak`` is the harness that answers "does the service stay safe
for minutes, not milliseconds?".  It runs the real
:class:`~repro.net.service.ElectionService` under a *rolling* seeded
fault plan — a :class:`~repro.net.chaos.PhasedChaosPlan` from the
chaos-profile registry cycles drop / delay / duplicate / partition /
heal phases for the whole soak — while a fleet of contender sessions
acquires, holds, and releases keyed leases, deliberately killing their
own sessions mid-hold and then restart-and-recovering through fresh
connections.  Midway through, the service process itself is restarted:
its fencing namespace is exported with
:meth:`~repro.net.service.ElectionService.export_namespace` and fed to
a fresh instance so post-restart epochs stay fenced against tokens
issued before the restart.  After partitions heal, chaos-dropped reply
frames are replayed DLQ-style via
:meth:`~repro.net.service.ElectionService.replay_dlq`.

Safety is gated **mid-stream**, not post-hoc: every grant the service
issues flows through a :class:`LeaseMonitor` attached to the service's
``grant_hook``, and optional ``repro net`` election episodes run under
the phase plan current at launch with their traces streamed through
:func:`repro.check.streaming.audit_trace`.  The first violation aborts
the soak immediately and writes a **replayable incident artifact** —
seed, profile, full phase plan, the complete grant log with a canonical
digest, the violation, and a metrics snapshot —
which :func:`replay_incident` re-verifies deterministically without any
network at all.

The negative control: ``inject_violation_at_s`` fabricates a
stale-epoch double grant and pushes it down the same hook path a real
grant takes, proving the monitor catches exactly the class of bug the
epoch fence exists to prevent (CI runs this on every push).

Paper mapping: the soak is Lemma A.2 ("at most one winner") stress-tested
per *name* over wall-clock time — each key is an independent repeated
election whose winners must be totally ordered by fencing epoch, under
an adversary (the chaos plan) that the paper only gets to pick once per
execution but here gets to re-pick every phase.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any

from ..net.chaos import CHAOS_PROFILES, PhasedChaosPlan, make_phased_plan
from ..net.client import ServiceClient
from ..net.service import ElectionService, GrantRecord, ServiceRun
from ..obs.metrics import MetricsRegistry, merge_snapshots
from ..sim.rng import derive_seed

__all__ = [
    "IncidentReplay",
    "LeaseMonitor",
    "SOAK_FORMAT_VERSION",
    "SoakError",
    "SoakReport",
    "SoakViolation",
    "load_incident",
    "replay_incident",
    "run_soak",
]

#: Version stamp written into incident artifacts so future readers can
#: reject shapes they do not understand.
SOAK_FORMAT_VERSION = 1

#: The grant-log fields serialized into incident artifacts, in the order
#: :func:`_grants_digest` canonicalizes them.
_GRANT_FIELDS = (
    "key", "epoch", "holder", "session", "granted_ns", "ended_ns", "reason",
)


class SoakError(RuntimeError):
    """A soak failed to run: bad configuration or infrastructure fault."""


@dataclass(slots=True)
class SoakViolation:
    """One safety violation caught by the soak, with where it came from.

    ``source`` is ``"monitor"`` (the mid-stream grant gate),
    ``"episode"`` (a streamed ``repro net`` trace), or ``"post-hoc"``
    (the end-of-run :func:`~repro.check.invariants.evaluate_service_run`
    sweep — a monitor gap if it ever fires alone).  ``grant_index`` is
    the zero-based position in the grant log for monitor violations.
    """

    invariant: str
    message: str
    grant_index: int | None = None
    source: str = "monitor"

    def to_obj(self) -> dict[str, Any]:
        """JSON-safe form for incident artifacts."""
        return {
            "invariant": self.invariant, "message": self.message,
            "grant_index": self.grant_index, "source": self.source,
        }

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "SoakViolation":
        """Rebuild a violation from its :meth:`to_obj` form."""
        return cls(
            invariant=str(obj["invariant"]), message=str(obj["message"]),
            grant_index=obj.get("grant_index"),
            source=str(obj.get("source", "monitor")),
        )


class LeaseMonitor:
    """The mid-stream grant gate: per-key epochs must strictly increase.

    Attached to the service's ``grant_hook``, it sees every
    :class:`~repro.net.service.GrantRecord` the moment it is issued and
    fails fast on the first stale-epoch double grant — the streaming
    face of ``lease_epoch_monotonic`` from :mod:`repro.check.invariants`.
    Pure function of the grant sequence, so :func:`replay_incident` can
    re-run it over a recorded log and reach the same verdict.
    """

    def __init__(self) -> None:
        #: Per-key fencing floor: the highest epoch granted so far.
        self.floors: dict[str, int] = {}
        #: Grants observed (also the index of the *next* grant).
        self.grants = 0
        #: The first violation, or ``None`` while the stream is clean.
        self.violation: SoakViolation | None = None

    def observe(self, record: GrantRecord) -> SoakViolation | None:
        """Feed one grant; returns the violation it causes, if any."""
        index = self.grants
        self.grants += 1
        floor = self.floors.get(record.key)
        if floor is not None and record.epoch <= floor:
            violation = SoakViolation(
                invariant="lease_epoch_monotonic",
                message=(
                    f"grant #{index}: key {record.key!r} granted to "
                    f"{record.holder!r} at epoch {record.epoch} but the "
                    f"fencing floor is {floor} — stale-epoch double grant"
                ),
                grant_index=index,
            )
            if self.violation is None:
                self.violation = violation
            return violation
        self.floors[record.key] = record.epoch
        return None


@dataclass(slots=True)
class SoakReport:
    """Everything one soak produced, shaped for the CLI and for tests."""

    profile: str
    seed: int
    n: int
    keys: int
    contenders: int
    duration_s: float
    elapsed_s: float
    grants: int
    kills: int
    recoveries: int
    service_restarts: int
    dlq_replayed: int
    episodes: int
    phases_seen: tuple[str, ...]
    snapshot: dict[str, Any]
    violation: SoakViolation | None = None
    incident_path: str | None = None
    injected: bool = False

    @property
    def ok(self) -> bool:
        """``True`` when the whole soak stayed violation-free."""
        return self.violation is None

    def describe(self) -> str:
        """Multi-line human summary, the ``repro soak`` output."""
        lines = [
            f"soak:          profile={self.profile} seed={self.seed} "
            f"n={self.n} keys={self.keys} contenders={self.contenders}",
            f"duration:      {self.elapsed_s:.1f}s elapsed of "
            f"{self.duration_s:.1f}s requested",
            f"grants:        {self.grants} "
            f"(kills={self.kills}, recoveries={self.recoveries}, "
            f"service restarts={self.service_restarts})",
            f"chaos phases:  {' -> '.join(self.phases_seen) or '(none)'}",
            f"dlq:           {self.dlq_replayed} dropped frames replayed "
            f"after heal",
            f"episodes:      {self.episodes} net elections streamed "
            f"through the checker",
        ]
        if self.violation is None:
            lines.append("invariants:    all hold (every grant epoch-fenced)")
        else:
            flag = " [injected]" if self.injected else ""
            lines.append(
                f"VIOLATION:     [{self.violation.source}]{flag} "
                f"{self.violation.invariant}: {self.violation.message}"
            )
            if self.incident_path is not None:
                lines.append(f"incident:      {self.incident_path}")
        return "\n".join(lines)


@dataclass
class _SoakState:
    """Mutable rendezvous between the soak's concurrent tasks."""

    stop: asyncio.Event
    monitor: LeaseMonitor
    registry: MetricsRegistry
    service: ElectionService
    host: str = ""
    port: int = 0
    grant_log: list[GrantRecord] = field(default_factory=list)
    fenced_base: list[Any] = field(default_factory=list)
    snapshots: list[dict[str, Any]] = field(default_factory=list)
    violation: SoakViolation | None = None
    kills: int = 0
    recoveries: int = 0
    service_restarts: int = 0
    dlq_replayed: int = 0
    episodes: int = 0
    phases_seen: list[str] = field(default_factory=list)
    injected: bool = False

    def flag(self, violation: SoakViolation) -> None:
        """Record the first violation and abort the soak immediately."""
        if self.violation is None:
            self.violation = violation
        self.stop.set()


async def _soak_contender(
    state: _SoakState,
    key: str,
    client_id: str,
    pid: int,
    ttl_ms: float,
    hold_ms: float,
    wait_ms: float,
    kill_round: int,
) -> None:
    """One contender session: acquire / hold / release until told to stop.

    Every ``kill_round`` wins it aborts its own connection *while
    holding the lease* — no release, the transport just dies — then
    reconnects to whatever host/port the state currently advertises and
    re-acquires.  The first successful grant after any session loss
    (deliberate kill, service restart, chaos-induced error) counts as a
    restart-and-recover event.
    """
    client: ServiceClient | None = None
    recovering = False
    wins = 0
    try:
        while not state.stop.is_set():
            if client is None:
                try:
                    client = await ServiceClient.connect(
                        state.host, state.port, client_id=client_id, pid=pid,
                    )
                except Exception:
                    # Service mid-restart or port not up yet: back off.
                    await asyncio.sleep(0.05)
                    continue
            issued = time.perf_counter()
            try:
                lease = await client.acquire(
                    key, ttl_ms=ttl_ms, wait_ms=wait_ms
                )
            except Exception:
                client = None
                recovering = True
                continue
            if lease is None:
                state.registry.counter("soak.busy").inc()
                continue
            state.registry.histogram("soak.acquire_ms").observe(
                (time.perf_counter() - issued) * 1e3
            )
            state.registry.counter("soak.grants").inc()
            if recovering:
                recovering = False
                state.recoveries += 1
                state.registry.counter("soak.recoveries").inc()
            wins += 1
            if hold_ms > 0:
                await asyncio.sleep(hold_ms / 1000.0)
            if kill_round > 0 and wins % kill_round == 0:
                state.kills += 1
                state.registry.counter("soak.kills").inc()
                client.abort()
                client = None
                recovering = True
                continue
            try:
                await client.release(lease)
            except Exception:
                client = None
                recovering = True
    finally:
        if client is not None:
            try:
                await client.close()
            except Exception:
                pass


async def _phase_watcher(
    state: _SoakState, plan: PhasedChaosPlan, t0: float
) -> None:
    """Track phase rotation; replay the DLQ on every phase transition.

    Replaying on *every* boundary (not just heal phases) is deliberate:
    a frame dropped in a drop phase should reach its session as soon as
    the weather changes, and replaying into continued chaos is exactly
    the at-most-once machinery's job to absorb.
    """
    last_index: int | None = None
    while not state.stop.is_set():
        resolved = plan.resolve((time.perf_counter() - t0) * 1e3)
        if resolved is not None:
            index, phase, _ = resolved
            if last_index is not None and index != last_index:
                state.dlq_replayed += state.service.replay_dlq()
            if index != last_index:
                if not state.phases_seen or state.phases_seen[-1] != phase.name:
                    state.phases_seen.append(phase.name)
                last_index = index
        await asyncio.sleep(0.025)


async def _service_restart(
    state: _SoakState,
    plan: PhasedChaosPlan,
    at_s: float,
    ttl_ms: float,
    seed: int,
) -> None:
    """Kill and restart the service mid-soak, carrying the namespace over.

    The old instance's fencing floors survive via ``export_namespace``,
    read once it has stopped; its leases deliberately do not (a restart
    ends every hold), so any still-open grant is settled as a crash
    before the successor starts granting the same keys at higher epochs.
    """
    await asyncio.sleep(at_s)
    if state.stop.is_set():
        return
    old = state.service
    # Stop first: connection callbacks still run during ``stop()``, and
    # only a stopped service's namespace is final.
    await old.stop()
    namespace = old.export_namespace()
    state.fenced_base.extend(old.fenced)
    state.snapshots.append(old.snapshot())
    ended = time.monotonic_ns()
    for record in old.history:
        if record.ended_ns is None:
            record.ended_ns = ended
            record.reason = "crash"
    fresh = ElectionService(
        seed=seed, default_ttl_ms=ttl_ms, plan=plan,
        namespace=namespace, grant_hook=old.grant_hook,
    )
    state.host, state.port = await fresh.start()
    state.service = fresh
    state.service_restarts += 1
    state.registry.counter("soak.service_restarts").inc()


async def _inject_stale_grant(state: _SoakState, at_s: float) -> None:
    """Negative control: forge a stale-epoch double grant mid-stream.

    Waits for at least one real grant so there is a fencing floor to
    violate, then appends a :class:`~repro.net.service.GrantRecord`
    reusing that floor and pushes it through the same history + hook
    path a genuine grant takes — indistinguishable from a service bug
    except by its stale epoch, which is the monitor's whole job.
    """
    await asyncio.sleep(at_s)
    while not state.stop.is_set() and not state.monitor.floors:
        await asyncio.sleep(0.01)
    if state.stop.is_set():
        return
    key = sorted(state.monitor.floors)[0]
    floor = state.monitor.floors[key]
    state.injected = True
    record = GrantRecord(
        key=key, epoch=floor, holder="soak-evil-twin", session=-1,
        granted_ns=time.monotonic_ns(),
    )
    service = state.service
    service.history.append(record)
    if service.grant_hook is not None:
        service.grant_hook(record)


def _audit_episode(trace_path: str, task: str, run: Any) -> SoakViolation | None:
    """Stream one finished episode's trace through the checker.

    Returns the first violation: a mid-stream invariant break, a
    malformed/truncated stream, or a run-level violation the driver's
    own post-hoc check reported.
    """
    from ..check.streaming import StreamError, StreamingViolation, audit_trace

    try:
        audit_trace(trace_path, task)
    except StreamingViolation as exc:
        return SoakViolation(
            invariant=exc.invariant,
            message=f"episode trace {trace_path}: {exc}",
            source="episode",
        )
    except StreamError as exc:
        return SoakViolation(
            invariant="stream_integrity", message=str(exc), source="episode",
        )
    if run is not None and run.violations:
        name, message = run.violations[0]
        return SoakViolation(
            invariant=name, message=f"episode: {message}", source="episode",
        )
    return None


async def _episode_loop(
    state: _SoakState,
    plan: PhasedChaosPlan,
    t0: float,
    every_s: float,
    task: str,
    n: int,
    seed: int,
    out_dir: str,
    duration_s: float,
) -> None:
    """Periodically run a full ``repro net`` election under current weather.

    Each episode freezes the chaos phase active at launch (a whole
    election is short next to a phase) and streams the merged trace
    through the streaming checker before the next one starts.
    """
    from ..net.driver import run_net

    index = 0
    while not state.stop.is_set():
        try:
            await asyncio.wait_for(state.stop.wait(), timeout=every_s)
            return
        except asyncio.TimeoutError:
            pass
        if time.perf_counter() - t0 >= duration_s:
            return
        phase_plan = plan.plan_at((time.perf_counter() - t0) * 1e3)
        trace_path = os.path.join(out_dir, f"soak-episode-{index:03d}.jsonl")
        episode_seed = derive_seed(seed, f"soak/episode/{index}")
        index += 1
        try:
            run = await asyncio.to_thread(
                run_net,
                task=task, n=n, seed=episode_seed, plan=phase_plan,
                trace_path=trace_path, deadline_s=60.0,
            )
        except Exception:
            # Infrastructure noise (port exhaustion, deadline under heavy
            # chaos) is not a safety violation; count it and move on.
            state.registry.counter("soak.episode_errors").inc()
            continue
        state.episodes += 1
        violation = _audit_episode(trace_path, task, run)
        if violation is not None:
            state.flag(violation)
            return


def _grants_digest(grants: list[dict[str, Any]]) -> str:
    """SHA-256 over the canonical JSON lines of a grant log."""
    payload = "\n".join(
        json.dumps(obj, sort_keys=True, separators=(",", ":"))
        for obj in grants
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _write_incident(
    out_dir: str,
    plan: PhasedChaosPlan,
    state: _SoakState,
    snapshot: dict[str, Any],
    profile: str,
    seed: int,
    n: int,
    keys: int,
    contenders: int,
    duration_s: float,
    elapsed_s: float,
) -> str:
    """Write the replayable incident artifact; returns its path."""
    grants = [record.to_obj() for record in state.grant_log]
    incident = {
        "format": SOAK_FORMAT_VERSION,
        "kind": "soak-incident",
        "profile": profile,
        "seed": seed,
        "n": n,
        "keys": keys,
        "contenders": contenders,
        "duration_s": duration_s,
        "elapsed_s": elapsed_s,
        "plan": plan.to_obj(),
        "violation": state.violation.to_obj() if state.violation else None,
        "injected": state.injected,
        "grants": grants,
        "grants_sha256": _grants_digest(grants),
        "metrics": snapshot,
        "recoveries": state.recoveries,
        "service_restarts": state.service_restarts,
        "dlq_replayed": state.dlq_replayed,
        "episodes": state.episodes,
        "phases_seen": list(state.phases_seen),
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"soak-incident-{profile}-seed{seed}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(incident, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


async def _run_soak_async(
    duration_s: float,
    seed: int,
    profile: str,
    n: int,
    keys: int,
    contenders: int,
    ttl_ms: float,
    hold_ms: float,
    wait_ms: float,
    kill_every: int,
    restart_service_at: float | None,
    episode_every_s: float | None,
    episode_task: str,
    out_dir: str,
    inject_violation_at_s: float | None,
) -> SoakReport:
    """The soak's async body: start the stack, fan out, gate, report."""
    plan = make_phased_plan(profile, seed, n)
    registry = MetricsRegistry()
    monitor = LeaseMonitor()
    stop = asyncio.Event()
    state = _SoakState(
        stop=stop, monitor=monitor, registry=registry,
        service=None,  # type: ignore[arg-type] — set right below
    )

    def on_grant(record: GrantRecord) -> None:
        """Grant hook: log every grant and gate it through the monitor."""
        state.grant_log.append(record)
        violation = monitor.observe(record)
        if violation is not None:
            state.flag(violation)

    service = ElectionService(
        seed=seed, default_ttl_ms=ttl_ms, plan=plan, grant_hook=on_grant,
    )
    state.service = service
    state.host, state.port = await service.start()
    t0 = time.perf_counter()

    tasks: list[asyncio.Task] = []
    for key_index in range(keys):
        key = f"soak/{key_index:03d}"
        for contender in range(contenders):
            pid = key_index * contenders + contender
            # Stagger deliberate kills so sessions do not die in lockstep.
            kill_round = 0
            if kill_every > 0:
                kill_round = kill_every + (
                    derive_seed(seed, f"soak/kill/{pid}") % kill_every
                )
            tasks.append(asyncio.create_task(_soak_contender(
                state, key, f"soak-{key_index}-{contender}", pid,
                ttl_ms, hold_ms, wait_ms, kill_round,
            )))
    tasks.append(asyncio.create_task(_phase_watcher(state, plan, t0)))
    if restart_service_at is not None:
        tasks.append(asyncio.create_task(_service_restart(
            state, plan, duration_s * restart_service_at, ttl_ms, seed,
        )))
    if inject_violation_at_s is not None:
        tasks.append(asyncio.create_task(
            _inject_stale_grant(state, inject_violation_at_s)
        ))
    if episode_every_s is not None:
        tasks.append(asyncio.create_task(_episode_loop(
            state, plan, t0, episode_every_s, episode_task, n, seed,
            out_dir, duration_s,
        )))

    try:
        try:
            await asyncio.wait_for(stop.wait(), timeout=duration_s)
        except asyncio.TimeoutError:
            pass
    finally:
        stop.set()
        elapsed_s = time.perf_counter() - t0
        # Cancel-first shutdown: a contender mid-RPC can retry for
        # seconds under chaos, and cancellation is safe (its ``finally``
        # closes the transport; the service sweeps the lease).
        await asyncio.wait(tasks, timeout=0.25)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    service = state.service
    run = ServiceRun(
        n=max(1, keys), k=len(state.grant_log),
        history=list(state.grant_log),
        fenced=state.fenced_base + list(service.fenced),
    )
    state.snapshots.append(service.snapshot())
    await service.stop()

    if state.violation is None:
        from ..check.invariants import evaluate_service_run

        for name, message in evaluate_service_run(run):
            state.violation = SoakViolation(
                invariant=name, message=message, source="post-hoc",
            )
            break

    snapshot = merge_snapshots([registry.snapshot(), *state.snapshots])
    incident_path: str | None = None
    if state.violation is not None:
        incident_path = _write_incident(
            out_dir, plan, state, snapshot, profile, seed, n, keys,
            contenders, duration_s, elapsed_s,
        )
    return SoakReport(
        profile=profile, seed=seed, n=n, keys=keys, contenders=contenders,
        duration_s=duration_s, elapsed_s=elapsed_s,
        grants=len(state.grant_log), kills=state.kills,
        recoveries=state.recoveries,
        service_restarts=state.service_restarts,
        dlq_replayed=state.dlq_replayed, episodes=state.episodes,
        phases_seen=tuple(state.phases_seen), snapshot=snapshot,
        violation=state.violation, incident_path=incident_path,
        injected=state.injected,
    )


def run_soak(
    duration_s: float = 60.0,
    seed: int = 0,
    profile: str = "rolling",
    n: int = 5,
    keys: int = 2,
    contenders: int = 3,
    ttl_ms: float = 400.0,
    hold_ms: float = 15.0,
    wait_ms: float = 250.0,
    kill_every: int = 6,
    restart_service_at: float | None = 0.5,
    episode_every_s: float | None = None,
    episode_task: str = "elect",
    out_dir: str = ".",
    inject_violation_at_s: float | None = None,
) -> SoakReport:
    """Run one time-boxed chaos soak; the ``repro soak`` entry point.

    ``duration_s`` bounds the soak; a violation ends it early.  ``n`` is
    both the partition universe of the chaos profile and the size of the
    periodic net-election episodes (enabled by ``episode_every_s``).
    ``keys`` × ``contenders`` sessions contend; each deliberately kills
    its own session roughly every ``kill_every`` wins and must
    restart-and-recover.  ``restart_service_at`` (fraction of the
    duration, ``None`` to disable) restarts the service itself with its
    namespace carried over.  ``inject_violation_at_s`` arms the
    negative control.  Raises :class:`SoakError` on bad configuration;
    violations are reported, not raised.
    """
    if duration_s <= 0:
        raise SoakError(f"duration must be positive, got {duration_s}")
    if profile not in CHAOS_PROFILES:
        raise SoakError(
            f"unknown chaos profile {profile!r}; "
            f"known: {sorted(CHAOS_PROFILES)}"
        )
    if keys < 1 or contenders < 1:
        raise SoakError(
            f"need at least one key and one contender, "
            f"got keys={keys} contenders={contenders}"
        )
    if restart_service_at is not None and not 0.0 < restart_service_at < 1.0:
        raise SoakError(
            f"restart_service_at must be in (0, 1) or None, "
            f"got {restart_service_at}"
        )
    return asyncio.run(_run_soak_async(
        duration_s=duration_s, seed=seed, profile=profile, n=n, keys=keys,
        contenders=contenders, ttl_ms=ttl_ms, hold_ms=hold_ms,
        wait_ms=wait_ms, kill_every=kill_every,
        restart_service_at=restart_service_at,
        episode_every_s=episode_every_s, episode_task=episode_task,
        out_dir=out_dir, inject_violation_at_s=inject_violation_at_s,
    ))


# ---------------------------------------------------------------------------
# Incident replay
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class IncidentReplay:
    """The verdict of deterministically re-verifying an incident artifact."""

    path: str
    recorded: SoakViolation | None
    replayed: SoakViolation | None
    digest_ok: bool
    injected: bool

    @property
    def ok(self) -> bool:
        """``True`` when the artifact replays to the recorded verdict.

        The grant-log digest must match, and for monitor-sourced
        violations the replayed monitor must fire the same invariant at
        the same grant index with the same message.  Episode- and
        post-hoc-sourced violations carry their evidence (trace path /
        message) rather than replaying through the monitor, so for them
        digest integrity is the whole check.
        """
        if not self.digest_ok:
            return False
        if self.recorded is None or self.recorded.source != "monitor":
            return True
        return (
            self.replayed is not None
            and self.replayed.invariant == self.recorded.invariant
            and self.replayed.grant_index == self.recorded.grant_index
            and self.replayed.message == self.recorded.message
        )

    def describe(self) -> str:
        """Human summary for ``repro soak --replay``."""
        lines = [f"incident:      {self.path}"]
        if self.recorded is not None:
            flag = " [injected]" if self.injected else ""
            lines.append(
                f"recorded:      [{self.recorded.source}]{flag} "
                f"{self.recorded.invariant}: {self.recorded.message}"
            )
        lines.append(
            f"grant digest:  {'matches' if self.digest_ok else 'MISMATCH'}"
        )
        if self.recorded is not None and self.recorded.source == "monitor":
            verdict = (
                "same violation at the same grant"
                if self.ok else "DIVERGED"
            )
            lines.append(f"monitor replay: {verdict}")
        lines.append(f"replay:        {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def load_incident(path: str) -> dict[str, Any]:
    """Load and structurally validate an incident artifact."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise SoakError(f"cannot read incident {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SoakError(f"{path}: not valid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict) or obj.get("kind") != "soak-incident":
        raise SoakError(f"{path}: not a soak incident artifact")
    if obj.get("format") != SOAK_FORMAT_VERSION:
        raise SoakError(
            f"{path}: incident format {obj.get('format')!r} is not "
            f"supported (expected {SOAK_FORMAT_VERSION})"
        )
    for field_name in ("grants", "grants_sha256", "violation", "plan"):
        if field_name not in obj:
            raise SoakError(f"{path}: incident is missing {field_name!r}")
    return obj


def replay_incident(path: str) -> IncidentReplay:
    """Deterministically re-verify an incident artifact, offline.

    Recomputes the grant-log digest and re-runs the
    :class:`LeaseMonitor` over the recorded grants — a pure function of
    the log, so the verdict is bit-for-bit reproducible on any machine
    with no service, sockets, or timing involved.
    """
    obj = load_incident(path)
    grants = obj["grants"]
    digest_ok = _grants_digest(grants) == obj["grants_sha256"]
    recorded = (
        SoakViolation.from_obj(obj["violation"])
        if obj["violation"] is not None else None
    )
    monitor = LeaseMonitor()
    for grant in grants:
        record = GrantRecord(**{name: grant[name] for name in _GRANT_FIELDS})
        monitor.observe(record)
    return IncidentReplay(
        path=path,
        recorded=recorded,
        replayed=monitor.violation,
        digest_ok=digest_ok,
        injected=bool(obj.get("injected", False)),
    )
