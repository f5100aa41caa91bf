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
issues flows from the service's ``grant_hook`` through the streaming
serve-task folds of :mod:`repro.check.invariants` (the epoch fence),
and optional ``repro net`` election episodes run under the phase plan
current at launch with their traces streamed through
:class:`repro.check.streaming.StreamingChecker`.  The first violation aborts
the soak immediately and writes a **replayable incident artifact** —
seed, profile, full phase plan, the complete grant log with a canonical
digest, the violation, and a metrics snapshot —
which :func:`replay_incident` re-verifies deterministically without any
network at all.

The negative control: ``inject_violation_at_s`` fabricates a
stale-epoch double grant and pushes it down the same hook path a real
grant takes, proving the gate catches exactly the class of bug the
epoch fence exists to prevent (CI runs this on every push).

Paper mapping: the soak is Lemma A.2 ("at most one winner") stress-tested
per *name* over wall-clock time — each key is an independent repeated
election whose winners must be totally ordered by fencing epoch, under
an adversary (the chaos plan) that the paper only gets to pick once per
execution but here gets to re-pick every phase.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any

from ..errors import ReproError
from ..net.chaos import CHAOS_PROFILES, PhasedChaosPlan, make_phased_plan
from ..net.client import ServiceClient
from ..net.service import ElectionService, GrantRecord, ServiceRun
from ..obs.jsonl import (
    ARTIFACT_VERSIONS,
    canonical_json,
    read_artifact,
    sha256_lines,
    write_artifact,
)
from ..obs.metrics import MetricsRegistry, merge_snapshots
from ..sim.rng import derive_seed

__all__ = [
    "IncidentReplay",
    "SoakError",
    "SoakReport",
    "SoakViolation",
    "replay_incident",
    "run_soak",
]

#: The grant-log fields serialized into incident artifacts.
_GRANT_FIELDS = (
    "key", "epoch", "holder", "session", "granted_ns", "ended_ns", "reason",
)


class SoakError(ReproError, RuntimeError):
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
        return asdict(self)

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "SoakViolation":
        """Rebuild a violation from its :meth:`to_obj` form."""
        return cls(
            invariant=str(obj["invariant"]), message=str(obj["message"]),
            grant_index=obj.get("grant_index"),
            source=str(obj.get("source", "monitor")),
        )


def _gate(folds: list, record: GrantRecord, index: int) -> SoakViolation | None:
    """Pass grant #``index`` to the streaming serve folds; its violation, if any.

    ``folds`` come from :func:`repro.check.invariants.stream_folds`, so
    the soak judges a grant exactly as the post-hoc check judges it in
    the grant log — a pure function of the grant sequence, which is what
    lets :func:`replay_incident` reach the same verdict offline.
    """
    for name, fold in folds:
        message = fold.observe(record)
        if message is not None:
            return SoakViolation(
                invariant=name, message=f"grant #{index}: {message}",
                grant_index=index,
            )
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
    old.leases.crash_all(time.monotonic())
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
    except by its stale epoch, which is the grant gate's whole job.
    """
    await asyncio.sleep(at_s)
    while not state.stop.is_set() and not state.grant_log:
        await asyncio.sleep(0.01)
    if state.stop.is_set():
        return
    floors = {record.key: record.epoch for record in state.grant_log}
    key = sorted(floors)[0]
    floor = floors[key]
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
    from ..check.streaming import StreamingChecker, StreamingViolation
    from ..obs.events import feed
    from ..obs.jsonl import ArtifactError, iter_events

    try:
        feed(iter_events(trace_path), StreamingChecker(task))
    except StreamingViolation as exc:
        return SoakViolation(
            invariant=exc.invariant,
            message=f"episode trace {trace_path}: {exc}",
            source="episode",
        )
    except ArtifactError as exc:
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
        "kind": "soak-incident",
        "version": ARTIFACT_VERSIONS["soak-incident"],
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
        "grants_sha256": sha256_lines(map(canonical_json, grants)),
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
    return write_artifact(path, incident)


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
    from ..check.invariants import stream_folds

    plan = make_phased_plan(profile, seed, n)
    registry = MetricsRegistry()
    folds = stream_folds("serve")
    stop = asyncio.Event()
    state = _SoakState(
        stop=stop, registry=registry,
        service=None,  # type: ignore[arg-type] — set right below
    )

    def on_grant(record: GrantRecord) -> None:
        """Grant hook: log every grant and gate it through the folds."""
        violation = _gate(folds, record, len(state.grant_log))
        state.grant_log.append(record)
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
        violations the replayed grant gate must fire the same invariant
        at the same grant index with the same message.  Episode- and
        post-hoc-sourced violations carry their evidence (trace path /
        message) rather than replaying through the gate, so for them
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
        """Human summary for ``repro replay``."""
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


def replay_incident(path: str) -> IncidentReplay:
    """Deterministically re-verify an incident artifact, offline.

    Recomputes the grant-log digest and re-runs the grant gate's folds
    over the recorded grants up to the first one they flag, which is the
    one the live soak kept — a pure function of the log, so the verdict
    is bit-for-bit reproducible on any machine with no service, sockets,
    or timing involved.
    """
    from ..check.invariants import stream_folds

    _, obj = read_artifact(path, "soak-incident")
    grants = obj["grants"]
    digest_ok = sha256_lines(map(canonical_json, grants)) == obj["grants_sha256"]
    recorded = (
        SoakViolation.from_obj(obj["violation"])
        if obj["violation"] is not None else None
    )
    folds = stream_folds("serve")
    replayed = None
    for index, grant in enumerate(grants):
        record = GrantRecord(**{name: grant[name] for name in _GRANT_FIELDS})
        replayed = _gate(folds, record, index)
        if replayed is not None:
            break
    return IncidentReplay(
        path=path,
        recorded=recorded,
        replayed=replayed,
        digest_ok=digest_ok,
        injected=bool(obj.get("injected", False)),
    )
