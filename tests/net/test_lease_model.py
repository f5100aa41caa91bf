"""Every small-scope interleaving of the lease state machine, checked.

:class:`~repro.net.lease.LeaseTable` takes time as an argument and
returns its decisions, so it can be driven without sockets or a clock.
This module searches every sequence of client operations up to a fixed
depth, breadth first, over two scopes (one key with three clients, two
keys with two clients).  The operations are:

* ``acquire`` with ``wait_ms`` 0 (answered BUSY when held) and with a
  positive wait (queued as a contender);
* ``renew`` / ``release`` presenting the client's latest token, which
  goes stale once the lease has moved on;
* ``retry``: the client's last request again, under the same rpc, after
  its reply was dropped.  It goes through the reply-cache lookup the
  service's dispatch uses (:meth:`~repro.net.service._Session.cached`),
  and re-executes only when nothing was cached (a queued acquire);
* ``crash``: the session closes (its leases fail over) and the client
  reconnects on a fresh session, still holding its old tokens;
* ``advance``: the clock moves to the next scheduled deadline and every
  due key is swept, as the service's timer task does.

Every reached state is judged by the serve-task invariants of
:func:`~repro.check.invariants.evaluate_service_run` on the grant
history (one holder per ``(key, epoch)``, increasing epochs, disjoint
holds), and every reply by at-most-once: no ``(session, rpc)`` is ever
answered twice by the table, so a retried ACQUIRE cannot grant twice.
States that agree on the table, the clients and each key's latest grant
are explored once.  A negative control (the handoff grant reusing the
vacated epoch) must be found by the same search.

Print the search's depth, state count and time with::

    PYTHONPATH=src python tests/net/test_lease_model.py
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.check.invariants import evaluate_service_run
from repro.net.lease import EVENT, LeaseState, LeaseTable, ReplyStatus
from repro.net.service import SERVICE_PID, ServiceRun, _Session
from repro.net.wire import Frame, FrameType
from repro.obs.metrics import MetricsRegistry

TTL_MS = 100.0
WAIT_MS = 150.0
GRACE = 0.25

#: (keys, clients, depth) of each searched scope.
SCOPES = (
    (("k",), ("a", "b", "c"), 5),
    (("k", "j"), ("a", "b"), 5),
)


class Model:
    """A lease table, its clients' sessions, and what each client learnt."""

    def __init__(self, table_cls, keys, clients) -> None:
        self.table = table_cls(0, TTL_MS / 1000.0, GRACE, "draw", MetricsRegistry())
        self.keys = keys
        self.clients = clients
        self.now = 0.0
        self.sessions = {}
        self.client_of = {}
        for client in clients:
            self._connect(client)
        self.rpcs = dict.fromkeys(clients, 0)
        #: client -> (rpc, request) of its last request, for a retry.
        self.last = {}
        #: (client, key) -> epoch of the latest grant the client heard of.
        self.tokens = {}
        self.answered = set()
        self.violation = None

    def _connect(self, client) -> None:
        sid = len(self.client_of) + 1
        self.sessions[client] = _Session(service=None, sid=sid)
        self.client_of[sid] = client

    def ops(self):
        """Every operation enabled in this state."""
        for client in self.clients:
            for key in self.keys:
                yield ("acquire", client, key, 0.0)
                yield ("acquire", client, key, WAIT_MS)
                if (client, key) in self.tokens:
                    yield ("renew", client, key)
                    yield ("release", client, key)
            if client in self.last:
                yield ("retry", client)
            yield ("crash", client)
        if self.table.next_deadline() is not None:
            yield ("advance",)

    def apply(self, op) -> None:
        verb = op[0]
        table = self.table
        if verb == "advance":
            self.now = table.next_deadline()
            for key in table.due(self.now):
                self._deliver(table.sweep(key, self.now))
        elif verb == "crash":
            session = self.sessions[op[1]]
            session.closed = True
            self._deliver(table.crash(session, self.now))
            self._connect(op[1])
            self.last.pop(op[1], None)
        elif verb == "retry":
            self._request(op[1], *self.last[op[1]])
        else:
            client, key = op[1], op[2]
            self.rpcs[client] += 1
            arg = op[3] if verb == "acquire" else self.tokens[(client, key)]
            self.last[client] = (self.rpcs[client], (verb, key, arg))
            self._request(client, *self.last[client])

    def _request(self, client, rpc, request) -> None:
        session = self.sessions[client]
        cached = session.cached(rpc)
        if cached is not None:
            self._learn(client, cached.fields)
            return
        verb, key, arg = request
        table, now = self.table, self.now
        if verb == "acquire":
            out = table.acquire(session, rpc, key, client, TTL_MS, arg, now)
        elif verb == "renew":
            out = table.renew(session, rpc, key, client, arg, None, now)
        else:
            out = table.release(session, rpc, key, client, arg, now)
        self._deliver(out)

    def _deliver(self, out) -> None:
        for kind, session, fields in out:
            assert kind is not EVENT  # nobody watches in the model
            rpc = fields["rpc"]
            if (session.sid, rpc) in self.answered and self.violation is None:
                self.violation = (
                    "at_most_once",
                    f"session {session.sid} rpc {rpc} answered twice",
                )
            self.answered.add((session.sid, rpc))
            session.cache_reply(rpc, Frame(FrameType.SVC_REPLY, SERVICE_PID, fields))
            if not session.closed:
                self._learn(self.client_of[session.sid], fields)

    def _learn(self, client, fields) -> None:
        if fields["status"] == ReplyStatus.GRANTED:
            self.tokens[(client, fields["key"])] = fields["epoch"]

    def fingerprint(self):
        """The state up to renaming: times relative to now, and sessions,
        rpcs and tokens by their role.  Equal fingerprints are explored once."""
        now, table, sessions = self.now, self.table, self.sessions

        def rel(when):
            return round(when - now, 9)

        def current(session):
            return session is not None and sessions[
                self.client_of[session.sid]] is session

        def pending(client, session, rpc):
            return current(session) and self.last.get(client, (None,))[0] == rpc

        latest = {record.key: record for record in table.history}
        keys = tuple(
            (state.epoch, state.state, state.holder,
             current(state.holder_session), rel(state.expires_at),
             state.ttl_s,
             tuple((w.client, pending(w.client, w.session, w.rpc),
                    rel(w.deadline)) for w in state.waiters),
             (latest[key].holder, latest[key].epoch,
              latest[key].ended_ns is None) if key in latest else None)
            for key, state in sorted(table.keys.items())
        )
        heap = tuple(sorted((rel(when), key) for when, _, key in table._heap))

        def token(client, key):
            # Epochs only grow: a stale token stays stale whatever its value.
            held = self.tokens.get((client, key))
            return held if held is None else held == table.keys[key].epoch

        clients = []
        for client in self.clients:
            last = self.last.get(client)
            if last is not None:
                cached = sessions[client].cached(last[0])
                if cached is not None:  # a retry only resends it
                    last = (cached.fields["status"], cached.fields.get("key"),
                            cached.fields.get("epoch"))
                else:  # only a queued ACQUIRE has no reply yet
                    last = last[1]
            clients.append((last, tuple(token(client, key) for key in self.keys)))
        return keys, heap, tuple(clients)


@dataclass
class SearchReport:
    scope: str
    depth: int
    states: int
    transitions: int
    seconds: float
    violation: tuple | None = None
    path: tuple = ()

    def describe(self) -> str:
        text = (
            f"{self.scope}: depth {self.depth}, {self.states:,} states, "
            f"{self.transitions:,} transitions, {self.seconds:.2f} s"
        )
        if self.violation is not None:
            name, message = self.violation
            text += f"; {name} at {list(self.path)}: {message}"
        return text


def _replay(table_cls, keys, clients, path) -> Model:
    model = Model(table_cls, keys, clients)
    for op in path:
        model.apply(op)
    return model


def search(keys, clients, depth, table_cls=LeaseTable) -> SearchReport:
    """Breadth-first search of every interleaving up to ``depth`` operations.

    Each state is rebuilt by replaying its path from the empty table, so
    no state is ever copied.  Stops at the first violation.
    """
    started = time.perf_counter()
    report = SearchReport(
        f"{len(keys)} key(s) x {len(clients)} clients", depth, 0, 0, 0.0,
    )
    verdicts: dict[tuple, list] = {}
    root = _replay(table_cls, keys, clients, ())
    seen = {root.fingerprint()}

    def finish(violation=None, path=()) -> SearchReport:
        report.violation, report.path = violation, path
        report.states, report.seconds = len(seen), time.perf_counter() - started
        return report

    frontier = [((), list(root.ops()))]
    for _ in range(depth):
        next_frontier = []
        for path, ops in frontier:
            for op in ops:
                model = _replay(table_cls, keys, clients, path + (op,))
                report.transitions += 1
                violation = model.violation or _history_violation(model, verdicts)
                if violation is not None:
                    return finish(violation, path + (op,))
                fingerprint = model.fingerprint()
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    next_frontier.append((path + (op,), list(model.ops())))
        frontier = next_frontier
    return finish()


def _history_violation(model: Model, verdicts: dict) -> tuple | None:
    """The first serve-task invariant the model's grant history breaks."""
    history = model.table.history
    rows = tuple(
        (r.key, r.epoch, r.holder, r.granted_ns, r.ended_ns) for r in history
    )
    if rows not in verdicts:
        run = ServiceRun(n=len(model.keys), k=len(history),
                         history=list(history), fenced=list(model.table.fenced))
        verdicts[rows] = evaluate_service_run(run)
    found = verdicts[rows]
    return found[0] if found else None


class _HandoffReusesEpoch(LeaseTable):
    """Negative control: the handoff grant skips its epoch bump."""

    _in_handoff = False

    def _handoff(self, state, now, out):
        self._in_handoff = True
        try:
            super()._handoff(state, now, out)
        finally:
            self._in_handoff = False

    def _grant(self, state, *args):
        if self._in_handoff:
            state.epoch -= 1
        super()._grant(state, *args)


def test_every_small_interleaving_keeps_the_lease_invariants():
    for keys, clients, depth in SCOPES:
        report = search(keys, clients, depth)
        print(report.describe())
        assert report.violation is None, report.describe()
        assert report.states > 1000, report.describe()


def test_search_finds_a_handoff_that_reuses_the_epoch():
    report = search(("k",), ("a", "b"), 4, table_cls=_HandoffReusesEpoch)
    assert report.violation is not None, report.describe()
    assert report.violation[0] in ("lease_unique_holder", "lease_epoch_monotonic")


def test_retried_queued_acquire_of_the_holder_is_answered_once():
    # b queues two waiting acquires and wins the handoff with one; a
    # retry of the other must not also be answered by the re-acquire
    # shortcut, or the later handoff answers that rpc a second time.
    table = LeaseTable(0, TTL_MS / 1000.0, GRACE, "draw", MetricsRegistry())
    a, b = _Session(service=None, sid=1), _Session(service=None, sid=2)
    table.acquire(a, 1, "k", "a", TTL_MS, 0.0, 0.0)
    table.acquire(b, 1, "k", "b", TTL_MS, WAIT_MS, 0.0)
    table.acquire(b, 2, "k", "b", TTL_MS, WAIT_MS, 0.0)
    [won] = [fields for _, session, fields in table.release(a, 2, "k", "a", 1, 0.0)
             if session is b]
    queued = 3 - won["rpc"]
    assert table.acquire(b, queued, "k", "b", TTL_MS, WAIT_MS, 0.0) == []
    handoff = table.release(b, 3, "k", "b", won["epoch"], 0.0)
    assert [(session, fields["rpc"], fields["status"])
            for _, session, fields in handoff] == [
        (b, 3, ReplyStatus.OK), (b, queued, ReplyStatus.GRANTED),
    ]


def test_one_pending_wake_up_per_key():
    # Every grant schedules its EXPIRING point, but a later one waits
    # behind the wake-up already pending for the key.
    table = LeaseTable(0, TTL_MS / 1000.0, GRACE, "draw", MetricsRegistry())
    a = _Session(service=None, sid=1)
    for cycle in range(1000):
        now = cycle * TTL_MS / 1000.0 / 2000
        [(_, _, granted)] = table.acquire(a, 2 * cycle + 1, "k", "a", TTL_MS, 0.0, now)
        table.release(a, 2 * cycle + 2, "k", "a", granted["epoch"], now)
    assert len(table._heap) == 1


def test_a_deferred_deadline_is_kept():
    # b's lease is granted while a's old wake-up is pending; the sweep of
    # that wake-up schedules b's EXPIRING point, then its expiry.
    ttl = TTL_MS / 1000.0
    table = LeaseTable(0, ttl, GRACE, "draw", MetricsRegistry())
    a, b = _Session(service=None, sid=1), _Session(service=None, sid=2)
    table.acquire(a, 1, "k", "a", TTL_MS, 0.0, 0.0)
    table.release(a, 2, "k", "a", 1, 0.01)
    table.acquire(b, 1, "k", "b", TTL_MS, 0.0, 0.02)
    expiring = 0.02 + ttl * (1 - GRACE)
    steps = []
    while table.next_deadline() is not None:
        now = table.next_deadline()
        for key in table.due(now):
            table.sweep(key, now)
        steps.append((round(now, 9), table.keys["k"].state))
    assert steps == [
        (round(ttl * (1 - GRACE), 9), LeaseState.HELD),
        (round(expiring, 9), LeaseState.EXPIRING),
        (round(0.02 + ttl, 9), LeaseState.FREE),
    ]
    assert table.history[-1].reason == "expire"


if __name__ == "__main__":
    for keys, clients, depth in SCOPES:
        print(search(keys, clients, depth).describe())
    print(search(("k",), ("a", "b"), 4, table_cls=_HandoffReusesEpoch).describe())
