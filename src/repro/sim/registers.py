"""Per-processor register views with explicit merge policies.

Every named variable (``Status``, ``Round``, ``door``, ``Contended``, ...)
is a map from keys to values.  A processor holds its own *view* of each
variable; views are reconciled when PROPAGATE or COLLECT_REPLY messages
arrive.  Three merge policies cover every variable in the paper:

* ``VERSION`` — single-writer cells (a processor's own ``Status[i]`` or
  ``Round[i]``): the writer stamps each write with an increasing version,
  and receivers keep the highest version seen.  Because only the owner
  writes the cell, versions totally order its writes.
* ``OR`` — sticky booleans written by anyone (``door``, ``Contended[j]``):
  once true, always true.
* ``MAX`` — monotone integers written by anyone; the maximum wins.

These policies make every variable in the paper a monotone join
semilattice, so merging is order-insensitive — exactly the property the
quorum-intersection arguments (Claims 3.1, 3.4, Lemma A.2) rely on.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Mapping

POLICY_VERSION = "v"
POLICY_OR = "o"
POLICY_MAX = "m"

_POLICIES = frozenset({POLICY_VERSION, POLICY_OR, POLICY_MAX})

Entry = tuple[int, Any, str]  # (version, value, policy)


def merge_entry(current: Entry | None, incoming: Entry) -> Entry:
    """Combine two entries for the same key according to their policy."""
    if current is None:
        return incoming
    version, value, policy = incoming
    cur_version, cur_value, cur_policy = current
    if policy != cur_policy:
        raise ValueError(f"conflicting merge policies: {cur_policy!r} vs {policy!r}")
    if policy == POLICY_VERSION:
        return incoming if version > cur_version else current
    if policy == POLICY_OR:
        return (max(version, cur_version), bool(cur_value) or bool(value), policy)
    if policy == POLICY_MAX:
        merged = cur_value if cur_value >= value else value
        return (max(version, cur_version), merged, policy)
    raise ValueError(f"unknown merge policy: {policy!r}")


class RegisterFile:
    """One processor's view of every shared variable.

    The structure is ``{var: {key: (version, value, policy)}}``.  Keys are
    processor ids for per-processor cells and name indices for the renaming
    algorithm's ``Contended`` array.

    **Payload sharing.**  :meth:`entries` with no key restriction returns
    the *live* cell mapping and marks the variable shared, so one
    ``communicate`` call can attach a single mapping to all ``n - 1``
    outgoing messages without copying it per recipient.  The mapping is
    frozen from that moment on: the next local :meth:`put` or :meth:`merge`
    copies the cells before writing (copy-on-write), so every in-flight
    message keeps an exact snapshot of the state at send time.  The
    corollary invariant is that holders of a shared mapping — message
    recipients, adversaries, checkers — must treat it as read-only.
    """

    __slots__ = (
        "_vars",
        "_write_clocks",
        "_shared",
        "_mods",
        "_mod_clock",
        "_view_cache",
    )

    def __init__(self) -> None:
        self._vars: dict[str, dict[Hashable, Entry]] = {}
        self._write_clocks: dict[tuple[str, Hashable], int] = {}
        self._shared: set[str] = set()
        # Per-cell modification ticks: ``_mods[var][key]`` is the value of
        # ``_mod_clock`` when that cell last changed.  Delta propagation
        # (see DeltaTracker) compares ticks, not versions — OR/MAX cells
        # can change value without outranking a version, so versions alone
        # cannot prove "unchanged since the recipient absorbed it".
        self._mods: dict[str, dict[Hashable, int]] = {}
        self._mod_clock = 0
        # value_view memo: var -> {key: value}, invalidated on any change
        # to the var.  Shared by every COLLECT_REPLY for the current epoch
        # of the var; holders must treat it as read-only (same contract as
        # entries()).
        self._view_cache: dict[str, dict[Hashable, Any]] = {}

    def _writable_cells(self, var: str) -> dict[Hashable, Entry]:
        """The cell dict for ``var``, copied first if a snapshot shares it."""
        cells = self._vars.get(var)
        if cells is None:
            cells = {}
            self._vars[var] = cells
        elif var in self._shared:
            cells = dict(cells)
            self._vars[var] = cells
            self._shared.discard(var)
        return cells

    def put(self, var: str, key: Hashable, value: Any, policy: str = POLICY_VERSION) -> None:
        """Perform a local write, bumping the writer-side version.

        Writes whose post-merge *value* equals the stored value (e.g.
        re-asserting a sticky OR flag, or a MAX write that loses) are
        complete no-ops: the entry keeps its version, no snapshot is
        copied, and the cell's modification tick stays put — which is what
        lets delta propagation keep suppressing the cell.  The skip is
        sound because versions only arbitrate between *different* values
        of a cell; an entry equal in value needs no fresher stamp.
        """
        if policy not in _POLICIES:
            raise ValueError(f"unknown merge policy: {policy!r}")
        current = self._vars.get(var)
        cur = current.get(key) if current is not None else None
        if cur is not None and cur[2] == policy:
            cur_value = cur[1]
            if policy == POLICY_OR:
                new_value = bool(cur_value) or bool(value)
            elif policy == POLICY_MAX:
                new_value = cur_value if cur_value >= value else value
            else:
                new_value = value
            if new_value == cur_value:
                return
        clock_key = (var, key)
        version = self._write_clocks.get(clock_key, 0) + 1
        self._write_clocks[clock_key] = version
        merged = merge_entry(cur, (version, value, policy))
        self._writable_cells(var)[key] = merged
        self._bump(var, key)

    def _bump(self, var: str, key: Hashable) -> None:
        """Advance the cell's modification tick and drop stale view memos."""
        mods = self._mods.get(var)
        if mods is None:
            mods = self._mods[var] = {}
        self._mod_clock += 1
        mods[key] = self._mod_clock
        self._view_cache.pop(var, None)

    def get(self, var: str, key: Hashable, default: Any = None) -> Any:
        """Read the value stored under ``var[key]``, or ``default``."""
        entry = self._vars.get(var, {}).get(key)
        return default if entry is None else entry[1]

    def has(self, var: str, key: Hashable) -> bool:
        """True iff this view holds an entry for ``var[key]``."""
        return key in self._vars.get(var, {})

    def keys(self, var: str) -> Iterable[Hashable]:
        """The keys present in this view of ``var``."""
        return self._vars.get(var, {}).keys()

    def view(self, var: str) -> dict[Hashable, Any]:
        """A plain ``{key: value}`` snapshot of one variable."""
        return {key: entry[1] for key, entry in self._vars.get(var, {}).items()}

    def entries(self, var: str, keys: Iterable[Hashable] | None = None) -> Mapping[Hashable, Entry]:
        """Raw entries for transmission; restricted to ``keys`` if given.

        The unrestricted form returns the live cell mapping and marks it
        shared; the next local write copies first (see the class docstring).
        Callers must not mutate the returned mapping.  The key-restricted
        form always builds a fresh private dict.
        """
        cells = self._vars.get(var)
        if cells is None:
            return {}
        if keys is None:
            self._shared.add(var)
            return cells
        return {key: cells[key] for key in keys if key in cells}

    def merge(self, var: str, incoming: Mapping[Hashable, Entry]) -> None:
        """Reconcile received entries into this view.

        ``incoming`` is typically a mapping shared by every recipient of a
        PROPAGATE broadcast; it is only read, never written (the
        copy-on-write contract of :meth:`entries`).

        Entries that merge to their current value are skipped entirely:
        re-delivering an already-absorbed payload neither copies a shared
        cell dict nor advances any modification tick.  Merging is
        idempotent over a join semilattice, so the skip is unobservable —
        it is what makes the re-merge path (the common case under
        broadcast) allocation-free.
        """
        cells = self._vars.get(var)
        if cells is None:
            cells = self._vars[var] = {}
        writable = var not in self._shared
        for key, entry in incoming.items():
            cur = cells.get(key)
            if cur is not None:
                merged = merge_entry(cur, entry)
                if merged is cur or merged == cur:
                    continue
            else:
                merged = entry
            if not writable:
                cells = dict(cells)
                self._vars[var] = cells
                self._shared.discard(var)
                writable = True
            cells[key] = merged
            self._bump(var, key)

    def value_view(self, var: str) -> dict[Hashable, Any]:
        """The ``{key: value}`` view of ``var``, memoized per epoch.

        Unlike :meth:`view` (always a private copy), the returned dict is
        cached until the next change to ``var`` and may be shared by many
        COLLECT_REPLY messages — a responder answering collect traffic in
        a quiet epoch builds the view once instead of once per reply.
        Holders must treat it as read-only.  Later writes to ``var`` do
        not mutate previously returned views (a fresh dict is built), so
        the snapshot-at-call-time semantics match :meth:`view`.
        """
        cached = self._view_cache.get(var)
        if cached is not None:
            return cached
        view = {key: entry[1] for key, entry in self._vars.get(var, {}).items()}
        self._view_cache[var] = view
        return view

    def mod_ticks(self, var: str) -> Mapping[Hashable, int]:
        """Per-key modification ticks for ``var`` (empty if never written).

        Ticks are local, strictly increasing stamps: ``ticks[key]``
        changes exactly when the stored entry for ``key`` changes.  They
        are what :class:`DeltaTracker` compares to decide whether a
        recipient has provably absorbed the current entry.
        """
        return self._mods.get(var, _EMPTY_TICKS)

    def variables(self) -> Iterable[str]:
        """Names of all variables this view has entries for."""
        return self._vars.keys()


_EMPTY_TICKS: dict[Hashable, int] = {}
#: Shared immutable empty payload for fully-suppressed deltas.
_EMPTY_PAYLOAD: dict[Hashable, Entry] = {}


class DeltaTracker:
    """Per-sender bookkeeping that shrinks PROPAGATE payloads safely.

    For each ``(var, recipient, key)`` the tracker records the highest
    modification tick (see :meth:`RegisterFile.mod_ticks`) whose entry the
    recipient has *provably absorbed* — proven by an ACK for a call whose
    payload shipped that entry.  When broadcasting, a key is omitted for a
    recipient iff its acked tick is at least the cell's current tick: the
    entry is then literally unchanged since the recipient merged an equal
    entry, merging is idempotent over a join semilattice, so the omission
    cannot change the recipient's register state at any delivery —
    regardless of how the adversary orders or drops messages.

    Watermarks advance **only on ACK receipt** (never at send time: an
    in-flight payload may be delayed forever), including ACKs that arrive
    after the call already reached quorum — a stale ACK still proves the
    merge happened.  COLLECT_REPLY traffic is never delta'd: collects are
    the quorum-intersection reads (Claims 3.1/3.4) and always carry the
    full view.
    """

    __slots__ = (
        "_acked",
        "_inflight",
        "full_payloads",
        "delta_payloads",
        "empty_payloads",
        "cells_suppressed",
    )

    def __init__(self) -> None:
        #: var -> recipient -> {key: highest absorbed tick}
        self._acked: dict[str, dict[int, dict[Hashable, int]]] = {}
        #: call_id -> (var, {key: tick at send time})
        self._inflight: dict[int, tuple[str, dict[Hashable, int]]] = {}
        # Physical-savings counters (diagnostics only — *logical* payload
        # sizes are what Metrics/events report, so full and delta runs
        # stay byte-identical; see Simulation.delta_stats).
        self.full_payloads = 0
        self.delta_payloads = 0
        self.empty_payloads = 0
        self.cells_suppressed = 0

    def begin_call(
        self,
        call_id: int,
        var: str,
        payload: Mapping[Hashable, Entry],
        ticks: Mapping[Hashable, int],
    ) -> dict[Hashable, int]:
        """Record the send-time ticks of one PROPAGATE broadcast.

        One shared ticks snapshot serves every recipient: folding a tick
        for a key that was omitted for some recipient is a no-op, because
        omission required that recipient's watermark to already be at or
        above the send-time tick.

        Returns the snapshot so the runtime can pin it on the
        :class:`~repro.sim.messages.Broadcast` record:
        :meth:`payload_for` runs at delivery time, when the live tick
        mapping may already be ahead of the broadcast's send state.
        """
        snapshot = {key: ticks[key] for key in payload}
        self._inflight[call_id] = (var, snapshot)
        return snapshot

    def payload_for(
        self,
        recipient: int,
        var: str,
        full: Mapping[Hashable, Entry],
        ticks: Mapping[Hashable, int],
        cache: dict[int, Mapping[Hashable, Entry]],
    ) -> Mapping[Hashable, Entry]:
        """The delta payload for one recipient of a broadcast.

        ``cache`` is a per-call scratch dict keyed by the inclusion
        bitmask, so recipients with identical watermark states (the
        common case) share one payload mapping, exactly like the full
        payload is shared in full mode.
        """
        acked_var = self._acked.get(var)
        racked = acked_var.get(recipient) if acked_var is not None else None
        if not racked:
            self.full_payloads += 1
            return full
        mask = 0
        bit = 1
        suppressed = False
        for key in full:
            if racked.get(key, 0) < ticks[key]:
                mask |= bit
            else:
                suppressed = True
            bit <<= 1
        if not suppressed:
            self.full_payloads += 1
            return full
        if not mask:
            self.empty_payloads += 1
            self.cells_suppressed += len(full)
            return _EMPTY_PAYLOAD
        self.delta_payloads += 1
        self.cells_suppressed += len(full) - mask.bit_count()
        cached = cache.get(mask)
        if cached is None:
            bit = 1
            cached = {}
            for key, entry in full.items():
                if mask & bit:
                    cached[key] = entry
                bit <<= 1
            cache[mask] = cached
        return cached

    def on_ack(self, acker: int, call_id: int) -> None:
        """Fold one ACK into the acker's watermarks.

        Called for *every* incoming ACK, stale ones included: the pending
        call may be long resolved, but the ACK still proves the recipient
        merged that call's payload.
        """
        sent = self._inflight.get(call_id)
        if sent is None:
            return
        var, ticks = sent
        acked_var = self._acked.get(var)
        if acked_var is None:
            acked_var = self._acked[var] = {}
        racked = acked_var.get(acker)
        if racked is None:
            acked_var[acker] = dict(ticks)
            return
        for key, tick in ticks.items():
            if racked.get(key, 0) < tick:
                racked[key] = tick
