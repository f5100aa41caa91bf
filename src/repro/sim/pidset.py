"""Processor-id sets encoded as Python integers (bitmasks).

The protocols and checkers pass around many small sets of processor ids:
the ``l`` observation lists of Figure 2, the learned union ``L`` of the
heterogeneous death rule, and the closure sets of the ``repro.check``
invariants.  At ``n = 4096`` a frozenset of a few thousand small ints
costs kilobytes and per-element hashing on every union; the same set as
an int is one machine word per 64 pids and unions in a single ``|``.

Encoding: bit ``i`` set ⟺ pid ``i`` is a member.  The empty set is
``0``.  Because Python ints are arbitrary precision the encoding has no
``n`` ceiling, and because they are immutable value types, pidsets
compare, hash, pickle, and JSON-serialize (as plain ints) for free.

All helpers are pure functions over ints; there is deliberately no
wrapper class — the hot paths (`learned |= status.members`) should stay
single bytecode ops, not method calls.
"""

from __future__ import annotations

from typing import Iterable, Iterator

#: The empty processor-id set.
EMPTY: int = 0


def singleton(pid: int) -> int:
    """The one-element set ``{pid}``."""
    return 1 << pid


def from_iterable(pids: Iterable[int]) -> int:
    """Build a pidset from any iterable of processor ids."""
    bits = 0
    for pid in pids:
        bits |= 1 << pid
    return bits


def add(bits: int, pid: int) -> int:
    """The set ``bits ∪ {pid}`` (pidsets are immutable; returns a new one)."""
    return bits | (1 << pid)


def discard(bits: int, pid: int) -> int:
    """The set ``bits ∖ {pid}``."""
    return bits & ~(1 << pid)


def contains(bits: int, pid: int) -> bool:
    """True iff ``pid`` is a member of ``bits``."""
    return bool(bits >> pid & 1)


def union(*sets: int) -> int:
    """The union of any number of pidsets."""
    bits = 0
    for s in sets:
        bits |= s
    return bits


def union_all(sets: Iterable[int]) -> int:
    """The union of an iterable of pidsets."""
    bits = 0
    for s in sets:
        bits |= s
    return bits


def is_subset(a: int, b: int) -> bool:
    """True iff every member of ``a`` is a member of ``b``."""
    return a & ~b == 0


def popcount(bits: int) -> int:
    """The number of members (``|S|``)."""
    return bits.bit_count()


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the member pids in ascending order.

    Peels the lowest set bit each iteration (``bits & -bits`` isolates
    it), so the cost is proportional to the number of members, not to
    the highest pid.
    """
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def to_frozenset(bits: int) -> frozenset[int]:
    """Decode a pidset into a plain ``frozenset`` (tests, pretty output)."""
    return frozenset(iter_bits(bits))
