"""Deterministic randomness for processes and adversaries.

A single master seed fans out into independent named streams, one per
participant plus one for the adversary (responders never flip a coin, so
they get none), so that a run is reproducible from
``(seed, n, adversary, workload)`` alone.  Streams are ordinary
:class:`random.Random` instances seeded by hashing ``(master_seed, name)``
through SHA-256, which keeps streams independent without requiring numpy.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from a master seed and a label."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_stream(master_seed: int, name: str) -> random.Random:
    """Create an independent, reproducible RNG stream for ``name``."""
    return random.Random(derive_seed(master_seed, name))


class CoinLog:
    """Record of the coin flips a processor has performed.

    The strong adaptive adversary is allowed to examine local state,
    *including the outcomes of random coin flips* (Section 2 of the paper).
    Every flip an algorithm performs is appended here, and adversaries read
    the log through :meth:`last` / :meth:`all`.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: list[tuple[str, int]] = []

    def record(self, label: str, value: int) -> None:
        """Append one labelled flip outcome to the log."""
        self._entries.append((label, value))

    def last(self) -> tuple[str, int] | None:
        """The most recent ``(label, value)`` flip, or ``None``."""
        return self._entries[-1] if self._entries else None

    def last_value(self, label: str) -> int | None:
        """The most recent flip recorded under ``label``, or ``None``."""
        for entry_label, value in reversed(self._entries):
            if entry_label == label:
                return value
        return None

    def all(self) -> Iterator[tuple[str, int]]:
        """Iterate every recorded ``(label, value)`` pair, oldest first."""
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
