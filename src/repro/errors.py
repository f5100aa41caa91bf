"""The base class of the errors a ``repro`` command reports as bad input.

Each subsystem keeps its own error type and its built-in base, so an
``except RuntimeError`` caller still catches a :class:`~repro.net.driver.NetError`;
the CLI catches them all as :class:`ReproError` without importing the
subsystems that define them.
"""

from __future__ import annotations


class ReproError(Exception):
    """A run or an input that a ``repro`` command reports on one ``error:`` line."""


__all__ = ["ReproError"]
