"""The example scripts keep running against the current API.

Each example is loaded from ``examples/`` by path and its ``main`` is
driven at a small size, so an API change that breaks an example fails
here instead of rotting unnoticed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_custom_adversary_example_runs(capsys):
    _load("custom_adversary").main(8)
    out = capsys.readouterr().out
    assert out.count("winner = processor") == 10
    assert "Safety never depends on the schedule" in out
