"""What an import loads: a simulator run pays for the simulator only.

Each check runs in a fresh interpreter, since this process has long
since imported everything.  The package ``__init__`` files re-export
lazily (:mod:`repro._lazy`), so importing one layer does not load the
service, the soak harness or :mod:`asyncio` as a side effect.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def loaded_after(statement: str, names: tuple[str, ...]) -> list[str]:
    """Which of ``names`` are in ``sys.modules`` after ``statement``, fresh."""
    code = (
        f"import json, sys; {statement}; "
        f"print(json.dumps([m for m in {list(names)!r} if m in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


@pytest.mark.parametrize("statement,absent", [
    (
        "import repro.harness.runners",
        ("asyncio", "repro.net", "repro.harness.soak", "repro.harness.bench",
         "multiprocessing"),
    ),
    ("import repro.net.service", ("repro.adversary", "repro.harness")),
    ("import repro", ("repro.sim", "repro.harness", "repro.net")),
    ("import repro.check.invariants", ("repro.check.explore", "repro.adversary")),
])
def test_import_leaves_other_layers_unloaded(statement, absent):
    assert loaded_after(statement, absent) == []


def test_reading_an_export_loads_its_module():
    statement = "import repro.harness; repro.harness.run_soak"
    assert loaded_after(statement, ("repro.harness.soak", "repro.harness.bench")) == [
        "repro.harness.soak"
    ]


def test_export_named_like_its_module_stays_the_export():
    # Importing repro.harness.sweep binds the module as repro.harness.sweep;
    # the package's export of that name must still be the function.
    statement = (
        "import repro.harness.sweep; from repro.harness import sweep; "
        "assert callable(sweep)"
    )
    assert loaded_after(statement, ()) == []


def test_lazy_exports_resolve_once_and_list_in_dir():
    from repro import harness

    assert "run_soak" in dir(harness)
    first = harness.run_sifting_phase
    assert "run_sifting_phase" in vars(harness)  # cached: no second lookup
    assert harness.run_sifting_phase is first
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        harness.nope
