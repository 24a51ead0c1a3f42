"""The top-level package holds no API of its own; each public name is
imported from the submodule that defines it.

Core claims:
    - ``import crossn`` loads no submodule and serves no submodule's names
    - a ``table`` command loads ``cli``, ``symbolic`` and ``vecalg`` only,
      and ``verify`` loads when it is imported
    - a cold ``table`` command, run without site-packages, loads neither
      ``dataclasses`` nor ``json``
    - ``symbolic`` imports no other ``crossn`` module: building a table and
      reading it back from JSON loads neither ``fractions`` nor ``decimal``
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import crossn


def test_the_package_serves_no_submodule_name():
    with pytest.raises(AttributeError):
        crossn.build_table


LOADS = textwrap.dedent("""
    import json, os, sys

    def loaded():
        return sorted(m for m in sys.modules if m.startswith("crossn."))

    import crossn
    stages = [loaded()]
    import crossn.cli
    crossn.cli.main(["--output", os.devnull, "table", "--k", "2"])
    stages.append(loaded())
    import crossn.verify
    stages.append(loaded())
    print(json.dumps(stages))
""")


# Printed without json, which the script must not load itself.
COLD_TABLE = textwrap.dedent("""
    import os, sys
    import crossn.cli
    crossn.cli.main(["--output", os.devnull, "table", "--k", "2"])
    print(sorted(m for m in ("dataclasses", "json") if m in sys.modules))
""")

SYMBOLIC_ALONE = textwrap.dedent("""
    import sys
    import crossn.symbolic as s
    assert s.table_from_json(s.table_to_json(s.build_table(3))) == s.build_table(3)
    print(sorted(m for m in sys.modules if m.startswith("crossn.") or m in ("fractions", "decimal")))
""")


def _run(*args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_command_loads_only_the_modules_it_runs():
    assert json.loads(_run("-W", "error", "-c", LOADS)) == [
        [],
        ["crossn.cli", "crossn.symbolic", "crossn.vecalg"],
        ["crossn.cli", "crossn.symbolic", "crossn.vecalg", "crossn.verify"],
    ]


def test_a_cold_table_command_loads_neither_dataclasses_nor_json():
    # -S: no .pth file in site-packages can load either module first.
    assert _run("-S", "-W", "error", "-c", COLD_TABLE) == "[]\n"


def test_symbolic_loads_no_other_crossn_module():
    assert _run("-S", "-W", "error", "-c", SYMBOLIC_ALONE) == "['crossn.symbolic']\n"
