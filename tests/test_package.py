"""The top-level package holds no API of its own; each public name is
imported from the submodule that defines it.

Core claims:
    - ``import crossn`` loads no submodule and serves no submodule's names
    - a ``table`` command loads ``cli``, ``symbolic`` and ``vecalg`` only,
      and ``verify`` loads when it is imported
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


def test_a_command_loads_only_the_modules_it_runs():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", LOADS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        [],
        ["crossn.cli", "crossn.symbolic", "crossn.vecalg"],
        ["crossn.cli", "crossn.symbolic", "crossn.vecalg", "crossn.verify"],
    ]
