"""The top-level package re-exports the public names of its submodules.

Core claims:
    - every name that ``crossn`` re-exports resolves from the package and is
      the very object its submodule defines
    - ``import crossn`` loads no submodule but lists every re-export in
      ``dir``, a ``table`` command never loads ``verify``, and importing a
      re-export of ``verify`` loads it
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import crossn
from crossn import symbolic, vecalg, verify

REEXPORTS = {
    vecalg: (
        "DOUBLE", "EXACT", "Scalar", "Vector", "cross3", "cross7", "det_product", "dot",
        "format_vector", "padded_cross", "parse_vector", "table_product",
    ),
    symbolic: (
        "BasisWord", "MulTable", "RewriteStep", "RewriteTrace", "SignedBasis", "build_basis",
        "build_table", "counterexample_vectors", "normalize_product",
        "normalize_product_traced", "table_from_json", "table_to_csv", "table_to_json",
        "table_to_markdown",
    ),
    verify: (
        "AxiomReport", "DimensionVerdict", "ProductUnderTest", "Witness", "check_bilinear",
        "check_identities", "check_perpendicular", "check_pythagorean",
        "classify_dimensions", "cross3_product", "cross7_product", "expected_verdict",
        "padded_product", "product_for_table", "replay",
    ),
}
NAMES = [(module, name) for module, names in REEXPORTS.items() for name in names]


def test_every_reexport_is_listed_once():
    assert len(NAMES) == len({name for _, name in NAMES}) == 41


@pytest.mark.parametrize(
    "module, name", NAMES, ids=[f"{m.__name__.split('.')[-1]}.{n}" for m, n in NAMES]
)
def test_reexport_is_the_submodule_object(module, name):
    assert getattr(crossn, name) is getattr(module, name)


LOADS = textwrap.dedent("""
    import json, os, sys

    def loaded():
        return sorted(m for m in sys.modules if m.startswith("crossn."))

    import crossn
    listed = dir(crossn)
    stages = [loaded()]
    import crossn.cli
    crossn.cli.main(["--output", os.devnull, "table", "--k", "2"])
    stages.append(loaded())
    from crossn import replay
    stages.append(loaded())
    print(json.dumps([listed, stages]))
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
    listed, stages = json.loads(done.stdout)
    assert {name for _, name in NAMES} <= set(listed)
    assert stages == [
        [],
        ["crossn.cli", "crossn.symbolic", "crossn.vecalg"],
        ["crossn.cli", "crossn.symbolic", "crossn.vecalg", "crossn.verify"],
    ]
