"""The top-level package re-exports the public names of its submodules.

Core claim: every name that ``crossn`` re-exports resolves from the package
and is the very object its submodule defines.
"""

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
