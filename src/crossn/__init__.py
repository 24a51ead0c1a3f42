"""Exact-arithmetic cross products on R^n.

Builds the recursively generated orthonormal basis family and its
multiplication tables, exposes the concrete 3D/7D coordinate products, and
verifies which cross-product axioms (perpendicular, Pythagorean, bilinear)
hold in each dimension: a genuine cross product exists only for
n = 0, 1, 3 and 7.

The names below are re-exported from their submodules.  Each resolves on
first use (PEP 562), so ``import crossn`` loads no submodule and a command
that never verifies never loads ``verify``.
"""

from importlib import import_module

_EXPORTS = {
    "vecalg": (
        "DOUBLE", "EXACT", "Scalar", "Vector", "cross3", "cross7", "det_product", "dot",
        "format_vector", "padded_cross", "parse_vector", "table_product",
    ),
    "symbolic": (
        "BasisWord", "MulTable", "RewriteStep", "RewriteTrace", "SignedBasis", "build_basis",
        "build_table", "counterexample_vectors", "normalize_product",
        "normalize_product_traced", "table_from_json", "table_to_csv", "table_to_json",
        "table_to_markdown",
    ),
    "verify": (
        "AxiomReport", "DimensionVerdict", "ProductUnderTest", "Witness", "check_bilinear",
        "check_identities", "check_perpendicular", "check_pythagorean",
        "classify_dimensions", "cross3_product", "cross7_product", "expected_verdict",
        "padded_product", "product_for_table", "replay",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULE})
