"""Exact-arithmetic cross products on R^n.

Builds the recursively generated orthonormal basis family and its
multiplication tables, exposes the concrete 3D/7D coordinate products, and
verifies which cross-product axioms (perpendicular, Pythagorean, bilinear)
hold in each dimension: a genuine cross product exists only for
n = 0, 1, 3 and 7.

The public API lives in the submodules ``vecalg``, ``symbolic``, ``verify``
and ``cli``; import each name from its own.  ``import crossn`` loads none.
"""

__version__ = "0.1.0"
