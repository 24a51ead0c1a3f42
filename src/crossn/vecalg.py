"""Exact and floating-point vector arithmetic for cross-product experiments.

Vectors carry a scalar mode: ``exact`` coordinates are ``fractions.Fraction``
values (arbitrary precision, always in lowest terms with positive
denominator), ``double`` coordinates are Python floats.  The two modes never
mix: any binary operation on vectors of different modes raises, so a chain of
exact computations can never be silently contaminated by rounding.

All products that act on concrete coordinates live here: the dot product, the
right-hand-rule product on R^3, the explicit 42-term product on R^7, the
zero-padded extension of the 3D product to R^n, the (n-1)-ary formal
determinant product, and the bilinear extension of a basis multiplication
table.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Tuple, Union

Scalar = Union[Fraction, float]

EXACT = "exact"
DOUBLE = "double"

# Cofactor expansion of the determinant product is O(2^n) even with shared
# minors; this is a desk-scale tool.
MAX_DET_DIM = 12

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$", re.ASCII)

# Exact ``scaled``, ``+``, ``-`` and ``table_product`` give this one value to
# every coordinate that no nonzero term reaches; where terms cancel, or the
# scale factor is 0, the zero is a fresh Fraction.  Exact ``cross3`` and
# ``cross7`` give it to every zero coordinate, and ``zero_scalar`` returns
# it, so ``unit`` and ``padded_cross`` pad with it too.
_ZERO = Fraction(0)


def _coerce_exact(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        token = value.strip()
        if not _RATIONAL_RE.match(token):
            raise ValueError(
                f"exact mode expects an integer or p/q literal, got {value!r}"
            )
        return Fraction(token)
    raise ValueError(f"cannot use {value!r} as an exact rational coordinate")


def _coerce_double(value) -> float:
    if isinstance(value, float):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        token = value.strip()
        # float() would also read underscores and non-ASCII digits.
        try:
            if "/" in token or "_" in token or not token.isascii():
                raise ValueError
            number = float(token)
        except ValueError:
            raise ValueError(f"double mode expects a decimal literal, got {value!r}") from None
        # Literals come from outside; nan and inf are not coordinates.  A
        # computed float may still overflow to inf, as IEEE arithmetic does.
        if not math.isfinite(number):
            raise ValueError(f"double mode expects a finite literal, got {value!r}")
        return number
    raise ValueError(f"cannot use {value!r} as a double coordinate")


def zero_scalar(mode: str) -> Scalar:
    return _ZERO if mode == EXACT else 0.0


def _check_mode(mode: str) -> None:
    if mode not in (EXACT, DOUBLE):
        raise ValueError(f"unknown scalar mode {mode!r}")


class Vector:
    """A dense coordinate vector with a fixed scalar mode.

    Instances are immutable; every operation returns a new vector.  Internal
    storage is 0-indexed, while documentation and CLI output number
    coordinates from 1 (so ``unit(n, 1)`` is e1).
    """

    # Kept values, each set on first use and ignored by equality, hashing,
    # repr and copies: ``_ints`` by ``_cleared`` (exact sums, scaling, dot,
    # cross3, cross7), ``_terms`` by ``_terms`` (table_product).
    __slots__ = ("coords", "mode", "_ints", "_terms")

    def __init__(self, values: Iterable, mode: str = EXACT):
        _check_mode(mode)
        coerce = _coerce_exact if mode == EXACT else _coerce_double
        coords = tuple(coerce(v) for v in values)
        if not coords:
            raise ValueError("a vector needs at least one coordinate")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    def __reduce__(self):
        # A copy or unpickled vector re-runs the constructor's checks and
        # starts without kept values.
        return (Vector, (self.coords, self.mode))

    @classmethod
    def _of(cls, coords: tuple, mode: str) -> "Vector":
        """Trusted constructor for internal results.

        ``coords`` must be a non-empty tuple whose entries already have
        ``mode``'s scalar type; nothing is checked or coerced.
        """
        v = object.__new__(cls)
        object.__setattr__(v, "coords", coords)
        object.__setattr__(v, "mode", mode)
        return v

    @classmethod
    def exact(cls, values: Iterable) -> "Vector":
        return cls(values, EXACT)

    @classmethod
    def double(cls, values: Iterable) -> "Vector":
        return cls(values, DOUBLE)

    @classmethod
    def unit(cls, dim: int, i: int, mode: str = EXACT) -> "Vector":
        """The standard basis vector e_i of R^dim (i is 1-indexed)."""
        _check_mode(mode)
        if type(dim) is not int or type(i) is not int or not 1 <= i <= dim:
            raise ValueError(f"unit index {i!r} out of range 1..{dim!r}")
        one = Fraction(1) if mode == EXACT else 1.0
        zero = zero_scalar(mode)
        return cls._of(tuple(one if j == i else zero for j in range(1, dim + 1)), mode)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.mode == other.mode and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.mode, self.coords))

    def __repr__(self) -> str:
        return f"Vector([{', '.join(str(c) for c in self.coords)}], mode={self.mode!r})"

    def __add__(self, other: "Vector") -> "Vector":
        return _sum(operator.add, "+", self, other)

    def __sub__(self, other: "Vector") -> "Vector":
        return _sum(operator.sub, "-", self, other)

    def __neg__(self) -> "Vector":
        return Vector._of(tuple(-a for a in self.coords), self.mode)

    def scaled(self, c: Scalar) -> "Vector":
        """Scalar multiple c*self; c must belong to the vector's mode."""
        if self.mode == EXACT:
            if isinstance(c, float):
                raise ValueError("cannot scale an exact vector by a float")
            c = _coerce_exact(c)
            xs, d = _cleared(self)
            p, q = c.numerator, c.denominator * d
            return Vector._of(
                tuple(Fraction(p * x, q) if x else _ZERO for x in xs), EXACT
            )
        if isinstance(c, Fraction):
            raise ValueError("cannot scale a double vector by a Fraction")
        c = _coerce_double(c)
        return Vector._of(tuple(c * a for a in self.coords), self.mode)

    def is_zero(self) -> bool:
        return all(not c for c in self.coords)


def _check_pair(u: Vector, v: Vector, op: str) -> None:
    if u.mode != v.mode:
        raise ValueError(
            f"{op}: mixed scalar modes ({u.mode} vs {v.mode}); convert explicitly"
        )
    if u.dim != v.dim:
        raise ValueError(f"{op}: dimension mismatch ({u.dim} vs {v.dim})")


def parse_vector(text: str, mode: str = EXACT) -> Vector:
    """Parse a comma-separated literal such as ``1,-2/3,0``.

    Exact mode accepts integer and p/q tokens; double mode accepts decimal
    literals (including scientific notation).
    """
    tokens = [t.strip() for t in text.split(",")]
    if any(not t for t in tokens):
        raise ValueError(f"malformed vector literal {text!r}")
    return Vector(tokens, mode)


def format_vector(v: Vector) -> str:
    if v.mode == EXACT:
        return ",".join(str(c) for c in v.coords)
    return ",".join(repr(c) for c in v.coords)


def _cleared(v: Vector) -> Tuple[Tuple[int, ...], int]:
    """An exact vector's integer numerators over the lcm of its denominators.

    Computed once per vector and kept on it; vectors are immutable, so the
    kept value cannot go stale.
    """
    try:
        return v._ints
    except AttributeError:
        pass
    dens = [c.denominator for c in v.coords]
    d = math.lcm(*dens)
    ints = tuple(c.numerator * (d // q) for c, q in zip(v.coords, dens)), d
    object.__setattr__(v, "_ints", ints)
    return ints


def _terms(v: Vector) -> Tuple[Tuple[int, Scalar], ...]:
    """The 1-based index and value of each nonzero coordinate of ``v``.

    Zeros are found by truth value, so ``0.0`` and ``-0.0`` are skipped as
    exact zeros are.  Computed once per vector and kept on it, as
    ``_cleared`` keeps its integers.
    """
    try:
        return v._terms
    except AttributeError:
        pass
    terms = tuple((i, c) for i, c in enumerate(v.coords, start=1) if c)
    object.__setattr__(v, "_terms", terms)
    return terms


def _sum(op, name: str, u: Vector, v: Vector) -> Vector:
    """``op`` (add or sub) of two vectors; exact mode works on their cleared
    integers, with one Fraction per nonzero coordinate."""
    _check_pair(u, v, name)
    if u.mode == DOUBLE:
        return Vector._of(tuple(map(op, u.coords, v.coords)), DOUBLE)
    xs, dx = _cleared(u)
    ys, dy = _cleared(v)
    d = dx * dy
    return Vector._of(
        tuple(
            Fraction(op(x * dy, y * dx), d) if x or y else _ZERO
            for x, y in zip(xs, ys)
        ),
        EXACT,
    )


def dot(u: Vector, v: Vector) -> Scalar:
    """Standard inner product sum(u_i * v_i)."""
    _check_pair(u, v, "dot")
    if u.mode == EXACT:
        xs, dx = _cleared(u)
        ys, dy = _cleared(v)
        return Fraction(sum(map(operator.mul, xs, ys)), dx * dy)
    # An explicit loop: sum() over floats is compensated from Python 3.12 on,
    # which would make double results depend on the interpreter version.
    total = 0.0
    for a, b in zip(u.coords, v.coords):
        total += a * b
    return total


def _bilinear(formula, name: str, dim: int, u: Vector, v: Vector) -> Vector:
    """Apply ``name``'s coordinate formula, linear in each argument, on R^dim.

    Double mode evaluates it on the float coordinates.  Exact mode evaluates
    it on the cleared integer numerators and divides each nonzero output
    coordinate once by the product of the two denominators.
    """
    _check_pair(u, v, name)
    if u.dim != dim:
        raise ValueError(f"{name} needs {dim}-dimensional vectors, got dim {u.dim}")
    if u.mode == DOUBLE:
        return Vector._of(formula(u.coords, v.coords), DOUBLE)
    xs, dx = _cleared(u)
    ys, dy = _cleared(v)
    d = dx * dy
    return Vector._of(tuple(Fraction(t, d) if t else _ZERO for t in formula(xs, ys)), EXACT)


def _cross3(x: Sequence, y: Sequence) -> tuple:
    x1, x2, x3 = x
    y1, y2, y3 = y
    return (x2 * y3 - x3 * y2, x3 * y1 - x1 * y3, x1 * y2 - x2 * y1)


def _cross7(x: Sequence, y: Sequence) -> tuple:
    x1, x2, x3, x4, x5, x6, x7 = x
    y1, y2, y3, y4, y5, y6, y7 = y
    return (
        -x3 * y2 + x2 * y3 - x5 * y4 + x4 * y5 - x6 * y7 + x7 * y6,
        -x1 * y3 + x3 * y1 - x6 * y4 + x4 * y6 - x7 * y5 + x5 * y7,
        -x2 * y1 + x1 * y2 - x7 * y4 + x4 * y7 - x5 * y6 + x6 * y5,
        -x1 * y5 + x5 * y1 - x2 * y6 + x6 * y2 - x3 * y7 + x7 * y3,
        -x4 * y1 + x1 * y4 - x2 * y7 + x7 * y2 - x6 * y3 + x3 * y6,
        -x7 * y1 + x1 * y7 - x4 * y2 + x2 * y4 - x3 * y5 + x5 * y3,
        -x5 * y2 + x2 * y5 - x4 * y3 + x3 * y4 - x1 * y6 + x6 * y1,
    )


def cross3(u: Vector, v: Vector) -> Vector:
    """Right-hand-rule product on R^3."""
    return _bilinear(_cross3, "cross3", 3, u, v)


def cross7(u: Vector, v: Vector) -> Vector:
    """The distinguished bilinear product on R^7, fully unrolled.

    Agrees coordinate-for-coordinate with the bilinear extension of the
    7x7 basis table at level k=2 (tested exhaustively and on random pairs).
    """
    return _bilinear(_cross7, "cross7", 7, u, v)


def padded_cross(u: Vector, v: Vector) -> Vector:
    """3D product of the first three coordinates, zero-padded to dim n.

    Satisfies the perpendicular and bilinear axioms in every dimension but
    loses the Pythagorean identity as soon as n >= 4.
    """
    _check_pair(u, v, "padded_cross")
    if u.dim < 3:
        raise ValueError(f"padded_cross needs dim >= 3, got {u.dim}")
    head = cross3(Vector._of(u.coords[:3], u.mode), Vector._of(v.coords[:3], v.mode))
    return Vector._of(head.coords + (zero_scalar(u.mode),) * (u.dim - 3), u.mode)


def det_product(rows: Sequence[Vector]) -> Vector:
    """Formal determinant product of n-1 vectors in R^n.

    Expansion along a symbolic first row e_1..e_n: the m-th coordinate is
    (-1)**(1+m) times the minor with column m deleted.  The result is
    perpendicular to every input row (a determinant with a repeated row
    vanishes).  Minors are evaluated by recursive cofactor expansion with
    shared sub-minors, exact in rational mode.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("det_product needs at least one row vector")
    n = rows[0].dim
    mode = rows[0].mode
    for r in rows[1:]:
        _check_pair(rows[0], r, "det_product")
    if len(rows) != n - 1:
        raise ValueError(
            f"det_product in dim {n} needs exactly {n - 1} rows, got {len(rows)}"
        )
    if n > MAX_DET_DIM:
        raise ValueError(f"det_product supports dim <= {MAX_DET_DIM}, got {n}")

    grid = [r.coords for r in rows]

    @lru_cache(maxsize=None)
    def minor_det(r: int, cols: tuple) -> Scalar:
        # Determinant of grid rows r.. restricted to the given columns.
        if not cols:
            return Fraction(1) if mode == EXACT else 1.0
        total = zero_scalar(mode)
        row = grid[r]
        for t, c in enumerate(cols):
            a = row[c]
            if not a:
                continue
            sub = minor_det(r + 1, cols[:t] + cols[t + 1 :])
            total = total + a * sub if t % 2 == 0 else total - a * sub
        return total

    out = []
    all_cols = tuple(range(n))
    for m in range(n):
        cols = all_cols[:m] + all_cols[m + 1 :]
        value = minor_det(0, cols)
        # Subtracting from zero, not negating, keeps a double 0.0 minor +0.0.
        out.append(value if m % 2 == 0 else zero_scalar(mode) - value)
    return Vector(out, mode)


def table_product(table, u: Vector, v: Vector) -> Vector:
    """Bilinear extension of a basis multiplication table to all of R^n.

    ``table`` is any object exposing ``n`` and sign rows ``signs``, where
    ``signs[i][j]`` in {-1, 0, 1} is the sign of e_i x e_j = s e_(i ^ j) for
    1-indexed i and j.  Terms are added in i-then-j order, the cell's sign
    picking add or subtract.  The cost is one multiply per pair of nonzero
    coordinates whose cell is nonzero; an exact cell adds only from its
    second term; double mode adds every term, to a 0.0 seed.  Each operand
    is scanned for its nonzero coordinates only on its first use (``_terms``).
    """
    _check_pair(u, v, "table_product")
    n = table.n
    if u.dim != n:
        raise ValueError(f"table for dim {n} cannot multiply dim-{u.dim} vectors")
    signs = table.signs
    right = _terms(v)
    if u.mode == DOUBLE:
        # Every term is added to a 0.0 seed, so a lone term that underflows
        # to -0.0 still gives 0.0.
        acc = [0.0] * n
        for i, a in _terms(u):
            row = signs[i]
            for j, b in right:
                s = row[j]
                if s > 0:
                    acc[(i ^ j) - 1] += a * b
                elif s < 0:
                    acc[(i ^ j) - 1] -= a * b
        return Vector._of(tuple(acc), DOUBLE)
    # Exact addition is associative, so a cell's first term is stored as it
    # is; products of nonzero terms are never the shared zero.
    acc = [_ZERO] * n
    for i, a in _terms(u):
        row = signs[i]
        for j, b in right:
            s = row[j]
            if s:
                k = (i ^ j) - 1
                c = acc[k]
                if c is _ZERO:
                    acc[k] = a * b if s > 0 else -(a * b)
                elif s > 0:
                    acc[k] = c + a * b
                else:
                    acc[k] = c - a * b
    return Vector._of(tuple(acc), EXACT)
