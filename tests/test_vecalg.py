"""Unit tests for the vector arithmetic layer.

Core claims:
    - exact coordinates are Fractions in lowest terms; modes never mix, and
      neither mode takes a bool as a coordinate or a scale factor
    - Vector.unit refuses a dimension or an index that is not an int
    - dot is the plain coordinate sum, symmetric and bilinear
    - cross3 is the right-hand-rule product (e1 x e2 = e3, e3 x e2 = -e1)
    - cross7 matches the published basis products and is antisymmetric
    - padded_cross embeds the 3D product and kills coordinates 4..n
    - det_product is the formal first-row cofactor expansion: perpendicular
      to every row, equal to cross3 for n = 3, zero on repeated rows, and
      never -0.0 in double mode
    - parsing/formatting of comma-separated rational literals round-trips,
      and literals take ASCII digits only, with no underscores
    - the integer kernels behind exact dot/cross3/cross7/padded_cross and
      exact scaled/+/- equal a term-by-term Fraction evaluation, and double
      mode is bit-identical to the plain float formulas
    - table_product, which adds or subtracts each term by its cell's sign,
      equals the loop that multiplied by the sign: the same Fractions, and
      the same bits in double mode, infinities and NaNs included
    - a vector's cleared integers are kept on it and equal a fresh clearing
    - table_product reads each operand's nonzero terms, kept on the vector
      after its first use, and equals the multiplying loop on fresh, reused,
      cleared, repeated and all-zero operands; kept values change no
      equality, hash, repr or copy
    - pickle, copy and deepcopy of a vector re-run the constructor's checks
"""

import copy
import math
import operator
import pickle
import random
import re
import struct
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from crossn.symbolic import build_table
from crossn.vecalg import (
    DOUBLE,
    EXACT,
    Vector,
    _ZERO,
    _cleared,
    _terms,
    cross3,
    cross7,
    det_product,
    dot,
    format_vector,
    padded_cross,
    parse_vector,
    table_product,
    zero_scalar,
)


def rationals():
    return st.fractions(min_value=-9, max_value=9, max_denominator=3)


def vectors(n):
    return st.lists(rationals(), min_size=n, max_size=n).map(Vector.exact)


def units(n):
    return [Vector.unit(n, i) for i in range(1, n + 1)]


# == construction and modes ==================================================


class TestVectorBasics:
    def test_exact_coords_are_reduced_fractions(self):
        v = Vector.exact(["2/4", "-3/6", 5])
        assert v.coords == (Fraction(1, 2), Fraction(-1, 2), Fraction(5))
        assert all(c.denominator > 0 for c in v.coords)

    def test_exact_mode_rejects_decimal_literals(self):
        with pytest.raises(ValueError):
            Vector.exact(["0.5"])
        with pytest.raises(ValueError):
            Vector.exact([0.5])

    def test_double_mode_rejects_rational_literals(self):
        with pytest.raises(ValueError):
            Vector.double(["1/2"])

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            Vector.exact([])

    def test_mixed_mode_arithmetic_rejected(self):
        u = Vector.exact([1, 2, 3])
        v = Vector.double([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            dot(u, v)
        with pytest.raises(ValueError):
            u + v

    def test_scaling_respects_mode(self):
        u = Vector.exact([1, 2])
        assert u.scaled(Fraction(1, 2)).coords == (Fraction(1, 2), Fraction(1))
        with pytest.raises(ValueError):
            u.scaled(0.5)
        w = Vector.double([1.0, 2.0])
        with pytest.raises(ValueError):
            w.scaled(Fraction(1, 2))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Vector([True, 0]), "cannot use True as an exact rational coordinate"),
            (lambda: Vector.double([False]), "cannot use False as a double coordinate"),
            (lambda: Vector([1]).scaled(True), "cannot use True as an exact rational coordinate"),
            (lambda: Vector.double([1.0]).scaled(True), "cannot use True as a double coordinate"),
            (
                lambda: Vector.double([Fraction(1, 2)]),
                "cannot use Fraction(1, 2) as a double coordinate",
            ),
            (
                lambda: Vector.double([1.0]).scaled("nan"),
                "double mode expects a finite literal, got 'nan'",
            ),
        ],
        ids=["exact-bool", "double-bool", "exact-scale-bool", "double-scale-bool",
             "double-fraction", "double-scale-nan"],
    )
    def test_coordinates_and_scale_factors_are_checked(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_a_vector_equals_no_tuple(self):
        assert not Vector([1]) == (1,)
        assert Vector([1]) != (1,)

    def test_unit_and_zeros(self):
        e2 = Vector.unit(4, 2)
        assert e2.coords == (0, 1, 0, 0)
        assert Vector([0] * 3).is_zero()
        with pytest.raises(ValueError):
            Vector.unit(3, 4)

    @pytest.mark.parametrize(
        "dim, i", [(3, True), (True, 1), (3, 1.0), (3.0, 1), ("3", 1), (3, None), (None, 1)]
    )
    def test_unit_needs_an_int_dim_and_index(self, dim, i):
        message = f"unit index {i!r} out of range 1..{dim!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Vector.unit(dim, i)

    def test_immutable(self):
        v = Vector.exact([1])
        with pytest.raises(AttributeError):
            v.coords = (Fraction(2),)

    def test_pickle_and_copy_round_trip(self):
        exact = Vector.exact(["1/2", 0, -3])
        double = Vector.double([-0.0, 0.0, 2.5])
        _cleared(exact)
        for v in (exact, double):
            _terms(v)
            for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
                assert type(twin) is Vector and twin == v and repr(twin) == repr(v)
                assert [repr(c) for c in twin.coords] == [repr(c) for c in v.coords]
                # Kept values are not copied; the copy computes its own.
                assert not hasattr(twin, "_ints") and not hasattr(twin, "_terms")

    def test_copies_rerun_the_checks(self):
        bad = Vector._of((0.5,), EXACT)  # made past the checks
        for remake in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            with pytest.raises(ValueError, match="^cannot use 0.5 as an exact rational coordinate$"):
                remake(bad)


class TestParseFormat:
    def test_parse_exact_round_trip(self):
        v = parse_vector("1,-2/3,0")
        assert v.coords == (Fraction(1), Fraction(-2, 3), Fraction(0))
        assert format_vector(v) == "1,-2/3,0"

    def test_parse_double(self):
        v = parse_vector("0.5, -1e2, 3", DOUBLE)
        assert v.coords == (0.5, -100.0, 3.0)

    def test_parse_rejects_empty_token(self):
        with pytest.raises(ValueError):
            parse_vector("1,,2")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_vector("1,two,3")
        # Only ASCII digits, and no underscores, in either mode.
        exact = "exact mode expects an integer or p/q literal, got {!r}"
        double = "double mode expects a decimal literal, got {!r}"
        for text, mode, message in [
            ("\u0663,1,2", EXACT, exact),
            ("1/\u0663,1,2", EXACT, exact),
            ("1_5,1,2", EXACT, exact),
            ("\u0663,1,2", DOUBLE, double),
            ("1_5,1,2", DOUBLE, double),
            ("1.5e1_0,1,2", DOUBLE, double),
            ("\uff11,1,2", DOUBLE, double),
            # float() rejects these itself; the tool says so in its own words.
            ("x,0,1", DOUBLE, double),
            ("0x1p3,1,2", DOUBLE, double),
        ]:
            token = text.split(",")[0]
            with pytest.raises(ValueError, match=f"^{re.escape(message.format(token))}$"):
                parse_vector(text, mode)
        # nan and inf keep the finite-literal message.
        for token in ("nan", "inf", "-Infinity"):
            finite = f"double mode expects a finite literal, got {token!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(finite)}$"):
                parse_vector(f"{token},1,2", DOUBLE)


# == dot product =============================================================


class TestDot:
    def test_hand_summed_example(self):
        assert dot(Vector.exact([1, 2, 3]), Vector.exact([4, 5, 6])) == 32

    def test_orthogonal_basis_vectors(self):
        assert dot(Vector.unit(3, 1), Vector.unit(3, 2)) == 0

    def test_unit_vector_self_dot(self):
        u = Vector.exact([0, 0, 0, 1])
        assert dot(u, u) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dot(Vector.exact([1, 2]), Vector.exact([1, 2, 3]))

    @settings(max_examples=50, deadline=None)
    @given(vectors(5), vectors(5))
    def test_symmetry(self, u, v):
        assert dot(u, v) == dot(v, u)

    @settings(max_examples=50, deadline=None)
    @given(vectors(4), vectors(4), vectors(4), rationals())
    def test_linearity_in_first_argument(self, u, v, w, a):
        assert dot(u.scaled(a) + v, w) == a * dot(u, w) + dot(v, w)


# == 3D product ==============================================================


class TestCross3:
    def test_basis_products(self):
        e1, e2, e3 = units(3)
        assert cross3(e1, e2) == e3
        assert cross3(e3, e2) == -e1
        assert cross3(e2, e3) == e1

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            cross3(Vector.exact([1, 2, 3, 4]), Vector.exact([1, 2, 3, 4]))

    @settings(max_examples=50, deadline=None)
    @given(vectors(3), vectors(3))
    def test_antisymmetry(self, u, v):
        assert cross3(u, v) == -cross3(v, u)

    @settings(max_examples=50, deadline=None)
    @given(vectors(3))
    def test_self_product_vanishes(self, u):
        assert cross3(u, u).is_zero()

    @settings(max_examples=50, deadline=None)
    @given(vectors(3), vectors(3))
    def test_perpendicular_and_pythagorean(self, u, v):
        w = cross3(u, v)
        assert dot(u, w) == 0 and dot(v, w) == 0
        assert dot(w, w) + dot(u, v) ** 2 == dot(u, u) * dot(v, v)


# == 7D product ==============================================================


class TestCross7:
    def test_basis_products(self):
        e = units(7)
        assert cross7(e[1], e[3]) == e[5]  # e2 x e4 = e6
        assert cross7(e[4], e[5]) == -e[2]  # e5 x e6 = -e3
        assert cross7(e[0], e[4]) == -e[3]  # e1 x e5 = -e4

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            cross7(Vector.exact([1, 2, 3]), Vector.exact([1, 2, 3]))

    @settings(max_examples=50, deadline=None)
    @given(vectors(7), vectors(7))
    def test_antisymmetry(self, u, v):
        assert cross7(u, v) == -cross7(v, u)

    @settings(max_examples=50, deadline=None)
    @given(vectors(7))
    def test_self_product_vanishes(self, u):
        assert cross7(u, u).is_zero()

    @settings(max_examples=50, deadline=None)
    @given(vectors(7), vectors(7))
    def test_perpendicular_and_pythagorean(self, u, v):
        w = cross7(u, v)
        assert dot(u, w) == 0 and dot(v, w) == 0
        assert dot(w, w) + dot(u, v) ** 2 == dot(u, u) * dot(v, v)

    def test_double_mode_evaluation(self):
        u = Vector.double([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        v = Vector.double([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert cross7(u, v) == Vector.double([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])


# == padded product ==========================================================


class TestPaddedCross:
    def test_known_pythagorean_failure_pair(self):
        u = Vector.exact([0, 0, 0, 1])
        v = Vector.exact([1, 0, 0, 0])
        assert padded_cross(u, v).is_zero()

    def test_embeds_3d_case(self):
        out = padded_cross(Vector.unit(4, 1), Vector.unit(4, 2))
        assert out == Vector.exact([0, 0, 1, 0])

    def test_self_product_vanishes(self):
        e4 = Vector.unit(4, 4)
        assert padded_cross(e4, e4).is_zero()

    def test_requires_dim_3(self):
        with pytest.raises(ValueError):
            padded_cross(Vector.exact([1, 2]), Vector.exact([3, 4]))

    @settings(max_examples=50, deadline=None)
    @given(vectors(5), vectors(5))
    def test_perpendicular_in_5d(self, u, v):
        w = padded_cross(u, v)
        assert dot(u, w) == 0 and dot(v, w) == 0


# == determinant product =====================================================


def _random_int_vectors(rng, count, n):
    return [
        Vector.exact([rng.randint(-9, 9) for _ in range(n)]) for _ in range(count)
    ]


class TestDetProduct:
    def test_equals_cross3_on_random_corpus(self):
        rng = random.Random(20231)
        for _ in range(100):
            u, v = _random_int_vectors(rng, 2, 3)
            assert det_product([u, v]) == cross3(u, v)

    def test_first_three_basis_rows_in_4d(self):
        # Expanding | E1 E2 E3 E4 ; e1 ; e2 ; e3 | along the symbolic first
        # row: only the column-4 minor survives (the 3x3 identity), and its
        # cofactor sign (-1)**(1+4) makes the result -e4.
        rows = [Vector.unit(4, 1), Vector.unit(4, 2), Vector.unit(4, 3)]
        assert det_product(rows) == -Vector.unit(4, 4)

    def test_repeated_row_gives_zero(self):
        u = Vector.exact([1, 2, 3, 4])
        v = Vector.exact([5, 6, 7, 8])
        assert det_product([u, v, u]).is_zero()

    def test_perpendicular_to_every_row(self):
        rng = random.Random(977)
        for n in range(3, 7):
            for _ in range(20):
                rows = _random_int_vectors(rng, n - 1, n)
                out = det_product(rows)
                for r in rows:
                    assert dot(out, r) == 0

    def test_row_count_must_be_dim_minus_one(self):
        with pytest.raises(ValueError):
            det_product([Vector.exact([1, 2, 3])])
        with pytest.raises(ValueError, match="^det_product needs at least one row vector$"):
            det_product([])

    def test_inconsistent_dimensions_rejected(self):
        with pytest.raises(ValueError):
            det_product([Vector.exact([1, 2, 3]), Vector.exact([1, 2, 3, 4])])

    def test_dimension_cap(self):
        n = 13
        rows = [Vector.unit(n, i) for i in range(1, n)]
        with pytest.raises(ValueError):
            det_product(rows)

    def test_double_zero_minors_give_positive_zeros(self):
        # Odd coordinates are 0.0 minus their minor, so a 0.0 minor stays
        # +0.0, as in table_product; negating it would give -0.0.
        for rows in (([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]), ([0.0, -1.0, 0.0], [0.0, 0.0, 0.0])):
            out = det_product([Vector.double(r) for r in rows])
            assert _bits(out.coords) == _bits([0.0, 0.0, 0.0])

    def test_2d_case_is_the_perpendicular_vector(self):
        out = det_product([Vector.exact([3, 4])])
        assert out == Vector.exact([4, -3])
        assert dot(out, Vector.exact([3, 4])) == 0


# == bilinear table extension ================================================


class TestTableProduct:
    def test_zero_argument_gives_zero(self):
        from crossn.symbolic import build_table
        from crossn.vecalg import table_product

        table = build_table(2)
        u = Vector.exact([1, 2, 3, 4, 5, 6, 7])
        assert table_product(table, u, Vector([0] * 7)).is_zero()
        assert table_product(table, Vector([0] * 7), u).is_zero()

    def test_dimension_mismatch_with_table(self):
        from crossn.symbolic import build_table
        from crossn.vecalg import table_product

        table = build_table(1)
        with pytest.raises(ValueError):
            table_product(table, Vector.exact([1, 2, 3, 4]), Vector.exact([1, 2, 3, 4]))

    def test_double_mode_evaluation(self):
        from crossn.symbolic import build_table
        from crossn.vecalg import table_product

        table = build_table(1)
        u = Vector.double([1.0, 0.0, 0.0])
        v = Vector.double([0.0, 0.5, 0.0])
        assert table_product(table, u, v) == Vector.double([0.0, 0.0, 0.5])

    @settings(max_examples=30, deadline=None)
    @given(vectors(7), vectors(7), vectors(7), rationals())
    def test_linear_in_first_argument(self, u, u2, v, a):
        from crossn.symbolic import build_table
        from crossn.vecalg import table_product

        table = build_table(2)
        lhs = table_product(table, u.scaled(a) + u2, v)
        rhs = table_product(table, u, v).scaled(a) + table_product(table, u2, v)
        assert lhs == rhs


# == integer kernels against the term-by-term formulas =======================


def _ref_dot(x, y, zero):
    total = zero
    for a, b in zip(x, y):
        total += a * b
    return total


def _ref_cross3(x, y):
    x1, x2, x3 = x
    y1, y2, y3 = y
    return (x2 * y3 - x3 * y2, x3 * y1 - x1 * y3, x1 * y2 - x2 * y1)


def _ref_cross7(x, y):
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


def _ref_padded(x, y):
    zero = Fraction(0) if isinstance(x[0], Fraction) else 0.0
    return _ref_cross3(x[:3], y[:3]) + (zero,) * (len(x) - 3)


def _ref_table_product(table, x, y, zero):
    # table_product's loop as it was when it multiplied each term by its sign.
    signs = table.signs
    right = [(j, b) for j, b in enumerate(y, start=1) if b]
    acc = [zero] * table.n
    for i, a in enumerate(x, start=1):
        if not a:
            continue
        row = signs[i]
        for j, b in right:
            s = row[j]
            if s:
                acc[(i ^ j) - 1] += s * a * b
    return tuple(acc)


# (product, reference formula, dimensions to draw)
KERNELS = {
    "cross3": (cross3, _ref_cross3, (3,)),
    "cross7": (cross7, _ref_cross7, (7,)),
    "padded": (padded_cross, _ref_padded, (3, 4, 8, 15)),
}


def wide_rationals():
    # Zeros and units as in basis inputs, plus denominators far beyond the
    # verifier's {1, 2, 3}, so the lcm of a vector's denominators is large.
    return st.one_of(
        st.sampled_from((0, 1, -1)).map(Fraction),
        st.fractions(max_denominator=10**6),
    )


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def _draw_pair(data, dims, element):
    n = data.draw(st.sampled_from(dims))
    coords = st.lists(element, min_size=n, max_size=n).map(tuple)
    return data.draw(coords), data.draw(coords)


def _bits(values):
    return [struct.pack("<d", c) for c in values]


# Signed zeros, the smallest subnormal and values whose sums overflow to inf,
# and whose inf - inf terms make NaN.
EDGE_FLOATS = st.one_of(
    FINITE_FLOATS, st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308))
)


def _draw_table(data):
    """The level-k table for k in 1..4, or a duck-typed table of that size
    whose off-diagonal signs are drawn from {-1, 0, 1}."""
    k = data.draw(st.integers(1, 4), label="k")
    if data.draw(st.booleans(), label="built"):
        return build_table(k)
    n = 2 ** (k + 1) - 1
    row = st.lists(st.sampled_from((-1, 0, 1)), min_size=n + 1, max_size=n + 1)
    signs = [data.draw(row) for _ in range(n + 1)]
    for i in range(n + 1):
        signs[i][i] = 0  # e_i x e_i has no basis index i ^ i
    return SimpleNamespace(n=n, signs=signs)


def _draw_sparse(data, n):
    coords = [Fraction(0)] * n
    small = st.sampled_from((1, -1, Fraction(1, 2), Fraction(-1, 2))).map(Fraction)
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True)):
        coords[i] = data.draw(st.one_of(small, wide_rationals()))
    return tuple(coords)


class TestIntegerKernels:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_exact_dot_matches_fraction_sum(self, data):
        x, y = _draw_pair(data, (1, 3, 7, 16), wide_rationals())
        out = dot(Vector.exact(x), Vector.exact(y))
        assert type(out) is Fraction
        assert out == _ref_dot(x, y, Fraction(0))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_double_dot_is_bit_identical(self, data):
        x, y = _draw_pair(data, (1, 3, 7, 16), FINITE_FLOATS)
        out = dot(Vector.double(x), Vector.double(y))
        assert type(out) is float
        assert _bits([out]) == _bits([_ref_dot(x, y, 0.0)])

    @pytest.mark.parametrize("name", sorted(KERNELS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_exact_product_matches_fraction_formula(self, name, data):
        product, reference, dims = KERNELS[name]
        x, y = _draw_pair(data, dims, wide_rationals())
        out = product(Vector.exact(x), Vector.exact(y))
        assert out.mode == "exact"
        assert all(type(c) is Fraction for c in out.coords)
        assert out.coords == reference(x, y)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_double_product_is_bit_identical(self, name, data):
        product, reference, dims = KERNELS[name]
        x, y = _draw_pair(data, dims, FINITE_FLOATS)
        out = product(Vector.double(x), Vector.double(y))
        assert out.mode == DOUBLE
        assert all(type(c) is float for c in out.coords)
        assert _bits(out.coords) == _bits(reference(x, y))

    def test_results_keep_the_scalar_type(self):
        for mode, scalar in (("exact", Fraction), (DOUBLE, float)):
            u = Vector([1, -2, 3, 0], mode)
            v = Vector([0, 5, -1, 2], mode)
            for out in (u + v, u - v, -u, u.scaled(3), Vector.unit(4, 2, mode),
                        Vector([0] * 4, mode), padded_cross(u, v)):
                assert out.mode == mode
                assert all(type(c) is scalar for c in out.coords)

    def test_unit_and_zeros_reject_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown scalar mode"):
            Vector.unit(3, 1, mode="bogus")
        with pytest.raises(ValueError, match="unknown scalar mode"):
            Vector([0], "bogus")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_exact_sums_and_scaling_match_fraction_arithmetic(self, data):
        x, y = _draw_pair(data, (1, 3, 7, 16), wide_rationals())
        c = data.draw(st.one_of(wide_rationals(), st.integers(-50, 50)))
        u, v = Vector.exact(x), Vector.exact(y)
        cases = (
            (u + v, tuple(a + b for a, b in zip(x, y))),
            (u - v, tuple(a - b for a, b in zip(x, y))),
            (u.scaled(c), tuple(c * a for a in x)),
        )
        for out, expected in cases:
            assert out.mode == "exact"
            assert all(type(t) is Fraction for t in out.coords)
            assert out.coords == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_double_sums_and_scaling_are_bit_identical(self, data):
        x, y = _draw_pair(data, (1, 3, 7, 16), FINITE_FLOATS)
        c = data.draw(FINITE_FLOATS)
        u, v = Vector.double(x), Vector.double(y)
        assert _bits((u + v).coords) == _bits(map(operator.add, x, y))
        assert _bits((u - v).coords) == _bits(map(operator.sub, x, y))
        assert _bits(u.scaled(c).coords) == _bits(c * a for a in x)

    def test_double_sums_keep_negative_zero(self):
        u = Vector.double([-0.0, -0.0, 0.0])
        v = Vector.double([-0.0, 0.0, -0.0])
        assert _bits((u + v).coords) == _bits([-0.0, 0.0, 0.0])
        assert _bits((u - v).coords) == _bits([0.0, -0.0, 0.0])
        assert _bits(u.scaled(-1.0).coords) == _bits([0.0, 0.0, -0.0])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_kept_cleared_integers_equal_a_fresh_clearing(self, data):
        x, _ = _draw_pair(data, (1, 3, 7, 16), wide_rationals())
        v = Vector.exact(x)
        d = math.lcm(*(c.denominator for c in x))
        fresh = (tuple(int(c * d) for c in x), d)
        first = _cleared(v)
        assert first == fresh
        assert _cleared(v) is first
        # The kept value is invisible to equality, hashing and repr.
        twin = Vector.exact(x)
        assert v == twin and hash(v) == hash(twin) and repr(v) == repr(twin)
        # Results of the integer kernels clear like fresh vectors too.
        for out in (v + v, v.scaled(Fraction(-3, 7)), v - v):
            assert _cleared(out) == _cleared(Vector.exact(out.coords))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_exact_table_product_matches_the_multiplying_loop(self, data):
        table = _draw_table(data)
        if data.draw(st.booleans(), label="sparse"):
            # A few nonzeros a side, as in the witness e3 + e10: many cells
            # get one term, some a negative first term.  In a built table
            # u x u cancels e_i x e_j against e_j x e_i in every cell.
            x = _draw_sparse(data, table.n)
            y = x if data.draw(st.booleans(), label="square") else _draw_sparse(data, table.n)
        else:
            x, y = _draw_pair(data, (table.n,), wide_rationals())
        out = table_product(table, Vector.exact(x), Vector.exact(y))
        assert out.mode == "exact"
        assert all(type(c) is Fraction for c in out.coords)
        assert out.coords == _ref_table_product(table, x, y, Fraction(0))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_double_table_product_is_bit_identical(self, data):
        table = _draw_table(data)
        x, y = _draw_pair(data, (table.n,), EDGE_FLOATS)
        out = table_product(table, Vector.double(x), Vector.double(y))
        assert out.mode == DOUBLE
        assert all(type(c) is float for c in out.coords)
        assert _bits(out.coords) == _bits(_ref_table_product(table, x, y, 0.0))

    def test_double_cell_whose_only_term_underflows_is_positive_zero(self):
        # 5e-324 * 0.5 rounds to a zero carrying the term's sign.  Added to
        # the 0.0 seed, or subtracted from it, it leaves +0.0 in both sign
        # branches: e1 x e2 = e3 and e2 x e1 = -e3.
        table = build_table(1)
        for u, v in (([5e-324, 0.0, 0.0], [0.0, -0.5, 0.0]),
                     ([0.0, 5e-324, 0.0], [0.5, 0.0, 0.0])):
            out = table_product(table, Vector.double(u), Vector.double(v))
            assert _bits(out.coords) == _bits([0.0, 0.0, 0.0])

    def test_exact_zeros_are_the_shared_zero(self):
        assert zero_scalar(EXACT) is _ZERO
        assert Vector.unit(4, 2).coords[0] is _ZERO
        u, v = Vector.exact([1, 2, 3, 4, 5]), Vector.exact([0, 1, 0, 0, 7])
        assert all(c is _ZERO for c in padded_cross(u, v).coords[3:])
        # e1 x e2 = e3 at level 1; the cells that no term reaches stay shared.
        out = table_product(build_table(1), Vector.unit(3, 1), Vector.unit(3, 2))
        assert out.coords == (0, 0, 1)
        assert out.coords[0] is _ZERO and out.coords[1] is _ZERO
        # The formula products give the shared zero where a coordinate is 0.
        for product, n in ((cross3, 3), (cross7, 7)):
            out = product(Vector.unit(n, 1), Vector.unit(n, 2))
            assert sorted(out.coords) == [0] * (n - 1) + [1]
            assert all(c is _ZERO for c in out.coords if not c)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_table_product_on_kept_terms_matches_the_multiplying_loop(self, data):
        table = _draw_table(data)
        mode = data.draw(st.sampled_from((EXACT, DOUBLE)), label="mode")
        x, y = _draw_pair(data, (table.n,), wide_rationals() if mode == EXACT else EDGE_FLOATS)
        zero = Fraction(0) if mode == EXACT else 0.0
        zeros = tuple(data.draw(st.lists(st.sampled_from((zero, -zero)),
                                         min_size=table.n, max_size=table.n)))

        def expected(a, b):
            # repr tells Fraction from float and -0.0 from 0.0.
            return [repr(c) for c in _ref_table_product(table, a, b, zero)]

        def got(u, v):
            return [repr(c) for c in table_product(table, u, v).coords]

        u, v, z = Vector(x, mode), Vector(y, mode), Vector(zeros, mode)
        assert got(u, v) == expected(x, y)  # fresh operands
        assert _terms(u) is _terms(u)
        assert got(u, v) == expected(x, y)  # both operands' terms kept
        assert got(v, u) == expected(y, x)
        assert got(u, u) == expected(x, x)  # u is v
        assert got(u, z) == expected(x, zeros) and got(z, v) == expected(zeros, y)
        if mode == EXACT:
            s, t = Vector.exact(x), Vector.exact(y)
            for fresh in (s, t):
                _cleared(fresh)  # integers kept before any terms
            assert got(s, t) == expected(x, y)
        # The kept terms are invisible to equality, hashing and repr.
        for kept, coords in ((u, x), (v, y), (z, zeros)):
            twin = Vector(coords, mode)
            assert kept == twin and hash(kept) == hash(twin) and repr(kept) == repr(twin)
