"""Unit tests for the vector arithmetic layer.

Core claims:
    - exact coordinates are Fractions in lowest terms; modes never mix
    - dot is the plain coordinate sum, symmetric and bilinear
    - cross3 is the right-hand-rule product (e1 x e2 = e3, e3 x e2 = -e1)
    - cross7 matches the published basis products and is antisymmetric
    - padded_cross embeds the 3D product and kills coordinates 4..n
    - det_product is the formal first-row cofactor expansion: perpendicular
      to every row, equal to cross3 for n = 3, zero on repeated rows
    - parsing/formatting of comma-separated rational literals round-trips
    - the integer kernels behind exact dot/cross3/cross7/padded_cross and
      exact scaled/+/- equal a term-by-term Fraction evaluation, and double
      mode is bit-identical to the plain float formulas
    - a vector's cleared integers are kept on it and equal a fresh clearing
"""

import math
import operator
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crossn.vecalg import (
    DOUBLE,
    Vector,
    _cleared,
    cross3,
    cross7,
    det_product,
    dot,
    format_vector,
    padded_cross,
    parse_vector,
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

    def test_unit_and_zeros(self):
        e2 = Vector.unit(4, 2)
        assert e2.coords == (0, 1, 0, 0)
        assert Vector.zeros(3).is_zero()
        with pytest.raises(ValueError):
            Vector.unit(3, 4)

    def test_immutable(self):
        v = Vector.exact([1])
        with pytest.raises(AttributeError):
            v.coords = (Fraction(2),)


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

    def test_inconsistent_dimensions_rejected(self):
        with pytest.raises(ValueError):
            det_product([Vector.exact([1, 2, 3]), Vector.exact([1, 2, 3, 4])])

    def test_dimension_cap(self):
        n = 13
        rows = [Vector.unit(n, i) for i in range(1, n)]
        with pytest.raises(ValueError):
            det_product(rows)

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
        assert table_product(table, u, Vector.zeros(7)).is_zero()
        assert table_product(table, Vector.zeros(7), u).is_zero()

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
                        Vector.zeros(4, mode), padded_cross(u, v)):
                assert out.mode == mode
                assert all(type(c) is scalar for c in out.coords)

    def test_unit_and_zeros_reject_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown scalar mode"):
            Vector.unit(3, 1, mode="bogus")
        with pytest.raises(ValueError, match="unknown scalar mode"):
            Vector.zeros(3, "bogus")

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
