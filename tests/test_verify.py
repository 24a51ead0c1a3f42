"""Unit tests for the axiom verification engine.

Core claims:
    - perpendicular/pythagorean/bilinear hold on the genuine products
      (cross3, cross7, table levels 1 and 2) over basis pairs and samples
    - the padded product in R^4 loses the Pythagorean identity with the
      canonical witness pair, injected ahead of any sampling
    - level >= 3 table products lose the Pythagorean identity with the
      e3+e10 / e6-e15 witness (its properties are tested in test_symbolic,
      beside the basis words it is built from)
    - check refuses samples and seeds that are not ints (bools included)
      before any case runs, and padded_product a dimension that is not one
    - refuted reports carry witnesses that replay exactly, and a tampered
      witness does not; verdicts are deterministic functions of
      (product, samples, seed)
    - deliberately broken products are refuted, never excused
    - one checker call evaluates each product of two basis vectors once,
      keyed on values: equal units hit the memo whichever object carries
      them, other operands are never stored, and reports are the same
      with the memo bypassed
    - the tables' sign rows certify perpendicular and identity 1.1, which
      the table products are expected to keep
    - reports and witnesses are named tuples, and serialize to the
      documented JSON shape, a witness's missing sides as null
    - a refuted report survives deepcopy and pickle, and the copy replays
"""

import copy
import dataclasses
import json
import pickle
import re
from array import array
from fractions import Fraction

import pytest

from crossn import verify
from crossn.symbolic import MulTable, build_table
from crossn.vecalg import Vector, cross3, cross7, dot
from crossn.verify import (
    DEFAULT_SEED,
    HOLDS,
    IDENTITY_AXIOMS,
    REFUTED,
    AxiomReport,
    ProductUnderTest,
    Witness,
    check,
    check_bilinear,
    check_case,
    check_identities,
    check_perpendicular,
    check_pythagorean,
    classify_dimensions,
    cross3_product,
    cross7_product,
    expected_verdict,
    padded_product,
    product_for_table,
    replay,
)


def broken_second_projection() -> ProductUnderTest:
    # "product" that just returns v: fails perpendicularity immediately
    return ProductUnderTest("broken", 3, lambda u, v: v)


def broken_quadratic() -> ProductUnderTest:
    # nonlinear map: fails the bilinear expansion
    from crossn.vecalg import cross3

    return ProductUnderTest(
        "quadratic", 3, lambda u, v: cross3(u, v).scaled(dot(u, u))
    )


def _zeroed_cell_table() -> MulTable:
    table = build_table(2)
    rows = [array("b", r) for r in table.signs]
    rows[1][2] = 0
    rows[2][1] = 0
    return MulTable(table.k, tuple(rows))


# == perpendicular ===========================================================


class TestPerpendicular:
    def test_cross3_holds(self):
        report = check_perpendicular(cross3_product(), samples=50)
        assert report.verdict == HOLDS
        assert report.witness is None
        assert report.samples_run == 9 + 50

    def test_padded_holds(self):
        assert check_perpendicular(padded_product(4), samples=50).verdict == HOLDS

    def test_broken_product_refuted_on_first_basis_pair(self):
        p = broken_second_projection()
        report = check_perpendicular(p, samples=5)
        assert report.refuted
        assert report.witness.u == Vector.unit(3, 1)
        assert report.witness.v == Vector.unit(3, 1)
        assert report.witness.lhs == 1  # u . p(u, v) = e1 . e1
        assert replay(report, p)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="^samples must be >= 1$"):
            check_perpendicular(cross3_product(), samples=0)


# == pythagorean =============================================================


class TestPythagorean:
    def test_cross7_holds(self):
        report = check_pythagorean(cross7_product(), samples=50)
        assert report.verdict == HOLDS

    def test_padded_4d_refuted_with_canonical_witness(self):
        p = padded_product(4)
        report = check_pythagorean(p, samples=5)
        assert report.refuted
        assert report.witness.u == Vector.exact([0, 0, 0, 1])
        assert report.witness.v == Vector.exact([1, 0, 0, 0])
        assert report.witness.lhs == 0
        assert report.witness.rhs == 1
        assert report.samples_run == 1  # injected witness, nothing else ran
        assert replay(report, p)

    def test_padded_3d_is_cross3_and_holds(self):
        assert check_pythagorean(padded_product(3), samples=50).verdict == HOLDS

    def test_padded_needs_dim_3(self):
        with pytest.raises(ValueError, match=r"^padded product needs dim >= 3, got 2$"):
            padded_product(2)

    @pytest.mark.parametrize("n", [3.0, 4.0, True, "4", None])
    def test_padded_dim_must_be_an_int(self, n):
        message = f"padded product needs dim >= 3, got {n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            padded_product(n)

    def test_table_level_3_refuted_with_injected_pair(self):
        p = product_for_table(build_table(3))
        report = check_pythagorean(p, samples=5)
        assert report.refuted
        assert report.witness.lhs == 0
        assert report.witness.rhs == 4
        assert [c for c in report.witness.u.coords if c] == [1, 1]
        assert replay(report, p)

    def test_table_levels_1_and_2_hold(self):
        for k in (1, 2):
            p = product_for_table(build_table(k))
            assert check_pythagorean(p, samples=50).verdict == HOLDS


# == bilinear ================================================================


class TestBilinear:
    def test_table_products_hold(self):
        for k in (1, 2, 3, 4):
            p = product_for_table(build_table(k))
            assert check_bilinear(p, samples=20).verdict == HOLDS

    def test_cross7_holds(self):
        assert check_bilinear(cross7_product(), samples=20).verdict == HOLDS

    def test_padded_holds(self):
        assert check_bilinear(padded_product(5), samples=20).verdict == HOLDS

    def test_zero_scalars_collapse_both_sides(self):
        from crossn.verify import _bilinear, _bilinear_operands
        from fractions import Fraction

        p = cross3_product()
        zero4 = tuple(Fraction(0) for _ in range(4))
        u = Vector.exact([1, 2, 3])
        left, right, expansion = _bilinear_operands(p.evaluate, zero4, u, u, u, u)
        assert p.evaluate(left, right).is_zero() and expansion.is_zero()
        assert _bilinear(p.evaluate, left, right, expansion) is None

    def test_nonlinear_product_refuted_and_replays(self):
        p = broken_quadratic()
        report = check_bilinear(p, samples=10)
        assert report.refuted
        assert replay(report, p)


# == the six identities ======================================================


class TestIdentities:
    def test_cross3_and_cross7_satisfy_all_six(self):
        for product in (cross3_product(), cross7_product()):
            for report in check_identities(product, samples=40):
                assert report.verdict == HOLDS, report.axiom

    def test_contraction_identity_value(self):
        # v x (v x u) = (v.u) v - (v.v) u at v = e1, u = e2: both sides -e2
        from crossn.verify import _AXIOMS

        p = cross3_product()
        v, u = Vector.unit(3, 1), Vector.unit(3, 2)
        _, _, test = _AXIOMS["identity-1.3"]
        # a test takes (u, v, w) with the roles used for 1.3 and returns
        # no witness when both sides agree
        assert test(p.evaluate, u, v) is None
        assert check_case(p, "identity-1.3", u, v) is None

    def test_level3_table_empirical_verdicts(self):
        p = product_for_table(build_table(3))
        verdicts = {
            r.axiom: r for r in check_identities(p, samples=30, seed=DEFAULT_SEED)
        }
        assert verdicts["identity-1.2"].verdict == HOLDS
        for axiom in ("identity-1.3", "identity-1.4", "identity-1.6"):
            report = verdicts[axiom]
            assert report.refuted
            assert replay(report, p)

    def test_unknown_identity_rejected(self):
        with pytest.raises(ValueError):
            check(cross3_product(), "identity-9.9")

    def test_orthonormal_identities_use_distinct_basis_vectors(self):
        report = check(cross7_product(), "identity-1.5", samples=10)
        assert report.verdict == HOLDS
        assert report.samples_run == 7 * 6 + 10

    @pytest.mark.parametrize(
        "product", [cross7_product(), product_for_table(build_table(3))],
        ids=["cross7", "table-k3"],
    )
    def test_basis_products_are_evaluated_once(self, product):
        # 1.4 and 1.6 multiply a basis product (a signed unit vector) again,
        # so the memo must return the shared signed unit for it.
        n = product.dim
        basis_cases = {
            "identity-1.1": n**3,
            "identity-1.4": n**3,
            "identity-1.6": n * (n - 1) * (n - 2),
        }
        for axiom, cases in basis_cases.items():
            calls = {}

            def counting(u, v):
                key = (u.coords, v.coords)
                if all(sorted(x.coords) == [0] * (n - 1) + [1] for x in (u, v)):
                    calls[key] = calls.get(key, 0) + 1
                return product.evaluate(u, v)

            counted = dataclasses.replace(product, evaluate=counting)
            report = check(counted, axiom, samples=1)
            assert set(calls.values()) == {1}, axiom
            # identities 1.4 and 1.6 fail on the level-3 table
            if report.verdict == HOLDS:
                assert report.samples_run == cases + 1
                assert len(calls) == n * n
            else:
                assert product.dim == 15 and axiom != "identity-1.1"


def _counted_cross7():
    """cross7 memoised, and the list of (u, v) it was evaluated on."""
    calls = []

    def counting(u, v):
        calls.append((u, v))
        return cross7(u, v)

    return verify._memoised(ProductUnderTest("counted", 7, counting)).evaluate, calls


class TestMemo:
    @pytest.mark.parametrize(
        "product",
        [cross7_product(), product_for_table(build_table(3)), padded_product(8)],
        ids=["cross7", "table-k3", "padded-n8"],
    )
    def test_reports_equal_without_the_memo(self, product, monkeypatch):
        def reports():
            return [
                check_perpendicular(product, samples=3),
                check_pythagorean(product, samples=3),
                check_bilinear(product, samples=3),
                *check_identities(product, samples=3),
            ]

        memoised = reports()
        monkeypatch.setattr(verify, "_memoised", lambda product: product)
        bypassed = reports()
        assert len(memoised) == 9
        assert memoised == bypassed

    def test_equal_units_evaluate_once(self):
        p, calls = _counted_cross7()
        first = p(Vector.unit(7, 1), Vector.unit(7, 2))
        again = p(Vector.unit(7, 1), Vector.unit(7, 2))
        assert first == again == Vector.unit(7, 3)
        assert len(calls) == 1
        # A basis product fed back in hits the entry of the equal unit.
        e4 = Vector.unit(7, 4)
        assert p(e4, first) == p(e4, Vector.unit(7, 3))
        minus_e3 = Vector.exact([0, 0, -1, 0, 0, 0, 0])
        assert p(minus_e3, e4) == p(Vector.unit(7, 3).scaled(-1), e4)
        assert len(calls) == 3

    def test_non_unit_operands_are_never_stored(self):
        p, calls = _counted_cross7()
        e1 = Vector.unit(7, 1)
        others = [
            e1.scaled(2),
            e1.scaled(Fraction(1, 2)),
            e1 + Vector.unit(7, 2),
            Vector([0] * 7),
        ]
        for x in others:
            for u, v in ((x, e1), (e1, x)):
                assert p(u, v) == p(u, v) == cross7(u, v)
        assert len(calls) == 2 * 2 * len(others)


# == classification ==========================================================


class TestClassifyDimensions:
    def test_pattern_up_to_level_three(self):
        reports = classify_dimensions(3, samples=60)
        assert [r.refuted for r in reports] == [False, False, True]
        assert [r.dim for r in reports] == [3, 7, 15]
        witness = reports[2].witness
        assert witness is not None
        assert dot(witness.u, witness.u) == 2

    def test_witnesses_replay(self):
        for k, report in enumerate(classify_dimensions(3, samples=60), start=1):
            if report.refuted:
                assert replay(report, product_for_table(build_table(k)))

    def test_determinism(self):
        a = classify_dimensions(3, samples=40, seed=5)
        b = classify_dimensions(3, samples=40, seed=5)
        assert a == b

    def test_max_k_bounds(self):
        with pytest.raises(ValueError):
            classify_dimensions(0)
        with pytest.raises(ValueError):
            classify_dimensions(11)
        for bad in (True, 2.0):  # not ints: a bool would run level 1
            with pytest.raises(ValueError, match="^level must be in 1..10, got "):
                classify_dimensions(bad)

    def test_single_level(self):
        (report,) = classify_dimensions(1, samples=30)
        assert report.dim == 3
        assert not report.refuted

    def test_embedded_level2_inputs_keep_pythagorean_at_level3(self):
        # vectors supported on the first 7 coordinates behave identically
        # under the level-3 table, so the identity survives on that block
        import random as _random
        from fractions import Fraction

        table = build_table(3)
        p = product_for_table(table)
        rng = _random.Random(11)
        for _ in range(50):
            head = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(7)]
            pad = [Fraction(0)] * 8
            u = Vector.exact(head + pad)
            head2 = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(7)]
            v = Vector.exact(head2 + pad)
            w = p.evaluate(u, v)
            assert dot(w, w) + dot(u, v) ** 2 == dot(u, u) * dot(v, v)


# == reports =================================================================


class TestReports:
    def test_determinism_of_reports(self):
        p = cross7_product()
        a = check_pythagorean(p, samples=25, seed=99)
        b = check_pythagorean(p, samples=25, seed=99)
        assert a == b

    def test_seed_is_recorded(self):
        report = check_perpendicular(cross3_product(), samples=5, seed=4242)
        assert report.rng_seed == 4242

    def test_json_shape_holds(self):
        report = check_pythagorean(cross3_product(), samples=5)
        doc = report.to_json_dict()
        assert list(doc) == [
            "product",
            "dim",
            "axiom",
            "verdict",
            "witness",
            "samples",
            "seed",
        ]
        assert doc["witness"] is None
        json.dumps(doc)  # serializable

    def test_json_shape_refuted(self):
        report = check_pythagorean(padded_product(4), samples=5)
        doc = report.to_json_dict()
        assert doc["witness"]["u"] == ["0", "0", "0", "1"]
        assert doc["witness"]["v"] == ["1", "0", "0", "0"]
        assert doc["witness"]["lhs"] == "0"
        assert doc["witness"]["rhs"] == "1"
        json.dumps(doc)
        # A witness of operands only writes its missing sides as null.
        bare = report._replace(witness=Witness(*report.witness[:2])).to_json_dict()
        assert bare["witness"] == {"u": ["0", "0", "0", "1"], "v": ["1", "0", "0", "0"],
                                   "lhs": None, "rhs": None}

    def test_reports_are_named_tuples(self):
        report = check_pythagorean(padded_product(4), samples=5)
        assert AxiomReport._fields == (
            "product", "dim", "axiom", "verdict", "witness", "samples_run", "rng_seed", "expected"
        )
        assert AxiomReport._field_defaults == {"expected": None}
        assert Witness._field_defaults == {"w": None, "lhs": None, "rhs": None}
        assert report == tuple(report) and report.witness == tuple(report.witness)
        assert repr(report) == (
            "AxiomReport(product='padded-4', dim=4, axiom='pythagorean', verdict='refuted', "
            "witness=Witness(u=Vector([0, 0, 0, 1], mode='exact'), "
            "v=Vector([1, 0, 0, 0], mode='exact'), w=None, lhs=Fraction(0, 1), "
            "rhs=Fraction(1, 1)), samples_run=1, rng_seed=1063, expected='refuted')"
        )
        with pytest.raises(AttributeError):
            report.verdict = HOLDS

    def test_replay_requires_witness(self):
        report = check_pythagorean(cross3_product(), samples=5)
        with pytest.raises(ValueError):
            replay(report, cross3_product())


def _refuted(axiom):
    """(report, product) pairs whose reports are refuted for ``axiom``."""
    if axiom == "perpendicular":
        p = broken_second_projection()
        return [(check_perpendicular(p, samples=5), p)]
    if axiom == "bilinear":
        p = broken_quadratic()
        return [(check_bilinear(p, samples=10), p)]
    if axiom == "identities":
        p = broken_quadratic()
        return [(r, p) for r in check_identities(p, samples=10) if r.refuted]
    p = padded_product(4)
    return [(check_pythagorean(p, samples=5), p)]


def _changed(x):
    if isinstance(x, Vector):
        return x + Vector.unit(x.dim, 1)
    return x + 1


class TestReplay:
    @pytest.mark.parametrize(
        "axiom", ["perpendicular", "bilinear", "identities", "pythagorean"]
    )
    def test_tampered_witness_fails_replay(self, axiom):
        cases = _refuted(axiom)
        assert cases
        for report, product in cases:
            assert report.refuted
            assert replay(report, product), report.axiom
            w = report.witness
            others = [Vector.unit(w.u.dim, i) for i in range(1, w.u.dim + 1)]
            other = next(e for e in others if e != w.u and e != w.v)
            for tampered in (
                w._replace(lhs=_changed(w.lhs)),
                w._replace(u=other),
            ):
                bad = report._replace(witness=tampered)
                assert not replay(bad, product), (report.axiom, tampered)

    def test_copies_of_a_refuted_report_replay(self):
        p = product_for_table(build_table(3))
        report = check_pythagorean(p, samples=5)
        assert report.refuted
        for twin in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
            assert twin == report and twin.witness.u is not report.witness.u
            assert twin.to_json_dict() == report.to_json_dict()
            assert replay(twin, p)

    def test_witness_equals_a_single_case(self):
        p = padded_product(4)
        report = check_pythagorean(p, samples=5)
        w = report.witness
        assert check_case(p, "pythagorean", w.u, w.v) == w
        assert check_case(p, "pythagorean", w.v, w.v) is None
        with pytest.raises(ValueError):
            check_case(p, "identity-9.9", w.u, w.v)


class TestExpectedVerdicts:
    def test_true_products_expect_everything(self):
        assert expected_verdict(cross3_product(), "pythagorean") == HOLDS
        assert expected_verdict(cross7_product(), "identity-1.4") == HOLDS

    def test_table_expectations(self):
        p2 = product_for_table(build_table(2))
        p3 = product_for_table(build_table(3))
        assert expected_verdict(p2, "pythagorean") == HOLDS
        assert expected_verdict(p3, "pythagorean") == REFUTED
        assert expected_verdict(p3, "bilinear") == HOLDS
        assert expected_verdict(p3, "perpendicular") == HOLDS
        assert expected_verdict(p3, "identity-1.1") == HOLDS
        assert expected_verdict(p3, "identity-1.2") == HOLDS
        assert expected_verdict(p3, "identity-1.3") is None

    def test_padded_expectations(self):
        p4 = padded_product(4)
        assert expected_verdict(p4, "perpendicular") == HOLDS
        assert expected_verdict(p4, "pythagorean") == REFUTED
        assert expected_verdict(p4, "identity-1.1") == HOLDS
        assert expected_verdict(p4, "identity-1.2") == HOLDS
        assert expected_verdict(p4, "identity-1.5") is None
        assert expected_verdict(padded_product(3), "pythagorean") == HOLDS

    def test_sign_row_certificates(self):
        # On an antisymmetric table, perpendicular and identity 1.1 hold iff
        # these O(n^2) sign conditions do: both sides are bilinear in every
        # slot, so they agree on all vectors iff they agree on basis vectors.
        def certificates(signs):
            n = len(signs) - 1
            pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
            perpendicular = all(
                signs[a][a ^ b] + signs[b][a ^ b] == 0 for a, b in pairs if a < b
            )
            identity_11 = all(signs[i][j] + signs[i ^ j][j] == 0 for i, j in pairs)
            return perpendicular, identity_11

        for k in range(1, 9):
            assert certificates(build_table(k).signs) == (True, True)
        assert certificates(_zeroed_cell_table().signs) == (False, False)

    def test_identity_axiom_names(self):
        assert IDENTITY_AXIOMS == (
            "identity-1.1",
            "identity-1.2",
            "identity-1.3",
            "identity-1.4",
            "identity-1.5",
            "identity-1.6",
        )


# == the one entry point =====================================================

ALL_AXIOMS = ("perpendicular", "pythagorean", "bilinear", *IDENTITY_AXIOMS)
# The axioms whose single case needs a third operand: the triple identities'
# third vector, or bilinear's expected expansion.
THIRD_OPERAND = ("bilinear", "identity-1.1", "identity-1.4", "identity-1.6")


class TestCheck:
    @pytest.mark.parametrize("axiom", ALL_AXIOMS)
    def test_case_without_a_needed_third_operand_is_rejected(self, axiom):
        p, e1, e2 = cross7_product(), Vector.unit(7, 1), Vector.unit(7, 2)
        if axiom in THIRD_OPERAND:
            with pytest.raises(ValueError) as info:
                check_case(p, axiom, e1, e2)
            assert str(info.value) == f"axiom {axiom!r} needs a third operand w"
        else:
            # cross7 keeps every axiom, so no pair case refutes it
            assert check_case(p, axiom, e1, e2) is None

    @pytest.mark.parametrize("name", ["identities", "identity-9.9", "all"])
    def test_unknown_names_share_one_message(self, name):
        p, e1 = cross7_product(), Vector.unit(7, 1)
        with pytest.raises(ValueError) as by_check:
            check(p, name)
        with pytest.raises(ValueError) as by_case:
            check_case(p, name, e1, e1, e1)
        with pytest.raises(ValueError) as by_expectation:
            expected_verdict(p, name)
        assert str(by_check.value) == str(by_case.value) == f"unknown axiom {name!r}"
        assert str(by_expectation.value) == f"unknown axiom {name!r}"

    @pytest.mark.parametrize(
        "samples, seed",
        [(True, 1), (2.5, 1), ("3", 1), (None, 1), (3, True), (3, 1.5), (3, "7"), (3, None)],
    )
    def test_samples_and_seed_must_be_ints(self, samples, seed):
        calls = []
        product = ProductUnderTest("counted", 3, lambda u, v: calls.append(1) or cross3(u, v))
        message = f"samples and seed must be ints, got {samples!r} and {seed!r}"
        for axiom in ALL_AXIOMS:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check(product, axiom, samples, seed)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classify_dimensions(1, samples, seed)
        assert calls == []  # refused before any case ran

    @pytest.mark.parametrize(
        "product", [cross7_product(), product_for_table(build_table(3))],
        ids=["cross7", "table-k3"],
    )
    def test_group_checkers_are_calls_of_check(self, product):
        # The benchmark wraps these four names; each must stay one call of
        # check on the same samples and seed.
        samples, seed = 4, 29
        groups = {
            "perpendicular": check_perpendicular,
            "pythagorean": check_pythagorean,
            "bilinear": check_bilinear,
        }
        for axiom, checker in groups.items():
            assert checker(product, samples, seed) == check(product, axiom, samples, seed)
        assert check_identities(product, samples, seed) == [
            check(product, a, samples, seed) for a in IDENTITY_AXIOMS
        ]

    @pytest.mark.parametrize(
        "product",
        [cross3_product(), cross7_product(), product_for_table(build_table(3)), padded_product(4)],
        ids=["cross3", "cross7", "table-k3", "padded-n4"],
    )
    def test_reports_carry_their_expected_verdict(self, product):
        for axiom in ALL_AXIOMS:
            report = check(product, axiom, samples=2)
            assert report.expected == expected_verdict(product, axiom), axiom
            assert not report.unexpected, axiom
            assert "expected" not in report.to_json_dict()
