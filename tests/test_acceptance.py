"""Acceptance suite: one test per criterion, run in order, timed.

  C1  golden 3x3 table (markdown, cell-for-cell)               < 1 s
  C2  golden 7x7 table (all 49 cells, e5xe6 = -e3, e4xe3=-e7)  < 1 s
  C3  cross7 == table product: 49 basis + 1000 random pairs    < 5 s
  C4  level-3 witness pair: norms 2/2, dot 0, product 0        < 1 s
  C5  classification through level 6 (holds, holds, 4x refuted) < 60 s
  C6  padded product in R^4 refutes with the canonical pair    < 1 s
  C7  determinant product perpendicularity, n = 3..8, + cross3 < 10 s
  C8  basis cardinalities to level 10; table structure to 6    < 30 s
  C9  identity suite on cross3/cross7, 500 random triples each < 10 s
  C10 every refuted report emitted above replays exactly

Each test prints one PASS line (visible with -s or -rP); any assertion
failure fails the criterion.  All comparisons are exact; the only stated
tolerances are the runtime budgets.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from crossn.symbolic import build_basis, build_table, table_to_markdown
from crossn.vecalg import Vector, cross3, cross7, det_product, dot, table_product
from crossn.verify import (
    HOLDS,
    IDENTITY_AXIOMS,
    check,
    check_pythagorean,
    classify_dimensions,
    padded_product,
    product_for_table,
    replay,
)

GOLDEN = Path(__file__).parent / "golden"
SEED = 1063

# (product, report) pairs collected by earlier criteria, replayed by C10.
_EMITTED = []


def _timed(limit_s):
    start = time.perf_counter()

    def done(label):
        elapsed = time.perf_counter() - start
        assert elapsed < limit_s, f"{label}: {elapsed:.2f}s exceeded {limit_s}s budget"
        print(f"PASS {label} ({elapsed:.2f}s < {limit_s}s)")

    return done


def _random_vector(rng, n):
    return Vector.exact(
        [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)]
    )


def test_c01_golden_r3_table():
    done = _timed(1.0)
    text = table_to_markdown(build_table(1)) + "\n"
    assert text == (GOLDEN / "r3_table.md").read_text(encoding="utf-8")
    done("C1 golden 3x3 table")


def test_c02_golden_r7_table():
    done = _timed(1.0)
    table = build_table(2)
    text = table_to_markdown(table) + "\n"
    assert text == (GOLDEN / "r7_table.md").read_text(encoding="utf-8")
    assert [c.sign * c.index for c in (table.entry(5, 6), table.entry(4, 3))] == [-3, -7]
    done("C2 golden 7x7 table")


def test_c03_formula_table_agreement():
    done = _timed(5.0)
    table = build_table(2)
    for i in range(1, 8):
        for j in range(1, 8):
            u, v = Vector.unit(7, i), Vector.unit(7, j)
            assert cross7(u, v) == table_product(table, u, v)
    rng = random.Random(SEED)
    for _ in range(1000):
        u, v = _random_vector(rng, 7), _random_vector(rng, 7)
        assert cross7(u, v) == table_product(table, u, v)
    done("C3 cross7 == table product (49 basis + 1000 random pairs)")


def test_c04_level3_witness_quantities():
    done = _timed(1.0)
    table = build_table(3)
    u, v = product_for_table(table).known
    assert dot(u, u) == 2
    assert dot(v, v) == 2
    assert dot(u, v) == 0
    assert table_product(table, u, v).is_zero()
    lhs = dot(u, u) * dot(v, v)
    rhs = Fraction(0) + Fraction(0) ** 2  # (u x v).(u x v) + (u.v)^2
    assert (lhs, rhs) == (4, 0)
    done("C4 level-3 witness pair (LHS 4 vs RHS 0)")


def test_c05_classification_through_level_6():
    done = _timed(60.0)
    reports = classify_dimensions(6, samples=1000, seed=SEED)
    assert [r.refuted for r in reports] == [
        False, False, True, True, True, True,
    ]
    assert [r.dim for r in reports] == [3, 7, 15, 31, 63, 127]
    for k, report in enumerate(reports, start=1):
        product = product_for_table(build_table(k))
        if report.refuted:
            assert report.witness is not None
            assert replay(report, product)
            _EMITTED.append((product, report))
        else:
            # all 49/9 basis pairs plus the 1000 random samples ran
            assert report.samples_run == report.dim**2 + 1000
    done("C5 classification k=1..6 (holds, holds, then refuted with witness)")


def test_c06_padded_r4_counterexample():
    done = _timed(1.0)
    product = padded_product(4)
    report = check_pythagorean(product, samples=10, seed=SEED)
    assert report.refuted
    assert report.witness.u == Vector.exact([0, 0, 0, 1])
    assert report.witness.v == Vector.exact([1, 0, 0, 0])
    assert report.witness.lhs == 0
    assert report.witness.rhs == 1
    assert replay(report, product)
    _EMITTED.append((product, report))
    done("C6 padded product in R^4 (LHS 0 vs RHS 1)")


def test_c07_det_product_perpendicularity():
    done = _timed(10.0)
    rng = random.Random(SEED)
    for n in range(3, 9):
        for _ in range(100):
            rows = [
                Vector.exact([rng.randint(-9, 9) for _ in range(n)])
                for _ in range(n - 1)
            ]
            out = det_product(rows)
            for row in rows:
                assert dot(out, row) == 0
            if n == 3:
                assert out == cross3(rows[0], rows[1])
    done("C7 determinant product: perpendicular for n=3..8, equals cross3 at n=3")


def test_c08_cardinality_and_table_structure():
    done = _timed(30.0)
    for k in range(0, 11):
        assert len(build_basis(k)) == 2 ** (k + 1) - 1
    tables = {k: build_table(k) for k in range(1, 7)}
    for k, table in tables.items():
        n = table.n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                cell = table.entry(i, j)
                if i == j:
                    assert cell.is_zero
                else:
                    assert cell.index == i ^ j
                    back = table.entry(j, i)
                    assert back.sign * back.index == -cell.sign * cell.index
    for k in range(1, 6):
        small, big = tables[k], tables[k + 1]
        for i in range(1, small.n + 1):
            for j in range(1, small.n + 1):
                assert big.entry(i, j) == small.entry(i, j)
    done("C8 cardinalities to level 10; zero diagonal, XOR law, antisymmetry,"
         " block consistency to level 6")


def test_c09_identity_suite():
    done = _timed(10.0)
    from crossn.verify import cross3_product, cross7_product

    for product in (cross3_product(), cross7_product()):
        for axiom in IDENTITY_AXIOMS:
            report = check(product, axiom, samples=500, seed=SEED)
            assert report.verdict == HOLDS, (product.name, axiom)
    done("C9 identities 1.1-1.6 hold on cross3 and cross7 (500 triples each)")


def test_c10_witness_replay():
    done = _timed(30.0)
    # widen the pool: the level-3 table's empirically failing identities
    table3 = product_for_table(build_table(3))
    for axiom in IDENTITY_AXIOMS:
        report = check(table3, axiom, samples=40, seed=SEED)
        if report.refuted:
            _EMITTED.append((table3, report))
    assert len(_EMITTED) >= 6  # 4 from C5, 1 from C6, >= 1 just above
    for product, report in _EMITTED:
        assert report.refuted
        assert replay(report, product), (product.name, report.axiom)
    done(f"C10 witness replay ({len(_EMITTED)} refuted reports re-verified)")
