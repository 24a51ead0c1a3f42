"""Unit tests for basis words, the rewrite normalizer and table generation.

Core claims:
    - build_basis follows the recursion (previous level, new generator,
      previous level times new generator) and has 2**(k+1)-1 elements
    - the generator-set encoding is a bijection onto 1..2**(k+1)-1
    - normalize_product reproduces the published 3x3 and 7x7 tables
    - the fast normalizer and the traced rewriter agree everywhere, and
      every trace replays against an independent evaluation
    - the XOR index law and cell antisymmetry hold exhaustively (checked,
      never assumed)
    - every sign row cell equals normalize_product (all cells up to k = 5,
      samples at k = 6..10), and table_product on the rows equals a per-cell
      sum through normalize_product, bit for bit in double mode
    - lower-level tables sit exactly in the top-left block of higher ones
    - markdown/CSV/JSON serializations match the goldens and round-trip
    - the level >= 3 witness pair is e3 + e10 and e6 - e15, zero-padded
"""

import json
import random
from array import array
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crossn.symbolic import (
    MAX_LEVEL,
    RULES,
    BasisWord,
    MulTable,
    RewriteStep,
    RewriteTrace,
    SignedBasis,
    build_basis,
    build_table,
    counterexample_vectors,
    expr_str,
    normalize_product,
    normalize_product_traced,
    table_from_json,
    table_to_csv,
    table_to_json,
    table_to_markdown,
)
from crossn.vecalg import DOUBLE, EXACT, Vector, dot, table_product

GOLDEN = Path(__file__).parent / "golden"

# Transcriptions of the published tables, cell = sign * index.
R3_CELLS = [
    [0, 3, -2],
    [-3, 0, 1],
    [2, -1, 0],
]
R7_CELLS = [
    [0, 3, -2, 5, -4, -7, 6],
    [-3, 0, 1, 6, 7, -4, -5],
    [2, -1, 0, 7, -6, 5, -4],
    [-5, -6, -7, 0, 1, 2, 3],
    [4, -7, 6, -1, 0, -3, 2],
    [7, 4, -5, -2, 3, 0, -1],
    [-6, 5, 4, -3, -2, 1, 0],
]


# == basis words =============================================================


class TestBasisWord:
    def test_index_encoding(self):
        assert BasisWord(frozenset({0, 1})).index == 3
        assert BasisWord(frozenset({0, 1, 2})).index == 7
        assert BasisWord(frozenset({3})).index == 8

    def test_from_index_round_trip(self):
        for m in range(1, 256):
            assert BasisWord.from_index(m).index == m

    def test_canonical_nesting_string(self):
        assert str(BasisWord(frozenset({0}))) == "u0"
        assert str(BasisWord(frozenset({0, 1}))) == "u0 × u1"
        assert str(BasisWord(frozenset({0, 1, 2}))) == "(u0 × u1) × u2"

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            BasisWord(frozenset())
        with pytest.raises(ValueError):
            BasisWord(frozenset({-1}))
        with pytest.raises(ValueError):
            BasisWord.from_index(0)


class TestBuildBasis:
    def test_level_zero(self):
        words = build_basis(0)
        assert [str(w) for w in words] == ["u0"]

    def test_level_one(self):
        assert [str(w) for w in build_basis(1)] == ["u0", "u1", "u0 × u1"]

    def test_level_three_size_and_last_word(self):
        words = build_basis(3)
        assert len(words) == 15
        assert str(words[-1]) == "((u0 × u1) × u2) × u3"

    def test_sizes_up_to_max_level(self):
        for k in range(MAX_LEVEL + 1):
            assert len(build_basis(k)) == 2 ** (k + 1) - 1

    def test_construction_order_is_index_order(self):
        for k in range(6):
            assert [w.index for w in build_basis(k)] == list(
                range(1, 2 ** (k + 1))
            )

    def test_out_of_range_levels(self):
        with pytest.raises(ValueError):
            build_basis(-1)
        with pytest.raises(ValueError):
            build_basis(MAX_LEVEL + 1)


# == signed basis cells ======================================================


class TestSignedBasis:
    def test_zero_has_no_index(self):
        z = SignedBasis.zero()
        assert z.is_zero and z.value == 0
        with pytest.raises(ValueError):
            SignedBasis(0, 3)
        with pytest.raises(ValueError):
            SignedBasis(1, 0)

    def test_value_round_trip(self):
        for v in (-7, -1, 0, 2, 5):
            cell = SignedBasis((v > 0) - (v < 0), abs(v))
            assert cell.value == v

    def test_str(self):
        assert str(SignedBasis(1, 3)) == "e3"
        assert str(SignedBasis(-1, 4)) == "−e4"
        assert str(SignedBasis.zero()) == "0"


# == normalizer ==============================================================


class TestNormalizeProduct:
    def test_published_reduction(self):
        assert normalize_product(5, 6, 2) == SignedBasis(-1, 3)

    def test_row_one_column_five(self):
        assert normalize_product(1, 5, 2) == SignedBasis(-1, 4)

    def test_self_product_is_zero(self):
        for k in (1, 2, 3):
            for i in (1, 2, 2 ** (k + 1) - 1):
                assert normalize_product(i, i, k).is_zero

    def test_r3_table_values(self):
        for i in range(1, 4):
            for j in range(1, 4):
                assert normalize_product(i, j, 1).value == R3_CELLS[i - 1][j - 1]

    def test_r7_table_values(self):
        for i in range(1, 8):
            for j in range(1, 8):
                assert normalize_product(i, j, 2).value == R7_CELLS[i - 1][j - 1]

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            normalize_product(1, 8, 2)
        with pytest.raises(ValueError):
            normalize_product(0, 1, 2)
        with pytest.raises(ValueError):
            normalize_product(1, 1, MAX_LEVEL + 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 127), st.integers(1, 127))
    def test_xor_law_and_antisymmetry(self, i, j):
        out = normalize_product(i, j, 6)
        back = normalize_product(j, i, 6)
        if i == j:
            assert out.is_zero and back.is_zero
        else:
            assert out.index == i ^ j
            assert back == SignedBasis(-out.sign, out.index)


class TestTracedNormalizer:
    def test_published_chain_endpoints(self):
        result, trace = normalize_product_traced(5, 6, 2)
        assert result == SignedBasis(-1, 3)
        assert expr_str(trace.initial) == "(u0 × u2) × (u1 × u2)"
        assert expr_str(trace.final) == "−(u0 × u1)"
        assert trace.replay()

    def test_every_step_cites_one_known_rule(self):
        _, trace = normalize_product_traced(13, 11, 3)
        assert len(trace.steps) >= 3
        assert all(step.rule in RULES for step in trace.steps)

    def test_already_canonical_product_needs_no_steps(self):
        result, trace = normalize_product_traced(1, 2, 1)
        assert result == SignedBasis(1, 3)
        assert trace.steps == ()
        assert trace.replay()

    def test_equal_operands_single_step(self):
        result, trace = normalize_product_traced(7, 7, 2)
        assert result.is_zero
        assert len(trace.steps) == 1
        assert trace.steps[0].rule == "antisymmetry"
        assert expr_str(trace.final) == "0"
        assert trace.replay()

    def test_agrees_with_fast_path_and_replays_exhaustively(self):
        for k in range(0, 4):
            n = 2 ** (k + 1) - 1
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    fast = normalize_product(i, j, k)
                    traced, trace = normalize_product_traced(i, j, k)
                    assert fast == traced
                    assert trace.replay(), (i, j, k)

    def test_tampered_trace_fails_replay(self):
        result, trace = normalize_product_traced(5, 6, 2)
        flipped = SignedBasis(-result.sign, result.index)
        bad = RewriteTrace(trace.initial, trace.steps, flipped)
        assert not bad.replay()

    def test_step_with_unknown_rule_fails_replay(self):
        _, trace = normalize_product_traced(5, 6, 2)
        step = trace.steps[0]
        bad_step = RewriteStep("made-up", step.before, step.after)
        bad = RewriteTrace(trace.initial, (bad_step,) + trace.steps[1:], trace.result)
        assert not bad.replay()


# == tables ==================================================================


class TestBuildTable:
    def test_r3_golden_markdown(self):
        text = table_to_markdown(build_table(1)) + "\n"
        assert text == (GOLDEN / "r3_table.md").read_text(encoding="utf-8")

    def test_r7_golden_markdown(self):
        text = table_to_markdown(build_table(2)) + "\n"
        assert text == (GOLDEN / "r7_table.md").read_text(encoding="utf-8")

    def test_r7_cells(self):
        table = build_table(2)
        for i in range(1, 8):
            for j in range(1, 8):
                assert table.entry(i, j).value == R7_CELLS[i - 1][j - 1]

    def test_validate_passes_for_generated_tables(self):
        for k in (1, 2, 3):
            build_table(k).validate()

    def test_validate_rejects_tampering(self):
        table = build_table(2)
        rows = [array("b", r) for r in table.signs]
        rows[1][2] = 0
        bad = MulTable(table.k, table.n, tuple(rows))
        with pytest.raises(ValueError, match="must be nonzero"):
            bad.validate()

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            build_table(0)
        with pytest.raises(ValueError):
            build_table(MAX_LEVEL + 1)

    def test_entry_bounds(self):
        table = build_table(1)
        with pytest.raises(ValueError):
            table.entry(0, 1)
        with pytest.raises(ValueError):
            table.entry(1, 4)

    def test_lower_level_embeds_in_higher(self):
        small = build_table(2)
        big = build_table(3)
        for i in range(1, 8):
            for j in range(1, 8):
                assert big.entry(i, j) == small.entry(i, j)

    def test_table_product_matches_cells_on_basis_pairs(self):
        table = build_table(2)
        for i in range(1, 8):
            for j in range(1, 8):
                out = table_product(table, Vector.unit(7, i), Vector.unit(7, j))
                cell = table.entry(i, j)
                if cell.is_zero:
                    assert out.is_zero()
                else:
                    assert out == Vector.unit(7, cell.index).scaled(
                        Fraction(cell.sign)
                    )


@lru_cache(maxsize=None)
def cached_table(k):
    return build_table(k)


def reference_product(k, u, v):
    """Bilinear product summed cell by cell through ``normalize_product``.

    The same i-then-j order and the same ``sign * a * b`` terms as the sign
    row loop, so double-mode results must agree bit for bit.
    """
    acc = [Fraction(0) if u.mode == EXACT else 0.0] * u.dim
    for i, a in enumerate(u.coords, start=1):
        if not a:
            continue
        for j, b in enumerate(v.coords, start=1):
            if not b:
                continue
            cell = normalize_product(i, j, k)
            if not cell.is_zero:
                acc[cell.index - 1] += cell.sign * a * b
    return Vector(acc, u.mode)


class TestSignRowsAgainstRules:
    """The sign rows, and the product read from them, against the rewrite rules.

    ``normalize_product`` derives both sign and index from the rules, so these
    tests also check that the index implied by the rows, i ^ j, is the one
    the rules give.
    """

    def test_every_cell_up_to_level_five(self):
        for k in range(1, 6):
            table = build_table(k)
            for i in range(1, table.n + 1):
                for j in range(1, table.n + 1):
                    assert table.entry(i, j) == normalize_product(i, j, k)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sampled_cells_at_levels_six_to_ten(self, data):
        k = data.draw(st.integers(6, MAX_LEVEL))
        n = (1 << (k + 1)) - 1
        i = data.draw(st.integers(1, n))
        j = data.draw(st.one_of(st.integers(1, n), st.just(i), st.just(i ^ (1 << k))))
        if 1 <= j <= n:
            assert cached_table(k).entry(i, j) == normalize_product(i, j, k)

    @pytest.mark.parametrize("mode", [EXACT, DOUBLE])
    @pytest.mark.parametrize("n", [15, 63, 255])
    @settings(max_examples=6, deadline=None)
    @given(nonzero=st.sampled_from((None, 2, 3, 4)), seed=st.integers(0, 2**32 - 1))
    def test_table_product_matches_per_cell_reference(self, n, mode, nonzero, seed):
        # nonzero=None draws dense vectors, else that many nonzero coordinates.
        k = (n + 1).bit_length() - 2
        rng = random.Random(seed)

        def coords():
            out = [0] * n
            for t in range(n) if nonzero is None else rng.sample(range(n), nonzero):
                if mode == EXACT:
                    out[t] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                else:
                    out[t] = rng.uniform(-9, 9)
            return Vector(out, mode)

        u, v = coords(), coords()
        got = table_product(cached_table(k), u, v)
        want = reference_product(k, u, v)
        if mode == EXACT:
            assert got == want
        else:
            assert [c.hex() for c in got.coords] == [c.hex() for c in want.coords]


class TestSerialization:
    def test_csv_cells(self):
        lines = table_to_csv(build_table(2)).splitlines()
        assert len(lines) == 7
        grid = [line.split(",") for line in lines]
        assert grid[3][2] == "-7"  # e4 x e3 = -e7
        assert grid[4][5] == "-3"  # e5 x e6 = -e3
        assert grid[0][0] == "0"

    def test_json_round_trip_is_lossless(self):
        table = build_table(2)
        again = table_from_json(table_to_json(table))
        assert again == table

    def test_json_document_shape(self):
        doc = json.loads(table_to_json(build_table(1)))
        assert doc == {"k": 1, "n": 3, "cells": R3_CELLS}

    def test_from_json_rejects_bad_documents(self):
        with pytest.raises(ValueError):
            table_from_json(json.dumps({"k": 1, "n": 3}))
        with pytest.raises(ValueError):
            table_from_json(json.dumps({"k": 1, "n": 3, "cells": [[0, 3], [-3, 0]]}))
        with pytest.raises(ValueError):
            table_from_json(
                json.dumps({"k": 1, "n": 3, "cells": [[0, 9, -2], [-3, 0, 1], [2, -1, 0]]})
            )
        # Levels outside 1..MAX_LEVEL, and n that does not belong to k.
        with pytest.raises(ValueError, match="level must be in"):
            table_from_json(json.dumps({"k": 0, "n": 1, "cells": [[0]]}))
        with pytest.raises(ValueError, match="level must be in"):
            table_from_json(json.dumps({"k": MAX_LEVEL + 1, "n": 4095, "cells": []}))
        with pytest.raises(ValueError, match="does not match level"):
            table_from_json(json.dumps({"k": 5, "n": 3, "cells": R3_CELLS}))
        # json reads true as a bool, which would otherwise pass for 1.
        cells = [[0, 3, -2], [-3, 0, True], [2, -1, 0]]
        with pytest.raises(ValueError, match=r"cell \(2,3\) holds True"):
            table_from_json(json.dumps({"k": 1, "n": 3, "cells": cells}))
        # An off-diagonal cell whose index is not i ^ j has no sign row form.
        cells = [[0, 3, -1], [-3, 0, 1], [2, -1, 0]]
        with pytest.raises(ValueError, match=r"cell \(1,3\) holds -1, expected ±2"):
            table_from_json(json.dumps({"k": 1, "n": 3, "cells": cells}))
        # Right shape and indices, but not antisymmetric: validate() rejects it.
        cells = [[0, 3, -2], [3, 0, 1], [2, -1, 0]]
        with pytest.raises(ValueError, match="not opposite"):
            table_from_json(json.dumps({"k": 1, "n": 3, "cells": cells}))

    def test_markdown_uses_minus_sign_and_labels(self):
        text = table_to_markdown(build_table(1))
        assert "| × |" in text.splitlines()[0]
        assert "−e2" in text


# == the dimension >= 15 witness pair ========================================


class TestCounterexampleVectors:
    def test_support_at_level_three(self):
        u, v = counterexample_vectors(3)
        assert u.dim == v.dim == 15
        assert [c for c in u.coords if c] == [1, 1]
        assert u.coords[3 - 1] == 1 and u.coords[10 - 1] == 1
        assert v.coords[6 - 1] == 1 and v.coords[15 - 1] == -1
        assert sum(1 for c in v.coords if c) == 2

    def test_words_behind_the_indices(self):
        # the four summands are genuine level-3 words
        assert BasisWord(frozenset({0, 1})).index == 3
        assert BasisWord(frozenset({1, 3})).index == 10
        assert BasisWord(frozenset({1, 2})).index == 6
        assert BasisWord(frozenset({0, 1, 2, 3})).index == 15
        level3 = {w.index for w in build_basis(3)}
        assert {3, 10, 6, 15} <= level3

    def test_embedding_at_higher_level(self):
        u3, v3 = counterexample_vectors(3)
        u4, v4 = counterexample_vectors(4)
        assert u4.dim == v4.dim == 31
        assert u4.coords[:15] == u3.coords
        assert v4.coords[:15] == v3.coords
        assert all(c == 0 for c in u4.coords[15:])
        assert all(c == 0 for c in v4.coords[15:])

    def test_product_vanishes_and_norms(self):
        for k in (3, 4):
            table = build_table(k)
            u, v = counterexample_vectors(k)
            assert table_product(table, u, v).is_zero()
            assert dot(u, u) == 2 and dot(v, v) == 2 and dot(u, v) == 0

    def test_level_too_small(self):
        with pytest.raises(ValueError):
            counterexample_vectors(2)
