"""Unit tests for basis words, the rewrite normalizer and table generation.

Core claims:
    - build_basis returns canonical word trees that follow the paper's
      recursion (previous level, new generator, previous level times new
      generator), 2**(k+1)-1 of them, rendered by tree_str
    - _word_index reads word m of the construction as index m, so the
      generator-set encoding is a bijection onto 1..2**(k+1)-1
    - SignedBasis rejects a sign or an index that is not an int, bools and
      floats included
    - the four value types (SignedBasis, RewriteStep, RewriteTrace,
      MulTable) are immutable records: a pinned repr, the same
      value by position and by keyword, equality and hash by fields (a
      plain tuple of the fields included), AttributeError on assignment,
      and pickle and copy round trips, which re-run the construction checks
    - normalize_product reproduces the published 3x3 and 7x7 tables
    - the traced normalizer (the sign kernel with a step recorder) agrees
      with the fast one everywhere and with the recursive traced reference it
      replaced on drawn pairs at levels 0..10, every trace replays as a
      derivation from the four rules, a trace renders as its recorded text,
      and the text of every trace at levels 0..4 hashes to a pinned SHA-256
      digest
    - the looped sign kernel equals the recursive one; rule-checked replay
      accepts only what a value-only reference replay accepts, agrees with it
      on honest and sign-flipped traces, and rejects the replaced afters and
      dropped steps that the reference accepts; a malformed expression, a
      deeply nested one included, replays False without raising, so does a
      named tuple that equals an honest expression, and a trace of any
      depth renders
    - every rule instance that replay accepts on the words up to level 4 is
      sound against an independent Cayley-Dickson sign function, the matcher
      accepts exactly the instances that meet the side conditions, and a
      mutation of each side condition, of the sign or of the rule is rejected
    - the XOR index law and cell antisymmetry hold exhaustively (checked,
      never assumed)
    - every sign row cell equals normalize_product (all cells up to k = 5,
      samples at k = 6..10, where the traced result also equals the cell and
      its trace replays), and table_product on the rows equals a per-cell
      sum through normalize_product, bit for bit in double mode
    - the sign rows at every level 1..10 hash to pinned SHA-256 digests, and
      so do their markdown, CSV and JSON texts
    - the XOR-row kernel behind the serializers, which picks each row's texts
      by one packed key integer, yields the texts of a per-cell reference:
      on random sign rows 4 to 4096 wide, on each writer's texts at levels
      1..6, and on tables with cells redrawn as -1, 0 or 1 anywhere
    - lower-level tables sit exactly in the top-left block of higher ones
    - MulTable.validate, the one closure check, rejects a tampered copy
      through each of its branches, and rows that are not array("b")
    - the byte-operation validate and _double agree with the per-cell
      reference loops: the same verdict and message on tampered tables, the
      same rows at every level up to 7
    - markdown/CSV/JSON serializations match the goldens and round-trip at
      every level, and table_from_json rejects a bad document, a too deeply
      nested one included, with ValueError, naming the first bad cell
    - a table's n is 2**(k+1) - 1, derived from its level
    - every function that takes a level rejects one that is not an int
      (bools included) with the same message
    - _word_index equals the nested recursions it replaced on drawn trees and
      on the final expression of every trace at levels 0..4
    - the level >= 3 witness pair, ``product_for_table(table).known``, is
      e3 + e10 and e6 - e15, zero-padded; it equals the pair built from its
      basis words, each read as its place in build_basis(3), at every level
      3..10, its product vanishes there, and levels 1 and 2 have none
"""

import copy
import hashlib
import json
import pickle
import random
import re
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crossn.symbolic import (
    MAX_LEVEL,
    RULE_ANTISYMMETRY,
    RULE_CANCELLATION,
    RULE_PAIR_COLLAPSE,
    RULE_SHIFT,
    ZERO_EXPR,
    MulTable,
    RewriteStep,
    RewriteTrace,
    SignedBasis,
    build_basis,
    build_table,
    expr_str,
    normalize_product,
    normalize_product_traced,
    table_from_json,
    table_to_csv,
    table_to_json,
    table_to_markdown,
    tree_str,
    _double,
    _text_rows,
    _norm_indices,
    _rewrites,
    _word_index,
    _word_tree,
)
from crossn.vecalg import DOUBLE, EXACT, Vector, dot, table_product
from crossn.verify import product_for_table

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
    """The generator-set encoding of a word tree: generator u_b sets bit b of
    its index, and ``_word_tree`` reads the tree back from the index."""

    def test_index_encoding(self):
        assert _word_index((0, 1)) == 3
        assert _word_index(((0, 1), 2)) == 7
        assert _word_index(3) == 8

    def test_from_index_round_trip(self):
        for m in range(1, 256):
            assert _word_index(_word_tree(m)) == m


class TestBuildBasis:
    """Basis words are canonical trees: a generator, or (word, u_t) with u_t
    above every generator of the word."""

    def test_paper_recursion(self):
        # level k-1, then u_k, then each level k-1 word times u_k
        assert build_basis(0) == [0]
        for k in range(1, MAX_LEVEL + 1):
            below = build_basis(k - 1)
            assert build_basis(k) == below + [k] + [(w, k) for w in below]

    def test_canonical_nesting_string(self):
        words = build_basis(2)
        assert tree_str(words[0]) == "u0"
        assert tree_str(words[2]) == "u0 × u1"
        assert tree_str(words[6]) == "(u0 × u1) × u2"

    def test_level_zero(self):
        words = build_basis(0)
        assert [tree_str(w) for w in words] == ["u0"]

    def test_level_one(self):
        assert [tree_str(w) for w in build_basis(1)] == ["u0", "u1", "u0 × u1"]

    def test_level_three_size_and_last_word(self):
        words = build_basis(3)
        assert len(words) == 15
        assert tree_str(words[-1]) == "((u0 × u1) × u2) × u3"

    def test_sizes_up_to_max_level(self):
        for k in range(MAX_LEVEL + 1):
            assert len(build_basis(k)) == 2 ** (k + 1) - 1

    def test_construction_order_is_index_order(self):
        # word m of the construction has index m, at every position
        for m, word in enumerate(build_basis(MAX_LEVEL), start=1):
            assert _word_index(word) == m

    def test_out_of_range_levels(self):
        with pytest.raises(ValueError):
            build_basis(-1)
        with pytest.raises(ValueError):
            build_basis(MAX_LEVEL + 1)


# == signed basis cells ======================================================


class TestSignedBasis:
    def test_zero_has_no_index(self):
        z = SignedBasis(0, 0)
        assert z.is_zero and z.sign * z.index == 0
        with pytest.raises(ValueError):
            SignedBasis(0, 3)
        with pytest.raises(ValueError):
            SignedBasis(1, 0)

    def test_value_round_trip(self):
        for v in (-7, -1, 0, 2, 5):
            cell = SignedBasis((v > 0) - (v < 0), abs(v))
            assert cell.sign * cell.index == v

    def test_rejects_fields_that_are_not_ints(self):
        for sign, index, message in (
            (True, 3, "sign must be -1, 0 or +1, got True"),
            (1.0, 2, "sign must be -1, 0 or +1, got 1.0"),
            (1, 3.0, "index must be a non-negative int, got 3.0"),
            (-1, "3", "index must be a non-negative int, got '3'"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                SignedBasis(sign, index)

    def test_str(self):
        assert str(SignedBasis(1, 3)) == "e3"
        assert str(SignedBasis(-1, 4)) == "−e4"
        assert str(SignedBasis(0, 0)) == "0"


# == value types =============================================================

# Each value type with a pinned value: its fields by name, and its repr.
R1_SIGNS = (array("b", [0, 0, 0, 0]), array("b", [0, 0, 1, -1]),
            array("b", [0, -1, 0, 1]), array("b", [0, 1, -1, 0]))
VALUE_TYPES = [
    (SignedBasis, {"sign": -1, "index": 3}, "SignedBasis(sign=-1, index=3)"),
    (RewriteStep, {"rule": "cancellation", "after": (-1, 1)},
     "RewriteStep(rule='cancellation', after=(-1, 1))"),
    (RewriteTrace,
     {"initial": (1, (0, (0, 1))), "steps": (RewriteStep("cancellation", (-1, 1)),),
      "result": SignedBasis(-1, 2)},
     "RewriteTrace(initial=(1, (0, (0, 1))), steps=(RewriteStep(rule='cancellation',"
     " after=(-1, 1)),), result=SignedBasis(sign=-1, index=2))"),
    (MulTable, {"k": 1, "signs": R1_SIGNS},
     "MulTable(k=1, signs=(array('b', [0, 0, 0, 0]), array('b', [0, 0, 1, -1]),"
     " array('b', [0, -1, 0, 1]), array('b', [0, 1, -1, 0])))"),
]


@pytest.mark.parametrize(
    "cls, fields, text", VALUE_TYPES, ids=[cls.__name__ for cls, _, _ in VALUE_TYPES]
)
class TestValueTypes:
    """The four value types are immutable records: fields in a fixed order,
    built by position or keyword, equal and hashed by their fields."""

    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    def test_keyword_and_positional_construction_agree(self, cls, fields, text):
        value = cls(**fields)
        assert type(value) is cls and value == cls(*fields.values())
        assert cls._fields == tuple(fields)
        assert [getattr(value, name) for name in fields] == list(fields.values())

    def test_equality_and_hash_by_fields(self, cls, fields, text):
        value, twin = cls(**fields), cls(*fields.values())
        # A named tuple also equals the plain tuple of its fields.
        assert value == twin == tuple(fields.values())
        if cls is MulTable:  # array rows are not hashable
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(twin) == hash(tuple(fields.values()))

    def test_assignment_raises(self, cls, fields, text):
        value = cls(**fields)
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)

    def test_pickle_and_copy_round_trip(self, cls, fields, text):
        value = cls(**fields)
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is cls and twin == value and repr(twin) == text


@pytest.mark.parametrize(
    "cls, fields, message",
    [
        (SignedBasis, (True, 3), "sign must be -1, 0 or +1, got True"),
        (SignedBasis, (1.0, 2), "sign must be -1, 0 or +1, got 1.0"),
        (SignedBasis, (2, 3), "sign must be -1, 0 or +1, got 2"),
        (SignedBasis, (0, 3), "zero has no index: sign=0, index=3"),
        (SignedBasis, (-1, -3), "index must be a non-negative int, got -3"),
        (SignedBasis, (1, 3.0), "index must be a non-negative int, got 3.0"),
    ],
)
def test_copies_rerun_the_checks(cls, fields, message):
    bad = tuple.__new__(cls, fields)  # made past the checks
    for remake in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            remake(bad)


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
                sign, index = normalize_product(i, j, 1)
                assert sign * index == R3_CELLS[i - 1][j - 1]

    def test_r7_table_values(self):
        for i in range(1, 8):
            for j in range(1, 8):
                sign, index = normalize_product(i, j, 2)
                assert sign * index == R7_CELLS[i - 1][j - 1]

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            normalize_product(1, 8, 2)
        with pytest.raises(ValueError):
            normalize_product(0, 1, 2)
        with pytest.raises(ValueError):
            normalize_product(1, 1, MAX_LEVEL + 1)

    @pytest.mark.parametrize("normalize", [normalize_product, normalize_product_traced])
    @pytest.mark.parametrize("index", [1.0, "1", True, None])
    def test_index_must_be_an_int(self, normalize, index):
        # A bool is not an index, though True would pass for 1.
        for name, args in (("i", (index, 2, 1)), ("j", (2, index, 1))):
            message = f"index {name}={index} out of range 1..3 for level 1"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                normalize(*args)

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
        assert expr_str(trace.steps[-1].after) == "−(u0 × u1)"
        assert trace.replay()

    def test_every_step_cites_one_known_rule(self):
        _, trace = normalize_product_traced(13, 11, 3)
        assert len(trace.steps) >= 3
        rules = (RULE_ANTISYMMETRY, RULE_CANCELLATION, RULE_SHIFT, RULE_PAIR_COLLAPSE)
        assert all(step.rule in rules for step in trace.steps)

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
        assert expr_str(trace.steps[-1].after) == "0"
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

    def test_rendering(self):
        _, trace = normalize_product_traced(5, 6, 2)
        assert str(trace) == (
            "(u0 × u2) × (u1 × u2)\n  =  −(u0 × u1)   [pair-collapse]"
        )

    def test_multi_step_rendering(self):
        _, trace = normalize_product_traced(13, 11, 3)
        assert str(trace) == "\n".join([
            "((u0 × u2) × u3) × ((u0 × u1) × u3)",
            "  =  −((u0 × u2) × (u0 × u1))   [pair-collapse]",
            "  =  (u0 × u1) × (u0 × u2)   [antisymmetry]",
            "  =  −(((u0 × u1) × u0) × u2)   [shift]",
            "  =  (u0 × (u0 × u1)) × u2   [antisymmetry]",
            "  =  −(u1 × u2)   [cancellation]",
        ])

    def test_trace_text_digest(self):
        # Every trace at levels 0-4, with its result, as rendered text.
        digest = hashlib.sha256()
        for k in range(5):
            n = 2 ** (k + 1) - 1
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    r, trace = normalize_product_traced(i, j, k)
                    digest.update(f"{k} {i} {j} {r.sign} {r.index}\n{trace}\n".encode())
        assert digest.hexdigest() == (
            "fed918c5642276d49fd051789057c5208d61501798cbf87dc91bc4b86055d77c"
        )

    def test_tampered_trace_fails_replay(self):
        result, trace = normalize_product_traced(5, 6, 2)
        flipped = SignedBasis(-result.sign, result.index)
        bad = RewriteTrace(trace.initial, trace.steps, flipped)
        assert not bad.replay()
        # Each tampered trace below fails only the check its comment names.
        (step,) = trace.steps
        flip = (-step.after[0], step.after[1])
        # two steps that each change the value, ending at the right word
        revalued = (RewriteStep(step.rule, flip), RewriteStep(step.rule, step.after))
        tampered = [RewriteTrace(trace.initial, revalued, result)]
        # (u1 × u2) × u0 = +e7 has the result's sign and index, but it is no
        # canonical word, so a trace may not stop there.
        result, trace = normalize_product_traced(6, 1, 2)
        tampered.append(RewriteTrace(trace.initial, (), result))
        result, trace = normalize_product_traced(13, 11, 3)
        *middle, last = trace.steps
        # an after of another value: u0 × u1 = e3, not −e6
        replaced = (middle[0], RewriteStep(middle[1].rule, flip), *middle[2:], last)
        # the last step dropped, or its after replaced by an expression of the
        # right value that is no canonical word
        stopped = (*middle, RewriteStep(last.rule, middle[-1].after))
        # a middle step dropped: a chain of equal values, but the step after
        # the gap applies no single rule to the expression before it
        skipped = (middle[0], *middle[2:], last)
        for steps in (replaced, tuple(middle), stopped, skipped):
            tampered.append(RewriteTrace(trace.initial, steps, result))
        for bad in tampered:
            assert not bad.replay(), bad

    def test_step_with_unknown_rule_fails_replay(self):
        _, trace = normalize_product_traced(5, 6, 2)
        step = trace.steps[0]
        bad_step = RewriteStep("made-up", step.after)
        bad = RewriteTrace(trace.initial, (bad_step,) + trace.steps[1:], trace.result)
        assert not bad.replay()

    @pytest.mark.parametrize("where", ["initial", "after"])
    @pytest.mark.parametrize(
        "expr",
        [(1, "x"), (1, (0, "ab")), (1, (True, 1)), None, (2, (0, 1)), (1, (0, 1, 2)),
         (True, (0, 1)), (0, (0, 1)), (1, None), (1, (-1, 2))],
        ids=["str-tree", "str-leaf", "bool-leaf", "none", "sign-2", "three-tuple",
             "bool-sign", "zero-sign-tree", "no-tree", "negative-leaf"],
    )
    def test_malformed_expression_replays_false(self, expr, where):
        # Replay checks shapes before anything else, so it never raises.
        result, trace = normalize_product_traced(13, 11, 3)
        if where == "initial":
            bad = RewriteTrace(expr, trace.steps, result)
        else:
            steps = list(trace.steps)
            steps[1] = RewriteStep(steps[1].rule, expr)
            bad = RewriteTrace(trace.initial, tuple(steps), result)
        assert bad.replay() is False

    def test_bool_leaves_are_not_generators(self):
        # Each equals the honest expression by ==, as False == 0.
        result, trace = normalize_product_traced(5, 6, 2)
        (step,) = trace.steps
        assert step.after == (-1, (0, 1)) == (-1, (False, 1))
        bad_step = RewriteStep(step.rule, (-1, (False, 1)))
        assert not RewriteTrace(trace.initial, (bad_step,), result).replay()
        assert not RewriteTrace((1, ((False, 2), (1, 2))), trace.steps, result).replay()

    def test_named_tuples_are_not_expressions(self):
        # The bad step's after equals the honest one by ==, as a named tuple
        # equals the plain tuple of its fields; replay takes only plain tuples.
        result, trace = normalize_product_traced(1, 3, 1)
        (step,) = trace.steps
        assert trace.replay() and step.after == (-1, 1) == SignedBasis(-1, 1)
        bad_step = RewriteStep(step.rule, SignedBasis(-1, 1))
        assert RewriteTrace(trace.initial, (bad_step,), result).replay() is False
        assert RewriteTrace(SignedBasis(1, 3), (), SignedBasis(1, 3)).replay() is False

    def test_deeply_nested_expression_replays_false(self):
        deep = 0
        for _ in range(5000):
            deep = (deep, 1)
        result, trace = normalize_product_traced(5, 6, 2)
        assert RewriteTrace((1, (deep, 2)), trace.steps, result).replay() is False
        step = RewriteStep(RULE_PAIR_COLLAPSE, (-1, (deep, 1)))
        assert RewriteTrace(trace.initial, (step,), result).replay() is False

    def test_deeply_nested_expression_renders(self):
        deep = 1
        for _ in range(5000):
            deep = (deep, 1)
        trace = RewriteTrace((1, (deep, 2)), (), SignedBasis(1, 3))
        assert trace.replay() is False
        assert str(trace) == "(" * 5000 + "u1 × u1" + ") × u1" * 4999 + ") × u2"


def recursive_norm_indices(i, j):
    """The sign kernel as one recursive call per rewrite, the looped one's reference."""
    if i == j:
        return (0, 0)
    bit = 1 << (max(i.bit_length(), j.bit_length()) - 1)
    a, b = i & ~bit, j & ~bit
    if i & bit and j & bit:
        if a == 0:
            return (1, b)
        if b == 0:
            return (-1, a)
        s, m = recursive_norm_indices(a, b)
        return (-s, m)
    if i & bit:
        if a == 0:
            return (-1, j | bit)
        if j == a:
            return (1, bit)
        s, m = recursive_norm_indices(j, a)
        return (s, m | bit)
    if b == 0:
        return (1, i | bit)
    if i == b:
        return (-1, bit)
    s, m = recursive_norm_indices(i, b)
    return (-s, m | bit)


def _tree_index(tree):
    if isinstance(tree, int):
        return 1 << tree
    return _tree_index(tree[0]) | _tree_index(tree[1])


def _is_canonical_word(tree):
    if isinstance(tree, int):
        return True
    left, right = tree
    if not isinstance(right, int):
        return False
    return _is_canonical_word(left) and _tree_index(left) < (1 << right)


def reference_word_index(tree):
    """The reference for ``_word_index``: the two nested recursions it replaced."""
    return _tree_index(tree) if _is_canonical_word(tree) else None


def reference_replay(trace):
    """The reference for ``RewriteTrace.replay``: the same checks, evaluating
    both the previous expression and the ``after`` of every step through a
    nested ``ev`` and the recursive kernel, 2s + 1 evaluations for s steps.
    """

    def eval_expr(expr):
        sign, tree = expr
        if sign == 0:
            return (0, 0)

        def ev(t):
            if isinstance(t, int):
                return (1, 1 << t)
            (sl, ml), (sr, mr) = ev(t[0]), ev(t[1])
            if sl == 0 or sr == 0:
                return (0, 0)
            s, m = recursive_norm_indices(ml, mr)
            return (0, 0) if s == 0 else (sl * sr * s, m)

        s, m = ev(tree)
        return (0, 0) if s == 0 else (sign * s, m)

    previous = trace.initial
    if eval_expr(previous) != (trace.result.sign, trace.result.index):
        return False
    for step in trace.steps:
        if step.rule not in (RULE_ANTISYMMETRY, RULE_CANCELLATION, RULE_SHIFT, RULE_PAIR_COLLAPSE):
            return False
        if eval_expr(previous) != eval_expr(step.after):
            return False
        previous = step.after
    sign, tree = previous
    if sign == 0:
        return trace.result.is_zero
    if not _is_canonical_word(tree):
        return False
    return (sign, _tree_index(tree)) == (trace.result.sign, trace.result.index)


def _left_nested(gens):
    node = gens[0]
    for b in gens[1:]:
        node = (node, b)
    return node


def _swap_one(tree, depth):
    """``tree`` with the children of its node at ``depth`` swapped."""
    if isinstance(tree, int):
        return tree
    left, right = tree
    if depth == 0:
        return (right, left)
    return (_swap_one(left, depth - 1), right)


def _right_nested(gens):
    node = gens[-1]
    for b in reversed(gens[:-1]):
        node = (b, node)
    return node


_words = st.integers(1, (2 << MAX_LEVEL) - 1).map(_word_tree)
_generators = st.lists(st.integers(0, MAX_LEVEL), min_size=1, max_size=6)
_trees = st.one_of(
    _words,
    st.tuples(_words, st.integers(0, MAX_LEVEL)).map(lambda t: _swap_one(*t)),
    _generators.map(_right_nested),
    _generators.map(_left_nested),
)


class TestFastReplayAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(_trees)
    def test_word_index_equals_nested_recursions(self, tree):
        assert _word_index(tree) == reference_word_index(tree)

    def test_word_index_on_every_final_word_up_to_level_four(self):
        for k in range(5):
            n = 2 ** (k + 1) - 1
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    trace = normalize_product_traced(i, j, k)[1]
                    sign, tree = trace.steps[-1].after if trace.steps else trace.initial
                    if sign:
                        want = reference_word_index(tree)
                        assert want is not None and _word_index(tree) == want

    @settings(max_examples=500, deadline=None)
    @given(i=st.integers(1, 2 ** (MAX_LEVEL + 1) - 1), j=st.integers(1, 2 ** (MAX_LEVEL + 1) - 1))
    def test_kernel_equals_recursive_kernel(self, i, j):
        assert _norm_indices(i, j) == recursive_norm_indices(i, j)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_replay_agrees_with_two_evaluation_replay(self, data):
        k = data.draw(st.integers(0, MAX_LEVEL), label="k")
        n = (1 << (k + 1)) - 1
        i = data.draw(st.integers(1, n), label="i")
        j = data.draw(st.one_of(st.integers(1, n), st.just(i)), label="j")
        result, trace = normalize_product_traced(i, j, k)
        steps = list(trace.steps)
        tampers = ["none", "flip-result"]
        if steps:
            tampers += ["flip-after", "flip-two-afters", "replace-after", "drop-step"]
        tamper = data.draw(st.sampled_from(tampers), label="tamper")
        if tamper == "flip-result":
            result = SignedBasis(-result.sign, result.index)
        elif tamper != "none":
            t = data.draw(st.integers(0, len(steps) - 1), label="step")
            step = steps[t]
            flipped = (-step.after[0], step.after[1])
            if tamper.startswith("flip-"):
                steps[t] = RewriteStep(step.rule, flipped)
                if tamper == "flip-two-afters" and t + 1 < len(steps):
                    # Step t + 1 then keeps the value of the flipped step t,
                    # so only the value between steps t - 1 and t can tell.
                    nxt = steps[t + 1]
                    steps[t + 1] = RewriteStep(nxt.rule, (-nxt.after[0], nxt.after[1]))
            elif tamper == "replace-after":
                # Any other expression of the trace, or this one with its sign flipped.
                others = [trace.initial] + [s.after for s in trace.steps]
                others.append(flipped)
                after = data.draw(st.sampled_from(others), label="after")
                steps[t] = RewriteStep(step.rule, after)
            else:
                del steps[t]
        tampered = RewriteTrace(trace.initial, tuple(steps), result)
        replayed = tampered.replay()
        # A derivation from sound rules keeps the value, so rule-checked replay
        # accepts nothing that the value-only reference rejects.
        assert not replayed or reference_replay(tampered)
        if tamper == "none" or tamper.startswith("flip-"):
            assert replayed is reference_replay(tampered)
        elif tuple(steps) != trace.steps:
            # The reference accepts an after of equal value, or a dropped
            # middle step; rule-checked replay does not.
            assert not replayed
        if tamper == "none":
            assert replayed

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_traced_equals_recursive_traced_reference(self, data):
        k = data.draw(st.integers(0, MAX_LEVEL), label="k")
        n = (1 << (k + 1)) - 1
        i = data.draw(st.integers(1, n), label="i")
        j = data.draw(st.one_of(st.integers(1, n), st.just(i)), label="j")
        result, trace = normalize_product_traced(i, j, k)
        steps, value = reference_traced(i, j)
        assert trace.steps == steps
        assert (result.sign, result.index) == value


def cd_sign(i, j):
    """The sign s of e_i e_j = s e_(i ^ j) for Cayley-Dickson units, e_0 = 1.

    Written from the doubling rule (a, b)(c, d) = (ac - d̄b, da + bc̄) alone,
    with e_m = (e_m, 0) below the top half and (0, e_(m - half)) in it; the
    conjugate of e_c is -e_c for c != 0.
    """
    if i == 0 or j == 0:
        return 1
    if i == j:
        return -1
    half = 1 << (max(i, j).bit_length() - 1)
    a, c = i & (half - 1), j & (half - 1)
    conj = 1 if c == 0 else -1
    if i < half:  # (e_i, 0)(0, e_c) = (0, e_c e_i)
        return cd_sign(c, i)
    if j < half:  # (0, e_a)(e_j, 0) = (0, e_a conj(e_j))
        return -cd_sign(a, j)
    return -conj * cd_sign(c, a)  # (0, e_a)(0, e_c) = (-conj(e_c) e_a, 0)


def cd_value(tree):
    """(sign, index) of a product tree over u_b = e_(2**b) among the units;
    index 0 is the real unit, whose cross-product part is zero."""
    if isinstance(tree, int):
        return (1, 1 << tree)
    (sl, ml), (sr, mr) = cd_value(tree[0]), cd_value(tree[1])
    return (sl * sr * cd_sign(ml, mr), ml ^ mr)


def reference_traced(i, j):
    """The recursive traced normaliser that the step recorder of the sign
    kernel replaced: ``(steps, (sign, index))``, one step per rule use."""
    steps = []

    def top(word):
        return word if isinstance(word, int) else word[1]

    def reduce(sign, left, right, ctx):
        def emit(rule, s, t):
            for g in ctx:  # pending top generators, innermost first
                t = (t, g)
            steps.append(RewriteStep(rule, (s, t)))

        if left == right:
            steps.append(RewriteStep(RULE_ANTISYMMETRY, ZERO_EXPR))
            return ZERO_EXPR
        if top(left) > top(right):
            emit(RULE_ANTISYMMETRY, -sign, (right, left))
            sign, left, right = -sign, right, left
        t = top(right)
        if top(left) < t:
            if isinstance(right, int):
                return (sign, (left, right))
            rsub, _ = right
            if left == rsub:
                emit(RULE_CANCELLATION, -sign, t)
                return (-sign, t)
            emit(RULE_SHIFT, -sign, ((left, rsub), t))
            inner = reduce(-sign, left, rsub, (t,) + ctx)
            return (inner[0], (inner[1], t))
        if isinstance(left, int):
            rsub, _ = right
            emit(RULE_ANTISYMMETRY, -sign, (t, (t, rsub)))
            emit(RULE_CANCELLATION, sign, rsub)
            return (sign, rsub)
        if isinstance(right, int):
            lsub, _ = left
            emit(RULE_ANTISYMMETRY, -sign, (right, left))
            emit(RULE_ANTISYMMETRY, sign, (t, (t, lsub)))
            emit(RULE_CANCELLATION, -sign, lsub)
            return (-sign, lsub)
        emit(RULE_PAIR_COLLAPSE, -sign, (left[0], right[0]))
        return reduce(-sign, left[0], right[0], ctx)

    def word(m):
        return _left_nested([b for b in range(m.bit_length()) if m >> b & 1])

    sign, tree = reduce(1, word(i), word(j), ())
    return tuple(steps), (sign, _tree_index(tree) if sign else 0)


class TestRewriteRules:
    """Replay's rule matcher against the Cayley-Dickson units."""

    def test_sign_function_reproduces_the_level_four_table(self):
        for i in range(1, 32):
            for j in range(1, 32):
                want = SignedBasis(cd_sign(i, j), i ^ j) if i != j else SignedBasis(0, 0)
                assert normalize_product(i, j, 4) == want

    def test_accepted_instances_are_sound(self):
        # Candidates of each rule's shape over the words up to level 4, t up
        # to 5; the matcher must accept exactly those meeting the side
        # conditions, and each accepted one must negate the value.
        words, index = [_word_tree(m) for m in range(1, 32)], _tree_index
        candidates, wanted = [], set()
        for x in words:
            for y in words:
                candidates.append((RULE_ANTISYMMETRY, (x, y), (y, x)))
                if x != y:
                    wanted.add(candidates[-1])
                for z in words:
                    candidates.append((RULE_CANCELLATION, (x, (z, y)), y))
                    if z == x != y:
                        wanted.add(candidates[-1])
                for t in range(6):
                    candidates.append((RULE_SHIFT, (x, (y, t)), ((x, y), t)))
                    candidates.append((RULE_PAIR_COLLAPSE, ((x, t), (y, t)), (x, y)))
                    if x != y and index(x) | index(y) < 1 << t:
                        wanted.update(candidates[-2:])
        accepted = {c for c in candidates if _rewrites(c[0], (1, c[1]), (-1, c[2]))}
        assert accepted == wanted
        assert len(accepted) == 4236
        for rule, before, after in accepted:
            (s, m), (s_after, m_after) = cd_value(before), cd_value(after)
            assert m == m_after != 0 and s == -s_after, (rule, before, after)
        # The side condition x != y is needed: x × (x × u_t) and (x × x) × u_t
        # are the same unit, -u_t, so a shift there would not negate.  A
        # square x × x is real, so its cross-product part is zero.
        for x in words:
            for t in range(index(x).bit_length(), 6):
                assert cd_value((x, (x, t))) == cd_value(((x, x), t)) == (-1, 1 << t)
            assert _rewrites(RULE_ANTISYMMETRY, (1, (x, x)), ZERO_EXPR)
            assert cd_value((x, x))[1] == 0

    # (rule, before, after): one instance of each rule, in and out of context.
    INSTANCES = {
        "antisymmetry": (RULE_ANTISYMMETRY, (1, (1, 0)), (-1, (0, 1))),
        "antisymmetry-in-context": (RULE_ANTISYMMETRY, (-1, ((1, 0), 2)), (1, ((0, 1), 2))),
        "square": (RULE_ANTISYMMETRY, (1, ((0, 1), (0, 1))), ZERO_EXPR),
        "cancellation": (RULE_CANCELLATION, (1, (0, (0, 2))), (-1, 2)),
        "cancellation-top-first": (RULE_CANCELLATION, (1, ((2, (2, 0)), 3)), (-1, (0, 3))),
        "shift": (RULE_SHIFT, (1, (1, (0, 2))), (-1, ((1, 0), 2))),
        "pair-collapse": (RULE_PAIR_COLLAPSE, (1, ((0, 2), (1, 2))), (-1, (0, 1))),
    }

    # Each breaks one side condition of a rule, or the sign, or the rule cited.
    MUTATIONS = {
        "shift-x-equals-y": (RULE_SHIFT, (1, (0, (0, 2))), (-1, ((0, 0), 2))),
        "shift-t-not-above-x": (RULE_SHIFT, (1, (2, (0, 1))), (-1, ((2, 0), 1))),
        "shift-t-not-above-y": (RULE_SHIFT, (1, (0, (2, 1))), (-1, ((0, 2), 1))),
        "shift-x-no-word": (RULE_SHIFT, (1, ((1, 0), (2, 3))), (-1, (((1, 0), 2), 3))),
        "pair-collapse-x-equals-y": (RULE_PAIR_COLLAPSE, (1, ((0, 2), (0, 2))), (-1, (0, 0))),
        "pair-collapse-t-not-above": (RULE_PAIR_COLLAPSE, (1, ((2, 1), (0, 1))), (-1, (2, 0))),
        "pair-collapse-two-tops": (RULE_PAIR_COLLAPSE, (1, ((0, 2), (1, 3))), (-1, (0, 1))),
        "cancellation-z-not-x": (RULE_CANCELLATION, (1, (0, (1, 2))), (-1, 2)),
        "cancellation-x-equals-y": (RULE_CANCELLATION, (1, (0, (0, 0))), (-1, 0)),
        "antisymmetry-x-equals-y": (RULE_ANTISYMMETRY, (1, (1, 1)), (-1, (1, 1))),
        "antisymmetry-no-word": (RULE_ANTISYMMETRY, (1, ((1, 0), 2)), (-1, (2, (1, 0)))),
        "keeps-sign": (RULE_ANTISYMMETRY, (1, (1, 0)), (1, (0, 1))),
        "zero-without-square": (RULE_ANTISYMMETRY, (1, (0, 1)), ZERO_EXPR),
        "zero-square-in-context": (RULE_ANTISYMMETRY, (1, ((1, 1), 2)), ZERO_EXPR),
        "zero-by-cancellation": (RULE_CANCELLATION, (1, (1, 1)), ZERO_EXPR),
        "two-subterms": (RULE_ANTISYMMETRY, (1, ((1, 0), (3, 2))), (-1, ((0, 1), (2, 3)))),
        "shift-cited-as-pair-collapse": (RULE_PAIR_COLLAPSE, (1, (1, (0, 2))), (-1, ((1, 0), 2))),
        "unknown-rule": ("made-up", (1, (1, 0)), (-1, (0, 1))),
        "after-zero": (RULE_ANTISYMMETRY, ZERO_EXPR, (1, (0, 1))),
    }

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_rule_instance_is_accepted(self, name):
        rule, before, after = self.INSTANCES[name]
        assert _rewrites(rule, before, after)

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_side_condition_mutation_is_rejected(self, name):
        rule, before, after = self.MUTATIONS[name]
        assert not _rewrites(rule, before, after)

    def test_initial_must_be_a_product_of_two_words(self):
        # Each derivation below is sound step by step and ends at its result;
        # only its initial expression is wrong.
        swap = RewriteStep(RULE_ANTISYMMETRY, (-1, ((0, 1), 2)))
        assert not RewriteTrace((1, ((1, 0), 2)), (swap,), SignedBasis(-1, 7)).replay()
        collapse = RewriteStep(RULE_PAIR_COLLAPSE, (1, (0, 1)))
        assert not RewriteTrace((-1, ((0, 2), (1, 2))), (collapse,), SignedBasis(1, 3)).replay()
        assert not RewriteTrace((1, 7), (), SignedBasis(1, 128)).replay()
        # The same steps from the product of two words replay.
        trace = RewriteTrace((1, ((0, 2), (1, 2))), (RewriteStep(RULE_PAIR_COLLAPSE, (-1, (0, 1))),),
                             SignedBasis(-1, 3))
        assert trace == normalize_product_traced(5, 6, 2)[1] and trace.replay()


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
                sign, index = table.entry(i, j)
                assert sign * index == R7_CELLS[i - 1][j - 1]

    def test_cells_equal_the_entry_grid(self):
        table = build_table(2)
        grid = [tuple(table.entry(i, j) for j in range(1, 8)) for i in range(1, 8)]
        assert list(table.cells) == grid

    def test_validate_passes_for_generated_tables(self):
        for k in (1, 2, 3):
            build_table(k).validate()

    def test_validate_rejects_tampering(self):
        # One tampered copy per rejection branch; validate() is the only
        # check that every cell is a signed unit (closure under x).
        table = build_table(2)

        def tampered(i, j, s):
            rows = [array("b", r) for r in table.signs]
            rows[i][j] = s
            return MulTable(table.k, tuple(rows))

        cases = [
            (tampered(1, 2, 0), "off-diagonal cell (1,2) must be nonzero"),
            (MulTable(table.k, table.signs[:-1]), "must form an 8 x 8 grid"),
            (tampered(0, 3, 1), "row 0 and column 0 name no basis element"),
            (tampered(3, 0, -1), "row 0 and column 0 name no basis element"),
            (tampered(3, 3, 1), "diagonal cell (3,3) must be zero"),
            (tampered(1, 2, 2), "cell (1,2) has sign 2, expected -1 or 1"),
            (tampered(1, 2, -table.signs[1][2]), "cells (1,2) and (2,1) are not opposite"),
        ]
        for bad, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                bad.validate()

    def test_validate_rejects_rows_that_are_not_byte_arrays(self):
        table = build_table(2)
        with_tuple_row = list(table.signs)
        with_tuple_row[3] = tuple(with_tuple_row[3])
        wide_rows = [array("h", r) for r in table.signs]
        for rows in (with_tuple_row, wide_rows):
            bad = MulTable(table.k, tuple(rows))
            with pytest.raises(ValueError, match=re.escape('sign rows must be array("b") rows')):
                bad.validate()

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            build_table(0)
        with pytest.raises(ValueError):
            build_table(MAX_LEVEL + 1)
        # validate checks the level of a table built directly, too.
        message = f"level must be in 1..{MAX_LEVEL}, got {MAX_LEVEL + 1}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MulTable(MAX_LEVEL + 1, build_table(1).signs).validate()

    def test_entry_bounds(self):
        table = build_table(1)
        with pytest.raises(ValueError):
            table.entry(0, 1)
        with pytest.raises(ValueError):
            table.entry(1, 4)
        # An index must be an int; a bool is not one, though True would pass for 1.
        for i, j in ((True, 2), (2, True), (1.0, 2), (2, "1")):
            message = f"cell ({i},{j}) out of range 1..3"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                table.entry(i, j)

    def test_r3_cells(self):
        t = build_table(1)
        cells = [[t.entry(i, j) for j in (1, 2, 3)] for i in (1, 2, 3)]
        assert [[c.sign * c.index for c in row] for row in cells] == R3_CELLS

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
                    assert not any(out.coords)
                else:
                    assert out == Vector.unit(7, cell.index).scaled(
                        Fraction(cell.sign)
                    )


@lru_cache(maxsize=None)
def cached_table(k):
    return build_table(k)


def per_cell_from_json(text):
    """The cell rows of ``table_from_json`` checked one cell at a time: each
    an int, not a bool, of absolute value i ^ j, whose sign is the cell's."""
    doc = json.loads(text)
    rows = [array("b", bytes(doc["n"] + 1))]
    for i, row in enumerate(doc["cells"], start=1):
        for j, v in enumerate(row, start=1):
            if type(v) is not int or abs(v) != i ^ j:
                expected = "0" if i == j else f"±{i ^ j}"
                raise ValueError(f"cell ({i},{j}) holds {v!r}, expected {expected}")
        rows.append(array("b", [0] + [(v > 0) - (v < 0) for v in row]))
    table = MulTable(doc["k"], tuple(rows))
    table.validate()
    return table


def reference_validate(table):
    """``MulTable.validate`` as a per-cell loop over rows and ``zip`` columns."""
    n = table.n
    rows = table.signs
    if len(rows) != n + 1 or any(len(row) != n + 1 for row in rows):
        raise ValueError(f"sign rows must form an {n + 1} x {n + 1} grid")
    if any(rows[0]) or any(row[0] for row in rows):
        raise ValueError("row 0 and column 0 name no basis element and must be zero")
    for i, (row, column) in enumerate(zip(rows, zip(*rows))):
        if i == 0:
            continue
        if row[i]:
            raise ValueError(f"diagonal cell ({i},{i}) must be zero")
        if row.count(1) + row.count(-1) != n - 1:
            j = next(j for j, s in enumerate(row) if j not in (0, i) and s not in (1, -1))
            if row[j] == 0:
                raise ValueError(f"off-diagonal cell ({i},{j}) must be nonzero")
            raise ValueError(f"cell ({i},{j}) has sign {row[j]}, expected -1 or 1")
        if column != tuple(-s for s in row):
            j = next(j for j, s in enumerate(row) if column[j] != -s)
            raise ValueError(f"cells ({i},{j}) and ({j},{i}) are not opposite")


def reference_double(rows):
    """``_double`` with per-cell negation and ``zip`` columns."""
    m = len(rows)
    columns = [array("b", c) for c in zip(*rows)]
    out = [array("b", bytes(2 * m))]
    for i in range(1, m):
        right = array("b", [-s for s in rows[i]])
        right[0], right[i] = 1, -1
        out.append(rows[i] + right)
    out.append(array("b", [0] + [-1] * (m - 1) + [0] + [1] * (m - 1)))
    for a in range(1, m):
        left = columns[a]
        left[a] = 1
        right = array("b", [-s for s in rows[a]])
        right[0] = -1
        out.append(left + right)
    return out


def _verdict(check, table):
    try:
        check(table)
    except ValueError as exc:
        return str(exc)
    return None


# SHA-256 of the joined sign rows of build_table(k), for k = 1..10.
SIGN_ROW_DIGESTS = {
    1: "0b984433d92b9607afc364844c7e69694d2ca28cafedcd7e7f5bf7d1e58aca76",
    2: "83349fb946aa13f364f035d501cfb61e1dd700fcfb144ca1e5d6540255bc3843",
    3: "847f9ca918b803f89be8861f7d88dd23ff3cd4d0988afafbbad2214ccfabf424",
    4: "a0dd269766d2d1657e00f7f2561d951b1ad9e5752ecf64214398ab9a0568e61a",
    5: "f791c63b8e8c123ef2dbc96d3203c94a1cf83c392302578cb14d4c57cd32ce8f",
    6: "10a651415ff14b4ff2a379de586cbaf778646b0e9f7f0e0db31167d98443fc0f",
    7: "884a0bad98d46435b0cc10d0bc3fa523414ee44fa621bf601435b38e55ee72ea",
    8: "ed1dc25ba2a4da61060f766608abf1e3f688db1c7c60a43bdf6b02b10bf923a0",
    9: "c3c7f8a64dd813277111aa2bdb5906447010604ae14ddb2aafb0b8efc6fcc653",
    10: "b2e0e2401c89166491493fe8694ed894009a8586c75aadf54a388b880c4ea8d9",
}


# SHA-256 of table_to_markdown, table_to_csv and table_to_json of
# build_table(k), for k = 1..10, as the per-cell writers produced them.
SERIALISER_DIGESTS = {
    1: (
        "fdf9f77d460b820a6f47cbf76707299dd28c88e27004a5a03d1a39be1b97cec1",
        "a6f8e01ceaaf1b1c33f10b114b920cd06296fa706ead2d59015219d31e2d88b5",
        "06af5705aa76a3afedad78fd6e2ad8448fc989eda8ff12ea65fc46621d7a0c29",
    ),
    2: (
        "71c93be0e597ec0b616794b566845327e248276e97b502a5b0a5682b5e237d4c",
        "69b378154a13c94409695a388294375f3eef2703727d990c22a97433a42fc9de",
        "5a4b7232db5115216307b3b22cf12077eca3ed8822ae015036b854c60755354e",
    ),
    3: (
        "e7920b494a98f4a0ef0b10a4527a2766b7f6627e0bdad49fb6a85a3f8e6d22c7",
        "f4647e81f0949d8c0f74c27621c47879fbb6469ca8e544e805a0b857d71b275f",
        "ff28f12d199353fbdf108684850fd66eb7e5987a8b939d1fbf6105fe406a2bb9",
    ),
    4: (
        "d0618c76aed525704875b334011c7d6fe8347667810c6b01f258fb756deaa7b2",
        "28b5726e190cbfc015b2088bf9d95115c54471eaa9b0904b0957abc711392149",
        "f42ba5291206cdfdc163c8235c7c91e9612bdd230bc8c784ad2ec9c5c9aaa57d",
    ),
    5: (
        "906031ca004bcf29b0b1e7f5b97b08b83714244f617ea29ff1ea8e3026796f12",
        "632a3d3550d05056fc5df5b861165a8dcd4f8eb292ec48060b50d33777b5dd11",
        "1338dc44319defe552a3c4a7bc1721a04ab2bc2199b125dadfe5f17ca42d6112",
    ),
    6: (
        "b5d6a90881a63d8afd4a1d3fcccac57f69431202a7a276753372fec926358148",
        "095a43e2b5bf69465d2af2b0c52af2a2ed8baa8346da1fe027067019f97c35eb",
        "e6e9d1f6dac2f0444f6f5ef6d0968b0645634005cb694a947eeed2906d9a8582",
    ),
    7: (
        "74b7d606c7c8440224e3c5b7bff7e4b0811f18d5c3a9fb088d9285b4a39b974d",
        "1d1bf7c015e340501205ff4dcc56bc19cf830e06a4c18b111e5c4d6e5ec80880",
        "16e34fe436ff79d5a85ca836e00986cafee7db41dcec8dbc011499593d0a05a9",
    ),
    8: (
        "f29a93721a8e72b5a068891a79d0850fae8a3daba24434b30cf0376d11ce1663",
        "0fd3166ef1246ec54c4711f1185c67e684fc5936928b536f5c52c21b096ac6e6",
        "7e0a7a4cacb641a894e610dcfbe81c4e2733ba22c7c1acc3732ce65ab55d63f9",
    ),
    9: (
        "1230f0ac7a1fbba6e566666933f717fb02479c08c4e9191f9eccc8fbdf115def",
        "d8859b57c6683537aeda6782591cbe1c6d8d2d5a737e70d5207acd66dea6e984",
        "a3a2c2560ab7020cacaa334c153db8c55d514a48cbbf8fe9d4ff5a7c8d263417",
    ),
    10: (
        "3e220db9d502da184c0896831d137536856d215f5638b38f9fe929b66ddf36e5",
        "0e372a357c9165954edc57b90a878421ce51ed1521037596a7fd68fb24836ae1",
        "8959c5413599ac1cc8e750df7d890dc7ffc0927346fd28f50a7c608b20c6b028",
    ),
}


def naive_text_rows(signs, pos, neg):
    """The reference path for ``_text_rows``: cell (i, j) with sign s is
    ``("0", pos, neg)[s]``, formatted with m = i ^ j, so -1 picks neg."""
    n = len(signs)
    triples = [("0", pos.format(m), neg.format(m)) for m in range(n)]
    return ([triples[i ^ j][s] for j, s in enumerate(signs[i]) if j] for i in range(1, n))


# Each writer's texts for a positive and a negative cell.
WRITER_FORMATS = {"md": ("e{}", "−e{}"), "csv": ("{}", "-{}"), "json": ("{}", "-{}")}


def assert_text_rows_match(signs, pos, neg):
    # One row at a time; a missing or extra row meets the fill value None.
    rows = zip_longest(_text_rows(signs, pos, neg), naive_text_rows(signs, pos, neg))
    for fast, naive in rows:
        assert type(fast) is tuple and list(fast) == naive


class TestByteKernels:
    """The byte-operation ``validate`` and ``_double``, and the XOR-row kernel
    behind the serialisers, against per-cell loops and pinned digests."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_validate_matches_reference_on_tampered_tables(self, data):
        table = cached_table(data.draw(st.integers(1, 4)))
        rows = [array("b", r) for r in table.signs]
        cell = st.integers(0, table.n)
        for _ in range(data.draw(st.integers(1, 3))):
            rows[data.draw(cell)][data.draw(cell)] = data.draw(st.integers(-2, 2))
        tampered = MulTable(table.k, tuple(rows))
        assert _verdict(MulTable.validate, tampered) == _verdict(reference_validate, tampered)

    def test_double_matches_reference_up_to_level_seven(self):
        rows = ref = [array("b", [0])]
        for _ in range(8):  # levels 0..7
            rows, ref = _double(rows), reference_double(ref)
            assert rows == ref

    @pytest.mark.parametrize("k", range(1, MAX_LEVEL + 1))
    def test_sign_row_digests(self, k):
        table = build_table(k)
        assert table.n == 2 ** (k + 1) - 1
        digest = hashlib.sha256(b"".join(table.signs)).hexdigest()
        assert digest == SIGN_ROW_DIGESTS[k]

    @pytest.mark.parametrize("k", range(1, MAX_LEVEL + 1))
    def test_serialiser_digests(self, k):
        table = cached_table(k)
        texts = (table_to_markdown(table), table_to_csv(table), table_to_json(table))
        digests = tuple(hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts)
        assert digests == SERIALISER_DIGESTS[k]

    @pytest.mark.parametrize("p", range(2, 13))
    def test_xor_rows_matches_naive_rows(self, p):
        # The row kernel on rows 4 to 4096 wide, with seeded random signs.
        rng = random.Random(p)
        spread = bytes([0, 1, 0xFF]) * 85 + b"\x00"  # random bytes to signs
        signs = [array("b", rng.randbytes(1 << p).translate(spread)) for _ in range(1 << p)]
        assert_text_rows_match(signs, "p{}", "n{}")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_xor_rows_matches_naive_rows_on_drawn_items(self, data):
        # Tables of levels 1..6 with cells redrawn as -1, 0 or 1 anywhere,
        # the diagonal and row and column 0 included, which build_table never
        # makes; the texts are each writer's.
        table = cached_table(data.draw(st.integers(1, 6)))
        rows = [array("b", r) for r in table.signs]
        cell = st.integers(0, table.n)
        for _ in range(data.draw(st.integers(1, 20))):
            rows[data.draw(cell)][data.draw(cell)] = data.draw(st.sampled_from((-1, 0, 1)))
        fmt = data.draw(st.sampled_from(sorted(WRITER_FORMATS)))
        assert_text_rows_match(rows, *WRITER_FORMATS[fmt])

    @pytest.mark.parametrize("fmt", sorted(WRITER_FORMATS))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_text_rows_match_per_cell_texts(self, k, fmt):
        assert_text_rows_match(cached_table(k).signs, *WRITER_FORMATS[fmt])


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
            cell = cached_table(k).entry(i, j)
            assert cell == normalize_product(i, j, k)
            # The rows come from _double, not the kernel: an independent check
            # of the level-k traces that the benchmark replays.
            result, trace = normalize_product_traced(i, j, k)
            assert result == cell
            assert trace.replay()

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

    @pytest.mark.parametrize("k", range(1, MAX_LEVEL + 1))
    def test_json_round_trips_at_every_level(self, k):
        table = cached_table(k)
        assert table_from_json(table_to_json(table)) == table

    @pytest.mark.parametrize(
        "k, i, j, value, message",
        [
            (1, 2, 2, 1, "cell (2,2) holds 1, expected 0"),
            (1, 1, 2, 3.0, "cell (1,2) holds 3.0, expected ±3"),
            (1, 2, 2, False, "cell (2,2) holds False, expected 0"),
            # Row 13 of level 3 is chained from blocks swapped by its high bits.
            (3, 13, 6, -22, "cell (13,6) holds -22, expected ±11"),
            # The packed row test reads a bool as 1 or 0: true passes it at
            # (i, i ^ 1) and false on the diagonal, so both are type-checked.
            (3, 13, 12, True, "cell (13,12) holds True, expected ±1"),
            (2, 5, 5, False, "cell (5,5) holds False, expected 0"),
            # Row 1 has no column i ^ 1 = 0.
            (1, 1, 3, True, "cell (1,3) holds True, expected ±2"),
            # Outside int16, a value must not alias mod 2**16.
            (4, 20, 7, 19 + 65536, "cell (20,7) holds 65555, expected ±19"),
            (1, 1, 2, -32769, "cell (1,2) holds -32769, expected ±3"),
        ],
    )
    def test_from_json_names_the_bad_cell(self, k, i, j, value, message):
        doc = json.loads(table_to_json(build_table(k)))
        doc["cells"][i - 1][j - 1] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            table_from_json(json.dumps(doc))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_from_json_agrees_with_the_per_cell_rule(self, data):
        # One to three cells of a level 1-5 document are mutated; the packed
        # row test and the per-cell rule must give the same table or message.
        k = data.draw(st.integers(1, 5), label="k")
        n = (1 << (k + 1)) - 1
        doc = json.loads(table_to_json(cached_table(k)))
        for _ in range(data.draw(st.integers(1, 3), label="cells")):
            i = data.draw(st.integers(1, n), label="i")
            place = data.draw(st.sampled_from(["diagonal", "pair", "any"]), label="place")
            # Row 1 has no column i ^ 1 = 0; its "pair" is column n.
            j = {"diagonal": i, "pair": i ^ 1 or n}.get(place) or data.draw(st.integers(1, n), label="j")
            flipped = -cached_table(k).signs[i][j] * (i ^ j)
            value = data.draw(
                st.sampled_from(
                    [flipped, 0, True, False, 1.0, float(i ^ j), "3", None, [], {},
                     32767, -32767, 32768, -32768, -32769,
                     (i ^ j) + 65536, (i ^ j) - 65536, 2**63, 10**100]
                )
                | st.integers(-2 * n, 2 * n),
                label="value",
            )
            doc["cells"][i - 1][j - 1] = value
        text = json.dumps(doc)
        try:
            want = per_cell_from_json(text)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                table_from_json(text)
        else:
            assert table_from_json(text) == want

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
        # k and n must be ints; json reads true as a bool.
        for k, n in (("1", 3), (1, 3.0), (True, 3)):
            with pytest.raises(ValueError, match="^k and n must be integers$"):
                table_from_json(json.dumps({"k": k, "n": n, "cells": R3_CELLS}))
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
        # Nesting too deep for json.loads, bare and as the cells value.
        deep = "[" * 100000 + "]" * 100000
        for text in (deep, '{"k": 1, "n": 3, "cells": %s}' % deep):
            with pytest.raises(ValueError, match="^table document is nested too deeply$"):
                table_from_json(text)

    def test_markdown_uses_minus_sign_and_labels(self):
        text = table_to_markdown(build_table(1))
        assert "| × |" in text.splitlines()[0]
        assert "−e2" in text


# == the dimension >= 15 witness pair ========================================


def known_pair(k):
    """The witness pair of the level-k table product, as ``verify`` builds it."""
    return product_for_table(cached_table(k)).known


class TestCounterexampleVectors:
    """``product_for_table(table).known``: e3 + e10 and e6 - e15, zero-padded."""

    def test_support_at_level_three(self):
        u, v = known_pair(3)
        assert u.dim == v.dim == 15
        assert [c for c in u.coords if c] == [1, 1]
        assert u.coords[3 - 1] == 1 and u.coords[10 - 1] == 1
        assert v.coords[6 - 1] == 1 and v.coords[15 - 1] == -1
        assert sum(1 for c in v.coords if c) == 2

    def test_words_behind_the_indices(self):
        # the four summands are genuine level-3 words, found by position
        assert [word_position(w) for w in (U0U1, U1U3, U1U2, U0U1U2U3)] == [3, 10, 6, 15]

    def test_embedding_at_higher_level(self):
        u3, v3 = known_pair(3)
        u4, v4 = known_pair(4)
        assert u4.dim == v4.dim == 31
        assert u4.coords[:15] == u3.coords
        assert v4.coords[:15] == v3.coords
        assert all(c == 0 for c in u4.coords[15:])
        assert all(c == 0 for c in v4.coords[15:])

    def test_product_vanishes_and_norms(self):
        for k in range(3, MAX_LEVEL + 1):
            u, v = known_pair(k)
            assert not any(table_product(cached_table(k), u, v).coords)
            assert dot(u, u) == 2 and dot(v, v) == 2 and dot(u, v) == 0

    def test_level_too_small(self):
        # levels 1 and 2 carry genuine cross products: no pair is known
        assert known_pair(1) is None and known_pair(2) is None

    @pytest.mark.parametrize("k", range(3, MAX_LEVEL + 1))
    def test_equals_the_word_construction(self, k):
        assert known_pair(k) == word_counterexample(k)


# The four words behind the witness pair, as trees.
U0U1, U1U3, U1U2, U0U1U2U3 = (0, 1), (1, 3), (1, 2), (((0, 1), 2), 3)


def word_position(word):
    """The index of a level-3 word, read as its place in the construction
    order and not from the XOR index law."""
    return build_basis(3).index(word) + 1


def word_counterexample(k):
    """The witness pair built from its basis words, the reference for
    ``product_for_table(table).known``: u = u0 x u1 + u1 x u3 and
    v = u1 x u2 - ((u0 x u1) x u2) x u3."""
    n = 2 ** (k + 1) - 1
    u_coords = [Fraction(0)] * n
    v_coords = [Fraction(0)] * n
    for word in (U0U1, U1U3):
        u_coords[word_position(word) - 1] = Fraction(1)
    v_coords[word_position(U1U2) - 1] = Fraction(1)
    v_coords[word_position(U0U1U2U3) - 1] = Fraction(-1)
    return Vector(u_coords), Vector(v_coords)


# == levels that are not ints ================================================


@pytest.mark.parametrize("k", [True, 2.0, "3"])
@pytest.mark.parametrize(
    "call, low",
    [
        (build_basis, 0),
        (build_table, 1),
        (lambda k: normalize_product(1, 2, k), 0),
        (lambda k: normalize_product_traced(1, 2, k), 0),
        (lambda k: MulTable(k, build_table(1).signs).validate(), 1),
    ],
    ids=["build_basis", "build_table", "normalize_product", "normalize_product_traced",
         "validate"],
)
def test_non_int_levels_are_rejected(call, low, k):
    message = f"level must be in {low}..{MAX_LEVEL}, got {k!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(k)
