"""Recursive basis construction and the rewrite normalizer behind the tables.

The basis family is generated from unit vectors u_0, u_1, ... : level 0 is
{u_0}, and each level k adjoins u_k plus the products of every previous
element with u_k.  Level k therefore has 2**(k+1) - 1 elements, and each
element is a *basis word*: a canonical nested product in which the largest
generator always sits outermost, e.g. ``(u0 x u1) x u2``.  Identifying a word
with its generator set gives the index encoding ``index = sum(2**b)``, which
maps level-k words bijectively onto 1 .. 2**(k+1)-1; realized over R^n, word
m is the standard unit vector e_m.

Products of two basis words reduce to a signed basis word (or zero) by a
small deterministic term-rewriting system:

  antisymmetry     x*y -> -(y*x)            (and the degenerate x*x -> 0)
  cancellation     x*(x*y) -> -y            (orthonormal operands)
  shift            x*(y*u_t) -> -((x*y)*u_t)   t above both x and y
  pair-collapse    (x*u_t)*(y*u_t) -> -(x*y)

The normalizer computes signs *only* from these rules.  The fact that the
result index is always the XOR of the operand indices is a consequence that
callers may verify, never an input.

A level-k table is stored as sign rows: row i holds s(i, j) in {-1, 0, 1}
for e_i x e_j = s(i, j) e_(i ^ j), and the index is implied, never stored.
``build_table`` fills the rows one level at a time, applying the same rules
once per cell and reading the recursive sub-sign from the rows of the level
below; ``SignedBasis`` cells exist only on demand (``entry``, ``cells``).

``normalize_product_traced`` additionally records every rewrite step so the
whole reduction chain, e.g.

    (u0 x u2) x (u1 x u2)  ->  -((u0 x u1))  =  -e3

can be replayed and checked against an independent evaluation.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import neg
from typing import Iterator, List, Optional, Tuple, Union

from .vecalg import Vector

# Tables are O(n^2) cells with n = 2**(k+1) - 1; level 10 means n = 2047.
MAX_LEVEL = 10

# Rewrite rule names, as cited by trace steps.
RULE_ANTISYMMETRY = "antisymmetry"
RULE_CANCELLATION = "cancellation"
RULE_SHIFT = "shift"
RULE_PAIR_COLLAPSE = "pair-collapse"

RULES = (RULE_ANTISYMMETRY, RULE_CANCELLATION, RULE_SHIFT, RULE_PAIR_COLLAPSE)

# A product tree over generators: either a generator number or a pair of
# subtrees.  Canonical basis words are the left-nested trees whose right
# child is always the largest generator.
Tree = Union[int, Tuple["Tree", "Tree"]]

# A whole expression under rewriting: (sign, tree), with (0, None) for zero.
Expr = Tuple[int, Optional[Tree]]

ZERO_EXPR: Expr = (0, None)


def _index_bound(k: int) -> int:
    return (1 << (k + 1)) - 1


@dataclass(frozen=True)
class BasisWord:
    """Canonical nested product of generators, e.g. {0,1,2} = (u0 x u1) x u2."""

    generators: frozenset

    def __post_init__(self):
        gens = frozenset(self.generators)
        if not gens:
            raise ValueError("a basis word needs at least one generator")
        if any(not isinstance(b, int) or b < 0 for b in gens):
            raise ValueError(f"generators must be non-negative ints, got {set(gens)}")
        object.__setattr__(self, "generators", gens)

    @classmethod
    def from_index(cls, index: int) -> "BasisWord":
        if index < 1:
            raise ValueError(f"basis index must be >= 1, got {index}")
        return cls(frozenset(b for b in range(index.bit_length()) if index >> b & 1))

    @property
    def index(self) -> int:
        """Binary encoding: generator b contributes 2**b."""
        return sum(1 << b for b in self.generators)

    @property
    def level(self) -> int:
        return max(self.generators)

    def tree(self) -> Tree:
        """Canonical nesting: largest generator outermost."""
        gens = sorted(self.generators)
        node: Tree = gens[0]
        for b in gens[1:]:
            node = (node, b)
        return node

    def __str__(self) -> str:
        return tree_str(self.tree())


def build_basis(k: int) -> List[BasisWord]:
    """All level-k basis words, in construction order.

    The order mirrors the recursion: level k-1 first, then u_k, then the
    level k-1 words each multiplied by u_k.  This coincides with increasing
    index order.
    """
    if not 0 <= k <= MAX_LEVEL:
        raise ValueError(f"level must be in 0..{MAX_LEVEL}, got {k}")
    words = [BasisWord(frozenset({0}))]
    for b in range(1, k + 1):
        words = (
            words
            + [BasisWord(frozenset({b}))]
            + [BasisWord(w.generators | {b}) for w in words]
        )
    return words


@dataclass(frozen=True)
class SignedBasis:
    """Either zero or a signed basis element: sign * e_index.

    The zero cell is encoded as sign == 0, index == 0 (it carries no basis
    information).  ``value`` is the lossless integer form sign * index.
    """

    sign: int
    index: int

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if (self.sign == 0) != (self.index == 0):
            raise ValueError(f"zero has no index: sign={self.sign}, index={self.index}")
        if self.index < 0:
            raise ValueError(f"index must be >= 0, got {self.index}")

    @classmethod
    def zero(cls) -> "SignedBasis":
        return cls(0, 0)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    @property
    def value(self) -> int:
        return self.sign * self.index

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return f"{'−' if self.sign < 0 else ''}e{self.index}"


def _check_level_and_indices(i: int, j: int, k: int) -> None:
    if not 0 <= k <= MAX_LEVEL:
        raise ValueError(f"level must be in 0..{MAX_LEVEL}, got {k}")
    bound = _index_bound(k)
    for name, idx in (("i", i), ("j", j)):
        if not 1 <= idx <= bound:
            raise ValueError(
                f"index {name}={idx} out of range 1..{bound} for level {k}"
            )


def _norm_indices(i: int, j: int) -> Tuple[int, int]:
    """Reduce e_i x e_j to (sign, index), (0, 0) meaning zero.

    Recursion on the largest generator present in either word; each case is
    one of the rewrite rules, oriented by antisymmetry.
    """
    if i == j:
        return (0, 0)
    top = max(i.bit_length(), j.bit_length()) - 1
    bit = 1 << top
    a = i & ~bit
    b = j & ~bit
    if i & bit and j & bit:
        if a == 0:  # u_t * (y * u_t) = y
            return (1, b)
        if b == 0:  # (y * u_t) * u_t = -y
            return (-1, a)
        s, m = _norm_indices(a, b)  # pair-collapse, then recurse below t
        return (-s, m)
    if i & bit:
        if a == 0:  # u_t * y = -(y * u_t)
            return (-1, j | bit)
        if j == a:  # (y * u_t) * y = u_t
            return (1, bit)
        s, m = _norm_indices(j, a)  # orient, then shift
        return (s, m | bit)
    if b == 0:  # y * u_t is already a basis word
        return (1, i | bit)
    if i == b:  # y * (y * u_t) = -u_t
        return (-1, bit)
    s, m = _norm_indices(i, b)  # shift
    return (-s, m | bit)


def normalize_product(i: int, j: int, k: int) -> SignedBasis:
    """Product of basis elements e_i and e_j at level k, as a signed basis."""
    _check_level_and_indices(i, j, k)
    s, m = _norm_indices(i, j)
    return SignedBasis.zero() if s == 0 else SignedBasis(s, m)


# --- traced rewriting ------------------------------------------------------


def tree_str(tree: Tree) -> str:
    if isinstance(tree, int):
        return f"u{tree}"
    left, right = tree
    ls = tree_str(left) if isinstance(left, int) else f"({tree_str(left)})"
    rs = tree_str(right) if isinstance(right, int) else f"({tree_str(right)})"
    return f"{ls} × {rs}"


def expr_str(expr: Expr) -> str:
    sign, tree = expr
    if sign == 0:
        return "0"
    body = tree_str(tree)
    if sign < 0 and not isinstance(tree, int):
        return f"−({body})"
    return ("−" if sign < 0 else "") + body


@dataclass(frozen=True)
class RewriteStep:
    rule: str
    before: Expr
    after: Expr

    def __str__(self) -> str:
        return f"{expr_str(self.before)}  =  {expr_str(self.after)}   [{self.rule}]"


@dataclass(frozen=True)
class RewriteTrace:
    """Full reduction chain from a product of two basis words to normal form."""

    initial: Expr
    steps: Tuple[RewriteStep, ...]
    result: SignedBasis

    @property
    def final(self) -> Expr:
        return self.steps[-1].after if self.steps else self.initial

    def replay(self) -> bool:
        """Re-check the trace against an independent evaluation.

        Verifies that consecutive steps chain, that every step cites a known
        rule and preserves the value of the expression (evaluated through the
        index recursion, not the trace machinery), and that the final
        expression denotes exactly ``result``.
        """
        current = self.initial
        if _eval_expr(current) != (self.result.sign, self.result.index):
            return False
        for step in self.steps:
            if step.rule not in RULES:
                return False
            if step.before != current:
                return False
            if _eval_expr(step.before) != _eval_expr(step.after):
                return False
            current = step.after
        sign, tree = current
        if sign == 0:
            return self.result.is_zero
        if not _is_canonical_word(tree):
            return False
        return (sign, _tree_index(tree)) == (self.result.sign, self.result.index)

    def __str__(self) -> str:
        lines = [expr_str(self.initial)]
        lines += [f"  =  {expr_str(s.after)}   [{s.rule}]" for s in self.steps]
        return "\n".join(lines)


def _tree_index(tree: Tree) -> int:
    if isinstance(tree, int):
        return 1 << tree
    return _tree_index(tree[0]) | _tree_index(tree[1])


def _is_canonical_word(tree: Tree) -> bool:
    if isinstance(tree, int):
        return True
    left, right = tree
    if not isinstance(right, int):
        return False
    return _is_canonical_word(left) and _tree_index(left) < (1 << right)


def _eval_expr(expr: Expr) -> Tuple[int, int]:
    """Denotation of an arbitrary signed product tree, via the recursion."""
    sign, tree = expr
    if sign == 0:
        return (0, 0)

    def ev(t: Tree) -> Tuple[int, int]:
        if isinstance(t, int):
            return (1, 1 << t)
        (sl, ml), (sr, mr) = ev(t[0]), ev(t[1])
        if sl == 0 or sr == 0:
            return (0, 0)
        s, m = _norm_indices(ml, mr)
        return (0, 0) if s == 0 else (sl * sr * s, m)

    s, m = ev(tree)
    return (0, 0) if s == 0 else (sign * s, m)


def _top_generator(word: Tree) -> int:
    # Only valid on canonical word trees.
    return word if isinstance(word, int) else word[1]


def _embed(tree: Tree, ctx: Tuple[int, ...]) -> Tree:
    for g in ctx:
        tree = (tree, g)
    return tree


def _reduce_traced(sign, left, right, ctx, steps) -> Expr:
    """Normalize ``sign * (left x right)`` emitting one step per rule use.

    ``left`` and ``right`` are canonical word trees; ``ctx`` is the stack of
    pending top generators wrapped around the active product (innermost
    first), so emitted steps always show the whole expression.
    """

    def emit(rule, s0, t0, s1, t1):
        steps.append(
            RewriteStep(
                rule,
                (s0, _embed(t0, ctx)),
                ZERO_EXPR if s1 == 0 else (s1, _embed(t1, ctx)),
            )
        )

    if left == right:
        emit(RULE_ANTISYMMETRY, sign, (left, right), 0, None)
        return ZERO_EXPR

    if _top_generator(left) > _top_generator(right):
        emit(RULE_ANTISYMMETRY, sign, (left, right), -sign, (right, left))
        sign, left, right = -sign, right, left

    top = _top_generator(right)

    if _top_generator(left) < top:
        if isinstance(right, int):
            # left x u_top is already canonical; nothing to rewrite.
            return (sign, (left, right))
        rsub, _ = right
        if left == rsub:
            emit(RULE_CANCELLATION, sign, (left, right), -sign, top)
            return (-sign, top)
        emit(RULE_SHIFT, sign, (left, right), -sign, ((left, rsub), top))
        inner = _reduce_traced(-sign, left, rsub, (top,) + ctx, steps)
        return (inner[0], (inner[1], top))

    # Both operands contain the top generator.
    if isinstance(left, int):
        rsub, _ = right
        emit(RULE_ANTISYMMETRY, sign, (left, right), -sign, (top, (top, rsub)))
        emit(RULE_CANCELLATION, -sign, (top, (top, rsub)), sign, rsub)
        return (sign, rsub)
    if isinstance(right, int):
        lsub, _ = left
        emit(RULE_ANTISYMMETRY, sign, (left, right), -sign, (right, left))
        emit(RULE_ANTISYMMETRY, -sign, (top, (lsub, top)), sign, (top, (top, lsub)))
        emit(RULE_CANCELLATION, sign, (top, (top, lsub)), -sign, lsub)
        return (-sign, lsub)
    lsub, _ = left
    rsub, _ = right
    emit(RULE_PAIR_COLLAPSE, sign, (left, right), -sign, (lsub, rsub))
    return _reduce_traced(-sign, lsub, rsub, ctx, steps)


def normalize_product_traced(i: int, j: int, k: int) -> Tuple[SignedBasis, RewriteTrace]:
    """Like ``normalize_product`` but with the full rewrite chain attached."""
    _check_level_and_indices(i, j, k)
    li = BasisWord.from_index(i).tree()
    rj = BasisWord.from_index(j).tree()
    initial: Expr = (1, (li, rj))
    steps: List[RewriteStep] = []
    final = _reduce_traced(1, li, rj, (), steps)
    if final[0] == 0:
        result = SignedBasis.zero()
    else:
        result = SignedBasis(final[0], _tree_index(final[1]))
    trace = RewriteTrace(initial, tuple(steps), result)
    return result, trace


# --- multiplication tables -------------------------------------------------


@dataclass(frozen=True)
class MulTable:
    """The n x n table of signed basis cells defining a bilinear product.

    ``signs[i][j]`` is the sign s in {-1, 0, 1} of e_i x e_j = s e_(i ^ j)
    for 1 <= i, j <= n.  Row 0 and column 0 name no basis element and stay
    zero, so that rows and columns are indexed by i and j themselves.
    """

    k: int
    n: int
    signs: Tuple[array, ...]

    def entry(self, i: int, j: int) -> SignedBasis:
        """Cell for e_i x e_j (1-indexed)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"cell ({i},{j}) out of range 1..{self.n}")
        s = self.signs[i][j]
        return SignedBasis(s, i ^ j) if s else SignedBasis.zero()

    def values(self, i: int) -> List[int]:
        """Row i as the lossless integers sign * index, for columns 1..n."""
        row = self.signs[i]
        return [row[j] * (i ^ j) for j in range(1, self.n + 1)]

    @property
    def cells(self) -> Iterator[Tuple[SignedBasis, ...]]:
        """The rows of ``SignedBasis`` cells, each row built when reached."""
        n = self.n
        return (tuple(self.entry(i, j) for j in range(1, n + 1)) for i in range(1, n + 1))

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on violation.

        Zero diagonal, a unit sign in every off-diagonal cell, and
        antisymmetry of cells.  Cell indices are i ^ j by representation;
        the tests check that law against ``normalize_product``, which derives
        every index from the rewrite rules.
        """
        n = self.n
        if n != _index_bound(self.k):
            raise ValueError(f"n={n} does not match level k={self.k}")
        rows = self.signs
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
            if column != tuple(map(neg, row)):
                j = next(j for j, s in enumerate(row) if column[j] != -s)
                raise ValueError(f"cells ({i},{j}) and ({j},{i}) are not opposite")


def _double(rows: List[array]) -> List[array]:
    """The sign rows of level t from those of level t - 1.

    ``rows`` covers the indices 0 .. m-1 (m = 2**t); the result covers
    0 .. 2m-1, where index m | a is the word a x u_t (u_t itself for a == 0).
    Every cell takes its case of ``_norm_indices`` for top generator t and
    reads any recursive sub-sign from ``rows``.
    """
    m = len(rows)
    columns = [array("b", c) for c in zip(*rows)]  # columns[a][j] = s(j, a)
    out = [array("b", bytes(2 * m))]
    for i in range(1, m):
        # e_i x e_j with j < m is the cell one level down.  e_i x (b x u_t):
        # shift gives -s(i, b), except that i x u_t is already a word and
        # i x (i x u_t) cancels to -u_t.
        right = array("b", [-s for s in rows[i]])
        right[0], right[i] = 1, -1
        out.append(rows[i] + right)
    # u_t x y = -(y x u_t) by antisymmetry; u_t x (y x u_t) = y.
    out.append(array("b", [0] + [-1] * (m - 1) + [0] + [1] * (m - 1)))
    for a in range(1, m):
        # (a x u_t) x e_j with j < m: orient, then shift, giving s(j, a),
        # except that (a x u_t) x a cancels to u_t.  (a x u_t) x (b x u_t):
        # pair-collapse gives -s(a, b), except that (a x u_t) x u_t = -a.
        left = columns[a]
        left[a] = 1
        right = array("b", [-s for s in rows[a]])
        right[0] = -1
        out.append(left + right)
    return out


def build_table(k: int) -> MulTable:
    """Multiplication table for the level-k basis (n = 2**(k+1) - 1)."""
    if not 1 <= k <= MAX_LEVEL:
        raise ValueError(f"level must be in 1..{MAX_LEVEL}, got {k}")
    rows = [array("b", [0])]  # below level 0 there is only index 0
    for _ in range(k + 1):
        rows = _double(rows)
    table = MulTable(k, _index_bound(k), tuple(rows))
    table.validate()
    return table


def table_to_markdown(table: MulTable) -> str:
    """Markdown rendering with rows and columns labelled e1..en."""
    n = table.n
    text = {0: "0"}
    for m in range(1, n + 1):
        text[m], text[-m] = f"e{m}", f"−e{m}"
    header = "| × | " + " | ".join(text[j] for j in range(1, n + 1)) + " |"
    rule = "| " + " | ".join("---" for _ in range(n + 1)) + " |"
    lines = [header, rule]
    for i in range(1, n + 1):
        cells = " | ".join(map(text.__getitem__, table.values(i)))
        lines.append(f"| e{i} | {cells} |")
    return "\n".join(lines)


def table_to_csv(table: MulTable) -> str:
    """Plain n x n grid of signed integers (sign * index, 0 for zero)."""
    n = table.n
    text = {v: str(v) for v in range(-n, n + 1)}  # n**2 cells, 2n + 1 values
    return "\n".join(",".join(map(text.__getitem__, table.values(i))) for i in range(1, n + 1))


def table_to_json(table: MulTable) -> str:
    """``{"k": .., "n": .., "cells": [[..], ..]}``, as ``json.dumps`` writes it.

    Written one row at a time, so the n**2 integers never exist at once.
    """
    cells = ", ".join(json.dumps(table.values(i)) for i in range(1, table.n + 1))
    return f'{{"k": {table.k}, "n": {table.n}, "cells": [{cells}]}}'


def table_from_json(text: str) -> MulTable:
    """Inverse of ``table_to_json``; rejects any document that is not a table.

    The level must be in 1..MAX_LEVEL with n = 2**(k+1) - 1, every cell an
    integer (not a bool), cell (i, j) must be 0 on the diagonal and +-(i ^ j)
    off it, and the result must pass ``validate``.
    """
    doc = json.loads(text)
    try:
        k = doc["k"]
        n = doc["n"]
        raw = doc["cells"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"table document must carry k, n and cells: {exc}") from exc
    if type(k) is not int or type(n) is not int:
        raise ValueError("k and n must be integers")
    if not 1 <= k <= MAX_LEVEL:
        raise ValueError(f"level must be in 1..{MAX_LEVEL}, got {k}")
    if n != _index_bound(k):
        raise ValueError(f"n={n} does not match level k={k}")
    if not isinstance(raw, list) or len(raw) != n or any(
        not isinstance(row, list) or len(row) != n for row in raw
    ):
        raise ValueError(f"cells must form an {n} x {n} grid")
    rows = [array("b", bytes(n + 1))]
    for i, row in enumerate(raw, start=1):
        # Type first: json reads true as a bool, which compares equal to 1.
        if set(map(type, row)) != {int} or list(map(abs, row)) != [i ^ j for j in range(1, n + 1)]:
            j, value = next(
                (j, v) for j, v in enumerate(row, start=1) if type(v) is not int or abs(v) != i ^ j
            )
            expected = "0" if i == j else f"±{i ^ j}"
            raise ValueError(f"cell ({i},{j}) holds {value!r}, expected {expected}")
        rows.append(array("b", [0] + [(v > 0) - (v < 0) for v in row]))
    table = MulTable(k, n, tuple(rows))
    table.validate()
    return table


# --- the dimension >= 15 counterexample ------------------------------------

_U_WORDS = (frozenset({0, 1}), frozenset({1, 3}))
_V_WORDS = (frozenset({1, 2}), frozenset({0, 1, 2, 3}))


def counterexample_vectors(k: int) -> Tuple[Vector, Vector]:
    """The witness pair that breaks the Pythagorean identity for k >= 3.

    u is the sum of the basis words {u0 x u1, u1 x u3} and v the difference
    of {u1 x u2, ((u0 x u1) x u2) x u3}; with the index encoding that is
    u = e3 + e10 and v = e6 - e15, zero-padded into dimension 2**(k+1) - 1.
    Their table product vanishes while u and v are orthogonal with squared
    norm 2, so the identity reads 0 + 0 on one side and 4 on the other.
    """
    if not 3 <= k <= MAX_LEVEL:
        raise ValueError(f"counterexample needs level 3..{MAX_LEVEL}, got {k}")
    n = _index_bound(k)
    u_coords = [Fraction(0)] * n
    v_coords = [Fraction(0)] * n
    for gens in _U_WORDS:
        u_coords[BasisWord(gens).index - 1] = Fraction(1)
    pos, neg = _V_WORDS
    v_coords[BasisWord(pos).index - 1] = Fraction(1)
    v_coords[BasisWord(neg).index - 1] = Fraction(-1)
    return Vector(u_coords), Vector(v_coords)
