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
The serialisers render rows from per-index texts: cell (i, j) picks the text
of index i ^ j for its sign, along rows of texts permuted by ``_xor_rows``.
``table_from_json`` checks row i as one packed integer of 16-bit fields, with
|v| XOR column == i in every field.

``normalize_product_traced`` runs the same loop with a step recorder: each
rule use becomes a step, the rule and the whole expression it rewrites to, so
the reduction chain, e.g.

    (u0 x u2) x (u1 x u2)  ->  -((u0 x u1))  =  -e3

can be replayed as a derivation.  Replay evaluates no product and runs no
normalizer: each step must rewrite one subterm of the expression before it by
an instance of the rule it cites.  The tests check the rules themselves
against an independent Cayley-Dickson sign function.  The module imports no
other ``crossn`` module.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import chain, islice
from operator import getitem
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

# Tables are O(n^2) cells with n = 2**(k+1) - 1; level 10 means n = 2047.
MAX_LEVEL = 10

# Negates the bytes of a sign row: 1 and -1 (0xff) swap, 0 stays.
_NEG = bytes.maketrans(b"\x01\xff", b"\xff\x01")

# Turns the high bytes of int16 cells into signs: 0x80 and above -> -1 (0xff).
_HIGH_SIGN = bytes([1] * 128 + [0xFF] * 128)

# Rewrite rule names, as cited by trace steps.
RULE_ANTISYMMETRY = "antisymmetry"
RULE_CANCELLATION = "cancellation"
RULE_SHIFT = "shift"
RULE_PAIR_COLLAPSE = "pair-collapse"

# A product tree over generators: either a generator number or a pair of
# subtrees.  Canonical basis words are the left-nested trees whose right
# child is always the largest generator.
Tree = Union[int, Tuple["Tree", "Tree"]]

# A whole expression under rewriting: (sign, tree), with (0, None) for zero.
Expr = Tuple[int, Optional[Tree]]

ZERO_EXPR: Expr = (0, None)


def _index_bound(k: int) -> int:
    return (1 << (k + 1)) - 1


def _check_level(k: int, low: int) -> None:
    """Reject a level outside low..MAX_LEVEL or not an int; a bool is not one."""
    if type(k) is not int or not low <= k <= MAX_LEVEL:
        raise ValueError(f"level must be in {low}..{MAX_LEVEL}, got {k!r}")


@lru_cache(maxsize=2 << MAX_LEVEL)  # every index up to the largest level
def _word_tree(index: int) -> Tree:
    """The canonical word of generator set ``index`` (>= 1), read from its bits."""
    gens = [b for b in range(index.bit_length()) if index >> b & 1]
    node: Tree = gens[0]
    for b in gens[1:]:
        node = (node, b)
    return node


def build_basis(k: int) -> List[Tree]:
    """All level-k basis words, as canonical trees, in construction order.

    The order mirrors the recursion: level k-1 first, then u_k, then the
    level k-1 words each multiplied by u_k.  This coincides with increasing
    index order, so word m is ``_word_tree(m)``; ``tree_str`` renders it.
    """
    _check_level(k, 0)
    return [_word_tree(m) for m in range(1, _index_bound(k) + 1)]


class SignedBasis(NamedTuple("SignedBasis", [("sign", int), ("index", int)])):
    """Either zero or a signed basis element: sign * e_index.

    The zero cell is encoded as sign == 0, index == 0 (it carries no basis
    information).  As a named tuple it also equals the plain tuple of its
    fields: ``SignedBasis(1, 3) == (1, 3)``.
    """

    __slots__ = ()

    def __new__(cls, sign: int, index: int):
        if type(sign) is not int or sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {sign!r}")
        if (sign == 0) != (index == 0):
            raise ValueError(f"zero has no index: sign={sign}, index={index}")
        if type(index) is not int or index < 0:
            raise ValueError(f"index must be a non-negative int, got {index!r}")
        return tuple.__new__(cls, (sign, index))

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return f"{'−' if self.sign < 0 else ''}e{self.index}"


def _check_level_and_indices(i: int, j: int, k: int) -> None:
    _check_level(k, 0)
    bound = _index_bound(k)
    for name, idx in (("i", i), ("j", j)):
        if type(idx) is not int or not 1 <= idx <= bound:
            raise ValueError(f"index {name}={idx} out of range 1..{bound} for level {k}")


def _norm_indices(i: int, j: int, emit=None) -> Tuple[int, int]:
    """Reduce e_i x e_j to (sign, index), (0, 0) meaning zero.

    Recursion on the largest generator present in either word; each case is
    one of the rewrite rules, oriented by antisymmetry.  The recursion runs
    as a loop: ``sign`` and ``high`` carry what each case applies to the rest.
    With ``emit``, each rule use is also reported as ``emit(rule, sign, tree,
    high)``: sign * tree inside the generators of ``high``, lowest first.
    """
    sign, high = 1, 0
    while i != j:
        bit = 1 << ((i | j).bit_length() - 1)
        a, b = i & ~bit, j & ~bit
        if i & bit and j & bit:
            if b == 0:  # (y * u_t) * u_t = -(u_t * (y * u_t))
                if emit:
                    emit(RULE_ANTISYMMETRY, -sign, (_word_tree(j), _word_tree(i)), high)
                sign, a, b = -sign, 0, a
            if a == 0:  # u_t * (y * u_t) = -(u_t * (u_t * y)) = y
                if emit:
                    t, y = _word_tree(bit), _word_tree(b)
                    emit(RULE_ANTISYMMETRY, -sign, (t, (t, y)), high)
                    emit(RULE_CANCELLATION, sign, y, high)
                return (sign, b | high)
            if emit:
                emit(RULE_PAIR_COLLAPSE, -sign, (_word_tree(a), _word_tree(b)), high)
            sign, i, j = -sign, a, b  # pair-collapse, then recurse below t
        elif i & bit:
            if emit:  # orient: e_i * e_j = -(e_j * e_i)
                emit(RULE_ANTISYMMETRY, -sign, (_word_tree(j), _word_tree(i)), high)
            if a == 0:  # u_t * y = -(y * u_t)
                return (-sign, j | bit | high)
            if j == a:  # (y * u_t) * y = -(y * (y * u_t)) = u_t
                if emit:
                    emit(RULE_CANCELLATION, sign, _word_tree(bit), high)
                return (sign, bit | high)
            if emit:
                emit(RULE_SHIFT, sign, ((_word_tree(j), _word_tree(a)), _word_tree(bit)), high)
            i, j, high = j, a, high | bit  # orient, then shift
        else:
            if b == 0:  # y * u_t is already a basis word
                return (sign, i | bit | high)
            if i == b:  # y * (y * u_t) = -u_t
                if emit:
                    emit(RULE_CANCELLATION, -sign, _word_tree(bit), high)
                return (-sign, bit | high)
            if emit:
                emit(RULE_SHIFT, -sign, ((_word_tree(i), _word_tree(b)), _word_tree(bit)), high)
            sign, j, high = -sign, b, high | bit  # shift
    if emit:
        emit(RULE_ANTISYMMETRY, 0, None, 0)
    return (0, 0)


def normalize_product(i: int, j: int, k: int) -> SignedBasis:
    """Product of basis elements e_i and e_j at level k, as a signed basis."""
    _check_level_and_indices(i, j, k)
    return SignedBasis(*_norm_indices(i, j))


# --- traced rewriting ------------------------------------------------------


def tree_str(tree: Tree) -> str:
    out, stack = [], [tree]  # an explicit stack, so a tree of any depth renders
    while stack:
        node = stack.pop()
        if isinstance(node, (int, str)):
            out.append(node if isinstance(node, str) else f"u{node}")
        else:
            left, right = node
            for part in (right, " × ", left):  # pushed last to first
                stack += [")", part, "("] if isinstance(part, tuple) else [part]
    return "".join(out)


def expr_str(expr: Expr) -> str:
    sign, tree = expr
    if sign == 0:
        return "0"
    body = tree_str(tree)
    if sign < 0 and not isinstance(tree, int):
        return f"−({body})"
    return ("−" if sign < 0 else "") + body


class RewriteStep(NamedTuple):
    rule: str
    after: Expr


class RewriteTrace(NamedTuple):
    """Full reduction chain from a product of two basis words to normal form:
    ``initial``, then each step's rule and the expression it rewrites to."""

    initial: Expr
    steps: Tuple[RewriteStep, ...]
    result: SignedBasis

    @property
    def final(self) -> Expr:
        return self.steps[-1].after if self.steps else self.initial

    def replay(self) -> bool:
        """Check the trace as a derivation from the four rewrite rules: from
        ``(1, x × y)``, x and y canonical words, each step rewrites the
        expression reached so far by one instance of the rule it cites, to
        the canonical word of ``result`` or zero.  No product is evaluated,
        and a malformed expression gives False, not an error."""
        sign, tree = self.initial if _is_expr(self.initial) else ZERO_EXPR
        if sign != 1 or type(tree) is not tuple or None in map(_word_index, tree):
            return False
        for step in self.steps:
            if not (_is_expr(step.after) and _rewrites(step.rule, (sign, tree), step.after)):
                return False
            sign, tree = step.after
        if sign == 0:
            return self.result.is_zero
        return (sign, _word_index(tree)) == (self.result.sign, self.result.index)

    def __str__(self) -> str:
        lines = [expr_str(self.initial)]
        lines += [f"  =  {expr_str(s.after)}   [{s.rule}]" for s in self.steps]
        return "\n".join(lines)


def _is_expr(expr) -> bool:
    """Whether ``expr`` is ``(0, None)``, or a sign of +-1 and a tree of pairs
    whose leaves are non-negative ints (bools are not)."""
    if type(expr) is not tuple or len(expr) != 2 or type(expr[0]) is not int:
        return False
    nodes = [expr[1]]
    for node in nodes:  # breadth first: the loop reaches what it appends
        if type(node) is tuple and len(node) == 2:
            nodes += node
        elif type(node) is not int or node < 0:
            return expr == ZERO_EXPR  # the one expression without a tree
    return expr[0] in (-1, 1)


def _word_index(tree: Tree) -> Optional[int]:
    """The index of a canonical word, or None for a tree that is not one: down
    the left spine, each right leaf is below every generator taken so far."""
    index = 0
    while isinstance(tree, tuple):
        tree, top = tree
        if not isinstance(top, int) or index & ((2 << top) - 1):
            return None
        index |= 1 << top
    return None if index & ((2 << tree) - 1) else index | 1 << tree


def _rewrites(rule: str, before: Expr, after: Expr) -> bool:
    """Whether ``after`` is ``before`` with one instance of ``rule``, as the
    module docstring states the rules, applied at the subterm reached by
    walking down while one child is equal: x and y distinct canonical words,
    u_t above both, x × x -> 0 only for a whole product, and any other step
    negating the sign, every context being bilinear."""
    (sign, old), (new_sign, new) = before, after
    if type(old) is not tuple:
        return False
    if new_sign == 0:
        return rule == RULE_ANTISYMMETRY and old[0] == old[1] and _word_index(old[0]) is not None
    if new_sign != -sign:
        return False
    while type(new) is tuple and type(old) is tuple:
        if old[0] == new[0]:
            old, new = old[1], new[1]
        elif old[1] == new[1]:
            old, new = old[0], new[0]
        else:
            break
    if type(old) is not tuple:
        return False
    x, right = old
    if rule == RULE_ANTISYMMETRY:  # x × y -> y × x
        return new == (right, x) and _distinct_words(x, right)
    if type(right) is not tuple:
        return False
    if rule == RULE_CANCELLATION:  # x × (x × y) -> y
        return right[0] == x and new == right[1] and _distinct_words(x, new)
    if rule == RULE_SHIFT:  # x × (y × u_t) -> (x × y) × u_t
        return new == ((x, right[0]), right[1]) and _distinct_words(x, *right)
    if rule == RULE_PAIR_COLLAPSE and type(x) is tuple:  # (x × u_t) × (y × u_t) -> x × y
        return x[1] == right[1] and new == (x[0], right[0]) and _distinct_words(x[0], *right)
    return False


def _distinct_words(x: Tree, y: Tree, t: Optional[Tree] = None) -> bool:
    """Whether x and y are distinct canonical words, both below u_t if t is given."""
    ix, iy = _word_index(x), _word_index(y)
    return None not in (ix, iy) and ix != iy and (t is None or type(t) is int and ix | iy < 1 << t)


def normalize_product_traced(i: int, j: int, k: int) -> Tuple[SignedBasis, RewriteTrace]:
    """Like ``normalize_product`` but with the full rewrite chain, recorded by
    ``_norm_indices`` itself, each step's subterm wrapped in its ``high``."""
    _check_level_and_indices(i, j, k)
    steps: List[RewriteStep] = []

    def emit(rule: str, sign: int, tree: Tree, high: int) -> None:
        while high:
            low = high & -high
            tree, high = (tree, low.bit_length() - 1), high ^ low
        steps.append(RewriteStep(rule, (sign, tree)))

    result = SignedBasis(*_norm_indices(i, j, emit))
    return result, RewriteTrace((1, (_word_tree(i), _word_tree(j))), tuple(steps), result)


# --- multiplication tables -------------------------------------------------


class MulTable(NamedTuple):
    """The n x n table of signed basis cells defining a bilinear product.

    A table is its level k and its sign rows; n = 2**(k+1) - 1 follows from k.
    ``signs[i][j]`` is the sign s in {-1, 0, 1} of e_i x e_j = s e_(i ^ j)
    for 1 <= i, j <= n.  Row 0 and column 0 name no basis element and stay
    zero, so that rows and columns are indexed by i and j themselves.  As a
    named tuple a table also equals the plain tuple ``(k, signs)``.
    """

    k: int
    signs: Tuple[array, ...]

    @property
    def n(self) -> int:
        return _index_bound(self.k)

    def entry(self, i: int, j: int) -> SignedBasis:
        """Cell for e_i x e_j (1-indexed)."""
        n = self.n
        if type(i) is not int or type(j) is not int or not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"cell ({i},{j}) out of range 1..{n}")
        s = self.signs[i][j]
        return SignedBasis(s, i ^ j) if s else SignedBasis(0, 0)

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
        every index from the rewrite rules.  Rows are checked as bytes: unit
        cells are the 1 and 0xff (-1) bytes, and column i, ``flat[i::n+1]``,
        must equal row i translated by ``_NEG``; a failure walks the row.
        The level is checked first, as ``build_table`` checks it.
        """
        _check_level(self.k, 1)
        n = self.n
        rows = self.signs
        if len(rows) != n + 1 or any(len(row) != n + 1 for row in rows):
            raise ValueError(f"sign rows must form an {n + 1} x {n + 1} grid")
        if any(not isinstance(row, array) or row.typecode != "b" for row in rows):
            raise ValueError('sign rows must be array("b") rows')
        if any(rows[0]) or any(row[0] for row in rows):
            raise ValueError("row 0 and column 0 name no basis element and must be zero")
        flat = b"".join(rows)
        for i, row in enumerate(rows[1:], start=1):
            if row[i]:
                raise ValueError(f"diagonal cell ({i},{i}) must be zero")
            cells = row.tobytes()
            if cells.count(1) + cells.count(0xFF) != n - 1:
                j = next(j for j, s in enumerate(row) if j not in (0, i) and s not in (1, -1))
                if row[j] == 0:
                    raise ValueError(f"off-diagonal cell ({i},{j}) must be nonzero")
                raise ValueError(f"cell ({i},{j}) has sign {row[j]}, expected -1 or 1")
            column, negated = flat[i :: n + 1], cells.translate(_NEG)
            if column != negated:
                j = next(j for j in range(n + 1) if column[j] != negated[j])
                raise ValueError(f"cells ({i},{j}) and ({j},{i}) are not opposite")


def _double(rows: List[array]) -> List[array]:
    """The sign rows of level t from those of level t - 1.

    ``rows`` covers the indices 0 .. m-1 (m = 2**t); the result covers
    0 .. 2m-1, where index m | a is the word a x u_t (u_t itself for a == 0).
    Every cell takes its case of ``_norm_indices`` for top generator t and
    reads any recursive sub-sign from ``rows``: a row translated by ``_NEG``
    for -s(a, b), the slice ``flat[a::m]`` of the joined rows for s(j, a).
    """
    m = len(rows)
    flat = b"".join(rows)  # flat[a::m][j] = s(j, a)
    out = [array("b", bytes(2 * m))]
    for i in range(1, m):
        # e_i x e_j with j < m is the cell one level down.  e_i x (b x u_t):
        # shift gives -s(i, b), except that i x u_t is already a word and
        # i x (i x u_t) cancels to -u_t.
        right = array("b", rows[i].tobytes().translate(_NEG))
        right[0], right[i] = 1, -1
        out.append(rows[i] + right)
    # u_t x y = -(y x u_t) by antisymmetry; u_t x (y x u_t) = y.
    out.append(array("b", [0] + [-1] * (m - 1) + [0] + [1] * (m - 1)))
    for a in range(1, m):
        # (a x u_t) x e_j with j < m: orient, then shift, giving s(j, a),
        # except that (a x u_t) x a cancels to u_t.  (a x u_t) x (b x u_t):
        # pair-collapse gives -s(a, b), except that (a x u_t) x u_t = -a.
        left = array("b", flat[a::m])
        left[a] = 1
        right = array("b", rows[a].tobytes().translate(_NEG))
        right[0] = -1
        out.append(left + right)
    return out


def build_table(k: int) -> MulTable:
    """Multiplication table for the level-k basis (n = 2**(k+1) - 1)."""
    _check_level(k, 1)
    rows = [array("b", [0])]  # below level 0 there is only index 0
    for _ in range(k + 1):
        rows = _double(rows)
    table = MulTable(k, tuple(rows))
    table.validate()
    return table


def _xor_rows(items: Sequence) -> Iterator[list]:
    """Yield row i = ``[items[i ^ j] for j in range(N)]`` for i = 1 .. N-1.

    N = len(items) is a power of two.  With i = hi * w + lo, block b of row
    i is block hi ^ b of row lo, so the rows of the w low parts are cut into
    blocks of width w once and every row is chained together from them.
    """
    n = len(items)
    w = 1 << (n.bit_length() // 2)
    low = ([items[lo ^ j] for j in range(n)] for lo in range(w))
    blocks = [[row[b : b + w] for b in range(0, n, w)] for row in low]
    orders = [[hi ^ b for b in range(n // w)] for hi in range(n // w)]
    for i in range(1, n):
        yield list(chain.from_iterable(map(blocks[i % w].__getitem__, orders[i // w])))


def _text_rows(table: MulTable, pos: str, neg: str) -> Iterator[Iterator[str]]:
    """The cell texts of each row, columns 1..n: cell (i, j) picks by its sign
    from ``("0", pos.format(m), neg.format(m))``, the triple of m = i ^ j."""
    texts = [("0",) * 3] + [("0", pos.format(m), neg.format(m)) for m in range(1, table.n + 1)]
    rows = zip(_xor_rows(texts), table.signs[1:])
    return (islice(map(getitem, row, signs), 1, None) for row, signs in rows)


def table_to_markdown(table: MulTable) -> str:
    """Markdown rendering with rows and columns labelled e1..en."""
    n = table.n
    header = "| × | " + " | ".join(f"e{j}" for j in range(1, n + 1)) + " |"
    rule = "| " + " | ".join("---" for _ in range(n + 1)) + " |"
    lines = [header, rule]
    for i, cells in enumerate(_text_rows(table, "e{}", "−e{}"), start=1):
        lines.append(f"| e{i} | {' | '.join(cells)} |")
    return "\n".join(lines)


def table_to_csv(table: MulTable) -> str:
    """Plain n x n grid of signed integers (sign * index, 0 for zero)."""
    return "\n".join(map(",".join, _text_rows(table, "{}", "-{}")))


def table_to_json(table: MulTable) -> str:
    """``{"k": .., "n": .., "cells": [[..], ..]}``, as ``json.dumps`` writes it.

    Rows are rendered from per-index texts, as in CSV; no cell integer is made.
    """
    rows = ", ".join("[" + ", ".join(cells) + "]" for cells in _text_rows(table, "{}", "-{}"))
    return f'{{"k": {table.k}, "n": {table.n}, "cells": [{rows}]}}'


def table_from_json(text: str) -> MulTable:
    """Inverse of ``table_to_json``; rejects any document that is not a table.

    The level must be in 1..MAX_LEVEL with n = 2**(k+1) - 1, every cell an
    integer (not a bool), cell (i, j) must be 0 on the diagonal and +-(i ^ j)
    off it, and the result must pass ``validate``.  Row i is checked as one
    packed integer of n 16-bit fields, with |v| XOR column == i in every field.
    """
    import json  # only here, so that a cold `table` command does not load it

    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise ValueError("table document is nested too deeply") from exc
    try:
        k = doc["k"]
        n = doc["n"]
        raw = doc["cells"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"table document must carry k, n and cells: {exc}") from exc
    if type(k) is not int or type(n) is not int:
        raise ValueError("k and n must be integers")
    _check_level(k, 1)
    if n != _index_bound(k):
        raise ValueError(f"n={n} does not match level k={k}")
    if not isinstance(raw, list) or len(raw) != n or any(
        not isinstance(row, list) or len(row) != n for row in raw
    ):
        raise ValueError(f"cells must form an {n} x {n} grid")
    # Each row, the ones and the columns are packed in the machine's byte order.
    ones = int.from_bytes(array("h", [1]) * n, sys.byteorder)  # 1 in each field
    columns = int.from_bytes(array("h", range(1, n + 1)), sys.byteorder)
    high = int(sys.byteorder == "little")  # the offset of each cell's high byte
    rows = [array("b", bytes(n + 1))]
    for i, row in enumerate(raw, start=1):
        try:
            cells = array("h", row)
        except (TypeError, OverflowError):  # a float, str, None, list or dict; an int past int16
            ok = False
        else:
            x = int.from_bytes(cells, sys.byteorder)
            neg = (x & ones << 15) >> 15  # 1 in each negative field
            ok = ((x ^ neg * 0xFFFF) + neg) ^ columns == i * ones  # |v| < 2**16: no carry
        # array("h") takes json's true and false as 1 and 0; a bool passes the
        # field test only at (i, i) and (i, i ^ 1), so those two are type-checked.
        if not ok or type(row[i - 1]) is not int or i > 1 and type(row[(i ^ 1) - 1]) is not int:
            j, value = next(
                (j, v) for j, v in enumerate(row, start=1) if type(v) is not int or abs(v) != i ^ j
            )
            expected = "0" if i == j else f"±{i ^ j}"
            raise ValueError(f"cell ({i},{j}) holds {value!r}, expected {expected}")
        rows.append(array("b", b"\x00" + cells.tobytes()[high::2].translate(_HIGH_SIGN)))
        rows[i][i] = 0  # the diagonal cell 0 reads as positive
    table = MulTable(k, tuple(rows))
    table.validate()
    return table
