"""Reference results for the benchmark, computed without any code from ``src/``.

The level-k basis table of crossn is the imaginary part of the
2**(k+1)-dimensional Cayley–Dickson algebra: off the diagonal,
``e_i x e_j = s(i, j) e_(i ^ j)``, where ``s`` is the sign of the algebra's
basis product under the doubling rule

    (a, b)(c, d) = (ac − d̄b, da + bc̄)

and the diagonal is zero (the cross product drops the real part ``-1``).
Level 1 is the quaternions (dimension 3), level 2 the octonions
(dimension 7) and level 3 the sedenions (dimension 15).

Products are accumulated over cleared integer denominators, so one
``Fraction`` is made per output coordinate.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import List, Sequence


@lru_cache(maxsize=None)
def signs(k: int) -> List[List[int]]:
    """Sign matrix ``s[i][j]`` of the 2**(k+1)-dimensional algebra.

    Doubling an algebra with signs ``S`` (size m) gives, for p, q < m and
    ``c(q) = 1 if q == 0 else -1`` (the conjugation sign of e_q):

        T[p][q]         =  S[p][q]
        T[p][m + q]     =  S[q][p]
        T[m + p][q]     =  c(q) S[p][q]
        T[m + p][m + q] = -c(q) S[q][p]
    """
    s = [[1]]
    for _ in range(k + 1):
        m = len(s)
        conj = [1] + [-1] * (m - 1)
        cols = [list(c) for c in zip(*s)]
        top = [s[p] + cols[p] for p in range(m)]
        bottom = [
            [conj[q] * s[p][q] for q in range(m)]
            + [-conj[q] * cols[p][q] for q in range(m)]
            for p in range(m)
        ]
        s = top + bottom
    return s


@lru_cache(maxsize=None)
def cell_values(k: int) -> List[List[int]]:
    """The level-k table as signed integers ``sign * index``, 0 on the diagonal.

    Row and column ``i - 1`` hold basis element ``e_i``, as in the CSV and
    JSON forms of a table.  Cached; callers must not modify it.
    """
    s = signs(k)
    n = len(s) - 1
    return [
        [0 if i == j else s[i][j] * (i ^ j) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


@lru_cache(maxsize=None)
def table_csv(k: int) -> str:
    return "\n".join(",".join(map(str, row)) for row in cell_values(k))


@lru_cache(maxsize=None)
def table_json(k: int) -> str:
    values = cell_values(k)
    return json.dumps({"k": k, "n": len(values), "cells": values})


def _cell_str(value: int) -> str:
    if value == 0:
        return "0"
    return f"{'−' if value < 0 else ''}e{abs(value)}"


@lru_cache(maxsize=None)
def table_markdown(k: int) -> str:
    values = cell_values(k)
    n = len(values)
    lines = [
        "| × | " + " | ".join(f"e{j}" for j in range(1, n + 1)) + " |",
        "| " + " | ".join("---" for _ in range(n + 1)) + " |",
    ]
    for i, row in enumerate(values, start=1):
        lines.append(f"| e{i} | " + " | ".join(map(_cell_str, row)) + " |")
    return "\n".join(lines)


def _clear(coords: Sequence[Fraction]):
    den = lcm(*(c.denominator for c in coords))
    return den, [c.numerator * (den // c.denominator) for c in coords]


def product(k: int, u: Sequence[Fraction], v: Sequence[Fraction]) -> List[Fraction]:
    """Exact bilinear product of two level-k vectors (coordinates e1..en)."""
    s = signs(k)
    n = len(s) - 1
    if len(u) != n or len(v) != n:
        raise ValueError(f"level {k} multiplies {n}-vectors, got {len(u)} and {len(v)}")
    du, nu = _clear(u)
    dv, nv = _clear(v)
    right = [(j, b) for j, b in enumerate(nv, start=1) if b]
    acc = [0] * (n + 1)
    for i, a in enumerate(nu, start=1):
        if not a:
            continue
        row = s[i]
        for j, b in right:
            if i != j:
                acc[i ^ j] += row[j] * a * b
    den = du * dv
    return [Fraction(c, den) for c in acc[1:]]


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))
