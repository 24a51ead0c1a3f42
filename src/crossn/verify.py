"""Axiom and identity verification with exact arithmetic and replayable witnesses.

A product under test is a named bilinear evaluator on R^n.  Each checker
feeds it deterministic inputs first (known falsifying pairs where one exists,
then every ordered pair of standard basis vectors), followed by seeded random
rational vectors, and reports either ``holds-on-all-samples`` or ``refuted``
with a concrete witness.  All decisions are exact: no tolerance ever enters a
verdict, and a refuted report's witness can be replayed from scratch to
reproduce the violation.

Every axiom is one registry entry ``(arity, cases, test)``: ``cases`` yields
the staged argument tuples and ``test`` turns one of them into a witness or
None.  One entry point, ``check``, runs the cases of any axiom, and ``replay``
reruns the same test on a witness's operands.

The random sampler draws coordinates with numerators in -9..9 and
denominators from {1, 2, 3}, so corpora are small, exact and reproducible
from the recorded seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

from . import symbolic
from .vecalg import EXACT, Scalar, Vector, dot, cross3, cross7, padded_cross, table_product
from .vecalg import _cleared

HOLDS = "holds-on-all-samples"
REFUTED = "refuted"

AXIOM_PERPENDICULAR = "perpendicular"
AXIOM_PYTHAGOREAN = "pythagorean"
AXIOM_BILINEAR = "bilinear"

DEFAULT_SEED = 1063
DEFAULT_SAMPLES = 200
# classify_dimensions runs more random pairs per level than one verify call.
CLASSIFY_SAMPLES = 1000

NUMERATOR_RANGE = (-9, 9)
DENOMINATORS = (1, 2, 3)
# Every value the sampler can draw, made once: (numerator, denominator) -> Fraction.
_RATIONALS = {
    (p, q): Fraction(p, q)
    for p in range(NUMERATOR_RANGE[0], NUMERATOR_RANGE[1] + 1) for q in DENOMINATORS
}

# Ordered basis pairs are exhausted before random sampling up to this
# dimension; beyond it the quadratic pair count stops being cheap.
BASIS_PAIR_LIMIT = 127
# Ordered basis triples grow cubically; exhaust them only for small n.
BASIS_TRIPLE_LIMIT = 15

Side = Union[Scalar, Vector]


@dataclass(frozen=True)
class ProductUnderTest:
    """A bilinear-product evaluator plus what the theory says of it.

    ``known`` is a pair on which the Pythagorean identity fails, if one is
    known.  ``kept`` names the axioms the product satisfies; it is None for a
    custom product, about which the theory makes no claim.
    """

    name: str
    dim: int
    evaluate: Callable[[Vector, Vector], Vector]
    known: Optional[Tuple[Vector, Vector]] = None
    kept: Optional[Tuple[str, ...]] = None


def _family(name, dim, evaluate, known=None, kept=None) -> ProductUnderTest:
    """A product family member; with no known witness it keeps every axiom."""
    return ProductUnderTest(name, dim, evaluate, known, kept if known else tuple(_AXIOMS))


def cross3_product() -> ProductUnderTest:
    return _family("cross3", 3, cross3)


def cross7_product() -> ProductUnderTest:
    return _family("cross7", 7, cross7)


def padded_product(n: int) -> ProductUnderTest:
    if type(n) is not int or n < 3:
        raise ValueError(f"padded product needs dim >= 3, got {n!r}")
    known = (Vector.unit(n, 4), Vector.unit(n, 1)) if n >= 4 else None
    # The R^3 triple product gives perpendicular, 1.1 and 1.2.
    kept = (AXIOM_PERPENDICULAR, "identity-1.1", "identity-1.2")
    return _family(f"padded-{n}", n, padded_cross, known, kept)


def product_for_table(table: symbolic.MulTable) -> ProductUnderTest:
    known = None
    if table.k >= 3:
        # u = e3 + e10 = u0 x u1 + u1 x u3 and v = e6 - e15 = u1 x u2 - ((u0 x u1) x u2) x u3,
        # zero-padded: their product vanishes while u and v are orthogonal with
        # squared norm 2, so the identity reads 0 + 0 on one side and 4 on the other.
        e = partial(Vector.unit, table.n)
        known = (e(3) + e(10), e(6) - e(15))
    # Cayley–Dickson adjointness ⟨xy, z⟩ = ⟨y, x̄z⟩ gives perpendicular and
    # 1.1, and antisymmetry gives 1.2 (Schafer 1966, ch. III).
    kept = (AXIOM_PERPENDICULAR, "identity-1.1", "identity-1.2")
    return _family(
        f"table-k{table.k}", table.n, lambda u, v: table_product(table, u, v), known, kept
    )


class Witness(NamedTuple):
    """Concrete inputs on which an axiom fails, plus the violating values."""

    u: Vector
    v: Vector
    w: Optional[Vector] = None
    lhs: Optional[Side] = None
    rhs: Optional[Side] = None


class AxiomReport(NamedTuple):
    product: str
    dim: int
    axiom: str
    verdict: str
    witness: Optional[Witness]
    samples_run: int
    rng_seed: int
    # The verdict the theory predicts (``expected_verdict``); not in the JSON.
    expected: Optional[str] = None

    @property
    def refuted(self) -> bool:
        return self.verdict == REFUTED

    @property
    def unexpected(self) -> bool:
        """True when the theory predicts a verdict and this one differs."""
        return self.expected not in (None, self.verdict)

    def to_json_dict(self) -> dict:
        return {
            "product": self.product,
            "dim": self.dim,
            "axiom": self.axiom,
            "verdict": self.verdict,
            "witness": _witness_json(self.witness),
            "samples": self.samples_run,
            "seed": self.rng_seed,
        }


def _side_json(x: Optional[Side]):
    if x is None:
        return None
    if isinstance(x, Vector):
        return [str(c) for c in x.coords]
    return str(x)


def _witness_json(w: Optional[Witness]):
    if w is None:
        return None
    return {k: _side_json(x) for k, x in w._asdict().items() if k != "w" or x is not None}


def random_rational(rng: random.Random) -> Fraction:
    lo, hi = NUMERATOR_RANGE
    return _RATIONALS[rng.randint(lo, hi), rng.choice(DENOMINATORS)]


def random_vector(rng: random.Random, n: int) -> Vector:
    return Vector._of(tuple(random_rational(rng) for _ in range(n)), EXACT)


def _memoised(product: ProductUnderTest) -> ProductUnderTest:
    """``product`` evaluating the product of two signed unit vectors at most once.

    Only up to BASIS_TRIPLE_LIMIT, where the basis stages reuse pairs.  The
    memo is keyed by the operands' cleared integers, so equal operands hit it
    whichever objects carry them, nested products such as ``p(w, p(v, u))``
    included.  A result is stored only when both operands are signed units
    (denominator 1 and one nonzero numerator, +-1).
    """
    if product.dim > BASIS_TRIPLE_LIMIT:
        return product
    evaluate = product.evaluate
    memo = {}

    def cached(u: Vector, v: Vector) -> Vector:
        key = _cleared(u), _cleared(v)
        out = memo.get(key)
        if out is None:
            out = evaluate(u, v)
            (xs, dx), (ys, dy) = key
            if dx == dy == 1 and sum(map(abs, xs)) == sum(map(abs, ys)) == 1:
                memo[key] = out
        return out

    return replace(product, evaluate=cached)


# --- case stages: each yields the argument tuples of one axiom's test ------


def _unit_cases(product, units, samples, rng, arity, distinct=False):
    """Every ``arity``-tuple of ``units``, then ``samples`` random tuples.

    Basis triples run only up to BASIS_TRIPLE_LIMIT.  With ``distinct`` both
    stages take distinct basis vectors only (the orthonormal identities,
    whose hypothesis is an orthogonal unit tuple); otherwise the random
    stage draws rational vectors.
    """
    n = product.dim
    basis = units if arity == 2 or n <= BASIS_TRIPLE_LIMIT else ()
    if distinct:
        yield from itertools.permutations(basis, arity)
    else:
        yield from itertools.product(basis, repeat=arity)
    for _ in range(samples):
        if distinct:
            yield tuple(Vector.unit(n, i) for i in rng.sample(range(1, n + 1), arity))
        else:
            yield tuple(random_vector(rng, n) for _ in range(arity))


def _pythagorean_cases(product, units, samples, rng, arity):
    """The known falsifying pair first, so refutations carry the canonical
    witness instead of a sampler artifact; then the pair stages."""
    if product.known:
        yield product.known
    yield from _unit_cases(product, units, samples, rng, arity)


_FIXED_SCALARS = (Fraction(2), Fraction(3), Fraction(5), Fraction(7))


def _bilinear_operands(p, coeffs, u, u2, v, v2):
    """(a u + b u2, c v + d v2) and the four-term expansion of their product."""
    a, b, c, d = coeffs
    expansion = (
        p(u, v).scaled(a * c)
        + p(u, v2).scaled(a * d)
        + p(u2, v).scaled(b * c)
        + p(u2, v2).scaled(b * d)
    )
    return u.scaled(a) + u2.scaled(b), v.scaled(c) + v2.scaled(d), expansion


def _bilinear_cases(product, units, samples, rng, arity):
    """Basis pairs (u, v) with the next basis vectors as (u2, v2) and fixed
    scalars, then random vectors and scalars, as combined operands plus
    expansion."""
    n = product.dim
    shifted = tuple(zip(units, units[1:] + units[:1]))
    for (u, u2), (v, v2) in itertools.product(shifted, repeat=2):
        yield _bilinear_operands(product.evaluate, _FIXED_SCALARS, u, u2, v, v2)
    for _ in range(samples):
        coeffs = tuple(random_rational(rng) for _ in range(4))
        vectors = [random_vector(rng, n) for _ in range(4)]
        yield _bilinear_operands(product.evaluate, coeffs, *vectors)


# --- tests: test(p, u, v, w) returns a Witness, or None if the case holds --
# ``w`` is as ``check_case`` takes it.


def _perpendicular(p, u, v, w=None):
    out = p(u, v)
    du, dv = dot(u, out), dot(v, out)
    return Witness(u, v, lhs=du, rhs=dv) if du != 0 or dv != 0 else None


def _sides(sides):
    """The test that refutes a case whose two ``sides(p, u, v, w)`` differ."""

    def test(p, u, v, w=None):
        lhs, rhs = sides(p, u, v, w)
        return None if lhs == rhs else Witness(u, v, w, lhs, rhs)

    return test


def _pythagorean_sides(p, u, v, w):
    out = p(u, v)
    return dot(out, out) + dot(u, v) ** 2, dot(u, u) * dot(v, v)


def _bilinear(p, u, v, expansion):
    lhs = p(u, v)
    return None if lhs == expansion else Witness(u, v, lhs=lhs, rhs=expansion)


# Each axiom is (arity, cases, test): ``cases(product, units, samples, rng,
# arity)`` yields tuples of ``arity`` operands for ``test``.  Bilinear takes
# its operands plus their expansion, and identities 1.1, 1.4 and 1.6 take
# triples; the orthonormal ones, 1.5 and 1.6, only distinct basis vectors.
_AXIOMS = {
    AXIOM_PERPENDICULAR: (2, _unit_cases, _perpendicular),
    AXIOM_PYTHAGOREAN: (2, _pythagorean_cases, _sides(_pythagorean_sides)),
    AXIOM_BILINEAR: (3, _bilinear_cases, _bilinear),
    "identity-1.1": (
        3, _unit_cases, _sides(lambda p, u, v, w: (dot(w, p(u, v)), -dot(u, p(w, v))))
    ),
    "identity-1.2": (2, _unit_cases, _sides(lambda p, u, v, w: (p(u, v), -p(v, u)))),
    "identity-1.3": (
        2,
        _unit_cases,
        _sides(lambda p, u, v, w: (p(v, p(v, u)), v.scaled(dot(v, u)) - u.scaled(dot(v, v)))),
    ),
    # w x (v x u) + (w x v) x u = 2(w.u)v - (w.v)u - (u.v)w; verified by
    # direct expansion in R^3 and exhaustively on both genuine products.
    "identity-1.4": (
        3,
        _unit_cases,
        _sides(
            lambda p, u, v, w: (
                p(w, p(v, u)),
                -p(p(w, v), u)
                - w.scaled(dot(u, v))
                - u.scaled(dot(w, v))
                + v.scaled(2 * dot(w, u)),
            )
        ),
    ),
    "identity-1.5": (
        2, partial(_unit_cases, distinct=True), _sides(lambda p, u, v, w: (p(u, p(u, v)), -v))
    ),
    "identity-1.6": (
        3,
        partial(_unit_cases, distinct=True),
        _sides(lambda p, u, v, w: (p(w, p(v, u)), -p(p(w, v), u))),
    ),
}

# The six product/dot identities, in order 1.1 .. 1.6.
IDENTITY_AXIOMS = tuple(a for a in _AXIOMS if a.startswith("identity-"))


def _axiom(axiom: str):
    """``axiom``'s registry entry; the one place an unknown name is rejected."""
    if axiom not in _AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}")
    return _AXIOMS[axiom]


def check(
    product: ProductUnderTest,
    axiom: str,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> AxiomReport:
    """Run ``axiom``'s cases through ``product`` up to the first witness.

    The report carries the verdict ``expected_verdict`` predicts.
    """
    arity, cases, test = _axiom(axiom)
    if type(samples) is not int or type(seed) is not int:
        raise ValueError(f"samples and seed must be ints, got {samples!r} and {seed!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = product.dim
    # The exhaustive basis stages run only up to BASIS_PAIR_LIMIT.
    units = tuple(Vector.unit(n, i) for i in range(1, n + 1)) if n <= BASIS_PAIR_LIMIT else ()
    memoised = _memoised(product)
    count, witness = 0, None
    for args in cases(memoised, units, samples, random.Random(seed), arity):
        count += 1
        witness = test(memoised.evaluate, *args)
        if witness is not None:
            break
    return AxiomReport(
        product=product.name,
        dim=product.dim,
        axiom=axiom,
        verdict=REFUTED if witness is not None else HOLDS,
        witness=witness,
        samples_run=count,
        rng_seed=seed,
        expected=expected_verdict(product, axiom),
    )


def check_case(
    product: ProductUnderTest, axiom: str, u: Vector, v: Vector, w=None
) -> Optional[Witness]:
    """One case of ``axiom`` on ``product``: its witness, or None if it holds.

    ``w`` is the third vector of the triple identities and the expected
    four-term expansion for bilinear; the other axioms ignore it.
    """
    arity, _, test = _axiom(axiom)
    if arity == 3 and w is None:
        raise ValueError(f"axiom {axiom!r} needs a third operand w")
    return test(product.evaluate, u, v, w)


# The four group checkers are single calls of ``check``.  The benchmark's
# tracing (bench/run.py) wraps them by name to time each group, so
# ``cli.cmd_verify`` calls them, not ``check``.


def check_perpendicular(
    product: ProductUnderTest,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> AxiomReport:
    """u.(u x v) == 0 == v.(u x v), over basis pairs then random pairs."""
    return check(product, AXIOM_PERPENDICULAR, samples, seed)


def check_pythagorean(
    product: ProductUnderTest,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> AxiomReport:
    """(u x v).(u x v) + (u.v)^2 == (u.u)(v.v)."""
    return check(product, AXIOM_PYTHAGOREAN, samples, seed)


def check_bilinear(
    product: ProductUnderTest,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> AxiomReport:
    """Four-term expansion (a u + b u2) x (c v + d v2) == sum of products.

    A refutation stores the already-combined operands as the witness pair,
    so replaying means evaluating the product on them and comparing with
    the recorded expansion value.
    """
    return check(product, AXIOM_BILINEAR, samples, seed)


def check_identities(
    product: ProductUnderTest,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> List[AxiomReport]:
    """One report per identity, in order 1.1 .. 1.6."""
    return [check(product, a, samples, seed) for a in IDENTITY_AXIOMS]


def classify_dimensions(
    max_k: int,
    samples: int = CLASSIFY_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> List[AxiomReport]:
    """Pythagorean report for every table level up to max_k; level k is
    position k, counting from 1.

    The known counterexample pair is injected for k >= 3, so the refutations
    never depend on sampler luck; the surviving levels are exactly k = 1 and
    k = 2 (dimensions 3 and 7).
    """
    symbolic._check_level(max_k, 1)
    return [
        check(product_for_table(symbolic.build_table(k)), AXIOM_PYTHAGOREAN, samples, seed)
        for k in range(1, max_k + 1)
    ]


def replay(report: AxiomReport, product: ProductUnderTest) -> bool:
    """Rerun the axiom's test on a refuted report's witness operands.

    Returns True when the test yields exactly the recorded witness, which
    then still violates the axiom.  Raises on reports that carry no witness.
    """
    w = report.witness
    if w is None:
        raise ValueError("only refuted reports carry a witness to replay")
    third = w.rhs if report.axiom == AXIOM_BILINEAR else w.w
    return check_case(product, report.axiom, w.u, w.v, third) == w


def expected_verdict(product: ProductUnderTest, axiom: str) -> Optional[str]:
    """The verdict the theory predicts, or None where it makes no claim.

    Every product here is bilinear, and each keeps the axioms in ``kept``.
    A family product that does not keep the Pythagorean identity has a known
    witness against it.  The other axioms it does not keep get no
    expectation: the sampled stages can miss their witnesses (for 1.5 on
    tables from level 3 they do), and an expected refutation would then
    flip the exit code.  An unknown axiom name raises ``ValueError``.
    """
    _axiom(axiom)
    if axiom == AXIOM_BILINEAR or axiom in (product.kept or ()):
        return HOLDS
    if axiom == AXIOM_PYTHAGOREAN and product.kept is not None:
        return REFUTED
    return None
