"""Axiom and identity verification with exact arithmetic and replayable witnesses.

A product under test is a named bilinear evaluator on R^n.  Each checker
feeds it deterministic inputs first (known falsifying pairs where one exists,
then every ordered pair of standard basis vectors), followed by seeded random
rational vectors, and reports either ``holds-on-all-samples`` or ``refuted``
with a concrete witness.  All decisions are exact: no tolerance ever enters a
verdict, and a refuted report's witness can be replayed from scratch to
reproduce the violation.

The random sampler draws coordinates with numerators in -9..9 and
denominators from {1, 2, 3}, so corpora are small, exact and reproducible
from the recorded seed.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Union

from . import symbolic
from .vecalg import Scalar, Vector, dot, cross3, cross7, padded_cross, table_product

HOLDS = "holds-on-all-samples"
REFUTED = "refuted"

AXIOM_PERPENDICULAR = "perpendicular"
AXIOM_PYTHAGOREAN = "pythagorean"
AXIOM_BILINEAR = "bilinear"
AXIOM_CLOSURE = "closure"
IDENTITY_AXIOMS = (
    "identity-1.1",
    "identity-1.2",
    "identity-1.3",
    "identity-1.4",
    "identity-1.5",
    "identity-1.6",
)

DEFAULT_SEED = 1063
DEFAULT_SAMPLES = 200
# classify_dimensions runs more random pairs per level than one verify call.
CLASSIFY_SAMPLES = 1000

NUMERATOR_RANGE = (-9, 9)
DENOMINATORS = (1, 2, 3)

# Ordered basis pairs are exhausted before random sampling up to this
# dimension; beyond it the quadratic pair count stops being cheap.
BASIS_PAIR_LIMIT = 127
# Ordered basis triples grow cubically; exhaust them only for small n.
BASIS_TRIPLE_LIMIT = 15

Side = Union[Scalar, Vector]


@dataclass(frozen=True)
class ProductUnderTest:
    """A bilinear-product evaluator plus the metadata the checkers need."""

    name: str
    dim: int
    kind: str  # "cross3" | "cross7" | "table" | "padded" | "custom"
    evaluate: Callable[[Vector, Vector], Vector]
    level: Optional[int] = None  # table level when kind == "table"


def cross3_product() -> ProductUnderTest:
    return ProductUnderTest("cross3", 3, "cross3", cross3)


def cross7_product() -> ProductUnderTest:
    return ProductUnderTest("cross7", 7, "cross7", cross7)


def padded_product(n: int) -> ProductUnderTest:
    if n < 3:
        raise ValueError(f"padded product needs dim >= 3, got {n}")
    return ProductUnderTest(f"padded-{n}", n, "padded", padded_cross)


def product_for_table(table: symbolic.MulTable) -> ProductUnderTest:
    return ProductUnderTest(
        name=f"table-k{table.k}",
        dim=table.n,
        kind="table",
        evaluate=lambda u, v: table_product(table, u, v),
        level=table.k,
    )


@dataclass(frozen=True)
class Witness:
    """Concrete inputs on which an axiom fails, plus the violating values."""

    u: Vector
    v: Vector
    w: Optional[Vector] = None
    lhs: Optional[Side] = None
    rhs: Optional[Side] = None


@dataclass(frozen=True)
class AxiomReport:
    product: str
    dim: int
    axiom: str
    verdict: str
    witness: Optional[Witness]
    samples_run: int
    rng_seed: int

    @property
    def refuted(self) -> bool:
        return self.verdict == REFUTED

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
    doc = {"u": _side_json(w.u), "v": _side_json(w.v)}
    if w.w is not None:
        doc["w"] = _side_json(w.w)
    doc["lhs"] = _side_json(w.lhs)
    doc["rhs"] = _side_json(w.rhs)
    return doc


def random_rational(rng: random.Random) -> Fraction:
    lo, hi = NUMERATOR_RANGE
    return Fraction(rng.randint(lo, hi), rng.choice(DENOMINATORS))


def random_vector(rng: random.Random, n: int) -> Vector:
    return Vector([random_rational(rng) for _ in range(n)])


def _units(n: int) -> tuple:
    """e_1..e_n for the exhaustive basis stages; empty above BASIS_PAIR_LIMIT."""
    if n > BASIS_PAIR_LIMIT:
        return ()
    return tuple(Vector.unit(n, i) for i in range(1, n + 1))


def _basis_pairs(units: tuple):
    for u in units:
        for v in units:
            yield u, v


def _memoised(product: ProductUnderTest, units: tuple) -> ProductUnderTest:
    """``product`` evaluating the product of two of ``units`` at most once.

    Only up to BASIS_TRIPLE_LIMIT, where the basis stages reuse pairs.  The
    memo is keyed by ``id``; ``live`` holds the units, so while the memo
    exists no other vector can have one of their ids.
    """
    if product.dim > BASIS_TRIPLE_LIMIT:
        return product
    evaluate = product.evaluate
    live = {id(e): e for e in units}
    memo = {}

    def cached(u: Vector, v: Vector) -> Vector:
        if id(u) not in live or id(v) not in live:
            return evaluate(u, v)
        key = (id(u), id(v))
        out = memo.get(key)
        if out is None:
            out = memo[key] = evaluate(u, v)
        return out

    return dataclasses.replace(product, evaluate=cached)


def _report(product: ProductUnderTest, axiom: str, witness, count: int, seed: int):
    return AxiomReport(
        product=product.name,
        dim=product.dim,
        axiom=axiom,
        verdict=REFUTED if witness is not None else HOLDS,
        witness=witness,
        samples_run=count,
        rng_seed=seed,
    )


def _known_pythagorean_witnesses(product: ProductUnderTest):
    """Deterministic falsifying pairs, injected before any sampling."""
    if product.kind == "table" and product.level is not None and product.dim >= 15:
        yield symbolic.counterexample_vectors(product.level)
    if product.kind == "padded" and product.dim >= 4:
        yield Vector.unit(product.dim, 4), Vector.unit(product.dim, 1)


def check_perpendicular(
    product: ProductUnderTest,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> AxiomReport:
    """u.(u x v) == 0 == v.(u x v), over basis pairs then random pairs."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    count = 0

    def pairs():
        yield from _basis_pairs(_units(product.dim))
        for _ in range(samples):
            yield random_vector(rng, product.dim), random_vector(rng, product.dim)

    for u, v in pairs():
        count += 1
        w = product.evaluate(u, v)
        du = dot(u, w)
        dv = dot(v, w)
        if du != 0 or dv != 0:
            witness = Witness(u=u, v=v, lhs=du, rhs=dv)
            return _report(product, AXIOM_PERPENDICULAR, witness, count, seed)
    return _report(product, AXIOM_PERPENDICULAR, None, count, seed)


def _pythagorean_sides(product: ProductUnderTest, u: Vector, v: Vector):
    w = product.evaluate(u, v)
    lhs = dot(w, w) + dot(u, v) ** 2
    rhs = dot(u, u) * dot(v, v)
    return lhs, rhs


def check_pythagorean(
    product: ProductUnderTest,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> AxiomReport:
    """(u x v).(u x v) + (u.v)^2 == (u.u)(v.v).

    Known falsifying pairs for the product family are tried first, so
    refutations carry the canonical witness instead of a sampler artifact.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    count = 0

    def pairs():
        yield from _known_pythagorean_witnesses(product)
        yield from _basis_pairs(_units(product.dim))
        for _ in range(samples):
            yield random_vector(rng, product.dim), random_vector(rng, product.dim)

    for u, v in pairs():
        count += 1
        lhs, rhs = _pythagorean_sides(product, u, v)
        if lhs != rhs:
            witness = Witness(u=u, v=v, lhs=lhs, rhs=rhs)
            return _report(product, AXIOM_PYTHAGOREAN, witness, count, seed)
    return _report(product, AXIOM_PYTHAGOREAN, None, count, seed)


def _bilinear_sides(product, coeffs, u, u2, v, v2):
    a, b, c, d = coeffs
    lhs = product.evaluate(u.scaled(a) + u2.scaled(b), v.scaled(c) + v2.scaled(d))
    rhs = (
        product.evaluate(u, v).scaled(a * c)
        + product.evaluate(u, v2).scaled(a * d)
        + product.evaluate(u2, v).scaled(b * c)
        + product.evaluate(u2, v2).scaled(b * d)
    )
    return lhs, rhs


def check_bilinear(
    product: ProductUnderTest,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> AxiomReport:
    """Four-term expansion (a u + b u2) x (c v + d v2) == sum of products.

    The deterministic stage runs basis pairs as (u, v) with shifted basis
    vectors as (u2, v2) and fixed scalars; random stages draw all four
    vectors and all four scalars.  A refutation stores the already-combined
    operands as the witness pair, so replaying means evaluating the product
    on them and comparing with the recorded expansion value.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    n = product.dim
    count = 0
    fixed = (Fraction(2), Fraction(3), Fraction(5), Fraction(7))
    units = _units(n)
    evaluated = _memoised(product, units)

    def cases():
        for i, u in enumerate(units):
            for j, v in enumerate(units):
                yield fixed, u, units[(i + 1) % n], v, units[(j + 1) % n]
        for _ in range(samples):
            coeffs = tuple(random_rational(rng) for _ in range(4))
            yield (
                coeffs,
                random_vector(rng, n),
                random_vector(rng, n),
                random_vector(rng, n),
                random_vector(rng, n),
            )

    for coeffs, u, u2, v, v2 in cases():
        count += 1
        lhs, rhs = _bilinear_sides(evaluated, coeffs, u, u2, v, v2)
        if lhs != rhs:
            a, b, c, d = coeffs
            witness = Witness(
                u=u.scaled(a) + u2.scaled(b),
                v=v.scaled(c) + v2.scaled(d),
                lhs=lhs,
                rhs=rhs,
            )
            return _report(product, AXIOM_BILINEAR, witness, count, seed)
    return _report(product, AXIOM_BILINEAR, None, count, seed)


# --- the six product/dot identities ----------------------------------------


def _identity_sides(axiom: str, product, u, v, w):
    """Both sides of one identity; w is ignored by the two-vector ones."""
    p = product.evaluate
    if axiom == "identity-1.1":
        return dot(w, p(u, v)), -dot(u, p(w, v))
    if axiom == "identity-1.2":
        return p(u, v), -p(v, u)
    if axiom == "identity-1.3":
        return p(v, p(v, u)), v.scaled(dot(v, u)) - u.scaled(dot(v, v))
    if axiom == "identity-1.4":
        # w x (v x u) + (w x v) x u = 2(w.u)v - (w.v)u - (u.v)w; verified by
        # direct expansion in R^3 and exhaustively on both genuine products.
        return (
            p(w, p(v, u)),
            -p(p(w, v), u)
            - w.scaled(dot(u, v))
            - u.scaled(dot(w, v))
            + v.scaled(2 * dot(w, u)),
        )
    if axiom == "identity-1.5":
        return p(u, p(u, v)), -v
    if axiom == "identity-1.6":
        return p(w, p(v, u)), -p(p(w, v), u)
    raise ValueError(f"unknown identity {axiom!r}")


_TRIPLE_IDENTITIES = ("identity-1.1", "identity-1.4", "identity-1.6")
_ORTHONORMAL_IDENTITIES = ("identity-1.5", "identity-1.6")


def _identity_cases(axiom: str, units: tuple, n: int, samples: int, rng: random.Random):
    """Deterministic basis inputs from ``units``, then seeded random inputs.

    The orthonormal identities only quantify over distinct standard basis
    vectors (their hypothesis is an orthogonal unit tuple); the others range
    over arbitrary vectors.
    """
    triple = axiom in _TRIPLE_IDENTITIES
    orthonormal = axiom in _ORTHONORMAL_IDENTITIES

    if orthonormal:
        if triple:
            if n <= BASIS_TRIPLE_LIMIT:
                for u, v in _basis_pairs(units):
                    for w in units:
                        if u is not v and v is not w and u is not w:
                            yield u, v, w
            for _ in range(samples):
                i, j, m = rng.sample(range(1, n + 1), 3)
                yield Vector.unit(n, i), Vector.unit(n, j), Vector.unit(n, m)
        else:
            for u, v in _basis_pairs(units):
                if u is not v:
                    yield u, v, None
            for _ in range(samples):
                i, j = rng.sample(range(1, n + 1), 2)
                yield Vector.unit(n, i), Vector.unit(n, j), None
        return

    if triple:
        if n <= BASIS_TRIPLE_LIMIT:
            for u, v in _basis_pairs(units):
                for w in units:
                    yield u, v, w
        for _ in range(samples):
            yield (
                random_vector(rng, n),
                random_vector(rng, n),
                random_vector(rng, n),
            )
    else:
        for u, v in _basis_pairs(units):
            yield u, v, None
        for _ in range(samples):
            yield random_vector(rng, n), random_vector(rng, n), None


def check_identity(
    product: ProductUnderTest,
    axiom: str,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> AxiomReport:
    if axiom not in IDENTITY_AXIOMS:
        raise ValueError(f"unknown identity {axiom!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    count = 0
    units = _units(product.dim)
    evaluated = _memoised(product, units)
    for u, v, w in _identity_cases(axiom, units, product.dim, samples, rng):
        count += 1
        lhs, rhs = _identity_sides(axiom, evaluated, u, v, w)
        if lhs != rhs:
            witness = Witness(u=u, v=v, w=w, lhs=lhs, rhs=rhs)
            return _report(product, axiom, witness, count, seed)
    return _report(product, axiom, None, count, seed)


def check_identities(
    product: ProductUnderTest,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> List[AxiomReport]:
    """One report per identity, in order 1.1 .. 1.6."""
    return [check_identity(product, a, samples, seed) for a in IDENTITY_AXIOMS]


def orthonormal_closure_check(table: symbolic.MulTable) -> AxiomReport:
    """Closure and orthonormality of the realized basis under the table.

    Every off-diagonal product of basis vectors must be exactly one signed
    unit coordinate (squared norm 1) and the diagonal must vanish; one case
    per ordered basis pair.
    """
    product = product_for_table(table)
    n = table.n
    count = 0
    for i in range(1, n + 1):
        ei = Vector.unit(n, i)
        for j in range(1, n + 1):
            count += 1
            w = product.evaluate(ei, Vector.unit(n, j))
            norm2 = dot(w, w)
            expected = Fraction(0) if i == j else Fraction(1)
            support_ok = sum(1 for c in w.coords if c) == (0 if i == j else 1)
            units_ok = all(c in (0, 1, -1) for c in w.coords)
            if norm2 != expected or not support_ok or not units_ok:
                witness = Witness(
                    u=ei, v=Vector.unit(n, j), w=w, lhs=norm2, rhs=expected
                )
                return _report(product, AXIOM_CLOSURE, witness, count, 0)
    return _report(product, AXIOM_CLOSURE, None, count, 0)


@dataclass(frozen=True)
class DimensionVerdict:
    k: int
    n: int
    pythagorean_refuted: bool
    witness: Optional[Witness]
    report: AxiomReport


def classify_dimensions(
    max_k: int,
    samples: int = CLASSIFY_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> List[DimensionVerdict]:
    """Pythagorean verdict for every table level up to max_k.

    The known counterexample pair is injected for k >= 3, so the refutations
    never depend on sampler luck; the surviving levels are exactly k = 1 and
    k = 2 (dimensions 3 and 7).
    """
    if not 1 <= max_k <= 6:
        raise ValueError(f"max_k must be in 1..6, got {max_k}")
    verdicts = []
    for k in range(1, max_k + 1):
        table = symbolic.build_table(k)
        product = product_for_table(table)
        report = check_pythagorean(product, samples=samples, seed=seed)
        verdicts.append(
            DimensionVerdict(
                k=k,
                n=table.n,
                pythagorean_refuted=report.refuted,
                witness=report.witness,
                report=report,
            )
        )
    return verdicts


def replay(report: AxiomReport, product: ProductUnderTest) -> bool:
    """Re-derive a refuted report's violation from its witness alone.

    Returns True when the freshly computed quantities match the recorded
    ones exactly and still violate the axiom.  Raises on reports that carry
    no witness.
    """
    if report.witness is None:
        raise ValueError("only refuted reports carry a witness to replay")
    w = report.witness
    axiom = report.axiom
    if axiom == AXIOM_PERPENDICULAR:
        out = product.evaluate(w.u, w.v)
        du, dv = dot(w.u, out), dot(w.v, out)
        return (du, dv) == (w.lhs, w.rhs) and (du != 0 or dv != 0)
    if axiom == AXIOM_PYTHAGOREAN:
        lhs, rhs = _pythagorean_sides(product, w.u, w.v)
        return (lhs, rhs) == (w.lhs, w.rhs) and lhs != rhs
    if axiom == AXIOM_BILINEAR:
        lhs = product.evaluate(w.u, w.v)
        return lhs == w.lhs and lhs != w.rhs
    if axiom in IDENTITY_AXIOMS:
        lhs, rhs = _identity_sides(axiom, product, w.u, w.v, w.w)
        return (lhs, rhs) == (w.lhs, w.rhs) and lhs != rhs
    if axiom == AXIOM_CLOSURE:
        out = product.evaluate(w.u, w.v)
        return dot(out, out) == w.lhs and w.lhs != w.rhs
    raise ValueError(f"cannot replay axiom {report.axiom!r}")


def expected_verdict(product: ProductUnderTest, axiom: str) -> Optional[str]:
    """The verdict the theory predicts, or None where it makes no claim.

    True cross products (dims 3 and 7) satisfy everything.  Table products
    are bilinear by construction in every dimension; their Pythagorean
    identity survives only through level 2.  The padded product keeps the
    perpendicular and bilinear axioms in all dimensions but loses the
    Pythagorean identity from dimension 4 on.  For the remaining
    combinations (perpendicular/identities on level >= 3 tables, identities
    on padded products beyond dimension 3) the checkers report empirical
    verdicts with no expectation attached.
    """
    if axiom == AXIOM_BILINEAR:
        return HOLDS
    if product.kind in ("cross3", "cross7"):
        return HOLDS
    if product.kind == "table":
        level = product.level or 0
        if axiom == AXIOM_PYTHAGOREAN:
            return HOLDS if level <= 2 else REFUTED
        if axiom == AXIOM_CLOSURE:
            return HOLDS
        if level <= 2:
            return HOLDS
        return None
    if product.kind == "padded":
        if axiom == AXIOM_PERPENDICULAR:
            return HOLDS
        if axiom == AXIOM_PYTHAGOREAN:
            return HOLDS if product.dim == 3 else REFUTED
        if product.dim == 3:
            return HOLDS
        return None
    return None
