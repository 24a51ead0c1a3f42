"""The three benchmark workloads: ``tables``, ``products`` and ``commands``.

A workload builds its inputs from a seed in ``setup`` and then offers the op
sequence of one pass.  Each op is timed on its own; its ``check`` runs after
it, outside the timed interval, compares the output with the independent
oracle or a stated expectation, and returns the counts the output shows
(cells, products per kind, checker cases per axiom).

Why these three:

- ``tables`` is pure ``symbolic`` work with no Fraction arithmetic: the sign
  kernel and the ``SignedBasis`` grid of ``build_table(k)`` for k = 6, 7, 8,
  then ``validate``, the three serialisations, ``table_from_json`` and a
  seeded sample of traced normalisations.  A ``vecalg`` or ``verify`` change
  should not move it.
- ``products`` isolates the ``vecalg`` inner loop: tables are built in
  set-up, and the timed stream is dense exact products (n = 63, 127, 255,
  coordinates like the checker's sampler), the same n = 255 pairs in double
  mode, sparse n = 255 pairs shaped like the paper's witness, ``cross7``,
  ``cross3`` and ``det_product``.  Dense and sparse inputs use the same
  function differently, so per-call cost shows on the sparse stream.
- ``commands`` is what a desk user runs: in-process ``crossn.cli.main``
  calls of the checkers, ``classify``, ``counterexample --k 8`` and a dense
  ``cross``, plus cold ``python -m crossn.cli`` subprocesses.  It is the only
  workload that loads ``verify`` and ``cli``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Sequence

import oracle


class CheckFailed(Exception):
    """An op's output disagrees with the oracle or the stated expectation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Dict[str, int]]


def level_of(n: int) -> int:
    return (n + 1).bit_length() - 2


def random_rational(rng: random.Random) -> Fraction:
    """Same distribution as the checkers' sampler: -9..9 over {1, 2, 3}."""
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


def dense(rng: random.Random, n: int) -> List[Fraction]:
    return [random_rational(rng) for _ in range(n)]


def sparse(rng: random.Random, n: int, nonzero: int) -> List[Fraction]:
    """``nonzero`` coordinates of ±1 or ±1/2, like ``e3 + e10``."""
    coords = [Fraction(0)] * n
    for i in rng.sample(range(n), nonzero):
        coords[i] = Fraction(rng.choice((1, -1)), rng.choice((1, 1, 2)))
    return coords


def values(table) -> List[List[int]]:
    return [[c.sign * c.index for c in row] for row in table.cells]


def interleave(big: Sequence[Op], small: Sequence[Op]) -> List[Op]:
    """Spread the small ops evenly between the big ones.

    Speed on a shared machine drifts over seconds; interleaving keeps every
    op kind sampled across the whole pass rather than in one block.
    """
    out: List[Op] = []
    step = len(small) / max(len(big), 1)
    for b, op in enumerate(big):
        out.append(op)
        out.extend(small[round(b * step):round((b + 1) * step)])
    return out


class Workload:
    name = ""
    # metric -> (count key, op kinds whose time it is measured over)
    rates: Dict[str, tuple] = {}
    work_rate = ""  # the rate reported as the end-to-end ``work_per_s``
    call_kind = ""  # the op kind whose median latency is ``call_ms``
    call_metric = ""  # per-layer name for ``call_ms``, where no rate covers it

    def __init__(self, root: str, seed: int, tiny: bool):
        self.root = root
        self.tiny = tiny
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> str:
        """Import crossn and build the inputs; returns their canonical text."""
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def extra_layer_metrics(self) -> Dict[str, float]:
        """Per-layer numbers measured outside the traced passes."""
        return {}

    def call_ref(self, passes) -> float:
        """Median latency of the small call, in reference-loop units."""
        return statistics.median(t for p in passes for t in p.scaled[self.call_kind])

    def close(self) -> None:
        pass

    def subprocess_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def python(self, *args: str, timeout: float = 120) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.subprocess_env(),
            capture_output=True, text=True, timeout=timeout,
        )

    def build_peak_mb(self, k: int) -> float:
        """Peak RSS growth of a fresh process building the level-k table."""
        code = (
            "import crossn.symbolic as s, sys\n"
            "sys.path.insert(0, 'bench')\n"
            "from memory import rss_mb\n"
            "before = rss_mb('VmRSS')\n"
            f"s.build_table({k})\n"
            "print(rss_mb('VmHWM') - before)\n"
        )
        done = self.python("-c", code)
        expect(done.returncode == 0, f"build_table({k}) probe failed: {done.stderr[-500:]}")
        return float(done.stdout)


# --- tables -----------------------------------------------------------------


class Tables(Workload):
    name = "tables"
    levels = (6, 7, 8)
    top = 8
    table_kinds = tuple(f"build.k{k}" for k in levels) + tuple(
        f"{step}.k8" for step in ("validate", "to_md", "to_csv", "to_json", "from_json")
    )
    rates = {
        "cells_per_s": ("cells", table_kinds),
        "traced_products_per_s": ("traced", ("traced",)),
    }
    work_rate = "cells_per_s"
    call_kind = "traced"

    def setup(self) -> str:
        from crossn import symbolic

        self.symbolic = symbolic
        n = (1 << (self.top + 1)) - 1
        count = 64 if self.tiny else 1600
        self.pairs = [tuple(self.rng.sample(range(1, n + 1), 2)) for _ in range(count)]
        self.state: Dict[str, Any] = {}
        return json.dumps({"levels": self.levels, "pairs": self.pairs})

    def extra_layer_metrics(self):
        return {"symbolic.build_rss_mb.k8": self.build_peak_mb(self.top)}

    def _check_table(self, table, k):
        n = (1 << (k + 1)) - 1
        expect((table.k, table.n) == (k, n), f"table has k={table.k} n={table.n}")
        expect(values(table) == oracle.cell_values(k), f"level-{k} cells differ from the oracle")
        return n * n

    def _build(self, k):
        def run():
            table = self.symbolic.build_table(k)
            if k == self.top:
                self.state["table"] = table
            return table

        def check(table):
            cells = self._check_table(table, k)
            return {"cells": cells, "built_cells": cells}

        return Op(f"build.k{k}", run, check)

    def _step(self, step, fn, check_out):
        k = self.top
        cells = ((1 << (k + 1)) - 1) ** 2

        def check(out):
            check_out(out)
            return {"cells": cells}

        return Op(f"{step}.k{k}", fn, check)

    def _text_step(self, step, function, expected):
        def run():
            # Looked up at call time, so that tracing sees the call.
            text = getattr(self.symbolic, function)(self.state["table"])
            if step == "to_json":
                self.state[step] = text
            return text

        def check(text):
            expect(text == expected(self.top), f"{step} text differs from the oracle")

        return self._step(step, run, check)

    def _normalize(self, pairs):
        k = self.top
        normalize = self.symbolic.normalize_product

        def run():
            return [normalize(i, j, k) for i, j in pairs]

        def check(results):
            cells = oracle.cell_values(k)
            got = [r.sign * r.index for r in results]
            expect(got == [cells[i - 1][j - 1] for i, j in pairs], "normalize_product differs from the oracle")
            return {"normalized": len(pairs)}

        return Op("normalize", run, check)

    def _traced(self, i, j):
        k = self.top

        def run():
            result, trace = self.symbolic.normalize_product_traced(i, j, k)
            return result, trace, trace.replay()

        def check(out):
            result, trace, replayed = out
            expect(result.sign * result.index == oracle.cell_values(k)[i - 1][j - 1],
                   f"traced e{i} x e{j} differs from the oracle")
            expect(trace.result == result and replayed is True, f"trace of e{i} x e{j} does not replay")
            return {"traced": 1}

        return Op("traced", run, check)

    def ops(self):
        s = self.symbolic
        big = [self._build(k) for k in self.levels] + [
            self._step("validate", lambda: self.state["table"].validate(), lambda out: None),
            self._text_step("to_md", "table_to_markdown", oracle.table_markdown),
            self._text_step("to_csv", "table_to_csv", oracle.table_csv),
            self._text_step("to_json", "table_to_json", oracle.table_json),
            self._step(
                "from_json",
                lambda: s.table_from_json(self.state.pop("to_json")),
                lambda table: self._check_table(table, self.top),
            ),
        ]
        chunks = len(big)
        small: List[Op] = []
        for c in range(chunks):
            part = self.pairs[c::chunks]
            small.append(self._normalize(part))
            small.extend(self._traced(i, j) for i, j in part)
        ops = interleave(big, small)
        ops.append(Op("release", self.state.clear, lambda out: {}))
        return ops


# --- products ---------------------------------------------------------------


class Products(Workload):
    name = "products"
    rates = {
        "exact_products_per_s": ("dense", ("dense.n63", "dense.n127", "dense.n255")),
        "sparse_products_per_s": ("sparse", ("sparse.n255",)),
        "float_products_per_s": ("float", ("float.n255",)),
    }
    work_rate = "exact_products_per_s"
    call_kind = "sparse.n255"
    # Pairs per pass.  The dense exact products dominate the pass time.
    dense_pairs = {63: 4, 127: 2, 255: 2}
    small_pairs = 60

    def setup(self) -> str:
        from crossn import symbolic, vecalg

        self.vecalg = vecalg
        rng = self.rng
        scale = 4 if self.tiny else 1
        self.tables = {n: symbolic.build_table(level_of(n)) for n in self.dense_pairs}
        self.inputs: Dict[str, List[tuple]] = {}
        for n, count in self.dense_pairs.items():
            self.inputs[f"dense.n{n}"] = [(dense(rng, n), dense(rng, n)) for _ in range(count)]
        self.inputs["float.n255"] = self.inputs["dense.n255"]
        small = self.small_pairs // scale
        # 2 to 4 nonzeros on each side, in the same mix for every seed: the
        # cost of a sparse product grows with the nonzeros of ``u``.
        self.inputs["sparse.n255"] = [
            (sparse(rng, 255, 2 + i % 3), sparse(rng, 255, 2 + i // 3 % 3)) for i in range(small)
        ]
        self.inputs["cross7"] = [(dense(rng, 7), dense(rng, 7)) for _ in range(small)]
        self.inputs["cross3"] = [(dense(rng, 3), dense(rng, 3)) for _ in range(small)]
        self.inputs["det3"] = self.inputs["cross3"]
        if self.tiny:
            self.inputs["dense.n255"] = self.inputs["float.n255"] = self.inputs["dense.n255"][:1]
        self.vectors = {
            kind: [
                (vecalg.Vector.double(map(float, u)), vecalg.Vector.double(map(float, v)))
                if kind.startswith("float")
                else (vecalg.Vector.exact(u), vecalg.Vector.exact(v))
                for u, v in pairs
            ]
            for kind, pairs in self.inputs.items()
        }
        self.expected: Dict[tuple, List[Fraction]] = {}
        return json.dumps({kind: [[list(map(str, u)), list(map(str, v))] for u, v in pairs]
                           for kind, pairs in sorted(self.inputs.items())})

    def _reference(self, kind, index):
        key = (kind, index)
        if key not in self.expected:
            u, v = self.inputs[kind][index]
            self.expected[key] = oracle.product(level_of(len(u)), u, v)
        return self.expected[key]

    def _op(self, kind, index):
        u, v = self.vectors[kind][index]
        va = self.vecalg
        if kind.startswith(("dense", "sparse", "float")):
            table = self.tables[u.dim]
            run = lambda: va.table_product(table, u, v)  # noqa: E731
        elif kind == "cross7":
            run = lambda: va.cross7(u, v)  # noqa: E731
        elif kind == "cross3":
            run = lambda: va.cross3(u, v)  # noqa: E731
        else:
            run = lambda: va.det_product([u, v])  # noqa: E731
        counts = {"products": 1, kind.split(".")[0]: 1, f"products.{kind}": 1}

        def check(out):
            expected = self._reference(kind, index)
            if kind.startswith("float"):
                ua, vb = self.inputs[kind][index]
                tol = 1e-9 * (1 + sum(map(abs, ua)) * sum(map(abs, vb)))
                expect(out.mode == "double" and len(out.coords) == len(expected), "bad float result shape")
                expect(all(abs(a - float(b)) <= tol for a, b in zip(out.coords, expected)),
                       f"{kind} pair {index} is off the exact product by more than {tol:.1e}")
            else:
                expect(out.mode == "exact" and list(out.coords) == expected,
                       f"{kind} pair {index} differs from the oracle")
            return counts

        return Op(kind, run, check)

    def ops(self):
        big: List[Op] = []
        for index in range(max(len(self.inputs[k]) for k in ("dense.n63", "dense.n127", "dense.n255"))):
            for kind in ("dense.n63", "dense.n127", "dense.n255", "float.n255"):
                if index < len(self.inputs[kind]):
                    big.append(self._op(kind, index))
        small = [
            self._op(kind, index)
            for index in range(len(self.inputs["sparse.n255"]))
            for kind in ("sparse.n255", "cross7", "cross3", "det3")
        ]
        return interleave(big, small)


# --- commands ---------------------------------------------------------------

HOLDS = "holds-on-all-samples"
REFUTED = "refuted"
AXIOMS = ("perpendicular", "pythagorean", "bilinear") + tuple(f"identity-1.{i}" for i in range(1, 7))

# Stated verdicts.  cross7 is a genuine cross product.  At level 3 (the
# sedenions) the product stays perpendicular and adjoint (identities 1.1,
# 1.2, 1.5), but the Pythagorean identity and 1.3, 1.4, 1.6, which need
# alternativity, fail.  The padded product is the 3D product on the first
# three coordinates: dot products that see the other coordinates break the
# Pythagorean identity and 1.3, 1.4, 1.5.
VERDICTS = {
    "verify-cross7": dict.fromkeys(AXIOMS, HOLDS),
    "verify-table-k3": {
        **dict.fromkeys(AXIOMS, HOLDS),
        **dict.fromkeys(("pythagorean", "identity-1.3", "identity-1.4", "identity-1.6"), REFUTED),
    },
    "verify-padded-n8": {
        **dict.fromkeys(AXIOMS, HOLDS),
        **dict.fromkeys(("pythagorean", "identity-1.3", "identity-1.4", "identity-1.5"), REFUTED),
    },
}
WITNESS_U = "e3+e10"
WITNESS_V = "e6-e15"


def parse_vector_text(text: str) -> List[Fraction]:
    return [Fraction(t) for t in text.split(",")]


def unit_sum(n: int, terms) -> List[Fraction]:
    coords = [Fraction(0)] * n
    for index, coeff in terms:
        coords[index - 1] = Fraction(coeff)
    return coords


def padded(u, v):
    return oracle.product(1, u[:3], v[:3]) + [Fraction(0)] * (len(u) - 3)


def scaled(c, u):
    return [c * a for a in u]


def add(*vectors):
    return [sum(t, Fraction(0)) for t in zip(*vectors)]


def identity_sides(axiom, p, u, v, w):
    """Both sides of the refutable identities, written from their statements."""
    dot = oracle.dot
    if axiom == "pythagorean":
        uv = p(u, v)
        return dot(uv, uv) + dot(u, v) ** 2, dot(u, u) * dot(v, v)
    if axiom == "identity-1.3":
        return p(v, p(v, u)), add(scaled(dot(v, u), v), scaled(-dot(v, v), u))
    if axiom == "identity-1.4":
        return p(w, p(v, u)), add(
            scaled(-1, p(p(w, v), u)), scaled(-dot(u, v), w), scaled(-dot(w, v), u), scaled(2 * dot(w, u), v)
        )
    if axiom == "identity-1.5":
        return p(u, p(u, v)), scaled(-1, v)
    if axiom == "identity-1.6":
        return p(w, p(v, u)), scaled(-1, p(p(w, v), u))
    raise CheckFailed(f"no independent sides for {axiom}")


def side_value(raw):
    if isinstance(raw, list):
        return [Fraction(t) for t in raw]
    return Fraction(raw)


class Commands(Workload):
    name = "commands"
    verify_kinds = ("cmd.verify-cross7", "cmd.verify-table-k3", "cmd.verify-padded-n8")
    rates = {"cases_per_s": ("cases", verify_kinds)}
    work_rate = "cases_per_s"
    call_kind = "cold"
    call_metric = "cold_command_ms"
    cold_per_pass = 3

    def setup(self) -> str:
        from crossn import cli, symbolic, vecalg, verify

        self.cli, self.vecalg, self.verify = cli, vecalg, verify
        rng = self.rng
        self.samples = 5 if self.tiny else 50
        self.check_seed = rng.randrange(1, 1 << 31)
        self.u127, self.v127 = dense(rng, 127), dense(rng, 127)
        self.out_dir = os.path.join(self.root, "bench", "out", f"tmp-{os.getpid()}")
        os.makedirs(self.out_dir, exist_ok=True)
        self.out_path = os.path.join(self.out_dir, "out.txt")
        joined = lambda v: ",".join(map(str, v))  # noqa: E731
        verify_args = ["--samples", str(self.samples), "--seed", str(self.check_seed)]
        self.commands = {
            "verify-cross7": ["verify", "--product", "cross7", *verify_args],
            "verify-table-k3": ["verify", "--product", "table", "--k", "3", *verify_args],
            "verify-padded-n8": ["verify", "--product", "padded", "--n", "8", *verify_args],
            "classify-k6": ["classify", "--max-k", "6"],
            "counterexample-k8": ["counterexample", "--k", "8"],
            # ``--v=-2/3,...``: argparse would read ``--v -2/3,...`` as a flag.
            "cross-n127": ["cross", "--n", "127", "--product", "table",
                           f"--u={joined(self.u127)}", f"--v={joined(self.v127)}"],
        }
        self.products = {
            "verify-cross7": lambda: verify.cross7_product(),
            "verify-table-k3": lambda: verify.product_for_table(symbolic.build_table(3)),
            "verify-padded-n8": lambda: verify.padded_product(8),
        }
        self.references = {
            "verify-cross7": lambda u, v: oracle.product(2, u, v),
            "verify-table-k3": lambda u, v: oracle.product(3, u, v),
            "verify-padded-n8": padded,
        }
        return json.dumps(self.commands)

    def close(self):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        if os.path.isdir(self.out_dir):
            os.rmdir(self.out_dir)

    def extra_layer_metrics(self):
        code = "import time; t = time.perf_counter(); import crossn.cli; print(time.perf_counter() - t)"
        times = []
        for _ in range(3 if self.tiny else 9):
            done = self.python("-c", code)
            expect(done.returncode == 0, f"import crossn.cli failed: {done.stderr[-500:]}")
            times.append(float(done.stdout) * 1e3)
        return {
            "cli.import_ms": statistics.median(times),
            "symbolic.build_rss_mb.k8": self.build_peak_mb(8),
        }

    def _main(self, label):
        argv = ["--output", self.out_path, *self.commands[label]]

        def run():
            try:
                status = self.cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(self.out_path)
            return status, text

        check = getattr(self, "_check_" + label.split("-")[0])
        return Op("cmd." + label, run, lambda out: check(label, *out))

    def _check_verify(self, label, status, text):
        expect(status == 0, f"{label} exited {status}")
        reports = json.loads(text)
        verdicts = {r["axiom"]: r["verdict"] for r in reports}
        expect(verdicts == VERDICTS[label], f"{label} verdicts {verdicts}")
        counts: Dict[str, int] = {}
        product = None
        for r in reports:
            group = "identities" if r["axiom"].startswith("identity") else r["axiom"]
            counts["cases." + group] = counts.get("cases." + group, 0) + r["samples"]
            counts["cases"] = counts.get("cases", 0) + r["samples"]
            if r["verdict"] != REFUTED:
                continue
            product = product or self.products[label]()
            expect(self.verify.replay(self._report(r), product), f"{label} {r['axiom']} witness does not replay")
            w = r["witness"]
            vectors = [side_value(w[key]) if w.get(key) is not None else None for key in ("u", "v", "w")]
            lhs, rhs = identity_sides(r["axiom"], self.references[label], *vectors)
            expect((lhs, rhs) == (side_value(w["lhs"]), side_value(w["rhs"])) and lhs != rhs,
                   f"{label} {r['axiom']} witness disagrees with the oracle")
        return counts

    def _report(self, r):
        w = r["witness"]

        def side(raw):
            value = side_value(raw)
            return self.vecalg.Vector.exact(value) if isinstance(value, list) else value

        witness = self.verify.Witness(
            u=side(w["u"]), v=side(w["v"]), w=side(w["w"]) if "w" in w else None,
            lhs=side(w["lhs"]), rhs=side(w["rhs"]),
        )
        return self.verify.AxiomReport(
            product=r["product"], dim=r["dim"], axiom=r["axiom"], verdict=r["verdict"],
            witness=witness, samples_run=r["samples"], rng_seed=r["seed"],
        )

    def _check_classify(self, label, status, text):
        expect(status == 0, f"{label} exited {status}")
        lines = text.splitlines()
        expected = []
        for k in range(1, 7):
            n = (1 << (k + 1)) - 1
            if k <= 2:
                expected.append(f"k={k} n={n}: pythagorean {HOLDS}")
                continue
            u, v = unit_sum(n, [(3, 1), (10, 1)]), unit_sum(n, [(6, 1), (15, -1)])
            lhs, rhs = identity_sides("pythagorean", lambda a, b: oracle.product(k, a, b), u, v, None)
            expected.append(
                f"k={k} n={n}: pythagorean refuted  witness u={WITNESS_U} v={WITNESS_V} (lhs {lhs}, rhs {rhs})"
            )
        expect(lines[:6] == expected, f"{label} lines {lines[:6]}")
        return {}

    def _check_counterexample(self, label, status, text):
        expect(status == 0, f"{label} exited {status}")
        fields = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
        n = 511
        u = parse_vector_text(fields["u"].split()[0])
        v = parse_vector_text(fields["v"].split()[0])
        expect(u == unit_sum(n, [(3, 1), (10, 1)]) and v == unit_sum(n, [(6, 1), (15, -1)]),
               f"{label} printed another witness pair")
        expect(parse_vector_text(fields["u x v"]) == oracle.product(8, u, v), f"{label} u x v differs from the oracle")
        expect(fields["LHS (u.u)(v.v)"] == "4" and fields["RHS (u x v).(u x v) + (u.v)^2"] == "0",
               f"{label} reports LHS {fields.get('LHS (u.u)(v.v)')} vs RHS {fields.get('RHS (u x v).(u x v) + (u.v)^2')}")
        return {}

    def _check_cross(self, label, status, text):
        expect(status == 0, f"{label} exited {status}")
        expect(parse_vector_text(text.strip()) == oracle.product(6, self.u127, self.v127),
               f"{label} differs from the oracle")
        return {}

    def _cold(self):
        def run():
            return self.python("-m", "crossn.cli", "table", "--k", "2")

        def check(done):
            expect(done.returncode == 0, f"cold table --k 2 exited {done.returncode}: {done.stderr[-300:]}")
            expect(done.stdout == oracle.table_markdown(2) + "\n", "cold table --k 2 differs from the oracle")
            return {"cold": 1}

        return Op("cold", run, check)

    def _bare(self):
        def check(done):
            expect(done.returncode == 0, f"python -c pass exited {done.returncode}")
            return {}

        return Op("cold.bare", lambda: self.python("-c", "pass"), check)

    def call_ref(self, passes) -> float:
        """Median cold command time over a bare ``python -c pass`` run just before.

        The in-process reference loop does not track process start-up, which
        is mostly exec, loading and page faults; a bare interpreter start does.
        """
        ratios = [
            cold / bare
            for p in passes
            for cold, bare in zip(p.durations["cold"], p.durations["cold.bare"])
        ]
        return statistics.median(ratios)

    def ops(self):
        big = [self._main(label) for label in self.commands]
        small = [op for _ in range(self.cold_per_pass) for op in (self._bare(), self._cold())]
        return interleave(big, small)


WORKLOADS = {w.name: w for w in (Tables, Products, Commands)}
