"""Layered benchmark for crossn.

    python3 bench/run.py --workload tables|products|commands --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout: the harness imports ``crossn`` from the
checkout's own ``src/`` and exits with status 2 if it is missing.  It is
stdlib-only and single-threaded; cold CLI runs and set-up probes are child
processes that it waits for.

Every run sets up the workload (``setup_s`` is the median of one in-process
set-up and four fresh-process probes), then repeats passes of the
workload's op sequence for ``--seconds``.  Each op is timed alone and its
output checked against ``oracle.py`` outside the timed interval; an op that
raises or fails its check counts as failed and the run goes on.

``--trace 0`` prints the end-to-end metrics, measured untraced:

- ``setup_s``: seconds of imports, input generation and prebuilt tables.
- ``wall_ref``: median time of one pass of the op sequence.
- ``peak_rss_mb``: peak resident memory (``VmHWM``) of the workload process.
- ``work_per_ref``: the workload's bulk rate, median over passes: table
  cells built, validated and serialised (``tables``), dense exact products
  (``products``), checker cases from the verify reports (``commands``).
- ``call_ref``: median latency of the workload's small call: a traced
  normalisation and replay (``tables``), a sparse n = 255 exact product
  (``products``), a cold ``python -m crossn.cli table --k 2`` (``commands``).

Times are in units of ``ref``, the time of a fixed stdlib loop
(``reference.py``, about 3 ms) sampled every 0.1 s while the ops run; the
cold command is measured against a bare ``python -c pass`` started just
before it.  On the shared 2-core machine this was built on, the quartile
spread of the raw pass time over ten runs was 11 to 36% as the CPU speed
drifted, against 2 to 7% for the calibrated time.  The raw pass times and the
reference's median time are printed with the provenance.  The benchmark
and its children are pinned to one CPU, so that the reference samples the
CPU that the measured code runs on.

Every workload reports every metric; they are the same names on each so
that one bound covers each of them.

``--trace 1`` spends half the time untraced and half with spans recorded
around the calls into each layer (``tracing.py``), and prints the per-layer
metrics, including the workload's named rates and ``trace.overhead_s``.
A metric that the workload does not exercise reads 0.  The counts that
the outputs show must be the same in every pass, traced or not, and must
equal the counts taken from the spans.  The spans are written to
``bench/out/``.

The line before the result carries the provenance: seed, digest of the
inputs, commit, source digest, Python version, CPU count, sample counts
and the output counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, List

import reference
from memory import rss_mb
from tracing import Spans, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_PROBES = 4

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
    "work_per_ref": "1/ref",
    "call_ref": "ref",
}

VERIFY_GROUPS = ("perpendicular", "pythagorean", "bilinear", "identities")
CLI_LABELS = (
    "verify-cross7", "verify-table-k3", "verify-padded-n8",
    "classify-k6", "counterexample-k8", "cross-n127",
)
PER_LAYER = {
    "symbolic.normalize_ns": "ns",
    **{f"symbolic.build_s.k{k}": "s" for k in (6, 7, 8)},
    "symbolic.validate_s.k8": "s",
    "symbolic.to_md_s.k8": "s",
    "symbolic.to_csv_s.k8": "s",
    "symbolic.to_json_s.k8": "s",
    "symbolic.from_json_s.k8": "s",
    "symbolic.traced_us": "us",
    "symbolic.build_rss_mb.k8": "MB",
    "symbolic.cells": "count",
    "symbolic.build_calls": "count",
    **{f"vecalg.dense_us.n{n}": "us" for n in (63, 127, 255)},
    "vecalg.dense_float_us.n255": "us",
    "vecalg.sparse_us.n255": "us",
    "vecalg.cross7_us": "us",
    "vecalg.det3_us": "us",
    "vecalg.evaluate_s": "s",
    "vecalg.products": "count",
    "vecalg.evaluate_calls": "count",
    **{f"verify.check_s.{g}": "s" for g in VERIFY_GROUPS},
    "verify.self_s": "s",
    **{f"verify.cases.{g}": "count" for g in VERIFY_GROUPS},
    **{f"cli.main_ms.{label}": "ms" for label in CLI_LABELS},
    "cli.import_ms": "ms",
    "trace.overhead_s": "s",
    "cells_per_s": "1/s",
    "traced_products_per_s": "1/s",
    "exact_products_per_s": "1/s",
    "sparse_products_per_s": "1/s",
    "float_products_per_s": "1/s",
    "cases_per_s": "1/s",
    "cold_command_ms": "ms",
    "fail_ratio": "ratio",
}

# Per-layer counts taken from spans, and the output count each must equal
# wherever the workload's outputs show it.
SPAN_COUNTS = {
    "symbolic.cells": "built_cells",
    "vecalg.products": "products",
    **{f"verify.cases.{g}": f"cases.{g}" for g in VERIFY_GROUPS},
}
PRODUCT_SPANS = ("vecalg.table_product", "vecalg.cross7", "vecalg.cross3", "vecalg.det_product")


class Pass:
    def __init__(self):
        self.durations: Dict[str, List[float]] = {}  # seconds
        self.scaled: Dict[str, List[float]] = {}  # reference-loop units
        self.spans: List[tuple] = []  # (kind, start, end, seconds) of each op
        self.counts: Counter = Counter()
        self.attempted = 0
        self.failed = 0

    @property
    def wall(self) -> float:
        return sum(map(sum, self.durations.values()))

    @property
    def wall_ref(self) -> float:
        return sum(map(sum, self.scaled.values()))


def run_pass(ops, errors: List[str], tracer=None, sampler=None) -> Pass:
    """One pass of ``ops``, each timed alone and checked after its timing."""
    p = Pass()
    for op in ops:
        p.attempted += 1
        context = tracer.op(op.kind) if tracer else nullcontext()
        stolen = sampler.stolen if sampler else 0.0
        start = perf_counter()
        try:
            with context:
                out = op.run()
            raised = None
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            raised = exc
        end = perf_counter()
        took = end - start - ((sampler.stolen - stolen) if sampler else 0.0)
        p.durations.setdefault(op.kind, []).append(took)
        p.spans.append((op.kind, start, end, took))
        try:
            if raised is not None:
                raise raised
            p.counts.update(op.check(out))
        except Exception as exc:
            p.failed += 1
            if len(errors) < 20:
                errors.append(f"{op.kind}: {''.join(traceback.format_exception_only(type(exc), exc)).strip()}")
    return p


def run_passes(ops, seconds: float, errors: List[str], tracer=None, calibrate=False):
    """Whole passes until the next one would overrun ``seconds``; at least one.

    With ``calibrate``, each op's time is also divided by the reference
    loop's time sampled while the op ran (``reference.Sampler``); the time
    the sampler takes is left out of every op.  Returns the passes and
    the reference loop's sampled times.
    """
    passes: List[Pass] = []
    start = perf_counter()
    with reference.Sampler() if calibrate else nullcontext() as sampler:
        while True:
            began = perf_counter()
            if tracer:
                tracer.pass_no = len(passes)
            passes.append(run_pass(ops, errors, tracer, sampler))
            now = perf_counter()
            if now - start + (now - began) > seconds:
                break
    if not calibrate:
        return passes, []
    for p in passes:
        for kind, op_start, op_end, took in p.spans:
            p.scaled.setdefault(kind, []).append(took / sampler.speed(op_start, op_end))
    return passes, sampler.loops


def rate(passes: List[Pass], key: str, kinds, field: str = "durations") -> float:
    """Median over passes of ``counts[key]`` per unit of time spent in ``kinds``."""
    per_pass = []
    for p in passes:
        times = getattr(p, field)
        busy = sum(sum(times.get(kind, ())) for kind in kinds)
        if busy > 0:
            per_pass.append(p.counts[key] / busy)
    return statistics.median(per_pass) if per_pass else 0.0


def latency(passes: List[Pass], kind: str) -> float:
    """Median seconds over all calls of ``kind``."""
    times = [t for p in passes for t in p.durations.get(kind, ())]
    return statistics.median(times) if times else 0.0


def count_mismatches(passes: List[Pass]) -> List[str]:
    first = passes[0].counts
    return [f"pass {i} counts {dict(p.counts)} != {dict(first)}" for i, p in enumerate(passes) if p.counts != first]


def span_metrics(sp) -> Dict[str, float]:
    def dur(s):
        return s[3] - s[2]

    m: Dict[str, float] = {}
    for k in (6, 7, 8):
        m[f"symbolic.build_s.k{k}"] = sp.median_s(f"symbolic.build_table.k{k}")
    for step in ("validate", "to_md", "to_csv", "to_json"):
        m[f"symbolic.{step}_s.k8"] = sp.median_s(f"symbolic.{step}.k8")
    m["symbolic.from_json_s.k8"] = sp.median_s("symbolic.from_json", "from_json.k8")
    traced = sp.select("symbolic.normalize_product_traced")
    if traced:
        busy = sum(map(dur, traced)) + sum(map(dur, sp.select("symbolic.replay")))
        m["symbolic.traced_us"] = busy / len(traced) * 1e6
    builds = [s for s in sp.spans if s[1].startswith("symbolic.build_table")]
    m["symbolic.cells"] = sp.per_pass(builds, lambda s: s[7])
    m["symbolic.build_calls"] = sp.per_pass(builds, lambda s: 1)

    for n in (63, 127, 255):
        m[f"vecalg.dense_us.n{n}"] = sp.median_s("vecalg.table_product", f"dense.n{n}") * 1e6
    m["vecalg.dense_float_us.n255"] = sp.median_s("vecalg.table_product", "float.n255") * 1e6
    m["vecalg.sparse_us.n255"] = sp.median_s("vecalg.table_product", "sparse.n255") * 1e6
    m["vecalg.cross7_us"] = sp.median_s("vecalg.cross7", "cross7") * 1e6
    m["vecalg.det3_us"] = sp.median_s("vecalg.det_product", "det3") * 1e6
    evaluations = sp.select("vecalg.evaluate")
    m["vecalg.evaluate_s"] = sp.per_pass(evaluations, dur)
    m["vecalg.evaluate_calls"] = sp.per_pass(evaluations, lambda s: 1)
    direct = [s for s in sp.spans if s[1] in PRODUCT_SPANS and s[4] is not None and sp.spans[s[4]][1].startswith("op:")]
    m["vecalg.products"] = sp.per_pass(direct, lambda s: 1)

    # The verify numbers cover the verify commands, whose reports show
    # their case counts; classify's checks show in cli.main_ms.classify-k6.
    checks = []
    for group in VERIFY_GROUPS:
        spans = sp.select(f"verify.check.{group}", "cmd.verify")
        checks += spans
        m[f"verify.check_s.{group}"] = sp.per_pass(spans, dur)
        m[f"verify.cases.{group}"] = sp.per_pass(spans, lambda s: s[7])
    m["verify.self_s"] = sp.per_pass(checks, lambda s: sp.self_s(s, "vecalg.evaluate"))
    for label in CLI_LABELS:
        m[f"cli.main_ms.{label}"] = sp.median_s("cli.main", "cmd." + label) * 1e3
    return m


def install_tracing(tracer) -> None:
    from crossn import cli, symbolic, vecalg, verify

    # normalize_product is left unwrapped: build_table calls it once per
    # cell.  The benchmark times its own normalize batches instead.
    tracer.wrap(symbolic, "build_table", lambda k: f"symbolic.build_table.k{k}", note=lambda t: t.n * t.n)
    tracer.wrap(symbolic.MulTable, "validate", lambda t: f"symbolic.validate.k{t.k}")
    for step in ("markdown", "csv", "json"):
        short = "md" if step == "markdown" else step
        tracer.wrap(symbolic, f"table_to_{step}", lambda t, short=short: f"symbolic.to_{short}.k{t.k}")
    tracer.wrap(symbolic, "table_from_json", "symbolic.from_json")
    tracer.wrap(symbolic, "normalize_product_traced", "symbolic.normalize_product_traced")
    tracer.wrap(symbolic.RewriteTrace, "replay", "symbolic.replay")
    for module in (vecalg, verify, cli):
        tracer.wrap(module, "table_product", "vecalg.table_product")
    for name in ("cross7", "cross3", "det_product"):
        tracer.wrap(vecalg, name, f"vecalg.{name}")
    for factory in ("product_for_table", "cross3_product", "cross7_product", "padded_product"):
        tracer.wrap_factory(verify, factory, "vecalg.evaluate")
    for axiom in ("perpendicular", "pythagorean", "bilinear"):
        tracer.wrap(verify, f"check_{axiom}", f"verify.check.{axiom}", note=lambda r: r.samples_run)
    tracer.wrap(verify, "check_identities", "verify.check.identities",
                note=lambda reports: sum(r.samples_run for r in reports))
    tracer.wrap(cli, "main", "cli.main")


def provenance(seed: int, inputs: str) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            elif packed.is_file():
                commit = next((line.split()[0] for line in packed.read_text().splitlines()
                               if line.endswith(" " + ref[5:])), None)
        else:
            commit = ref
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "inputs_sha256": hashlib.sha256(inputs.encode()).hexdigest(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def probe_setups(args) -> List[float]:
    """Set-up time of fresh processes, so that imports count every time."""
    times = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
        done = subprocess.run(cmd + (["--tiny"] if args.tiny else []), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr[-500:]}")
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tables", "products", "commands"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "crossn" / "__init__.py").is_file():
        print(f"error: no crossn package under {SRC}; run from a crossn checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and its children: the reference loop then
    # samples the CPU that a cold CLI child runs on, and no op migrates.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload](str(ROOT), args.seed, args.tiny)
    start = perf_counter()
    inputs = workload.setup()
    setup_s = perf_counter() - start
    if args.setup_probe:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        info = provenance(args.seed, inputs)
        errors: List[str] = []
        ops = workload.ops()
        if args.trace:
            untraced, loops = run_passes(ops, args.seconds / 2, errors)
            tracer = Tracer()
            install_tracing(tracer)
            try:
                traced, _ = run_passes(ops, args.seconds / 2, errors, tracer)
            finally:
                tracer.restore()
            passes = untraced + traced
        else:
            setups = [setup_s] + probe_setups(args)
            passes, loops = run_passes(ops, args.seconds, errors, calibrate=True)
        mismatches = count_mismatches(passes)

        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        work = workload.rates[workload.work_rate]
        info.update(
            workload=args.workload,
            trace=args.trace,
            samples={
                "passes": len(passes),
                "calls": sum(len(p.durations.get(workload.call_kind, ())) for p in passes),
                "references": len(loops),
            },
            counts=dict(passes[0].counts),
            pass_wall_s=[p.wall for p in passes],
            pass_wall_ref=[p.wall_ref for p in passes],
            ref_ms=statistics.median(loops) * 1e3 if loops else None,
            fail_ratio=failed / attempted,
        )
        if args.trace:
            sp = Spans(tracer.spans)
            metrics = dict.fromkeys(PER_LAYER, 0.0)
            for name, (key, kinds) in workload.rates.items():
                metrics[name] = rate(untraced, key, kinds)
            if workload.call_metric:
                metrics[workload.call_metric] = latency(untraced, workload.call_kind) * 1e3
            metrics.update(span_metrics(sp))
            metrics.update(workload.extra_layer_metrics())
            # normalize_product is timed by the benchmark's own batches (see
            # install_tracing), over the traced passes.
            normalized = rate(traced, "normalized", ("normalize",))
            if normalized:
                metrics["symbolic.normalize_ns"] = 1e9 / normalized
            metrics["trace.overhead_s"] = (
                statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in untraced)
            )
            metrics["fail_ratio"] = failed / attempted
            counts = passes[0].counts
            mismatches += [
                f"{name} {metrics[name]} from spans != {key} {counts[key]} from outputs"
                for name, key in SPAN_COUNTS.items()
                if key in counts and metrics[name] != counts[key]
            ]
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
            units = PER_LAYER
            info["samples"]["spans"] = len(tracer.spans)
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_ref": statistics.median(p.wall_ref for p in passes),
                "peak_rss_mb": rss_mb(),
                "work_per_ref": rate(passes, *work, field="scaled"),
                "call_ref": workload.call_ref(passes),
            }
            info["samples"]["setup_s"] = len(setups)
            units = END_TO_END
    finally:
        workload.close()

    info["errors"] = errors + mismatches
    for line in info["errors"]:
        print("error: " + line, file=sys.stderr)
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
