"""Smoke test of the benchmark harness; no timing is asserted.

    python3 -m pytest bench/test_bench.py

Runs every workload at a tiny size, untraced and traced, and checks that
each metric of ``BENCHMARK.json`` is printed with its unit and that no op
failed.  About a minute, most of it building level-8 tables.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    *_, info_line, result_line = done.stdout.splitlines()
    result = json.loads(result_line)
    info = json.loads(info_line)["provenance"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if trace == "1":
        assert result["metrics"]["fail_ratio"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["seed"] == 3 and info["fail_ratio"] == 0
    assert {"inputs_sha256", "commit", "src_sha256", "python", "nproc"} <= set(info)


def test_refuses_to_run_without_the_sources():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = bench("--workload", "products", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""


def test_an_op_that_raises_fails_without_ending_the_pass():
    def boom():
        raise ZeroDivisionError("inside the program")

    ops = [Op("ok", lambda: 1, lambda out: {"n": out}), Op("bad", boom, lambda out: {}),
           Op("ok", lambda: 2, lambda out: {"n": out})]
    errors = []
    p = run.run_pass(ops, errors)
    assert (p.attempted, p.failed, p.counts["n"]) == (3, 1, 3)
    assert errors == ["bad: ZeroDivisionError: inside the program"]


def test_oracle_signs_are_the_quaternions_and_octonions():
    # e1 e2 = e3 and the level-2 row of e1 from the golden r7 table.
    assert oracle.cell_values(1) == [[0, 3, -2], [-3, 0, 1], [2, -1, 0]]
    assert oracle.cell_values(2)[0] == [0, 3, -2, 5, -4, -7, 6]
