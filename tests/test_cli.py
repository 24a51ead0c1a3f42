"""End-to-end tests of the command-line interface.

Core claims:
    - table rendering matches the golden markdown/CSV/JSON formats
    - cross evaluates every product family, in exact and float mode, and
      prints a float zero product as 0.0 in every coordinate
    - verify emits the documented JSON reports and exits 0 when verdicts
      match expectations
    - counterexample prints the exact failing quantities (4 vs 0), and
      each vector's signed support, coefficients other than +-1 included
    - classify lists the verdict per level and the surviving dimensions
    - exit codes: 0 ok, 1 verdict mismatch (verify, classify and
      counterexample), 2 usage errors with their exact text
    - exact-mode output never contains decimal approximations, and prints
      results past int's 4300-digit str limit; main leaves that limit as
      it found it
    - identical invocations are byte-identical, and the reports of a fixed
      set of commands keep their recorded sha256
"""

import argparse
import dataclasses
import errno
import hashlib
import json
import os
import stat
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from crossn import cli, verify
from crossn.cli import main
from crossn.symbolic import build_table, table_from_json, table_to_markdown
from crossn.vecalg import Vector, cross3

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    capsys.readouterr()
    return exc.value.code


# == table ===================================================================


class TestTableCommand:
    def test_markdown_matches_golden(self, capsys):
        status, out = run(capsys, "table", "--k", "1", "--format", "md")
        assert status == 0
        assert out == (GOLDEN / "r3_table.md").read_text(encoding="utf-8")

    def test_markdown_row_e2(self, capsys):
        _, out = run(capsys, "table", "--k", "1")
        assert "| e2 | −e3 | 0 | e1 |" in out

    def test_csv_cell_4_3(self, capsys):
        status, out = run(capsys, "table", "--k", "2", "--format", "csv")
        assert status == 0
        grid = [line.split(",") for line in out.strip().splitlines()]
        assert len(grid) == 7 and all(len(r) == 7 for r in grid)
        assert grid[3][2] == "-7"

    def test_json_round_trips(self, capsys):
        status, out = run(capsys, "table", "--k", "2", "--format", "json")
        assert status == 0
        assert table_from_json(out) == build_table(2)

    def test_k_out_of_range(self, capsys):
        assert run_usage_error(capsys, "table", "--k", "11") == 2
        assert run_usage_error(capsys, "table", "--k", "0") == 2

    def test_bad_format(self, capsys):
        assert run_usage_error(capsys, "table", "--k", "1", "--format", "html") == 2


# == cross ===================================================================


class TestCrossCommand:
    def test_table_product_e2_e7(self, capsys):
        status, out = run(
            capsys,
            "cross",
            "--n", "7",
            "--u", "0,1,0,0,0,0,0",
            "--v", "0,0,0,0,0,0,1",
            "--product", "table",
        )
        assert status == 0
        assert out.strip() == "0,0,0,0,-1,0,0"

    def test_padded_counterexample_pair(self, capsys):
        _, out = run(
            capsys,
            "cross",
            "--n", "4",
            "--u", "0,0,0,1",
            "--v", "1,0,0,0",
            "--product", "padded",
        )
        assert out.strip() == "0,0,0,0"

    def test_cross3_self_product(self, capsys):
        _, out = run(
            capsys,
            "cross", "--n", "3", "--u", "1,0,0", "--v", "1,0,0",
            "--product", "cross3",
        )
        assert out.strip() == "0,0,0"

    def test_rational_literals(self, capsys):
        _, out = run(
            capsys,
            "cross", "--n", "3", "--u", "1/2,0,0", "--v", "0,1/3,0",
            "--product", "cross3",
        )
        assert out.strip() == "0,0,1/6"

    def test_negative_leading_coordinate_in_the_equals_form(self, capsys):
        status, out = run(
            capsys,
            "cross", "--n", "3", "--u", "1,2,3", "--v=-4,5,6",
            "--product", "cross3",
        )
        assert status == 0
        assert out == "-3,-18,13\n"

    def test_negative_leading_coordinate_as_a_separate_argument(self, capsys):
        # Whether "-4,5,6" after "--v" is a value or an option is argparse's
        # call and may differ between Python releases; crossn must either
        # compute the same product or give a usage error, nothing else.
        argv = ["cross", "--n", "3", "--u", "1,2,3", "--v", "-4,5,6",
                "--product", "cross3"]
        probe = argparse.ArgumentParser(exit_on_error=False)
        probe.add_argument("--v")
        try:
            probe.parse_args(["--v", "-4,5,6"])
        except argparse.ArgumentError:
            assert run_usage_error(capsys, *argv) == 2
        else:
            assert run(capsys, *argv) == (0, "-3,-18,13\n")

    def test_det_via_two_vectors(self, capsys):
        _, out = run(
            capsys,
            "cross", "--n", "3", "--u", "1,2,3", "--v", "4,5,6",
            "--product", "det",
        )
        assert out.strip() == "-3,6,-3"

    @pytest.mark.parametrize("product", ["cross3", "det", "table", "padded"])
    def test_results_past_the_int_str_limit(self, capsys, product):
        # 3000-digit coordinates multiply to a 6000-digit one, past int's
        # 4300-digit str limit (Python 3.10.7 on).  main lifts the limit for
        # its own call only, also when it ends in a usage error.
        digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = digit_limit()
        big = 10**3000 - 1
        u, v = f"{'9' * 3000},1,0", f"0,{'9' * 3000},1"
        status, out = run(capsys, "cross", "--n", "3", "--u", u, "--v", v, "--product", product)
        assert status == 0
        assert digit_limit() == before
        # Decimal reads the printed literals without int's str limit.
        printed = Vector.exact(int(Decimal(c)) for c in out.strip().split(","))
        assert printed == cross3(Vector.exact([big, 1, 0]), Vector.exact([0, big, 1]))
        assert run_usage_error(capsys, "cross", "--n", "4", "--u", u, "--v", v,
                               "--product", product) == 2
        assert digit_limit() == before

    def test_float_mode(self, capsys):
        status, out = run(
            capsys,
            "--float",
            "cross", "--n", "3", "--u", "0.5,0,0", "--v", "0,2,0",
            "--product", "cross3",
        )
        assert status == 0
        assert [float(t) for t in out.strip().split(",")] == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("product", ["cross3", "det", "table", "padded"])
    def test_float_zero_products_print_positive_zeros(self, capsys, product):
        argv = ("--float", "cross", "--n", "3", "--u", "1,0,0", "--v", "1,0,0")
        assert run(capsys, *argv, "--product", product) == (0, "0.0,0.0,0.0\n")

    def test_float_mode_rejects_non_finite_input(self, capsys):
        assert (
            run_usage_error(
                capsys,
                "--float",
                "cross", "--n", "3", "--product", "cross3",
                "--u", "nan,1,2", "--v", "1,inf,0",
            )
            == 2
        )

    def test_dimension_mismatch(self, capsys):
        assert (
            run_usage_error(
                capsys,
                "cross", "--n", "4", "--u", "1,0,0", "--v", "0,1,0",
                "--product", "padded",
            )
            == 2
        )

    @pytest.mark.parametrize(
        "n, product, message",
        [
            (5, "cross3", "cross3 needs --n 3"),
            (3, "cross7", "cross7 needs --n 7"),
            (2, "padded", "padded needs --n >= 3"),
            (5, "table", "--n 5 is not a table dimension (need n = 2^(k+1)-1)"),
            (
                4,
                "det",
                "the determinant product takes n-1 vectors in dimension n; "
                "with two inputs it is only defined for --n 3",
            ),
        ],
        ids=["cross3", "cross7", "padded", "table", "det"],
    )
    def test_product_needs_its_dimension(self, capsys, n, product, message):
        vector = ",".join(["1"] + ["0"] * (n - 1))
        with pytest.raises(SystemExit) as exc:
            main(["cross", "--n", str(n), "--u", vector, "--v", vector,
                  "--product", product])
        assert exc.value.code == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            f"crossn: error: {message}"
        )

    def test_malformed_vector(self, capsys):
        assert (
            run_usage_error(
                capsys,
                "cross", "--n", "3", "--u", "1,x,0", "--v", "0,1,0",
                "--product", "cross3",
            )
            == 2
        )


# == verify ==================================================================


class TestVerifyCommand:
    def test_cross3_all_axioms(self, capsys):
        status, out = run(
            capsys, "verify", "--product", "cross3", "--samples", "20"
        )
        assert status == 0
        reports = json.loads(out)
        axioms = [r["axiom"] for r in reports]
        assert axioms == [
            "perpendicular",
            "pythagorean",
            "bilinear",
            "identity-1.1",
            "identity-1.2",
            "identity-1.3",
            "identity-1.4",
            "identity-1.5",
            "identity-1.6",
        ]
        assert all(r["verdict"] == "holds-on-all-samples" for r in reports)
        assert all(r["seed"] == 1063 for r in reports)

    def test_defaults_come_from_verify(self, capsys):
        # The CLI sets no default of its own for --samples and --seed.
        status, out = run(capsys, "verify", "--product", "cross3", "--axioms", "perpendicular")
        assert status == 0
        (report,) = json.loads(out)
        assert report["seed"] == verify.DEFAULT_SEED
        assert report["samples"] == 9 + verify.DEFAULT_SAMPLES  # 3 x 3 basis pairs first

    def test_padded_4_expected_refutation_matches(self, capsys):
        status, out = run(
            capsys,
            "verify", "--product", "padded", "--n", "4",
            "--samples", "10", "--axioms", "pythagorean",
        )
        assert status == 0  # refutation is the expected verdict
        (report,) = json.loads(out)
        assert report["verdict"] == "refuted"
        assert report["witness"]["u"] == ["0", "0", "0", "1"]
        assert report["witness"]["lhs"] == "0"
        assert report["witness"]["rhs"] == "1"

    def test_table_level3_expected_refutation(self, capsys):
        status, out = run(
            capsys,
            "verify", "--product", "table", "--k", "3",
            "--samples", "5", "--axioms", "pythagorean,bilinear",
        )
        assert status == 0
        reports = json.loads(out)
        assert [r["verdict"] for r in reports] == ["refuted", "holds-on-all-samples"]

    def test_axiom_subset(self, capsys):
        status, out = run(
            capsys,
            "verify", "--product", "cross7", "--samples", "10",
            "--axioms", "perpendicular,bilinear",
        )
        assert status == 0
        assert [r["axiom"] for r in json.loads(out)] == [
            "perpendicular",
            "bilinear",
        ]

    def test_float_mode_rejected(self, capsys):
        assert (
            run_usage_error(
                capsys, "--float", "verify", "--product", "cross3"
            )
            == 2
        )

    def test_table_requires_k(self, capsys):
        assert run_usage_error(capsys, "verify", "--product", "table") == 2

    def test_padded_requires_n(self, capsys):
        assert run_usage_error(capsys, "verify", "--product", "padded") == 2

    # A usage error prints its exact text as the last line on stderr.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("verify", "--product", "table", "--k", "2", "--n", "99"),
                "the level-2 table has dimension 7",
            ),
            (
                ("verify", "--product", "cross7", "--k", "9"),
                "--k applies only to --product table",
            ),
            (
                ("verify", "--product", "padded", "--n", "8", "--k", "4"),
                "--k applies only to --product table",
            ),
            (("verify", "--product", "table"), "verify --product table needs --k"),
            (("verify", "--product", "padded"), "verify --product padded needs --n"),
            (("verify", "--product", "padded", "--n", "2"), "padded needs --n >= 3"),
            (("verify", "--product", "table", "--k", "11"), "--k must be in 1..10"),
            (("verify", "--product", "cross3", "--n", "7"), "cross3 has dimension 3"),
            (
                ("verify", "--product", "cross3", "--samples", "0"),
                "--samples must be >= 1",
            ),
            (
                ("verify", "--product", "cross3", "--axioms", ","),
                "--axioms must name at least one axiom",
            ),
            (("counterexample", "--k", "11"), "--k must be <= 10"),
            (
                ("--float", "counterexample", "--k", "3"),
                "the counterexample is computed in exact mode only",
            ),
            (("--float", "classify"), "classification runs in exact mode only"),
        ],
        ids=[
            "table-n", "cross7-k", "padded-k", "table-no-k", "padded-no-n",
            "padded-n2", "table-k11", "cross3-n", "samples-0", "axioms-empty",
            "counterexample-k11", "float-counterexample", "float-classify",
        ],
    )
    def test_contradictory_flags(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            f"crossn: error: {message}"
        )

    def test_contradicted_expectation_exits_1(self, capsys, monkeypatch):
        # cli.FAMILIES looks the factory up at call time, so this broken
        # product stands in for cross7, which is expected to keep everything.
        real = verify.cross7_product
        monkeypatch.setattr(
            verify,
            "cross7_product",
            lambda: dataclasses.replace(real(), evaluate=lambda u, v: v),
        )
        status, out = run(
            capsys, "verify", "--product", "cross7", "--samples", "1",
            "--axioms", "perpendicular",
        )
        assert status == 1
        (report,) = json.loads(out)
        assert (report["product"], report["verdict"]) == ("cross7", "refuted")

    def test_table_accepts_its_own_dimension(self, capsys):
        status, out = run(
            capsys, "verify", "--product", "table", "--k", "2", "--n", "7",
            "--samples", "2", "--axioms", "perpendicular",
        )
        assert status == 0
        assert json.loads(out)[0]["dim"] == 7

    def test_unknown_axiom(self, capsys):
        assert (
            run_usage_error(
                capsys, "verify", "--product", "cross3", "--axioms", "magic"
            )
            == 2
        )

    def test_unknown_axiom_after_all(self, capsys):
        assert (
            run_usage_error(
                capsys, "verify", "--product", "cross3", "--axioms", "all,magic"
            )
            == 2
        )

    def test_repeated_axioms_collapse_in_first_seen_order(self, capsys):
        status, out = run(
            capsys,
            "verify", "--product", "cross7", "--samples", "5",
            "--axioms", "perpendicular,perpendicular",
        )
        assert status == 0
        assert [r["axiom"] for r in json.loads(out)] == ["perpendicular"]
        _, out = run(
            capsys,
            "verify", "--product", "cross3", "--samples", "5",
            "--axioms", "bilinear, perpendicular,bilinear",
        )
        assert [r["axiom"] for r in json.loads(out)] == [
            "bilinear",
            "perpendicular",
        ]

    def test_byte_identical_reruns(self, capsys):
        args = (
            "verify", "--product", "cross7", "--samples", "15", "--seed", "7",
        )
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_exact_output_has_no_decimal_literals(self, capsys):
        _, out = run(
            capsys, "verify", "--product", "padded", "--n", "5",
            "--samples", "10",
        )
        for report in json.loads(out):
            witness = report["witness"]
            if witness is None:
                continue
            for side in ("u", "v", "lhs", "rhs"):
                value = witness.get(side)
                tokens = value if isinstance(value, list) else [value]
                for token in tokens:
                    assert token is None or "." not in token


# == counterexample ==========================================================


class TestCounterexampleCommand:
    def test_level_three_quantities(self, capsys):
        status, out = run(capsys, "counterexample", "--k", "3")
        assert status == 0
        assert "u x v = " + ",".join(["0"] * 15) in out
        assert "u . u = 2" in out
        assert "v . v = 2" in out
        assert "u . v = 0" in out
        assert "LHS (u.u)(v.v) = 4" in out
        assert "RHS (u x v).(u x v) + (u.v)^2 = 0" in out
        assert "Pythagorean fails" in out

    def test_level_four_embedding(self, capsys):
        status, out = run(capsys, "counterexample", "--k", "4")
        assert status == 0
        assert "n = 31" in out
        assert "LHS (u.u)(v.v) = 4" in out

    def test_known_pair_that_holds_exits_1(self, capsys, monkeypatch):
        # e1, e2 satisfy the Pythagorean identity at every level.
        real = verify.product_for_table

        def holding_pair(table):
            units = (Vector.unit(table.n, 1), Vector.unit(table.n, 2))
            return dataclasses.replace(real(table), known=units)

        monkeypatch.setattr(verify, "product_for_table", holding_pair)
        status, out = run(capsys, "counterexample", "--k", "3")
        assert status == 1
        assert "RHS (u x v).(u x v) + (u.v)^2 = 1" in out
        assert out.strip().splitlines()[-1] == "verdict: Pythagorean holds (unexpected)"

    def test_level_too_small(self, capsys):
        assert run_usage_error(capsys, "counterexample", "--k", "2") == 2

    @pytest.mark.parametrize(
        "coords, text",
        [("0,0,1,0,0,0,0,0,0,1", "e3+e10"), ("0,0,0,0,0,1,0,-1", "e6-e8"),
         ("0,1/2,-3", "1/2*e2-3*e3"), ("-2,0,5/3", "-2*e1+5/3*e3"), ("0,0", "0")],
    )
    def test_support_str(self, coords, text):
        assert cli._support_str(Vector.exact(coords.split(","))) == text


# == classify ================================================================


class TestClassifyCommand:
    def test_pattern_and_footer(self, capsys):
        status, out = run(capsys, "classify", "--max-k", "3")
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("k=1 n=3: pythagorean holds-on-all-samples")
        assert lines[1].startswith("k=2 n=7: pythagorean holds-on-all-samples")
        assert "k=3 n=15: pythagorean refuted" in lines[2]
        assert "witness u=e3+e10 v=e6-e15" in lines[2]
        assert "(lhs 0, rhs 4)" in lines[2]
        assert "dimensions 0, 1, 3 and 7" in lines[-1]
        assert "zero map" in lines[-1]

    def test_contradicted_expectation_exits_1(self, capsys, monkeypatch):
        # kept=() with no known pair expects the Pythagorean identity to be
        # refuted, but at level 1 it holds.
        real = verify.product_for_table
        monkeypatch.setattr(
            verify, "product_for_table", lambda t: dataclasses.replace(real(t), kept=())
        )
        (report,) = verify.classify_dimensions(1, samples=1)
        assert (report.verdict, report.expected) == ("holds-on-all-samples", "refuted")
        assert report.unexpected
        status, out = run(capsys, "classify", "--max-k", "1")
        assert status == 1
        assert out.startswith("k=1 n=3: pythagorean holds-on-all-samples\n")

    def test_max_k_bounds(self, capsys):
        assert run_usage_error(capsys, "classify", "--max-k", "0") == 2
        assert run_usage_error(capsys, "classify", "--max-k", "11") == 2


# == output plumbing =========================================================


class TestOutputFile:
    def test_output_writes_file(self, tmp_path, capsys):
        target = tmp_path / "table.md"
        status, out = run(
            capsys, "--output", str(target), "table", "--k", "1"
        )
        assert status == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == table_to_markdown(
            build_table(1)
        ) + "\n"

    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main(["--output", str(target), "table", "--k", "1"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith(
            f"crossn: error: cannot write --output {target}: "
        )
        assert not target.exists()

    def test_failed_write_keeps_the_existing_file(
        self, tmp_path, capsys, monkeypatch
    ):
        target = tmp_path / "table.md"
        target.write_text("old contents\n", encoding="utf-8")
        real_open = open

        class DiskFull:
            """A file that takes a few characters, then runs out of space."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:10])
                self.fh.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(
            cli,
            "open",
            lambda *a, **kw: DiskFull(real_open(*a, **kw)),
            raising=False,
        )
        with pytest.raises(SystemExit) as exc:
            main(["--output", str(target), "table", "--k", "1"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.strip().splitlines()[-1] == (
            f"crossn: error: cannot write --output {target}: "
            f"{os.strerror(errno.ENOSPC)}"
        )
        assert target.read_text(encoding="utf-8") == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.md"]

    def test_rewrite_keeps_permissions_and_leaves_no_temporary(
        self, tmp_path, capsys
    ):
        target = tmp_path / "table.md"
        target.write_text("old contents\n", encoding="utf-8")
        target.chmod(0o640)
        status, _ = run(capsys, "--output", str(target), "table", "--k", "1")
        assert status == 0
        assert target.read_text(encoding="utf-8") == table_to_markdown(
            build_table(1)
        ) + "\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert [p.name for p in tmp_path.iterdir()] == ["table.md"]

    @pytest.mark.parametrize(
        "where, reason",
        [
            ("missing/out.txt", errno.ENOENT),
            ("file.txt/out.txt", errno.ENOTDIR),
            (".", errno.EISDIR),
            # An empty path, such as an unset variable, names the directory.
            ("", errno.EISDIR),
        ],
        ids=["missing-dir", "file-as-dir", "is-a-dir", "empty"],
    )
    def test_unwritable_path_fails_before_the_command(
        self, tmp_path, capsys, monkeypatch, where, reason
    ):
        (tmp_path / "file.txt").write_text("keep\n", encoding="utf-8")
        target = tmp_path / where if where else ""
        monkeypatch.chdir(tmp_path)

        def never(args, parser):
            raise AssertionError("the command ran before --output was checked")

        monkeypatch.setattr(cli, "cmd_verify", never)
        with pytest.raises(SystemExit) as exc:
            main(["--output", str(target), "verify", "--product", "table", "--k", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            f"crossn: error: cannot write --output {target}: {os.strerror(reason)}"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]
        assert (tmp_path / "file.txt").read_text(encoding="utf-8") == "keep\n"

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_device_is_written_in_place(self, capsys):
        status, out = run(capsys, "--output", "/dev/null", "table", "--k", "1")
        assert status == 0
        assert out == ""
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)


# == golden reports ==========================================================

# sha256 of stdout, which no refactoring or fast path may move: verify
# reports at the default seed, tables in every format, exact and double
# products, and classify and counterexample up to level 10.  --help is left
# out, because argparse wraps it differently across Python versions.
# Dense level-4 operands for table crosses: exact ones with denominators far
# outside the verifier's {1, 2, 3}, and decimal ones whose float sums round.
_U31 = ",".join(f"{(-1) ** i * i}/{i + 4}" for i in range(1, 32))
_V31 = ",".join(f"{32 - i}/{2 * i + 3}" for i in range(1, 32))
_FLOAT_U31 = ",".join(str((-1) ** i * i / 8) for i in range(1, 32))
_FLOAT_V31 = ",".join(str((32 - i) / 10) for i in range(1, 32))

GOLDEN_DIGESTS = {
    ("verify", "--product", "cross7", "--samples", "20"):
        "1710b91bf3cc4caf8b5af819dc77880f7b1a557b73611150c7540dd4eaf4a9c5",
    ("verify", "--product", "table", "--k", "3", "--samples", "20"):
        "3b9b49a0006210aeba3567eb534c835c391354daed33da32b1d49d42fd1b9282",
    ("verify", "--product", "padded", "--n", "8", "--samples", "20"):
        "cdf22a96f38338f39ef0f981f327658e416019d558738324984b97fd1d969cbc",
    ("classify", "--max-k", "6"):
        "1bfbca6cd1fb06b53925c7dd1bb31c39eeeb6c59b59b9abd3b54752a307129ac",
    ("counterexample", "--k", "3"):
        "e5c6b49108998975becfe2d8ea5355dc9ff021e0a825b5d54d0c326133ac3dea",
    ("verify", "--product", "table", "--k", "2", "--samples", "20"):
        "58d0fdca0ed0e80070b84d7269cff44cbd34306df0e90bb3f823ceec5c86bc8a",
    ("verify", "--product", "padded", "--n", "4", "--samples", "20"):
        "3a17c4d6553d192fcf3aab43fb8dd9170aab85ae40cdecd18f9fbf39b578ce1e",
    ("table", "--k", "1", "--format", "md"):
        "ea0d3b56022df96490bb967ccd3c70d70c76ccf4c455b7b46554b5395d811567",
    ("table", "--k", "1", "--format", "csv"):
        "6505aff044910791f25826a31e789010a5308ed9c0ac50f8fa850011c5e98ba6",
    ("table", "--k", "1", "--format", "json"):
        "a2c9b72f7284e83944a561e71d3ae8444226e25cc99205164e32726293cb0ab8",
    ("table", "--k", "2", "--format", "md"):
        "dace88cf2d42d2d0055c5dc5d5fa2bf3610afc66923b776be500b7c439fae447",
    ("table", "--k", "2", "--format", "csv"):
        "30d42eb3b5dc93f218eeea9ee3be932f688ba587e0ef894927b811e42da62d71",
    ("table", "--k", "2", "--format", "json"):
        "1c93c963bcb21d32f5300b0e3b0c74c091d3497cece08c6acd233b8be4ae73c6",
    ("table", "--k", "3", "--format", "md"):
        "787422f1f52fd710b0d0dce0902828a4be033d637b93dba17a2d7262543b9ad2",
    ("table", "--k", "3", "--format", "csv"):
        "e5fd8134f875192c3f9427a888e7a8feca6ed4272cbdcac03a34e4180638216d",
    ("table", "--k", "3", "--format", "json"):
        "089cc5c486277043b8afb784aec263148293987282a96a09ad76409902f1e783",
    ("cross", "--product", "table", "--n", "7",
     "--u", "0,1,0,0,0,1/2,0", "--v", "1,0,0,2,0,0,-1"):
        "808ccb1171fe10b0dd170de9b63ee6f9a8d2c2d6dd3d20b9bb89675e05930c76",
    ("cross", "--product", "cross3", "--n", "3", "--u", "1,2,3", "--v", "4,5,-6/7"):
        "ed41cca904a73fb618bd8c937ea981287d7c967495053c29aaeb344db8d1d8e3",
    ("cross", "--product", "cross7", "--n", "7",
     "--u", "1,2,3,4,5,6,7", "--v", "7,-6,5,-4,3,-2,1/3"):
        "1278cc579fad58c9d34366c80501f1b743358a70652f716b4b561e2fa1d286a4",
    ("cross", "--product", "padded", "--n", "5",
     "--u", "1,2,3,4,5", "--v", "5,4,3,2,1/2"):
        "f7120386e1217ea17d28accbabeb17a8e21f577cb6f9cf91092de8213448f2f3",
    ("cross", "--product", "det", "--n", "3", "--u", "1,2,3", "--v", "4,5,6"):
        "2c2f55569b051dd41c658013fe6b063416d2b72052e2d03dfc5a14c4a18fac6a",
    ("--float", "cross", "--product", "cross7", "--n", "7",
     "--u", "1,2,3,4,5,6,7", "--v", "7,-6,5,-4,3,-2,0.1"):
        "417058bb6d38d6c061b4112d326f55566417b734049ea034bc72b139b298e7fb",
    ("--float", "cross", "--product", "table", "--n", "7",
     "--u", "0,1,0,0,0,0.5,0", "--v", "1,0,0,2,0,0,-1.25"):
        "0ee538e681f64f6aa9c2de7a6fd5aba442078a3e479419e7b4a049c8ed115fb8",
    ("--float", "cross", "--product", "padded", "--n", "5",
     "--u", "1,2,3,4,5.5", "--v", "5,4,3,2,0.1"):
        "12f75a5d1c3a7faac93cbbd35ac0b05ec2694e732317eba1514a8493833887c7",
    ("classify", "--max-k", "10"):
        "f036f59543087d318c901f81a621638637ec94771a8c0fb8a31bdff822ff19d9",
    ("counterexample", "--k", "10"):
        "540a5e936819e17453f2b4aba9b5b058341812668cf2cc298bb310662f89fd2a",
    ("cross", "--product", "table", "--n", "31", "--u=" + _U31, "--v=" + _V31):
        "1ccd2fc7c73c34265f3a850a73d54ac7a5a1d131c26358cfcf6fe868d8c8faa7",
    ("--float", "cross", "--product", "table", "--n", "31",
     "--u=" + _FLOAT_U31, "--v=" + _FLOAT_V31):
        "0e7fe7d8ce5252db516e4f2cba5b286cf7e8ac165bad764dd67b645c46cc3793",
}

# An id is the argv's first four words, or all of them once those are taken.
DIGEST_IDS = []
for _argv in GOLDEN_DIGESTS:
    _short = "-".join(_argv[:4])
    DIGEST_IDS.append("-".join(_argv) if _short in DIGEST_IDS else _short)


@pytest.mark.parametrize("argv", list(GOLDEN_DIGESTS), ids=DIGEST_IDS)
def test_report_digest(capsys, argv):
    status, out = run(capsys, *argv)
    assert status == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_DIGESTS[argv]
