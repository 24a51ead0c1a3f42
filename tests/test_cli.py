"""End-to-end tests of the command-line interface.

Core claims:
    - table rendering matches the golden markdown/CSV/JSON formats
    - cross evaluates every product family, in exact and float mode
    - verify emits the documented JSON reports and exits 0 when verdicts
      match expectations
    - counterexample prints the exact failing quantities (4 vs 0)
    - classify lists the verdict per level and the surviving dimensions
    - exit codes: 0 ok, 1 verdict mismatch, 2 usage errors
    - exact-mode output never contains decimal approximations
    - identical invocations are byte-identical, and the reports of a fixed
      set of commands keep their recorded sha256
"""

import errno
import hashlib
import json
import os
import stat
from pathlib import Path

import pytest

from crossn import cli
from crossn.cli import main
from crossn.symbolic import build_table, table_from_json, table_to_markdown

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

    def test_det_via_two_vectors(self, capsys):
        _, out = run(
            capsys,
            "cross", "--n", "3", "--u", "1,2,3", "--v", "4,5,6",
            "--product", "det",
        )
        assert out.strip() == "-3,6,-3"

    def test_float_mode(self, capsys):
        status, out = run(
            capsys,
            "--float",
            "cross", "--n", "3", "--u", "0.5,0,0", "--v", "0,2,0",
            "--product", "cross3",
        )
        assert status == 0
        assert [float(t) for t in out.strip().split(",")] == [0.0, 0.0, 1.0]

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

    def test_cross7_needs_n_7(self, capsys):
        assert (
            run_usage_error(
                capsys,
                "cross", "--n", "3", "--u", "1,0,0", "--v", "0,1,0",
                "--product", "cross7",
            )
            == 2
        )

    def test_table_needs_table_dimension(self, capsys):
        assert (
            run_usage_error(
                capsys,
                "cross", "--n", "5", "--u", "1,0,0,0,0", "--v", "0,1,0,0,0",
                "--product", "table",
            )
            == 2
        )

    def test_det_needs_n_3(self, capsys):
        assert (
            run_usage_error(
                capsys,
                "cross", "--n", "4", "--u", "1,0,0,0", "--v", "0,1,0,0",
                "--product", "det",
            )
            == 2
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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("table", "--k", "2", "--n", "99"), "the level-2 table has dimension 7"),
            (("cross7", "--k", "9"), "--k applies only to --product table"),
            (("padded", "--n", "8", "--k", "4"), "--k applies only to --product table"),
        ],
        ids=["table-n", "cross7-k", "padded-k"],
    )
    def test_contradictory_flags(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--product", *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            f"crossn: error: {message}"
        )

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

    def test_level_too_small(self, capsys):
        assert run_usage_error(capsys, "counterexample", "--k", "2") == 2


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

    def test_max_k_bounds(self, capsys):
        assert run_usage_error(capsys, "classify", "--max-k", "0") == 2
        assert run_usage_error(capsys, "classify", "--max-k", "7") == 2


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
        ],
        ids=["missing-dir", "file-as-dir", "is-a-dir"],
    )
    def test_unwritable_path_fails_before_the_command(
        self, tmp_path, capsys, monkeypatch, where, reason
    ):
        (tmp_path / "file.txt").write_text("keep\n", encoding="utf-8")
        target = tmp_path / where

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

# sha256 of stdout at the default seed.  Neither the checkers' fast paths
# (kept cleared integers, basis products evaluated once) nor the shared
# checker driver may move a byte.
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
