"""Command-line front end: tables, products, axiom verification, counterexample.

Exit codes: 0 on success with all expected verdicts, 1 when a verification
verdict contradicts the expectation, 2 on usage errors.  Exact mode output
contains only integer/rational literals; identical invocations with the same
seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
from typing import TYPE_CHECKING, List, Optional, Tuple

from . import symbolic

if TYPE_CHECKING:
    from . import verify
    from .vecalg import Vector


def __getattr__(name):
    # Serves only cli.table_product, for the benchmark's tracing, which wraps
    # it by name; cli multiplies through _product.  ROADMAP item 1 retires it.
    if name != "table_product":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .vecalg import table_product

    return table_product


# --product's families, and the fixed dimension of each formula product.
_PRODUCTS = ("table", "cross3", "cross7", "padded")
_FIXED_DIM = {"cross3": 3, "cross7": 7}
FORMATS = {"md": "markdown", "csv": "csv", "json": "json"}
AXIOM_CHOICES = ("perpendicular", "pythagorean", "bilinear", "identities", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossn",
        description="Exact cross-product tables and axiom verification on R^n.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--exact",
        dest="float",
        action="store_false",
        help="exact rational arithmetic (default)",
    )
    mode.add_argument(
        "--float",
        dest="float",
        action="store_true",
        help="double-precision evaluation (product evaluation only)",
    )
    # Else --exact, added first, would set its store_false default, True.
    parser.set_defaults(float=False)
    parser.add_argument("--output", metavar="PATH", help="write output to a file")

    sub = parser.add_subparsers(dest="command", required=True)
    levels = f"(1..{symbolic.MAX_LEVEL})"

    p_table = sub.add_parser("table", help="print a basis multiplication table")
    p_table.add_argument("--k", type=int, required=True, help=f"basis level {levels}")
    p_table.add_argument("--format", choices=FORMATS, default="md")

    p_cross = sub.add_parser("cross", help="multiply two vectors")
    p_cross.add_argument("--n", type=int, required=True, help="dimension")
    p_cross.add_argument(
        "--u", required=True, help="first vector, e.g. 1,-2/3,0 (--u=-1,2,0 if it starts with -)"
    )
    p_cross.add_argument("--v", required=True, help="second vector (--v=-4,5,6 likewise)")
    p_cross.add_argument("--product", choices=[*_PRODUCTS, "det"], required=True)

    p_verify = sub.add_parser("verify", help="check axioms against a product")
    p_verify.add_argument("--product", choices=_PRODUCTS, required=True)
    p_verify.add_argument("--n", type=int, help="dimension (padded/cross3/cross7)")
    p_verify.add_argument("--k", type=int, help="table level (table product)")
    # No defaults here: verify's checkers own them, and only the options given
    # are passed on.
    p_verify.add_argument("--samples", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument(
        "--axioms",
        default="all",
        help="comma-separated subset of perpendicular,pythagorean,bilinear,"
        "identities (default: all)",
    )

    p_ce = sub.add_parser(
        "counterexample", help="show the Pythagorean failure for level k >= 3"
    )
    p_ce.add_argument("--k", type=int, required=True, help="basis level (>= 3)")

    p_cls = sub.add_parser(
        "classify", help="which dimensions admit a cross product"
    )
    p_cls.add_argument("--max-k", type=int, default=3, help=f"largest level {levels}")

    return parser


def cmd_table(args, parser) -> Tuple[str, int]:
    if not 1 <= args.k <= symbolic.MAX_LEVEL:
        parser.error(f"--k must be in 1..{symbolic.MAX_LEVEL}")
    serialise = getattr(symbolic, f"table_to_{FORMATS[args.format]}")
    return serialise(symbolic.build_table(args.k)), 0


def cmd_cross(args, parser) -> Tuple[str, int]:
    from .vecalg import DOUBLE, EXACT, det_product, format_vector, parse_vector

    mode = DOUBLE if args.float else EXACT
    try:
        u = parse_vector(args.u, mode)
        v = parse_vector(args.v, mode)
    except ValueError as exc:
        parser.error(str(exc))
    if u.dim != args.n or v.dim != args.n:
        parser.error(f"--u/--v must have dimension {args.n}")
    if args.product == "det":
        if args.n != 3:
            parser.error(
                "the determinant product takes n-1 vectors in dimension n; "
                "with two inputs it is only defined for --n 3",
            )
        return format_vector(det_product([u, v])), 0
    return format_vector(_product(args.product, args.n, parser).evaluate(u, v)), 0


def _product(name: str, n: int, parser) -> verify.ProductUnderTest:
    """Family ``name``'s product on R^n; a usage error if n does not fit it.

    Table dimensions are n = 2^(k+1)-1 for levels 1..MAX_LEVEL.  verify's
    factories are looked up when called, so that a patch of them (as in
    bench/tracing.py) takes effect.
    """
    from . import verify

    if name == "table":
        if not 3 <= n < 2 << symbolic.MAX_LEVEL or n & (n + 1):
            parser.error(f"--n {n} is not a table dimension (need n = 2^(k+1)-1)")
        return verify.product_for_table(symbolic.build_table(n.bit_length() - 1))
    if name == "padded":
        if n < 3:
            parser.error("padded needs --n >= 3")
        return verify.padded_product(n)
    if n != _FIXED_DIM[name]:
        parser.error(f"{name} needs --n {_FIXED_DIM[name]}")
    return (verify.cross3_product if name == "cross3" else verify.cross7_product)()


def _product_under_test(args, parser) -> verify.ProductUnderTest:
    """The product verify checks; n comes from --k or the fixed dimension."""
    name, n = args.product, args.n
    if name == "table":
        if args.k is None:
            parser.error("verify --product table needs --k")
        if not 1 <= args.k <= symbolic.MAX_LEVEL:
            parser.error(f"--k must be in 1..{symbolic.MAX_LEVEL}")
        label, dim = f"the level-{args.k} table", (2 << args.k) - 1
    elif args.k is not None:
        parser.error("--k applies only to --product table")
    else:
        label, dim = name, _FIXED_DIM.get(name)
    if dim is not None:
        if n not in (None, dim):
            parser.error(f"{label} has dimension {dim}")
        n = dim
    elif n is None:
        parser.error(f"verify --product {name} needs --n")
    return _product(name, n, parser)


def _parse_axioms(raw: str, parser) -> List[str]:
    """Axiom names in first-seen order, each once; ``all`` means the others."""
    tokens = [t.strip() for t in raw.split(",") if t.strip()]
    if not tokens:
        parser.error("--axioms must name at least one axiom")
    for t in tokens:
        if t not in AXIOM_CHOICES:
            parser.error(
                f"unknown axiom {t!r} (choose from {', '.join(AXIOM_CHOICES)})"
            )
    if "all" in tokens:
        return [a for a in AXIOM_CHOICES if a != "all"]
    return list(dict.fromkeys(tokens))


def cmd_verify(args, parser) -> Tuple[str, int]:
    if args.float:
        parser.error("verification runs in exact mode only")
    if args.samples is not None and args.samples < 1:
        parser.error("--samples must be >= 1")
    product = _product_under_test(args, parser)
    axioms = _parse_axioms(args.axioms, parser)
    options = {k: v for k, v in (("samples", args.samples), ("seed", args.seed)) if v is not None}

    import json

    from . import verify

    # The benchmark's tracing wraps the four group checkers by name, so they
    # are called here rather than verify.check: a traced run's
    # verify.check.* spans then equal the reports' case counts.
    reports: List[verify.AxiomReport] = []
    for axiom in axioms:
        found = getattr(verify, f"check_{axiom}")(product, **options)
        reports += found if axiom == "identities" else [found]
    text = json.dumps([r.to_json_dict() for r in reports], indent=2)
    return text, int(any(r.unexpected for r in reports))


def _support_str(v: Vector) -> str:
    """Compact signed-support form, e.g. ``e3+e10`` or ``e6-e15``."""
    parts = []
    for i, c in enumerate(v.coords, start=1):
        if not c:
            continue
        if c == 1:
            parts.append(("+" if parts else "") + f"e{i}")
        elif c == -1:
            parts.append(f"-e{i}")
        else:
            parts.append(("+" if parts and c > 0 else "") + f"{c}*e{i}")
    return "".join(parts) if parts else "0"


def cmd_counterexample(args, parser) -> Tuple[str, int]:
    if args.float:
        parser.error("the counterexample is computed in exact mode only")
    if args.k < 3:
        parser.error(
            "the construction uses generator u3, so it needs --k >= 3 "
            "(levels 1 and 2 carry genuine cross products)",
        )
    if args.k > symbolic.MAX_LEVEL:
        parser.error(f"--k must be <= {symbolic.MAX_LEVEL}")
    from . import verify
    from .vecalg import dot, format_vector

    product = _product("table", (2 << args.k) - 1, parser)
    u, v = product.known
    witness = verify.check_case(product, verify.AXIOM_PYTHAGOREAN, u, v)
    duu, dvv = dot(u, u), dot(v, v)
    lhs = duu * dvv
    # The test's rhs is (u.u)(v.v), printed as LHS; with no witness both agree.
    rhs = lhs if witness is None else witness.lhs
    lines = [
        f"k = {args.k}, n = {product.dim}",
        f"u = {format_vector(u)}   ({_support_str(u)})",
        f"v = {format_vector(v)}   ({_support_str(v)})",
        f"u x v = {format_vector(product.evaluate(u, v))}",
        f"u . v = {dot(u, v)}",
        f"u . u = {duu}",
        f"v . v = {dvv}",
        f"LHS (u.u)(v.v) = {lhs}",
        f"RHS (u x v).(u x v) + (u.v)^2 = {rhs}",
    ]
    if witness is not None:
        lines.append(f"verdict: Pythagorean fails ({lhs} != {rhs})")
        return "\n".join(lines), 0
    lines.append("verdict: Pythagorean holds (unexpected)")
    return "\n".join(lines), 1


def cmd_classify(args, parser) -> Tuple[str, int]:
    if args.float:
        parser.error("classification runs in exact mode only")
    if not 1 <= args.max_k <= symbolic.MAX_LEVEL:
        parser.error(f"--max-k must be in 1..{symbolic.MAX_LEVEL}")
    from . import verify

    reports = verify.classify_dimensions(args.max_k)
    lines = []
    for k, report in enumerate(reports, start=1):
        if report.refuted:
            w = report.witness
            lines.append(
                f"k={k} n={report.dim}: pythagorean refuted  "
                f"witness u={_support_str(w.u)} v={_support_str(w.v)} "
                f"(lhs {w.lhs}, rhs {w.rhs})"
            )
        else:
            lines.append(f"k={k} n={report.dim}: pythagorean {report.verdict}")
    lines.append(
        "a cross product exists only in dimensions 0, 1, 3 and 7; "
        "in dimensions 0 and 1 the zero map is a valid cross product"
    )
    return "\n".join(lines), int(any(r.unexpected for r in reports))


def _check_output_path(path: str) -> None:
    """Raise OSError if ``path`` can never be written as a file.

    That is so when its directory is missing or is not a directory, or when
    ``path`` is itself a directory.  Nothing is created or truncated, so a
    later failure can still only show when the file is written.
    """
    target = os.path.realpath(path)
    if not stat.S_ISDIR(os.stat(os.path.dirname(target)).st_mode):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    if os.path.isdir(target):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))


def _write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path`` so that a failed write leaves the old file.

    A regular file (or a new one) is written to a temporary file in the same
    directory and renamed onto the target, keeping an existing file's
    permission bits.  Any other existing path, such as a device or a pipe,
    is written in place.  Symlinks are followed.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    target = os.path.realpath(path)
    if mode is None:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    import tempfile

    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(target), prefix=f".{os.path.basename(target)}."
    )
    os.close(fd)
    try:
        os.chmod(tmp, stat.S_IMODE(mode))
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _fail_output(parser, path: str, exc: OSError) -> None:
    parser.error(f"cannot write --output {path}: {exc.strerror or exc}")


def main(argv: Optional[List[str]] = None) -> int:
    # Exact values may pass int's str limit (4300 digits, Python 3.10.7 on).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.output is not None:
            try:
                _check_output_path(args.output)
            except OSError as exc:
                _fail_output(parser, args.output, exc)
        text, status = globals()[f"cmd_{args.command}"](args, parser)
        if args.output is not None:
            try:
                _write_output(args.output, text + "\n")
            except OSError as exc:
                _fail_output(parser, args.output, exc)
        else:
            print(text)
        return status
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
