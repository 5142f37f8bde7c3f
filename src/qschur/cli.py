"""Command-line surface: multiply, reduce, basis, table, verify.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage,
parse or guard errors, so CI can gate directly on theorem suites.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .algebra import (
    EKF,
    FKE,
    Context,
    Element,
    anti_involution,
    multiply,
    reduce_monomial,
    reduction_defect,
)
from .laurent import LaurentPoly
from .suites import FAULTS, SUITE_GUARDS, SUITES, run_suites
from .textio import element_json_text, element_to_json, format_element, parse_element

TABLE_MAX_D = 6


class UsageError(Exception):
    pass


def _orientation(value: str) -> str:
    value = value.lower()
    if value == "ekf":
        return EKF
    if value == "fke":
        return FKE
    raise argparse.ArgumentTypeError(f"orientation must be 'ekf' or 'fke', got {value!r}")


def _quadruple(value: str) -> tuple[int, int, int, int]:
    parts = value.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected a,b1,b2,c but got {value!r}")
    try:
        a, b1, b2, c = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer component in {value!r}") from None
    return (a, b1, b2, c)


def _read_operand(value: str) -> str | dict:
    """An operand is a file path (text or JSON contents) or an inline string."""
    if os.path.exists(value):
        with open(value, "r", encoding="utf-8") as fh:
            value = fh.read()
    stripped = value.strip()
    if stripped.startswith("{"):
        try:
            return json.loads(stripped)
        except RecursionError:
            raise ValueError("JSON operand is nested too deeply") from None
    return stripped


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qschur",
        description="Exact computations in the degree-d quantum Schur algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, orientation: bool = True) -> None:
        p.add_argument("--d", type=int, required=True, help="degree d >= 0")
        if orientation:
            p.add_argument(
                "--orientation", type=_orientation, default=EKF, help="ekf or fke"
            )
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("multiply", help="multiply two elements")
    common(p)
    p.add_argument("--lhs", required=True, help="element text/JSON, inline or a file path")
    p.add_argument("--rhs", required=True, help="element text/JSON, inline or a file path")

    p = sub.add_parser("reduce", help="straighten a single monomial")
    common(p)
    p.add_argument(
        "--monomial", type=_quadruple, required=True, help="quadruple a,b1,b2,c"
    )

    p = sub.add_parser("basis", help="list the canonical basis monomials")
    common(p)

    # table always writes JSON lines, so it takes no --format.
    p = sub.add_parser("table", help="emit all structure constants as JSON lines")
    p.add_argument("--d", type=int, required=True, help="degree d >= 0")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.add_argument("--max-d-override", action="store_true")

    p = sub.add_parser("verify", help="run theorem-verification suites")
    common(p, orientation=False)
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    p.add_argument("--max-d-override", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--inject-fault",
        choices=[f for f in FAULTS if f],
        default=None,
        help="deliberately break the build so the suites must fail (self-test)",
    )
    return parser


def cmd_multiply(args) -> int:
    ctx = Context(args.d)
    lhs = parse_element(_read_operand(args.lhs), ctx, args.orientation)
    rhs = parse_element(_read_operand(args.rhs), ctx, args.orientation)
    product = multiply(lhs, rhs)
    if args.format == "json":
        _emit(element_json_text(product), args.out)
    else:
        _emit(format_element(product), args.out)
    return 0


def cmd_reduce(args) -> int:
    ctx = Context(args.d)
    a, b1, b2, c = args.monomial
    s = reduction_defect(ctx, args.monomial, args.orientation)
    reduced = reduce_monomial(ctx, args.monomial, args.orientation)
    k_min, k_max = (s, min(a, c)) if s >= 1 else (None, None)
    if args.format == "json":
        payload = {
            "element": element_to_json(reduced),
            "s": s,
            "k_min": k_min,
            "k_max": k_max,
        }
        _emit(json.dumps(payload), args.out)
    else:
        if s < 1:
            k_line = "k: none (already canonical)"
        elif k_max < k_min:
            k_line = f"k: {k_min}..{k_max} (empty)"
        else:
            k_line = f"k: {k_min}..{k_max}"
        _emit(f"result: {format_element(reduced)}\ns: {s}\n{k_line}", args.out)
    return 0


def cmd_basis(args) -> int:
    ctx = Context(args.d)
    basis = ctx.monomials(args.orientation)
    if args.format == "json":
        payload = {
            "d": args.d,
            "orientation": args.orientation,
            "monomials": [{"a": m.a, "b1": m.b1, "b2": m.b2, "c": m.c} for m in basis],
        }
        _emit(json.dumps(payload), args.out)
    else:
        lines = [
            format_element(Element(ctx, args.orientation, {m: LaurentPoly.one()}))
            for m in basis
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _check_guard(args, guard: int, subject: str, warning: str) -> None:
    """Refuse a degree above ``guard`` without --max-d-override; with it, warn."""
    if args.d <= guard:
        return
    if not args.max_d_override:
        raise UsageError(f"{subject} guarded at d <= {guard}; pass --max-d-override to force")
    print(f"warning: {warning}", file=sys.stderr)


def cmd_table(args) -> int:
    warning = f"d={args.d} exceeds the table guard; this may take a while"
    _check_guard(args, TABLE_MAX_D, "structure-constant tables are", warning)
    ctx = Context(args.d)
    one = LaurentPoly.one()
    basis = ctx.monomials(EKF)
    index = {m: i for i, m in enumerate(basis)}
    zero = json.dumps(element_to_json(Element(ctx, EKF)))
    # Per lhs: its right idempotent, the line's head, the element itself and
    # the index of its image under the anti-involution.  Per rhs column: the
    # tail of a line whose product is zero and, filed by its left idempotent,
    # the line's middle, the element and the index of its image.
    operands = []
    zero_tails = []
    starting_at: dict[int, list] = {}
    for j, m in enumerate(basis):
        key = json.dumps({"a": m.a, "b1": m.b1, "b2": m.b2, "c": m.c})
        middle = f'"rhs": {key}, "product": '
        x = Element(ctx, EKF, {m: one})
        (image,) = anti_involution(x).terms
        operands.append((m.right, f'{{"lhs": {key}, ', x, index[image]))
        zero_tails.append(f"{middle}{zero}}}\n")
        starting_at.setdefault(m.left, []).append((j, middle, x, index[image]))
    texts: dict = {}

    def json_text(x: Element) -> str:
        return element_json_text(x, texts) if x else zero

    # Each line is what json.dumps gives for {"lhs": ..., "rhs": ..., "product": ...};
    # each lhs row is written at once.  A pair whose idempotents do not meet
    # multiplies to zero (see multiply), so a row starts as the zero tails and
    # only its meeting columns are overwritten.  The anti-involution tau
    # reverses products, x * y = tau(tau(y) * tau(x)), so of each pair (i, j)
    # and its image (tau j, tau i) only the first to be written is multiplied;
    # the text of the other's product is held until its line comes up.
    held: dict[tuple[int, int], str] = {}
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        for i, (right, head, x, ti) in enumerate(operands):
            row = zero_tails.copy()
            for j, middle, y, tj in starting_at.get(right, ()):
                if (i, j) in held:
                    text = held.pop((i, j))
                else:
                    product = multiply(x, y)
                    text = json_text(product)
                    if (tj, ti) != (i, j):
                        held[(tj, ti)] = json_text(anti_involution(product))
                row[j] = f"{middle}{text}}}\n"
            fh.write(head + head.join(row))
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        guard = SUITE_GUARDS[name]
        warning = f"suite {name!r} at d={args.d} exceeds its guard {guard}"
        _check_guard(args, guard, f"suite {name!r} is", warning)
    report = run_suites(names, args.d, seed=args.seed, fault=args.inject_fault)
    if args.format == "json":
        _emit(json.dumps(report), args.out)
    else:
        lines = []
        for c in report["checks"]:
            status = "PASS" if c["pass"] else "FAIL"
            witness = f"  [{c['witness']}]" if not c["pass"] and "witness" in c else ""
            lines.append(f"{status:4}  {c['id']}{witness}")
        lines.append(
            f"{'PASS' if report['pass'] else 'FAIL'}  overall "
            f"({sum(c['pass'] for c in report['checks'])}/{len(report['checks'])} checks)"
        )
        _emit("\n".join(lines), args.out)
    return 0 if report["pass"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "multiply": cmd_multiply,
        "reduce": cmd_reduce,
        "basis": cmd_basis,
        "table": cmd_table,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (UsageError, ValueError, OSError) as exc:  # parse and JSON errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
