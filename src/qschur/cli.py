"""Command-line surface: multiply, reduce, basis, table, verify.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage,
parse or guard errors and on running out of memory, so CI can gate directly
on theorem suites, and 141 (128 + SIGPIPE), with nothing on stderr, when the
reader closes stdout.
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


def _orientation(value: str) -> str:
    if value.lower() == "ekf":
        return EKF
    if value.lower() == "fke":
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


def _sink(out: str | None):
    """The file ``out`` opened for writing, or stdout when no file is named."""
    return open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout)


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
    p.set_defaults(run=cmd_multiply)

    p = sub.add_parser("reduce", help="straighten a single monomial")
    common(p)
    p.add_argument(
        "--monomial", type=_quadruple, required=True, help="quadruple a,b1,b2,c"
    )
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser("basis", help="list the canonical basis monomials")
    common(p)
    p.set_defaults(run=cmd_basis)

    # table always writes JSON lines, so it takes no --format.
    p = sub.add_parser("table", help="emit all structure constants as JSON lines")
    p.add_argument("--d", type=int, required=True, help="degree d >= 0")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.add_argument("--max-d-override", action="store_true")
    p.set_defaults(run=cmd_table)

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
    p.set_defaults(run=cmd_verify)
    return parser


def cmd_multiply(args) -> tuple[int, str]:
    ctx = Context(args.d)
    lhs = parse_element(_read_operand(args.lhs), ctx, args.orientation)
    rhs = parse_element(_read_operand(args.rhs), ctx, args.orientation)
    product = multiply(lhs, rhs)
    if args.format == "json":
        return 0, element_json_text(product)
    return 0, format_element(product)


def cmd_reduce(args) -> tuple[int, str]:
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
        return 0, json.dumps(payload)
    if s < 1:
        k_line = "k: none (already canonical)"
    elif k_max < k_min:
        k_line = f"k: {k_min}..{k_max} (empty)"
    else:
        k_line = f"k: {k_min}..{k_max}"
    return 0, f"result: {format_element(reduced)}\ns: {s}\n{k_line}"


def cmd_basis(args) -> tuple[int, str]:
    ctx = Context(args.d)
    basis = ctx.monomials(args.orientation)
    if args.format == "json":
        payload = {
            "d": args.d,
            "orientation": args.orientation,
            "monomials": [{"a": m.a, "b1": m.b1, "b2": m.b2, "c": m.c} for m in basis],
        }
        return 0, json.dumps(payload)
    one = LaurentPoly.one()
    return 0, "\n".join(format_element(Element(ctx, args.orientation, {m: one})) for m in basis)


def _check_guard(args, guard: int, subject: str, warning: str) -> None:
    """Refuse a degree above ``guard`` without --max-d-override; with it, warn."""
    if args.d <= guard:
        return
    if not args.max_d_override:
        raise ValueError(f"{subject} guarded at d <= {guard}; pass --max-d-override to force")
    print(f"warning: {warning}", file=sys.stderr)


def cmd_table(args) -> tuple[int, None]:
    warning = f"d={args.d} exceeds the table guard; this may take a while"
    _check_guard(args, TABLE_MAX_D, "structure-constant tables are", warning)
    ctx = Context(args.d)
    one = LaurentPoly.one()
    basis = ctx.monomials(EKF)
    index = {m: i for i, m in enumerate(basis)}
    # The zero product's text stays an element_to_json call, not
    # element_json_text: bench/tracing.py's EXPECTED_SPANS["table"] requires a
    # textio.element_to_json span in every traced table run.
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
    with _sink(args.out) as fh:
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
    return 0, None


def cmd_verify(args) -> tuple[int, str]:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        guard = SUITE_GUARDS[name]
        warning = f"suite {name!r} at d={args.d} exceeds its guard {guard}"
        _check_guard(args, guard, f"suite {name!r} is", warning)
    report = run_suites(names, args.d, seed=args.seed, fault=args.inject_fault)
    status = 0 if report["pass"] else 1
    if args.format == "json":
        return status, json.dumps(report)
    lines = []
    for c in report["checks"]:
        verdict = "PASS" if c["pass"] else "FAIL"
        witness = f"  [{c['witness']}]" if not c["pass"] and "witness" in c else ""
        lines.append(f"{verdict:4}  {c['id']}{witness}")
    lines.append(
        f"{'PASS' if report['pass'] else 'FAIL'}  overall "
        f"({sum(c['pass'] for c in report['checks'])}/{len(report['checks'])} checks)"
    )
    return status, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        status, text = args.run(args)
        if text is not None:  # table writes its own lines as it makes them
            with _sink(args.out) as fh:
                print(text, file=fh)
        sys.stdout.flush()  # so a closed pipe is met here, not at shutdown
        return status
    except BrokenPipeError:  # a closed stdout is not bad input
        return 141
    except MemoryError:
        pass  # reported below: this block's traceback keeps the memory it filled
    except (ValueError, OSError) as exc:  # parse, JSON and guard errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"error: out of memory at d={args.d}", file=sys.stderr)
    return 2


def entry_point() -> None:
    status = main()
    if status == 141:
        # stdout is closed, and Python flushes it again at exit, so it is
        # pointed at the null device, as the signal module's documentation
        # advises.  This is done here, where the process ends, so that a
        # caller of main keeps its stdout.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(status)


if __name__ == "__main__":
    entry_point()
