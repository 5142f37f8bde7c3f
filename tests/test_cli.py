"""The command-line surface and its exit-code contract."""

import hashlib
import json

import pytest

from qschur import cli
from qschur.algebra import Context, EKF, Element, multiply
from qschur.cli import main
from qschur.laurent import LaurentPoly
from qschur.oracle import build_rep, matrix_of_element
from qschur.textio import element_from_json, element_to_json, parse_element


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_multiply_inline(capsys):
    code, out, _ = run(
        capsys, "multiply", "--d", "1", "--lhs", "e^(1) K[0,1]", "--rhs", "K[0,1] f^(1)"
    )
    assert code == 0
    assert out.strip() == "K[1,0]"


def test_multiply_identity_file(tmp_path, capsys):
    ident = tmp_path / "identity.txt"
    ident.write_text("K[1,0] + K[0,1]")
    code, out, _ = run(
        capsys, "multiply", "--d", "1", "--lhs", "e^(1) K[0,1]", "--rhs", str(ident)
    )
    assert code == 0
    assert out.strip() == "e^(1) K[0,1]"


def test_multiply_json_output(capsys):
    code, out, _ = run(
        capsys,
        "multiply",
        "--d",
        "1",
        "--lhs",
        "K[1,0]",
        "--rhs",
        "K[1,0]",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"a": 0, "b1": 1, "b2": 0, "c": 0, "coeff": [[0, "1"]]}]


def test_multiply_degree_mismatch(tmp_path, capsys):
    elt = tmp_path / "elt.json"
    elt.write_text(json.dumps({"d": 1, "orientation": "EKF", "terms": []}))
    code, _, err = run(capsys, "multiply", "--d", "2", "--lhs", str(elt), "--rhs", "K[0,2]")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "operand",
    [
        '{"d": 1}',
        '{"d": 1, "terms": [{"a": 0, "b2": 1, "c": 0, "coeff": [[0, "1"]]}]}',
        '{"d": 1, "terms": [{"a": 0, "b1": 0, "b2": 1, "c": 0, "coeff": 5}]}',
        '{"d": 1, "terms": [{"a": 0, "b1": 1, "b2": 0, "c": 0, "coeff": ["12"]}]}',
        '{"d": 1, "terms": [{"a": 0.9, "b1": 1.5, "b2": 0, "c": 0, "coeff": [[0, "1"]]}]}',
        '{"d": 1, "terms": [{"a": 0, "b1": 1, "b2": 0, "c": 0, "coeff": [[0, 2.7]]}]}',
        '{"d": 1, "terms": [{"a": false, "b1": true, "b2": 0, "c": 0, "coeff": [[0, 1]]}]}',
        '{"d": 1, "terms": [{"a": 0, "b1": 1, "b2": 0, "c": 0, "coeff": [[0, "2", 1]]}]}',
    ],
    ids=[
        "missing-terms",
        "term-without-b1",
        "integer-coeff",
        "string-coeff-term",
        "float-indices",
        "float-coefficient",
        "bool-indices",
        "three-element-coeff-term",
    ],
)
def test_malformed_json_operand_is_a_usage_error(capsys, operand):
    code, out, err = run(capsys, "multiply", "--d", "1", "--lhs", operand, "--rhs", "K[1,0]")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("lhs", ["() * K[1,1]", "( ) * K[1,1]"], ids=["empty", "blank"])
def test_an_empty_coefficient_is_a_usage_error(capsys, lhs):
    code, out, err = run(capsys, "multiply", "--d", "2", "--lhs", lhs, "--rhs", "K[1,1]")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad coefficient: ") and err.count("\n") == 1
    # An explicit zero coefficient is still zero.
    code, out, _ = run(capsys, "multiply", "--d", "2", "--lhs", "(0) * K[1,1]", "--rhs", "K[1,1]")
    assert (code, out) == (0, "0\n")


def test_a_deeply_nested_json_operand_is_a_usage_error(tmp_path, capsys):
    operand = tmp_path / "nested.json"
    operand.write_text('{"d":2,"terms":' + "[" * 100_000)
    code, out, err = run(capsys, "multiply", "--d", "2", "--lhs", str(operand), "--rhs", "K[0,2]")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "orientation, lhs, rhs, want",
    [
        (
            "ekf",
            "(v^-1) * K[2,0] + (3) * e^(1) K[1,1]",
            "K[2,0] + K[1,1] f^(1) + (2 - v^2) * K[1,1]",
            '{"d": 2, "orientation": "EKF", "terms": ['
            '{"a": 0, "b1": 2, "b2": 0, "c": 0, "coeff": [[-1, "4"], [1, "3"]]}, '
            '{"a": 1, "b1": 1, "b2": 1, "c": 0, "coeff": [[0, "6"], [2, "-3"]]}]}',
        ),
        ("fke", "K[2,0]", "K[0,2]", '{"d": 2, "orientation": "FKE", "terms": []}'),
    ],
    ids=["ekf", "fke-zero"],
)
def test_multiply_json_bytes_are_pinned(capsys, orientation, lhs, rhs, want):
    argv = ("multiply", "--d", "2", "--orientation", orientation, "--format", "json")
    code, out, _ = run(capsys, *argv, "--lhs", lhs, "--rhs", rhs)
    assert (code, out) == (0, want + "\n")


def test_json_operand_accepts_integer_and_decimal_string_coefficients(capsys):
    operand = '{"d": 1, "terms": [{"a": 0, "b1": 1, "b2": 0, "c": 0, "coeff": [[0, "-3"], [1, 2]]}]}'
    code, out, _ = run(capsys, "multiply", "--d", "1", "--lhs", operand, "--rhs", "K[1,0]")
    assert code == 0
    assert out.strip() == "(2v - 3) * K[1,0]"


def test_reduce_command(capsys):
    code, out, _ = run(capsys, "reduce", "--d", "2", "--monomial", "1,1,1,1")
    assert code == 0
    assert "result: (v + v^-1) * K[2,0]" in out
    assert "s: 1" in out and "k: 1..1" in out

    code, out, _ = run(capsys, "reduce", "--d", "3", "--monomial", "0,2,1,0")
    assert code == 0
    assert "result: K[2,1]" in out and "s: -1" in out

    code, out, _ = run(capsys, "reduce", "--d", "1", "--monomial", "1,1,0,1")
    assert code == 0
    assert "result: 0" in out and "(empty)" in out


def test_reduce_json_output(capsys):
    code, out, _ = run(capsys, "reduce", "--d", "2", "--monomial", "1,1,1,1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "element": {
            "d": 2,
            "orientation": "EKF",
            "terms": [{"a": 0, "b1": 2, "b2": 0, "c": 0, "coeff": [[-1, "1"], [1, "1"]]}],
        },
        "s": 1,
        "k_min": 1,
        "k_max": 1,
    }
    # A canonical monomial is returned as it is, with no k range.
    code, out, _ = run(capsys, "reduce", "--d", "3", "--monomial", "0,2,1,0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["element"]["terms"] == [{"a": 0, "b1": 2, "b2": 1, "c": 0, "coeff": [[0, "1"]]}]
    assert (data["s"], data["k_min"], data["k_max"]) == (-1, None, None)


@pytest.mark.parametrize(
    "lhs, message",
    [
        ("(v) K[1,0]", "expected '*' after coefficient"),
        ("K[1,0] g^(1)", "expected a factor like e^(1), K[0,1] or f^(1)"),
        ("K[1,0] K[1,0]", "duplicate K factor"),
        ("   ", "empty element text"),
        ("K[1,0])", "unbalanced parenthesis"),
        # An unclosed coefficient is caught before the text is split in terms.
        ("(v", "unbalanced parenthesis"),
        ("v)", "unbalanced parenthesis"),
        ("(v + 1", "unbalanced parenthesis"),
    ],
    ids=[
        "no-star", "bad-factor", "duplicate-k", "empty", "stray-close", "open", "close", "open-sum"
    ],
)
def test_element_text_errors_are_usage_errors(capsys, lhs, message):
    code, out, err = run(capsys, "multiply", "--d", "1", "--lhs", lhs, "--rhs", "K[1,0]")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message} (at position ") and err.count("\n") == 1


def test_reduce_invalid_quadruple(capsys):
    code, out, err = run(capsys, "reduce", "--d", "1", "--monomial", "1,1,1,1")
    assert (code, out) == (2, "")
    assert err == "error: idempotent indices (1,1) must be nonnegative with sum 1\n"
    code, out, err = run(capsys, "reduce", "--d", "1", "--monomial", "1,1,0,-1")
    assert (code, out) == (2, "")
    assert err == "error: divided-power exponents must be nonnegative: (1,-1)\n"


def test_basis_command(capsys):
    code, out, _ = run(capsys, "basis", "--d", "1")
    assert code == 0
    assert out.splitlines() == ["K[0,1]", "K[0,1] f^(1)", "K[1,0]", "e^(1) K[0,1]"]
    code, out, _ = run(capsys, "basis", "--d", "2", "--format", "json")
    assert len(json.loads(out)["monomials"]) == 10


def test_table_degree_zero(capsys):
    code, out, _ = run(capsys, "table", "--d", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["lhs"] == row["rhs"] == {"a": 0, "b1": 0, "b2": 0, "c": 0}
    assert row["product"]["terms"][0]["coeff"] == [[0, "1"]]


def test_table_is_closed_and_oracle_checked(capsys):
    # every product line re-parses and re-verifies against the oracle
    for d in (1, 2, 3):
        code, out, _ = run(capsys, "table", "--d", str(d))
        assert code == 0
        lines = out.strip().splitlines()
        ctx = Context(d)
        rep = build_rep(d)
        assert len(lines) == len(ctx.monomials(EKF)) ** 2
        for line in lines:
            row = json.loads(line)
            product = element_from_json(row["product"], ctx)
            lhs = parse_element(
                _factor_text(row["lhs"]), ctx
            )
            rhs = parse_element(_factor_text(row["rhs"]), ctx)
            assert matrix_of_element(rep, product) == matrix_of_element(
                rep, lhs
            ) * matrix_of_element(rep, rhs)


def test_table_degree_one_contains_known_product(capsys):
    code, out, _ = run(capsys, "table", "--d", "1")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 16
    wanted = [
        r
        for r in rows
        if r["lhs"] == {"a": 1, "b1": 0, "b2": 1, "c": 0}
        and r["rhs"] == {"a": 0, "b1": 0, "b2": 1, "c": 1}
    ]
    assert len(wanted) == 1
    assert wanted[0]["product"]["terms"] == [
        {"a": 0, "b1": 1, "b2": 0, "c": 0, "coeff": [[0, "1"]]}
    ]


def _factor_text(quad: dict) -> str:
    parts = []
    if quad["a"]:
        parts.append(f"e^({quad['a']})")
    parts.append(f"K[{quad['b1']},{quad['b2']}]")
    if quad["c"]:
        parts.append(f"f^({quad['c']})")
    return " ".join(parts)


def test_table_takes_no_format_option(capsys):
    # table always writes JSON lines; --format is a usage error, not ignored.
    code, out, err = run(capsys, "table", "--d", "0", "--format", "text")
    assert (code, out) == (2, "")
    assert "--format" in err


def test_table_guard(tmp_path, capsys):
    code, _, err = run(capsys, "table", "--d", "7")
    assert code == 2
    assert err == (
        "error: structure-constant tables are guarded at d <= 6; "
        "pass --max-d-override to force\n"
    )
    # the override lifts the guard and warns
    out = str(tmp_path / "table-7.jsonl")
    code, _, err = run(capsys, "table", "--d", "7", "--max-d-override", "--out", out)
    assert code == 0
    assert err == "warning: d=7 exceeds the table guard; this may take a while\n"


TABLE_DIGESTS = {
    2: "add67ec44488d13c9212f88050050c08b439b1b5ff3b4e9832db772763f41d75",
    4: "535e89ddc9461df54b463d24d091aa48f5b1a0e2bcff0e57e47a72d176c129a9",
    5: "4682d36af82570a199213fef8d58146bb692014ea3a7285bc8419340b2d0ecf5",
    6: "1b66f38b87bfc5cd7468d201801cab1bcb89ae29845f4c9302572df42ab1171f",
}


def test_table_bytes_are_pinned(tmp_path, capsys):
    # Each table line is assembled by hand, and half the products are written
    # from the anti-involution's image of another, so the bytes are pinned:
    # the recorded digests, stdout equal to the --out file, and every line
    # exactly what json.dumps gives for the parsed line.
    for d in range(7):
        code, out, _ = run(capsys, "table", "--d", str(d))
        assert code == 0
        if d in TABLE_DIGESTS:
            assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[d]
        target = tmp_path / f"table-{d}.jsonl"
        assert run(capsys, "table", "--d", str(d), "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()
        for line in out.splitlines():
            assert line == json.dumps(json.loads(line))


def test_table_matches_a_plain_reference(capsys):
    # Differential check of table's fast path (zero-line template, tau reuse,
    # text memo): every pair in basis order, multiplied and dumped plainly.
    for d in range(5):
        ctx = Context(d)
        basis = ctx.monomials(EKF)
        keys = [{"a": m.a, "b1": m.b1, "b2": m.b2, "c": m.c} for m in basis]
        elements = [Element(ctx, EKF, {m: LaurentPoly.one()}) for m in basis]
        expected = [
            json.dumps({"lhs": kx, "rhs": ky, "product": element_to_json(multiply(x, y))})
            for kx, x in zip(keys, elements)
            for ky, y in zip(keys, elements)
        ]
        code, out, _ = run(capsys, "table", "--d", str(d))
        assert code == 0
        assert out.splitlines() == expected


def test_table_pins_catch_a_wrong_anti_involution(monkeypatch, capsys):
    # Negative control: a map that leaves a and c in place writes x * y on
    # the line of y * x, which no pinned digest accepts.
    monkeypatch.setattr(cli, "anti_involution", lambda x: x)
    for d, digest in TABLE_DIGESTS.items():
        code, out, _ = run(capsys, "table", "--d", str(d))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() != digest


def test_table_out_errors(tmp_path, capsys):
    missing = tmp_path / "missing-dir" / "t.jsonl"
    code, out, err = run(capsys, "table", "--d", "1", "--out", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    # The guard runs before the output file is opened.
    existing = tmp_path / "t.jsonl"
    existing.write_bytes(b"keep me\n")
    code, out, err = run(capsys, "table", "--d", "7", "--out", str(existing))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "guard" in err
    assert existing.read_bytes() == b"keep me\n"


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--d", "2", "--suite", "all")
    assert code == 0
    assert "PASS  overall" in out


def test_verify_degenerate_degree(capsys):
    code, out, _ = run(capsys, "verify", "--d", "0", "--suite", "all")
    assert code == 0


def test_verify_json_report(capsys):
    code, out, _ = run(
        capsys, "verify", "--d", "1", "--suite", "relations", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["d"] == 1
    assert all(set(c) <= {"id", "pass", "witness"} for c in report["checks"])


def test_verify_guard_and_override(capsys):
    code, _, err = run(capsys, "verify", "--d", "7", "--suite", "relations")
    assert code == 2
    assert err == (
        "error: suite 'relations' is guarded at d <= 6; pass --max-d-override to force\n"
    )
    # the override lifts the guard and warns; the oracle runs past d = 6
    code, out, err = run(
        capsys, "verify", "--d", "7", "--suite", "relations", "--max-d-override"
    )
    assert code == 0
    assert err == "warning: suite 'relations' at d=7 exceeds its guard 6\n"
    assert "orc-ef-commutator" in out


def test_verify_fault_injection_fails(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--d",
        "2",
        "--suite",
        "relations",
        "--inject-fault",
        "broken-module",
    )
    assert code == 1
    assert "FAIL" in out

    code, _, _ = run(
        capsys,
        "verify",
        "--d",
        "2",
        "--suite",
        "reduction",
        "--inject-fault",
        "skip-reduction",
    )
    assert code == 1


def test_the_retired_fault_name_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--d", "2", "--inject-fault", "broken-coproduct")
    assert code == 2
    assert out == ""
    assert err.startswith("usage: qschur verify ")
    [line] = [line for line in err.splitlines() if "error:" in line]
    assert line.startswith("qschur verify: error: argument --inject-fault: ")
    assert "'broken-coproduct'" in line


def _one_wrong_entry_per_product(monkeypatch) -> None:
    """Make the oracle's matrix product drop the top exponent of one entry."""
    from qschur.laurent import LaurentPoly
    from qschur.oracle import LaurentMatrix

    healthy = LaurentMatrix.__mul__

    def one_wrong_entry(self, other):
        out = healthy(self, other)
        for key, val in out.entries.items():
            terms = dict(val._terms)
            del terms[max(terms)]
            return LaurentMatrix(out.dim, {**out.entries, key: LaurentPoly(terms)})
        return out

    monkeypatch.setattr(LaurentMatrix, "__mul__", one_wrong_entry)


def test_verify_reports_a_wrong_oracle_instead_of_crashing(capsys, monkeypatch):
    from qschur import oracle

    prebuilt = build_rep(2)
    _one_wrong_entry_per_product(monkeypatch)
    # The build's self-check rejects the representation.
    code, out, _ = run(capsys, "verify", "--suite", "lusztig", "--d", "2")
    assert code == 1
    first, last = out.splitlines()
    assert first.startswith("FAIL  lusztig/oracle-build  [CoproductCheckFailed: ")
    assert last == "FAIL  overall (0/1 checks)"
    # Without the self-check, the oracle suite's own basis words raise.
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "oracle",
        "--d",
        "2",
        "--inject-fault",
        "broken-module",
    )
    assert code == 1
    assert out.startswith("FAIL  oracle/orc-homomorphism  [NotDivisible: ")
    # A representation built before the fault reaches the suite, whose
    # projector check names the first projector, K[1,1], whose square differs.
    monkeypatch.setattr(oracle, "build_rep", lambda d: prebuilt)
    code, out, _ = run(capsys, "verify", "--suite", "idempotents", "--d", "2")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [
        "FAIL  idempotents/orc-projector-partition  [(1, 1): at (3, 3): 0 != 1]",
        "FAIL  overall (4/5 checks)",
    ]


def test_a_failed_oracle_build_is_reported_on_one_line(capsys, monkeypatch):
    _one_wrong_entry_per_product(monkeypatch)
    code, out, _ = run(capsys, "verify", "--suite", "relations", "--d", "2")
    assert code == 1
    first, last = out.splitlines()
    assert first.startswith(
        "FAIL  relations/oracle-build  [CoproductCheckFailed: Weyl modules fail "
    )
    assert first.endswith(" relation checks failed)]")
    assert len(first) < 300
    assert last == "FAIL  overall (0/1 checks)"


@pytest.mark.parametrize("d", [1, 3])
def test_verify_reports_a_wrong_k2_inverse(d, capsys, monkeypatch):
    # Every entry of K2^-1 is off by a factor v, so the ef-commutator's
    # right-hand side is not divisible by v - v^-1: a failed check, not a crash.
    from qschur import oracle
    from qschur.laurent import LaurentPoly

    wrong = build_rep(d)
    wrong.k2_inv = wrong.k2_inv.scale(LaurentPoly.v(1))
    monkeypatch.setattr(oracle, "build_rep", lambda d: wrong)
    code, out, _ = run(capsys, "verify", "--suite", "relations", "--d", str(d))
    assert code == 1
    lines = out.splitlines()
    failed = dict(line.split("  ", 2)[1:] for line in lines[:-1] if line.startswith("FAIL"))
    assert failed["relations/orc-k2-inverse"].startswith("[at (")
    commutator = failed["relations/orc-ef-commutator"]
    assert commutator.startswith("[NotDivisible: ")
    assert commutator.endswith(" is not divisible by v - v^-1]")
    assert lines[-1].startswith("FAIL  overall ")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "product.txt"
    code, out, _ = run(
        capsys,
        "multiply",
        "--d",
        "1",
        "--lhs",
        "K[1,0]",
        "--rhs",
        "K[1,0]",
        "--out",
        str(target),
    )
    assert code == 0
    assert target.read_text().strip() == "K[1,0]"


def test_usage_error_exit_code(capsys):
    assert main(["multiply", "--d", "1", "--lhs", "K[1,0]"]) == 2  # missing --rhs
    assert main(["frobnicate"]) == 2


def test_outputs_are_byte_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "table", "--d", "2")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "verify", "--d", "2", "--suite", "oracle", "--format", "json"
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
