"""Ring arithmetic, quantum combinatorics, and serialization."""

import re
from types import MappingProxyType

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qschur import cli, suites
from qschur.laurent import (
    DivisionByZero,
    LaurentPoly,
    NotDivisible,
    gauss_binomial,
    parse_laurent,
    quantum_factorial,
    quantum_int,
)

V = LaurentPoly.v


def classical_binomial(n: int, k: int) -> int:
    """Integer Pascal-triangle oracle, independent of the ring code."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=5
).map(LaurentPoly)

# Factors that take the one-term shortcut of LaurentPoly.__mul__ (the shared
# unit, a unit of its own, s*v^k) mixed with the zero polynomial and general
# sparse polynomials.
factors = st.one_of(
    st.just(LaurentPoly.one()),
    st.builds(LaurentPoly, st.just({0: 1})),
    st.just(LaurentPoly.zero()),
    st.builds(
        lambda s, k: LaurentPoly({k: s}), st.sampled_from([-2, -1, 1, 2]), st.integers(-6, 6)
    ),
    polys,
)


def term_map(x) -> dict:
    return dict(x._terms) if isinstance(x, LaurentPoly) else ({0: x} if x else {})


def reference_product(x: dict, y: dict) -> dict:
    """Schoolbook convolution of two term maps, dropping zero coefficients."""
    out: dict = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# -- arithmetic --------------------------------------------------------------


def test_difference_of_squares():
    assert (V(1) + V(-1)) * (V(1) - V(-1)) == LaurentPoly({2: 1, -2: -1})


def test_additive_identity():
    x = LaurentPoly({3: 4, -1: -2})
    assert x + LaurentPoly.zero() == x


def test_product_expansion():
    lhs = (V(1) + V(-1)) * (V(2) + V(-2))
    assert lhs == LaurentPoly({3: 1, 1: 1, -1: 1, -3: 1})


def test_zero_coefficients_never_stored():
    x = LaurentPoly({1: 1}) + LaurentPoly({1: -1})
    assert x.is_zero and x._terms == {}
    assert LaurentPoly({0: 0, 2: 0}).is_zero
    assert LaurentPoly(MappingProxyType({0: 0, 2: 3}))._terms == {2: 3}


@given(st.integers())
@example(0)
def test_a_constant_hashes_as_its_integer(n):
    # A constant equals its integer, so each must find the other in a dict.
    c = LaurentPoly.from_int(n)
    assert c == n and hash(c) == hash(n)
    assert {c: 1}.get(n) == 1 and {n: 1}.get(c) == 1


def test_equal_polynomials_hash_equal_however_built():
    # The hash is cached on first use.  Every way of building a polynomial
    # must leave that cache empty, even from operands whose hash is cached.
    want = LaurentPoly({2: 3, -2: -3})
    operands = [LaurentPoly({2: 3}), LaurentPoly({-2: -3}), LaurentPoly({3: 3, -1: -3})]
    operands += [V(1) + V(-1), LaurentPoly({1: 3, -1: -3}), LaurentPoly({2: -3, -2: 3})]
    for x in operands:
        hash(x)
    built = [
        LaurentPoly([(2, 3), (-2, -3)]),
        operands[0] + operands[1],
        operands[2] * V(-1),  # the shift path
        operands[3] * operands[4],  # the convolution
        -operands[5],
        LaurentPoly.from_json([[-2, "-3"], [2, "3"]]),
    ]
    for x in built:
        assert x == want and hash(x) == hash(want) == hash(x)
        assert {want: 1}[x] == 1
    three = LaurentPoly.from_int(3)
    assert hash(three) == hash(3) == hash(three)


@given(polys, polys, polys)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == LaurentPoly.zero()


@given(st.one_of(factors, st.integers(-3, 3)), factors)
def test_products_match_a_reference_convolution(x, y):
    before = (term_map(x), term_map(y))
    want = reference_product(*before)
    for product in (x * y, y * x):
        assert isinstance(product, LaurentPoly)
        assert product._terms == want
        assert 0 not in product._terms.values()
    assert (term_map(x), term_map(y)) == before


def test_the_shared_unit_is_never_changed(tmp_path):
    # Products return the shared unit's partner itself, and gauss_binomial
    # and straightening hand the unit out, so nothing may write into it.
    one = LaurentPoly.one()
    assert one is LaurentPoly.one()
    suites.run_suites(list(suites.SUITES), 3)
    assert cli.main(["table", "--d", "4", "--out", str(tmp_path / "table.jsonl")]) == 0
    assert one._terms == {0: 1}
    assert hash(one) == hash(1)


@given(factors)
def test_a_unit_of_its_own_multiplies_as_the_shared_one(x):
    fresh = LaurentPoly({0: 1})
    assert fresh is not LaurentPoly.one()
    assert x * fresh == x * LaurentPoly.one() == x
    assert fresh * x == LaurentPoly.one() * x == x


def test_a_dropped_monomial_shift_is_caught_by_the_suites(monkeypatch):
    # Multiplying by s*v^k with the shift k left out must fail every suite
    # that multiplies.  The representation is built with the healthy product
    # and kept by _build_rep, so the suites reuse it instead of failing at
    # its build.
    suites._build_rep(2, None)
    names = ("relations", "idempotents", "basis", "oracle", "lusztig")
    for name in names:
        assert suites.run_suite(name, 2)["pass"], name
    healthy = LaurentPoly.__mul__

    def unshifted(x, y):
        y = LaurentPoly.coerce(y)
        for p, q in ((x, y), (y, x)):
            if len(q) == 1 and q.valuation() != 0:
                return healthy(p, LaurentPoly({0: q.coefficient(q.valuation())}))
        return healthy(x, y)

    monkeypatch.setattr(LaurentPoly, "__mul__", unshifted)
    monkeypatch.setattr(LaurentPoly, "__rmul__", unshifted)
    for name in names:
        assert not suites.run_suite(name, 2)["pass"], name


# -- exact division ----------------------------------------------------------


def test_exact_div_quantum_ints():
    q = quantum_int(4).exact_div(quantum_int(2))
    assert q == V(2) + V(-2)
    assert q * quantum_int(2) == quantum_int(4)


def test_exact_div_by_one():
    x = LaurentPoly({5: 3, -2: 7})
    assert x.exact_div(LaurentPoly.one()) == x


def test_exact_div_failure():
    with pytest.raises(NotDivisible):
        quantum_int(3).exact_div(quantum_int(2))
    with pytest.raises(NotDivisible):
        V(1).exact_div(LaurentPoly.from_int(2))


def test_exact_div_by_zero():
    with pytest.raises(DivisionByZero):
        V(1).exact_div(LaurentPoly.zero())


@given(polys, polys.filter(lambda p: not p.is_zero))
def test_exact_div_inverts_multiplication(q, y):
    assert (q * y).exact_div(y) == q


# -- quantum integers, factorials, binomials ---------------------------------


def test_quantum_int_values():
    assert quantum_int(0).is_zero
    assert quantum_int(2) == V(1) + V(-1)
    assert quantum_int(-3) == -(V(2) + LaurentPoly.one() + V(-2))


@pytest.mark.parametrize("r", range(-10, 11))
def test_quantum_int_antisymmetry(r):
    assert quantum_int(-r) == -quantum_int(r)


def test_quantum_factorial_values():
    assert quantum_factorial(0) == LaurentPoly.one()
    assert quantum_factorial(2) == V(1) + V(-1)
    assert quantum_factorial(3) == LaurentPoly({3: 1, 1: 2, -1: 2, -3: 1})


def test_gauss_binomial_values():
    assert gauss_binomial(7, 0) == LaurentPoly.one()
    assert gauss_binomial(2, 3).is_zero
    assert gauss_binomial(4, 2) == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert gauss_binomial(-1, 2) == LaurentPoly.one()
    assert gauss_binomial(3, -1).is_zero


def test_quantum_int_addition_rule():
    # [r+s] = v^-s [r] + v^r [s]
    for r in range(-10, 11):
        for s in range(-10, 11):
            assert quantum_int(r + s) == V(-s) * quantum_int(r) + V(r) * quantum_int(s)


def test_gauss_binomial_pascal_rule():
    # [r+1; s] = v^-s [r; s] + v^(r-s+1) [r; s-1]
    for r in range(-10, 11):
        for s in range(0, 11):
            lhs = gauss_binomial(r + 1, s)
            rhs = V(-s) * gauss_binomial(r, s) + V(r - s + 1) * gauss_binomial(r, s - 1)
            assert lhs == rhs, (r, s)


def test_gauss_binomial_classical_limit():
    for r in range(13):
        for s in range(r + 1):
            # At v = 1 a polynomial is the sum of its coefficients.
            at_one = sum(c for _, c in gauss_binomial(r, s).items())
            assert at_one == classical_binomial(r, s), (r, s)


def test_gauss_binomial_positive_and_symmetric():
    for r in range(13):
        for s in range(r + 1):
            b = gauss_binomial(r, s)
            assert b == b.bar()
            assert all(c > 0 for _, c in b.items())


# -- serialization -----------------------------------------------------------


def test_text_format():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly({4: 1, 0: 2, -2: -1})) == "v^4 + 2 - v^-2"
    assert str(LaurentPoly({1: -3})) == "-3v"
    assert str(LaurentPoly({1: 1, 0: 1})) == "v + 1"


@given(polys)
def test_text_round_trip(x):
    assert parse_laurent(str(x)) == x


@given(polys)
def test_json_round_trip(x):
    data = x.to_json()
    assert data == sorted(data)
    assert LaurentPoly.from_json(data) == x


def test_json_accepts_exactly_what_to_json_writes():
    assert LaurentPoly.from_json([[-2, "-1"], [3, "+2"], [4, 5]]) == LaurentPoly(
        {-2: -1, 3: 2, 4: 5}
    )
    assert LaurentPoly.from_json([]).is_zero
    # The large-degree benchmark's unit coefficients.
    for k in (-3, 0, 3):
        for s in ("1", "-1"):
            assert LaurentPoly.from_json([[k, s]]) == LaurentPoly({k: int(s)})


@pytest.mark.parametrize(
    "data",
    [
        [[0.9, 2.7]],
        [[True, "3"]],
        [[1, True]],
        [[1.0, 1]],
        [[0, "3.0"]],
        [[0, " 3"]],
        [[0, "\uff13"]],  # a fullwidth digit, which int() would accept
        [[0, "0x3"]],
        [[0, None]],
        [["1", 1]],
        [[0]],
        [[0, 1, 2]],
        [(0, 1)],
        [0, 1],
        "[[0, 1]]",
        {0: 1},
        None,
    ],
)
def test_json_rejects_other_shapes(data):
    with pytest.raises(ValueError):
        LaurentPoly.from_json(data)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_laurent("v^")
    with pytest.raises(ValueError):
        parse_laurent("1 1")
    for empty in ("", "  "):
        with pytest.raises(ValueError, match="empty"):
            parse_laurent(empty)
    assert parse_laurent(" 0 ").is_zero


# parse_laurent's three messages; a position indexes the quoted text.
@pytest.mark.parametrize(
    "text, message",
    [
        ("  ", "empty Laurent polynomial: '  '"),
        (" v^", "bad Laurent polynomial at position 2: ' v^'"),
        ("*v", "bad Laurent polynomial at position 0: '*v'"),
        ("1 +", "bad Laurent polynomial at position 2: '1 +'"),
        ("2v + 1 1", "missing sign at position 7: '2v + 1 1'"),
    ],
)
def test_every_laurent_parse_error_is_pinned(text, message):
    with pytest.raises(ValueError) as err:
        parse_laurent(text)
    assert str(err.value) == message


@given(
    polys,
    st.sampled_from(["*", " * ", "\t*"]),
    st.text(" \t", max_size=3),
    st.text(" \t", max_size=3),
)
def test_parse_reads_looser_spellings_of_str(x, star, before, after):
    text = re.sub(r"(\d)v", lambda m: m[1] + star + "v", str(x))
    text = re.sub(r" ([+-]) ", lambda m: before + m[1] + after, text)
    text = re.sub(r"^-", "-" + after, text)
    assert parse_laurent(text) == x


@pytest.mark.parametrize(
    "text, want",
    [
        ("2*", LaurentPoly({0: 2})),
        ("3 v", LaurentPoly({1: 3})),
        ("- v^-2", LaurentPoly({-2: -1})),
        (" 0 ", LaurentPoly()),
        ("v\x1c+ 1", LaurentPoly({1: 1, 0: 1})),
    ],
)
def test_parse_keeps_its_quirks(text, want):
    assert parse_laurent(text) == want
