"""Element grammar, formatting, and JSON serialization."""

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qschur.algebra import (
    EKF,
    FKE,
    Context,
    Element,
    IndexOutOfRange,
    Monomial,
    identity_element,
)
from qschur.laurent import LaurentPoly
from qschur.suites import random_element
from qschur.textio import (
    ParseError,
    element_from_json,
    element_json_text,
    element_to_json,
    format_element,
    parse_element,
)

ONE = LaurentPoly.one()
V = LaurentPoly.v


def test_parse_identity():
    ctx = Context(1)
    assert parse_element("K[1,0] + K[0,1]", ctx) == identity_element(ctx)


def test_parse_straightens_input():
    ctx = Context(1)
    x = parse_element("e^(1) K[0,1] f^(1)", ctx)
    assert x == Element(ctx, EKF, {Monomial(0, 1, 0, 0, EKF): ONE})


def test_parse_rejects_bad_idempotent():
    ctx = Context(1)
    with pytest.raises(IndexOutOfRange):
        parse_element("K[2,0]", ctx)


def test_parse_coefficients_and_zero():
    ctx = Context(2)
    x = parse_element("(v + v^-1) * K[2,0]", ctx)
    assert x == Element(ctx, EKF, {Monomial(0, 2, 0, 0, EKF): V(1) + V(-1)})
    assert parse_element("0", ctx).is_zero
    y = parse_element("(-1) * K[1,1] + K[0,2]", ctx)
    assert y.coefficient(Monomial(0, 1, 1, 0, EKF)) == -ONE


def test_parse_fke_orientation():
    ctx = Context(2)
    x = parse_element("f^(1) K[2,0] e^(1)", ctx, FKE)
    assert x == Element(ctx, FKE, {Monomial(1, 2, 0, 1, FKE): ONE})
    with pytest.raises(ParseError):
        parse_element("e^(1) K[1,1] f^(1)", ctx, FKE)


def test_parse_error_positions():
    ctx = Context(1)
    with pytest.raises(ParseError) as err:
        parse_element("K[1,0] + ", ctx)
    assert err.value.position >= 8
    with pytest.raises(ParseError):
        parse_element("e^(1)", ctx)  # missing K factor
    with pytest.raises(ParseError):
        parse_element("K[0,1] e^(1)", ctx)  # e after K in EKF
    with pytest.raises(ParseError):
        parse_element("(v", ctx)


# One row per raise of the text reader: (case, text, orientation, str(exc), position).
PARSE_ERRORS = [
    ("empty", "  ", EKF, "empty element text", 0),
    ("stray-close", "K[1,0])", EKF, "unbalanced parenthesis", 6),
    ("unclosed-open", "(v) * K[1,0] + (1", EKF, "unbalanced parenthesis", 16),
    ("leading-plus", "+ K[1,0]", EKF, "empty term", 0),
    ("doubled-plus", "K[1,0] + + K[0,1]", EKF, "empty term", 8),
    ("trailing-plus", "K[1,0] + ", EKF, "empty term", 8),
    (
        "bad-coefficient",
        "(v^) * K[1,0]",
        EKF,
        "bad coefficient: bad Laurent polynomial at position 1: 'v^'",
        1,
    ),
    ("missing-star", "(v) K[1,0]", EKF, "expected '*' after coefficient", 4),
    ("bad-factor", "K[1,0] g^(1)", EKF, "expected a factor like e^(1), K[0,1] or f^(1)", 7),
    ("first-after-K-ekf", "K[0,1] e^(1)", EKF, "e factor out of order for EKF", 7),
    ("first-after-K-fke", "K[1,0] f^(1)", FKE, "f factor out of order for FKE", 7),
    ("first-twice-ekf", "e^(1) e^(1) K[0,1]", EKF, "e factor out of order for EKF", 6),
    ("first-twice-fke", "f^(1) f^(1) K[1,0]", FKE, "f factor out of order for FKE", 6),
    ("last-before-K-ekf", "f^(1) K[1,0]", EKF, "f factor out of order for EKF", 0),
    ("last-before-K-fke", "e^(1) K[0,1]", FKE, "e factor out of order for FKE", 0),
    ("last-twice-ekf", "K[1,0] f^(1) f^(1)", EKF, "f factor out of order for EKF", 13),
    ("last-twice-fke", "K[0,1] e^(1) e^(1)", FKE, "e factor out of order for FKE", 13),
    ("duplicate-K", "K[1,0] K[0,1]", EKF, "duplicate K factor", 7),
    ("missing-K", "K[1,0] + e^(1)", EKF, "term is missing its K[b1,b2] factor", 8),
]


@pytest.mark.parametrize(
    "text, orientation, message, position",
    [row[1:] for row in PARSE_ERRORS],
    ids=[row[0] for row in PARSE_ERRORS],
)
def test_every_parse_error_names_its_message_and_position(text, orientation, message, position):
    with pytest.raises(ParseError) as err:
        parse_element(text, Context(1), orientation)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_format_examples():
    ctx = Context(2)
    x = Element(
        ctx,
        EKF,
        {
            Monomial(1, 0, 2, 1, EKF): V(1) + V(-1),
            Monomial(0, 2, 0, 0, EKF): ONE,
        },
    )
    assert format_element(x) == "K[2,0] + (v + v^-1) * e^(1) K[0,2] f^(1)"
    assert format_element(Element(ctx, EKF)) == "0"


def test_text_round_trip():
    rng = random.Random(11)
    for d in range(4):
        ctx = Context(d)
        for orientation in (EKF, FKE):
            for _ in range(10):
                x = random_element(ctx, rng, orientation, max_terms=4)
                text = format_element(x)
                assert parse_element(text, ctx, orientation) == x
                # formatting is deterministic
                assert format_element(parse_element(text, ctx, orientation)) == text


def test_json_round_trip():
    rng = random.Random(13)
    for d in range(4):
        ctx = Context(d)
        for orientation in (EKF, FKE):
            for _ in range(10):
                x = random_element(ctx, rng, orientation, max_terms=4)
                data = element_to_json(x)
                assert element_from_json(data, ctx) == x
                # the JSON form itself is byte-deterministic
                assert json.dumps(data) == json.dumps(element_to_json(x))


# Coefficients past 2**64 in both signs, on negative and positive exponents.
wide_polys = st.dictionaries(
    st.integers(-8, 8), st.integers(-(2**70), 2**70), max_size=4
).map(LaurentPoly)


@st.composite
def json_elements(draw):
    ctx = Context(draw(st.integers(0, 6)))
    orientation = draw(st.sampled_from((EKF, FKE)))
    basis = ctx.monomials(orientation)
    # Terms arrive in drawn order, so the writer must sort them itself.
    terms = draw(st.lists(st.tuples(st.sampled_from(basis), wide_polys), max_size=5))
    return Element(ctx, orientation, terms)


WIDE = Element(
    Context(3),
    FKE,
    {
        Monomial(1, 1, 2, 0, FKE): V(-1),
        Monomial(0, 3, 0, 2, FKE): LaurentPoly({2: -(2**64) - 1, -3: 2**65}),
    },
)


# One text memo for every drawn element, as table shares one for a run.
SHARED_TEXTS: dict = {}


@settings(max_examples=200, deadline=None)
@given(json_elements())
@example(Element(Context(0), EKF))
@example(Element(Context(4), FKE))
@example(WIDE)
# The same (a, b1, c) at two degrees: the monomial text must carry b2.
@example(Element(Context(2), EKF, {Monomial(1, 0, 2, 1, EKF): V(1)}))
@example(Element(Context(3), EKF, {Monomial(1, 0, 3, 1, EKF): V(1)}))
# Two-digit indices in both orientations.
@example(Element(Context(10), EKF, {Monomial(10, 0, 10, 0, EKF): V(-3)}))
@example(Element(Context(10), FKE, {Monomial(0, 10, 0, 10, FKE): V(-3)}))
def test_element_json_text_is_json_dumps_of_element_to_json(x):
    expected = json.dumps(element_to_json(x))
    assert element_json_text(x) == expected
    assert element_json_text(x, SHARED_TEXTS) == expected
    assert all(m in SHARED_TEXTS and coeff in SHARED_TEXTS for m, coeff in x.terms.items())


def test_json_shape():
    ctx = Context(1)
    x = Element(ctx, EKF, {Monomial(1, 0, 1, 0, EKF): V(2)})
    assert element_to_json(x) == {
        "d": 1,
        "orientation": "EKF",
        "terms": [{"a": 1, "b1": 0, "b2": 1, "c": 0, "coeff": [[2, "1"]]}],
    }


def test_json_degree_mismatch():
    ctx = Context(2)
    data = {"d": 1, "orientation": "EKF", "terms": []}
    with pytest.raises(ParseError):
        element_from_json(data, ctx)


def test_json_without_a_context_makes_its_own():
    term = {"a": 1, "b1": 2, "b2": 0, "c": 0, "coeff": [[0, "1"]]}
    data = {"d": 2, "orientation": "FKE", "terms": [term]}
    x = element_from_json(data)
    assert x.ctx == Context(2)
    assert x == Element(Context(2), FKE, {Monomial(1, 2, 0, 0, FKE): ONE})
