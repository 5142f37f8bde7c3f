"""The symbolic algebra: idempotent calculus, straightening, multiplication."""

import __future__
import collections
import contextlib
import inspect
import itertools
import json
import math
import random
import re
import textwrap
from collections.abc import Callable
from functools import cache
from types import MappingProxyType
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur.algebra import (
    EKF,
    FKE,
    Context,
    ContextMismatch,
    Element,
    IndexOutOfRange,
    Monomial,
    anti_involution,
    change_from_kbinom_basis,
    change_to_kbinom_basis,
    convert_orientation,
    divided_power_element,
    generator_element,
    identity_element,
    idempotent_element,
    k_element,
    kbinom_index_set,
    multiply,
    reduce_monomial,
    reduction_defect,
    zero_element,
)
from qschur import algebra, oracle, suites
from qschur.suites import random_element
from qschur.laurent import LaurentPoly, gauss_binomial, quantum_factorial, quantum_int
from qschur.suites import _UnstraightenedContext, run_suite
from test_golden import CHECK_COUNT

V = LaurentPoly.v
ONE = LaurentPoly.one()

small_polys = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=3).map(LaurentPoly)


@st.composite
def elements(draw, orientations=(EKF, FKE)):
    """An element of degree d <= 5 with up to four drawn terms."""
    ctx = Context(draw(st.integers(0, 5)))
    orientation = draw(st.sampled_from(orientations))
    basis = ctx.monomials(orientation)
    terms = draw(st.lists(st.tuples(st.sampled_from(basis), small_polys), max_size=4))
    return Element(ctx, orientation, terms)


def unit(ctx, a, b1, c, orientation=EKF):
    b2 = ctx.d - b1
    return Element(ctx, orientation, {Monomial(a, b1, b2, c, orientation): ONE})


# -- contexts ----------------------------------------------------------------


def test_context_idempotent_lists():
    assert Context(0).idempotents == [(0, 0)]
    assert Context(1).idempotents == [(0, 1), (1, 0)]
    assert len(Context(4).idempotents) == 5


def test_context_rejects_negative_degree():
    with pytest.raises(IndexOutOfRange):
        Context(-1)


def test_context_monomials_are_memoised_as_fresh_lists():
    ctx = Context(3)
    for orientation in (EKF, FKE):
        first = ctx.monomials(orientation)
        assert ctx.monomials(orientation) == first
        assert ctx.monomials(orientation) is not first
        first.clear()
        assert len(ctx.monomials(orientation)) == 20
    with pytest.raises(ValueError):
        ctx.monomials("KEF")


def test_direct_enumeration_equals_the_filtered_scan():
    # The canonical basis and the K-binomial index set, each against the
    # filtered (d+1)^3 scan it replaces, in the same order.
    for d in range(9):
        cube = [(a, b, c) for a in range(d + 1) for b in range(d + 1) for c in range(d + 1)]
        for ctx in (Context(d), _UnstraightenedContext(d)):
            for orientation in (EKF, FKE):
                scan = [Monomial(a, b1, d - b1, c, orientation) for a, b1, c in cube]
                assert ctx.monomials(orientation) == [m for m in scan if ctx.is_canonical(m)]
        scan = sorted((t for t in cube if sum(t) <= d), key=lambda t: (-(t[0] + t[2]), t[0], t[1]))
        assert kbinom_index_set(Context(d)) == scan


def test_element_coefficients_are_coerced():
    ctx = Context(2)
    m = Monomial(0, 1, 1, 0, EKF)
    assert Element(ctx, EKF, {m: 3}) == Element(ctx, EKF, {m: LaurentPoly.from_int(3)})
    assert Element(ctx, EKF, {m: 0}).is_zero
    for bad in (1.5, "3"):
        with pytest.raises(TypeError):
            Element(ctx, EKF, {m: bad})


def test_element_keys_are_validated():
    ctx = Context(1)
    with pytest.raises(IndexOutOfRange):
        Element(ctx, EKF, {Monomial(1, 1, 0, 1, EKF): ONE})  # fake degree 2 > 1
    with pytest.raises(IndexOutOfRange):
        Element(ctx, EKF, {Monomial(0, 2, 0, 0, EKF): ONE})  # b1 + b2 != 1
    with pytest.raises(ContextMismatch):
        Element(ctx, EKF, {Monomial(0, 0, 1, 0, FKE): ONE})
    with pytest.raises(IndexOutOfRange):
        Element(ctx, EKF, MappingProxyType({Monomial(1, 1, 0, 1, EKF): ONE}))
    assert Element(ctx, EKF, MappingProxyType({Monomial(1, 0, 1, 0, EKF): ONE})) == unit(
        ctx, 1, 0, 0
    )


# -- identity and idempotents -------------------------------------------------


def test_identity_element():
    ctx = Context(1)
    assert identity_element(ctx) == unit(ctx, 0, 0, 0) + unit(ctx, 0, 1, 0)
    ctx0 = Context(0)
    assert identity_element(ctx0) == unit(ctx0, 0, 0, 0)


def test_identity_is_neutral():
    rng = random.Random(1)
    for d in (0, 1, 3):
        ctx = Context(d)
        ident = identity_element(ctx)
        for _ in range(5):
            x = random_element(ctx, rng)
            assert multiply(ident, x) == x
            assert multiply(x, ident) == x


def reference_random_element(ctx, rng, max_terms=3):
    """random_element drawn with a fresh LaurentPoly per coefficient and a checked Element."""
    basis = ctx.monomials(EKF)
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(basis)
        k = rng.randint(-2, 2)
        s = rng.choice([-2, -1, 1, 2])
        terms.append((m, LaurentPoly({k: s})))
    return Element(ctx, EKF, terms)


@pytest.mark.parametrize("d", range(7))
def test_random_element_matches_a_reference_draw(d):
    ctx = Context(d)
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        for max_terms in (3, 4):
            for _ in range(20):
                got = random_element(ctx, rng, max_terms)
                assert got == reference_random_element(ctx, ref, max_terms)
        assert rng.getstate() == ref.getstate()


def test_idempotent_products():
    def product(ctx, p, q):
        return multiply(idempotent_element(ctx, *p), idempotent_element(ctx, *q))

    ctx2 = Context(2)
    assert product(ctx2, (1, 1), (1, 1)) == idempotent_element(ctx2, 1, 1)
    ctx1 = Context(1)
    assert product(ctx1, (1, 0), (0, 1)).is_zero
    ctx0 = Context(0)
    assert product(ctx0, (0, 0), (0, 0)) == idempotent_element(ctx0, 0, 0)
    with pytest.raises(IndexOutOfRange):
        idempotent_element(ctx1, 2, -1)
    with pytest.raises(IndexOutOfRange):
        idempotent_element(ctx1, 1, 1)


def test_idempotents_are_orthogonal_under_multiply():
    for d in range(4):
        ctx = Context(d)
        for p in ctx.idempotents:
            for q in ctx.idempotents:
                want = idempotent_element(ctx, *p) if p == q else zero_element(ctx)
                product = multiply(idempotent_element(ctx, *p), idempotent_element(ctx, *q))
                assert product == want


# -- commutation rules --------------------------------------------------------


def test_left_and_right_move_powers_past_idempotents():
    # Monomial.left and .right hold the rule x K[b1,b2] = K[b1',b2'] x for a
    # divided power x; an index outside 0..d means the product vanishes.
    ctx1, ctx2 = Context(1), Context(2)
    e1 = generator_element(ctx1, "e")
    e2, f2 = generator_element(ctx2, "e"), generator_element(ctx2, "f")

    def k1(b1):
        return idempotent_element(ctx1, b1, 1 - b1)

    def k2(b1):
        return idempotent_element(ctx2, b1, 2 - b1)

    # K[1,1] e = e K[0,2], and K[0,2] e = 0
    assert Monomial(1, 0, 2, 0).left == 1
    assert multiply(k2(1), e2) == multiply(e2, k2(0)) == reduce_monomial(ctx2, (1, 0, 2, 0))
    assert Monomial(0, 0, 2, 1, FKE).right == -1
    assert multiply(k2(0), e2).is_zero
    # e K[0,1] = K[1,0] e
    assert Monomial(1, 0, 1, 0).left == 1
    assert multiply(e1, k1(0)) == multiply(k1(1), e1) == e1
    # f rules mirror the e rules: f K[1,1] = K[0,2] f, f^(2) K[1,1] = 0,
    # K[1,1] f = f K[2,0] and K[1,1] f^(2) = 0
    assert Monomial(1, 1, 1, 0, FKE).left == 0
    assert multiply(f2, k2(1)) == multiply(k2(0), f2) == reduce_monomial(ctx2, (0, 0, 2, 1))
    assert Monomial(2, 1, 1, 0, FKE).left == -1
    assert multiply(divided_power_element(ctx2, "f", 2), k2(1)).is_zero
    assert Monomial(0, 1, 1, 1).right == 2
    assert multiply(k2(1), f2) == multiply(f2, k2(2)) == reduce_monomial(ctx2, (0, 1, 1, 1))
    assert Monomial(0, 1, 1, 2).right == 3
    assert multiply(k2(1), divided_power_element(ctx2, "f", 2)).is_zero
    with pytest.raises(IndexOutOfRange):
        Element(ctx2, EKF, {Monomial(1, 3, -1, 0): 1})


# -- straightening ------------------------------------------------------------


def test_reduce_examples():
    ctx1, ctx2, ctx3 = Context(1), Context(2), Context(3)
    assert reduce_monomial(ctx1, (1, 0, 1, 1)) == unit(ctx1, 0, 1, 0)
    assert reduce_monomial(ctx1, (1, 1, 0, 1)).is_zero
    assert reduce_monomial(ctx2, (1, 1, 1, 1)) == unit(ctx2, 0, 2, 0).scale(V(1) + V(-1))
    assert reduce_monomial(ctx3, (0, 2, 1, 0)) == unit(ctx3, 0, 2, 0)


def test_reduce_defect():
    ctx = Context(2)
    assert reduction_defect(ctx, (1, 1, 1, 1), EKF) == 1
    assert reduction_defect(ctx, (1, 1, 1, 1), FKE) == 1
    assert reduction_defect(ctx, (0, 2, 0, 0), EKF) == 0
    assert reduction_defect(ctx, (0, 2, 0, 0), FKE) == -2


def test_reduce_always_emits_canonical_terms():
    for d in range(5):
        ctx = Context(d)
        for orientation in (EKF, FKE):
            for a in range(d + 2):
                for b1 in range(d + 1):
                    for c in range(d + 2):
                        red = reduce_monomial(ctx, (a, b1, d - b1, c), orientation)
                        for m in red.terms:
                            assert m.fake_degree <= d
                            assert min(m.a, m.b1, m.b2, m.c) >= 0
                            assert m.b1 + m.b2 == d


def test_reduce_validates_input():
    # reduction_defect checks its input as reduce_monomial does, with the same messages.
    ctx = Context(2)
    bad = {
        (1, 5, 1, 1): r"idempotent indices \(5,1\) must be nonnegative with sum 2",
        (1, -1, 3, 1): r"idempotent indices \(-1,3\) must be nonnegative with sum 2",
        (-1, 1, 1, 0): r"divided-power exponents must be nonnegative: \(-1,0\)",
        (0, 1, 1, -2): r"divided-power exponents must be nonnegative: \(0,-2\)",
    }
    bad_orientation = "^orientation must be 'EKF' or 'FKE', got 'bogus'$"
    for fn in (reduce_monomial, reduction_defect):
        with pytest.raises(ValueError, match=bad_orientation) as exc:
            fn(ctx, (1, 1, 1, 1), "bogus")
        assert exc.type is ValueError
        for quad, message in bad.items():
            for orientation in (EKF, FKE):
                with pytest.raises(IndexOutOfRange, match=f"^{message}$"):
                    fn(ctx, quad, orientation)


@pytest.mark.parametrize("orientation", [EKF, FKE])
@pytest.mark.parametrize("d", range(5))
def test_monomial_keeps_its_frozen_record_contract(d, orientation):
    other = FKE if orientation == EKF else EKF
    assert Monomial(0, d, 0, 0).orientation == EKF
    for m in Context(d).monomials(orientation):
        a, b1, b2, c, o = m
        assert o == orientation
        assert repr(m) == f"Monomial(a={a}, b1={b1}, b2={b2}, c={c}, orientation={o!r})"
        assert m == (a, b1, b2, c, o) and hash(m) == hash((a, b1, b2, c, o))
        step = 1 if o == EKF else -1
        assert (m.left, m.right) == (b1 + step * a, b1 + step * c)
        assert m.fake_degree == a + (b1 if o == EKF else b2) + c
        swapped = m.swapped()
        assert type(swapped) is Monomial
        assert swapped == Monomial(a, b2, b1, c, other) and swapped.swapped() == m
        with pytest.raises(AttributeError):
            m.a = a + 1
        with pytest.raises(AttributeError):
            m.weight = b1 - b2
    # sorted_terms lists an element's terms in (a, b1, c) order, whatever
    # order they were added in.
    basis = Context(d).monomials(orientation)
    shuffled = random.Random(d).sample(basis, len(basis))
    x = Element(Context(d), orientation, {m: V(i) for i, m in enumerate(shuffled)})
    order = [(m.a, m.b1, m.c) for m, _ in x.sorted_terms()]
    assert order == sorted((m.a, m.b1, m.c) for m in basis)


# -- single-generator products --------------------------------------------------


def test_right_mul_k_generators():
    ctx = Context(3)
    x = idempotent_element(ctx, 2, 1)
    assert multiply(x, k_element(ctx, "K1")) == x.scale(V(2))
    assert multiply(x, k_element(ctx, "K2")) == x.scale(V(1))
    assert multiply(x, k_element(ctx, "K1inv")) == x.scale(V(-2))
    # with an f-power present, K1 also picks up v^c from the commutation
    y = unit(ctx, 0, 1, 1)
    assert multiply(y, k_element(ctx, "K1")) == y.scale(V(2))
    assert multiply(y, k_element(ctx, "K2")) == y.scale(V(1))


def test_right_mul_e_and_f_at_degree_one():
    ctx = Context(1)
    x = unit(ctx, 1, 0, 0)  # e^(1) K[0,1]
    assert multiply(x, generator_element(ctx, "f")) == unit(ctx, 0, 1, 0)
    assert multiply(x, generator_element(ctx, "e")).is_zero


def test_right_mul_idempotent():
    ctx = Context(1)
    ident = identity_element(ctx)
    assert multiply(ident, idempotent_element(ctx, 1, 0)) == idempotent_element(ctx, 1, 0)
    x = unit(ctx, 1, 0, 0)  # e^(1) K[0,1] ends in weight (0 + 0 zeros...) = K[0,1] side
    assert multiply(x, idempotent_element(ctx, 1, 0)).is_zero
    assert multiply(x, idempotent_element(ctx, 0, 1)) == x


def test_multiply_examples_at_degree_one():
    ctx = Context(1)
    x = unit(ctx, 1, 0, 0)  # e^(1) K[0,1]
    y = unit(ctx, 0, 0, 1)  # K[0,1] f^(1)
    assert multiply(x, y) == unit(ctx, 0, 1, 0)
    assert multiply(x, x).is_zero  # e^2 = 0 at d = 1


def test_zero_product_at_large_degree_computes_no_binomial():
    # e^(200) K[0,400] ends in weight K[0,400]; K[200,200] f^(150) starts in
    # K[200,200], so the idempotents are orthogonal and the product is zero.
    ctx = Context(400)
    x = unit(ctx, 200, 0, 0)
    y = unit(ctx, 0, 200, 150)
    factorials = quantum_factorial.cache_info()
    binomials = gauss_binomial.cache_info()
    assert multiply(x, y).is_zero
    assert quantum_factorial.cache_info() == factorials
    assert gauss_binomial.cache_info() == binomials


def reference_multiply(x, y):
    """x * y by the monomial product formula of ``_add_monomial_product``'s
    docstring, as a plain loop over every pair of terms: all three binomials
    and a ``reduce_monomial`` for every term, with no shortcut."""
    ctx = x.ctx
    fke = x.orientation == FKE
    if fke:  # the e<->f, K1<->K2 automorphism carries FKE to EKF and back
        x, y = (Element(ctx, EKF, {m.swapped(): u for m, u in z.terms.items()}) for z in (x, y))
    terms = {}
    for (a, b1, b2, c, _), u in x.terms.items():
        for (a2, b1_, b2_, c2, _), w in y.terms.items():
            if b1 + c != b1_ + a2:  # the idempotents between them are orthogonal
                continue
            for t in range(min(c, a2) + 1):
                if b1_ - c + t < 0:
                    continue
                coeff = (
                    gauss_binomial(c - a2 - (b1_ - b2_), t)
                    * gauss_binomial(a + a2 - t, a)
                    * gauss_binomial(c + c2 - t, c2)
                    * u
                    * w
                )
                quad = (a + a2 - t, b1_ - c + t, b2_ + c - t, c + c2 - t)
                for mono, r in reduce_monomial(ctx, quad, EKF).terms.items():
                    terms[mono] = terms.get(mono, LaurentPoly.zero()) + r * coeff
    product = Element(ctx, EKF, terms)
    if fke:
        product = Element(ctx, FKE, {m.swapped(): u for m, u in product.terms.items()})
    return product


# Coefficients that meet every shortcut of the product: the shared unit, a
# unit of its own, +-v^k, and polynomials of several terms.
product_coefficients = st.one_of(
    st.just(ONE),
    st.builds(LaurentPoly, st.just({0: 1})),
    st.builds(lambda s, k: LaurentPoly({k: s}), st.sampled_from([1, -1]), st.integers(-3, 3)),
    small_polys.filter(lambda p: len(p) > 1),
)


@st.composite
def operand_pairs(draw):
    """Two elements of one context (d <= 5) and orientation, of two to five terms each."""
    ctx = Context(draw(st.integers(0, 5)))
    orientation = draw(st.sampled_from((EKF, FKE)))
    terms = st.lists(
        st.tuples(st.sampled_from(ctx.monomials(orientation)), product_coefficients),
        min_size=2,
        max_size=5,
    )
    return Element(ctx, orientation, draw(terms)), Element(ctx, orientation, draw(terms))


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_multiply_matches_the_reference_product(pair):
    x, y = pair
    for lhs, rhs in (pair, (y, x)):
        product = multiply(lhs, rhs)
        want = reference_multiply(lhs, rhs)
        assert product.orientation == want.orientation
        assert product.terms == want.terms


def fill_straightening_memo(ctx):
    """Multiply every pair of EKF basis units; skip the pairs that raise."""
    units = [Element(ctx, EKF, {m: ONE}) for m in ctx.monomials(EKF)]
    for x in units:
        for y in units:
            with contextlib.suppress(IndexOutOfRange):  # only when unstraightened
                multiply(x, y)
    return ctx._straightened


def fill_memo_through_kbinom(ctx):
    """Expand every K-binomial triple with entries up to d + 1, largest first;
    skip the ones that raise."""
    top = ctx.d + 2
    for triple in reversed(list(itertools.product(range(top), repeat=3))):
        with contextlib.suppress(IndexOutOfRange):  # only when unstraightened
            change_from_kbinom_basis(ctx, {triple: ONE})
    return ctx._straightened


def fill_memo_through_reduce_monomial(ctx):
    """Reduce every quadruple with a, c <= d + 1 in both orientations; skip
    the ones that raise."""
    d = ctx.d
    for a, b1, c in itertools.product(range(d + 2), range(d + 1), range(d + 2)):
        for orientation in (EKF, FKE):
            with contextlib.suppress(IndexOutOfRange):  # only when unstraightened
                reduce_monomial(ctx, (a, b1, d - b1, c), orientation)
    return ctx._straightened


@pytest.mark.parametrize("unstraightened", [False, True])
def test_straightening_memo_holds_reduce_monomial(unstraightened):
    # Each entry is checked against a fresh context, since this one would read
    # the entry itself.  A straightening that raises must leave no entry: the
    # fresh reduction would raise below.  Every key is an EKF (a, b1, c), even
    # after FKE reductions, which relabel their mirror's entry.
    fills = (fill_straightening_memo, fill_memo_through_kbinom, fill_memo_through_reduce_monomial)
    for fill in fills:
        for d in range(6):
            ctx = _UnstraightenedContext(d) if unstraightened else Context(d)
            memo = fill(ctx)
            assert memo
            for key, entry in memo.items():
                a, b1, c = key
                assert isinstance(entry, tuple)
                assert all(m.orientation == EKF for m, _ in entry)
                fresh = reduce_monomial(type(ctx)(d), (a, b1, d - b1, c))
                assert dict(entry) == fresh.terms


@pytest.mark.parametrize("orientation", [EKF, FKE])
def test_reduce_monomial_straightens_each_monomial_once_per_context(monkeypatch, orientation):
    calls = []
    healthy = Context._straighten

    def counted(ctx, m):
        calls.append(m)
        return healthy(ctx, m)

    monkeypatch.setattr(Context, "_straighten", counted)
    for d in range(5):
        ctx = Context(d)
        for quad in suites._straightened_quads(ctx, orientation):
            first = reduce_monomial(ctx, quad, orientation)
            assert calls
            calls.clear()
            assert reduce_monomial(ctx, quad, orientation) == first
            assert calls == []


@pytest.mark.parametrize("d", range(2, 7))
def test_one_verify_run_straightens_each_monomial_once(monkeypatch, d):
    # An FKE reduction relabels the EKF reduction of its mirror, so only EKF
    # monomials are ever straightened.
    calls = collections.Counter()
    healthy = Context._straighten

    def counted(ctx, m):
        calls[m] += 1
        return healthy(ctx, m)

    monkeypatch.setattr(Context, "_straighten", counted)
    assert suites.run_suites(list(suites.SUITES), d)["pass"]
    assert {m.orientation for m in calls} == {EKF}
    assert max(calls.values()) == 1


def test_an_element_from_reduce_monomial_does_not_alias_the_memo():
    ctx = Context(2)
    planted = {EKF: Monomial(0, 2, 0, 0, EKF), FKE: Monomial(0, 0, 2, 0, FKE)}
    for quad, orientation in [
        ((1, 1, 1, 1), EKF),  # straightens to (v + v^-1) K[2,0]
        ((2, 2, 0, 2), EKF),  # straightens to zero
        ((1, 1, 1, 0), EKF),  # canonical
        ((1, 1, 1, 1), FKE),
        ((0, 1, 1, 1), FKE),
    ]:
        a, b1, b2, c = quad
        fke = orientation == FKE
        key = (a, b2, c) if fke else (a, b1, c)  # an FKE row reads its mirror's entry
        first = reduce_monomial(ctx, quad, orientation)
        expected = dict(first.terms)
        entry = ctx._straightened[key]
        first.terms.clear()
        first.terms[planted[orientation]] = V(3)
        assert reduce_monomial(ctx, quad, orientation).terms == expected
        assert ctx._straightened[key] == entry
        assert dict(entry) == ({m.swapped(): u for m, u in expected.items()} if fke else expected)


def test_straightening_memo_is_per_context():
    for d in range(1, 4):
        ctx = Context(d)
        fault = _UnstraightenedContext(d)
        memo = fill_straightening_memo(ctx)
        assert fault._straightened == {}
        fill_straightening_memo(fault)
        assert fault._straightened is not memo
        assert any(fault._straightened[key] != memo[key] for key in memo)
        assert not any(
            fault._straightened.get(key) is entry for key, entry in memo.items()
        )


def test_a_wrong_memo_entry_is_caught_by_the_oracle():
    rep = suites._build_rep(2, None)
    ctx = Context(2)
    fill_straightening_memo(ctx)
    assert all(c["pass"] for c in oracle._record(suites.suite_oracle(2, ctx, rep)))
    key, ((mono, coeff), *rest) = next(iter(ctx._straightened.items()))
    a, b1, c = key
    ctx._straightened[key] = ((mono, -coeff), *rest)
    fresh = reduce_monomial(Context(2), (a, b1, 2 - b1, c))
    assert dict(ctx._straightened[key]) != fresh.terms
    checks = {c["id"]: c["pass"] for c in oracle._record(suites.suite_oracle(2, ctx, rep))}
    assert checks["orc-homomorphism"] is False


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_wrong_memo_entry_is_caught_by_the_reduction_suite(d):
    rep = suites._build_rep(d, None)
    assert all(c["pass"] for c in oracle._record(suites.suite_reduction(d, Context(d), rep)))
    ctx = Context(d)
    quad = next(
        q for q in suites._straightened_quads(ctx, EKF) if reduce_monomial(Context(d), q)
    )
    a, b1, _, c = quad
    entry = tuple((m, -u) for m, u in reduce_monomial(Context(d), quad).terms.items())
    ctx._straightened[a, b1, c] = entry
    checks = oracle._record(suites.suite_reduction(d, ctx, rep))
    # An FKE straightening relabels the EKF memo entry of its mirror.
    assert [c["id"] for c in checks if not c["pass"]] == [
        "orc-reduction-matches-raw-word-ekf",
        "orc-reduction-matches-raw-word-fke",
    ]


@pytest.mark.parametrize("d", range(6))
@pytest.mark.parametrize("fault", suites.FAULTS)
def test_one_shared_context_reports_as_a_context_per_suite(d, fault):
    # run_suites runs every suite in one context; run_suite alone builds its
    # own.  The shared memos must not change a byte of the report.
    for seed in (0, 7):
        checks = [
            {**c, "id": f"{name}/{c['id']}"}
            for name in suites.SUITES
            for c in run_suite(name, d, seed=seed, fault=fault)["checks"]
        ]
        merged = oracle._report(d, "+".join(suites.SUITES), checks)
        shared = suites.run_suites(list(suites.SUITES), d, seed=seed, fault=fault)
        assert json.dumps(shared) == json.dumps(merged)


def test_run_suites_builds_one_context_per_call(monkeypatch):
    built = []
    init = Context.__init__

    def counted(ctx, d):
        built.append(ctx)
        init(ctx, d)

    monkeypatch.setattr(Context, "__init__", counted)
    for d, fault in ((2, None), (3, "skip-reduction"), (2, "broken-module")):
        for _ in range(2):  # no call reuses the context of the call before it
            built.clear()
            suites.run_suites(list(suites.SUITES), d, fault=fault)
            assert len(built) == 1
            unstraightened = fault == "skip-reduction"
            assert type(built[0]) is (_UnstraightenedContext if unstraightened else Context)
            built.clear()
            run_suite("basis", d, fault=fault)
            assert len(built) == 1


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_wrong_memo_entry_in_the_shared_context_fails_two_suites(monkeypatch, d):
    # One EKF straightening, negated in the run's one context before the
    # first suite runs, is read by every suite after it.
    new_context = suites._new_context
    quads = suites._straightened_quads(Context(d), EKF)
    quad = next(q for q in quads if reduce_monomial(Context(d), q))
    a, b1, _, c = quad
    entry = tuple((m, -u) for m, u in reduce_monomial(Context(d), quad).terms.items())

    def poisoned(d, fault):
        ctx = new_context(d, fault)
        ctx._straightened[a, b1, c] = entry
        return ctx

    monkeypatch.setattr(suites, "_new_context", poisoned)
    report = suites.run_suites(list(suites.SUITES), d)
    failed = {c["id"] for c in report["checks"] if not c["pass"]}
    assert {"reduction/orc-reduction-matches-raw-word-ekf", "oracle/orc-homomorphism"} <= failed


@pytest.mark.parametrize("orientation", [EKF, FKE])
def test_left_and_right_name_the_idempotents_at_each_end(orientation):
    # K[left] M(m) = M(m) = M(m) K[right] in the Weyl oracle, and every basis
    # pair with m.right != n.left multiplies to zero there and symbolically.
    for d in range(6):
        ctx = Context(d)
        rep = suites._build_rep(d, None)
        basis = ctx.monomials(orientation)
        units = [Element(ctx, orientation, {m: ONE}) for m in basis]
        matrices = [oracle.matrix_of_element(rep, x) for x in units]
        for m, mat in zip(basis, matrices):
            assert 0 <= m.left <= d and 0 <= m.right <= d
            left = idempotent_element(ctx, m.left, d - m.left, orientation)
            right = idempotent_element(ctx, m.right, d - m.right, orientation)
            assert oracle.matrix_of_element(rep, left) * mat == mat
            assert mat * oracle.matrix_of_element(rep, right) == mat
        for m, x, mx in zip(basis, units, matrices):
            for n, y, my in zip(basis, units, matrices):
                if m.right != n.left:
                    assert (mx * my).is_zero, (m, n)
                    assert multiply(x, y).is_zero, (m, n)


def test_multiply_rejects_mismatches():
    x = identity_element(Context(1))
    assert multiply(x, identity_element(Context(1))) == x  # equal contexts need not be one
    y = identity_element(Context(2))
    with pytest.raises(ContextMismatch):
        multiply(x, y)
    z = identity_element(Context(1), FKE)
    with pytest.raises(ContextMismatch):
        multiply(x, z)


def test_nilpotency_index():
    for d in range(7):
        ctx = Context(d)
        for gen in ("e", "f"):
            assert divided_power_element(ctx, gen, d + 1).is_zero
            assert not divided_power_element(ctx, gen, d).is_zero or d == 0


def test_minimal_polynomials():
    for d in range(5):
        ctx = Context(d)
        ident = identity_element(ctx)
        for which, roots in (
            ("K1", [V(i) for i in range(d + 1)]),
            ("K2", [V(i) for i in range(d + 1)]),
            ("K", [V(d - 2 * i) for i in range(d + 1)]),
        ):
            base = k_element(ctx, which)
            acc = ident
            for r in roots:
                acc = multiply(acc, base - ident.scale(r))
            assert acc.is_zero, (d, which)


def test_k1_spectrum_is_complete():
    for d in range(5):
        ctx = Context(d)
        ident = identity_element(ctx)
        k1 = k_element(ctx, "K1")
        for j in range(d + 1):
            acc = ident
            for i in range(d + 1):
                if i != j:
                    acc = multiply(acc, k1 - ident.scale(V(i)))
            assert not acc.is_zero, (d, j)


def test_commutator_identity():
    # ef - fe = (v^-d K1^2 - v^d K1^-2) / (v - v^-1)
    for d in range(5):
        ctx = Context(d)
        e = generator_element(ctx, "e")
        f = generator_element(ctx, "f")
        k1 = k_element(ctx, "K1")
        k1i = k_element(ctx, "K1inv")
        lhs = multiply(e, f) - multiply(f, e)
        num = multiply(k1, k1).scale(V(-d)) - multiply(k1i, k1i).scale(V(d))
        assert lhs == num.exact_div_scalar(V(1) - V(-1)), d


def test_k_elements_at_degree_one():
    ctx = Context(1)
    assert k_element(ctx, "K1") == unit(ctx, 0, 1, 0).scale(V(1)) + unit(ctx, 0, 0, 0)
    assert k_element(ctx, "K") == unit(ctx, 0, 1, 0).scale(V(1)) + unit(ctx, 0, 0, 0).scale(V(-1))
    ctx0 = Context(0)
    assert k_element(ctx0, "K1") == identity_element(ctx0)


@pytest.mark.parametrize("d", range(5))
def test_k_elements_act_by_their_weights(d):
    # K1, K2 and K act on K[b1,b2] by v^b1, v^b2 and v^(2 b1 - d); their
    # inverses by the negated exponents.
    ctx = Context(d)
    exponent = {
        "K1": lambda b1: b1,
        "K1inv": lambda b1: -b1,
        "K2": lambda b1: d - b1,
        "K2inv": lambda b1: b1 - d,
        "K": lambda b1: 2 * b1 - d,
        "Kinv": lambda b1: d - 2 * b1,
    }
    for which, fn in exponent.items():
        want = sum((unit(ctx, 0, b1, 0).scale(V(fn(b1))) for b1 in range(d + 1)), zero_element(ctx))
        assert k_element(ctx, which) == want, which
    for which in ("K3", "inv", "K1invinv", "k1"):
        with pytest.raises(ValueError, match=re.escape(f"unknown K-type element {which!r}")):
            k_element(ctx, which)


def test_kbinom_vanishing_above_degree():
    for d in range(6):
        for b1 in range(d + 2):
            b2 = d + 1 - b1
            for beta in range(d + 1):
                assert (gauss_binomial(beta, b1) * gauss_binomial(d - beta, b2)).is_zero


# -- K1-binomial basis ---------------------------------------------------------


def test_kbinom_element_expansion():
    ctx = Context(2)
    # [K1; 1] = K[1,1] + (v + v^-1) K[2,0]
    expected = unit(ctx, 0, 1, 0) + unit(ctx, 0, 2, 0).scale(V(1) + V(-1))
    assert change_from_kbinom_basis(ctx, {(0, 1, 0): ONE}) == expected
    assert change_to_kbinom_basis(expected) == {(0, 1, 0): ONE}


def test_change_basis_examples():
    for d in range(4):
        ctx = Context(d)
        assert change_to_kbinom_basis(identity_element(ctx)) == {(0, 0, 0): ONE}
        assert change_from_kbinom_basis(ctx, {(0, 0, 0): ONE}) == identity_element(ctx)
    ctx1 = Context(1)
    assert change_to_kbinom_basis(unit(ctx1, 0, 1, 0)) == {(0, 1, 0): ONE}
    assert change_from_kbinom_basis(ctx1, {(0, 1, 0): ONE}) == unit(ctx1, 0, 1, 0)


def test_change_basis_round_trip():
    rng = random.Random(23)
    for d in (0, 1, 2, 4, 6):
        ctx = Context(d)
        for _ in range(10):
            x = random_element(ctx, rng, max_terms=4)
            coords = change_to_kbinom_basis(x)
            assert change_from_kbinom_basis(ctx, coords) == x
            assert all(a + b + c <= d for a, b, c in coords)


@settings(max_examples=100, deadline=None)
@given(elements(orientations=(EKF,)))
def test_change_basis_round_trip_on_drawn_elements(x):
    coords = change_to_kbinom_basis(x)
    assert change_from_kbinom_basis(x.ctx, coords) == x
    assert all(not c.is_zero for c in coords.values())


def test_change_basis_unitriangular():
    for d in range(5):
        ctx = Context(d)
        order = kbinom_index_set(ctx)
        position = {t: i for i, t in enumerate(order)}
        for i, (a, b, c) in enumerate(order):
            expansion = change_from_kbinom_basis(ctx, {(a, b, c): ONE})
            assert expansion.coefficient(Monomial(a, b, d - b, c, EKF)) == ONE
            for m in expansion.terms:
                assert position[(m.a, m.b1, m.c)] >= i


def test_change_to_kbinom_basis_needs_the_ekf_basis():
    with pytest.raises(ContextMismatch, match="EKF"):
        change_to_kbinom_basis(identity_element(Context(2), FKE))


def test_change_to_kbinom_basis_raises_on_a_broken_triangle(monkeypatch):
    ctx = Context(2)
    x = unit(ctx, 1, 0, 1)
    monkeypatch.setattr(algebra, "_kbinom_unit", lambda ctx, a, b, c: zero_element(ctx))
    with pytest.raises(RuntimeError, match="residual"):
        change_to_kbinom_basis(x)


def _off_diagonal_negated(healthy):
    """_kbinom_unit with the off-diagonal terms of every in-range unit negated."""

    def unit(ctx, a, b, c):
        out = healthy(ctx, a, b, c)
        if a + b + c > ctx.d:
            return out
        diagonal = Monomial(a, b, ctx.d - b, c, EKF)
        return Element(ctx, EKF, {m: u if m == diagonal else -u for m, u in out.terms.items()})

    return unit


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_wrong_kbinom_unit_is_caught_by_the_closure_check(monkeypatch, d):
    # Negating the off-diagonal terms of every in-range unit keeps the basis
    # change unitriangular and round-trips, so only the oracle can see it.
    assert run_suite("basis", d)["pass"]
    monkeypatch.setattr(algebra, "_kbinom_unit", _off_diagonal_negated(algebra._kbinom_unit))
    checks = {c["id"]: c["pass"] for c in run_suite("basis", d)["checks"]}
    assert not checks["orc-kbinom-closure"]


def test_a_kbinom_unit_is_expanded_once_per_context():
    for d in range(5):
        ctx = Context(d)
        for t in itertools.product(range(d + 2), repeat=3):
            assert algebra._kbinom_unit(ctx, *t) is algebra._kbinom_unit(ctx, *t)


@pytest.mark.parametrize("unstraightened", [False, True])
def test_kbinom_unit_memo_holds_each_triples_expansion(unstraightened):
    for d in range(5):
        ctx = _UnstraightenedContext(d) if unstraightened else Context(d)
        fill_memo_through_kbinom(ctx)
        assert ctx._kbinom_units
        for triple, entry in ctx._kbinom_units.items():
            fresh = type(ctx)(d)
            assert entry == algebra._kbinom_unit(fresh, *triple)


def test_kbinom_unit_memo_is_per_context():
    for d in range(1, 4):
        ctx, fault = Context(d), _UnstraightenedContext(d)
        fill_memo_through_kbinom(ctx)
        assert fault._kbinom_units == {}
        fill_memo_through_kbinom(fault)
        memo, other = ctx._kbinom_units, fault._kbinom_units
        assert any(other[key] != memo[key] for key in memo.keys() & other.keys())
        assert not any(other.get(key) is unit for key, unit in memo.items())


def test_a_kbinom_unit_that_raises_leaves_no_entry():
    # Unstraightened, e^(d+1) is a monomial no element may hold.
    for d in range(4):
        fault = _UnstraightenedContext(d)
        with pytest.raises(IndexOutOfRange):
            algebra._kbinom_unit(fault, d + 1, 0, 0)
        assert (d + 1, 0, 0) not in fault._kbinom_units


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_wrong_kbinom_unit_memo_entry_is_caught_by_the_closure_check(d):
    rep = suites._build_rep(d, None)
    assert all(c["pass"] for c in oracle._record(suites.suite_basis(d, Context(d), rep)))
    ctx = Context(d)
    triple = (0, 1, 0)  # [K1; 1], the sum of [b1; 1] K[b1, d-b1] over b1 >= 1
    ctx._kbinom_units[triple] = _off_diagonal_negated(algebra._kbinom_unit)(ctx, *triple)
    assert ctx._kbinom_units[triple] != algebra._kbinom_unit(Context(d), *triple)
    checks = {c["id"]: c["pass"] for c in oracle._record(suites.suite_basis(d, ctx, rep))}
    assert checks["orc-kbinom-closure"] is False


def _rewritten(function, old, new):
    """``function`` compiled again from its source with the one ``old`` read as ``new``.

    A method's source is dedented first; the copy is a plain function of its
    module, to be set on the class in the original's place.
    """
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(vars(inspect.getmodule(function)))
    flags = __future__.annotations.compiler_flag
    exec(compile(source.replace(old, new), inspect.getfile(function), "exec", flags), namespace)
    return namespace[function.__name__]


class Mutant(NamedTuple):
    """One engine function, the wrap that breaks it, the suites that must then
    fail and the degrees at which each of them must."""

    owner: object
    name: str
    wrap: Callable
    failing: set
    degrees: tuple = (2, 3, 4)


# Each row wraps one engine function and names the suites that must then fail
# at each of its degrees.  The fe-binomial rows fail lusztig because its
# identity e past f^(m) needs the divided-power commutation formula.  Two
# rows break the product's shortcuts: filing the right operand by the wrong
# idempotent, and dropping a merge binomial that is not 1.  The last row flips
# the sign of the straightening terms with k - s >= 2, which first appear at
# d = 5.
MUTATION_MATRIX = {
    "none": Mutant(algebra, "_fe_binomial", lambda h: h, set()),
    "fe-binomial-top-plus-one-at-t1": Mutant(
        algebra,
        "_fe_binomial",
        lambda h: lambda c, a, weight, t: h(c + (t == 1), a, weight, t),
        {"relations", "oracle", "lusztig"},
    ),
    "fe-binomial-times-v-at-t1": Mutant(
        algebra,
        "_fe_binomial",
        lambda h: lambda c, a, weight, t: h(c, a, weight, t) * V(1 if t == 1 else 0),
        {"relations", "oracle", "lusztig"},
    ),
    "fe-binomial-weight-sign": Mutant(
        algebra,
        "_fe_binomial",
        lambda h: lambda c, a, weight, t: gauss_binomial(c - a + weight, t),
        {"relations", "oracle", "lusztig"},
        (3, 4),
    ),
    "straighten-negated-at-height-3": Mutant(
        Context,
        "_straighten",
        lambda h: lambda ctx, m: -h(ctx, m) if m.a + m.c >= 3 else h(ctx, m),
        {"reduction", "basis", "oracle", "lusztig"},
    ),
    "kbinom-unit-times-v-at-b2": Mutant(
        algebra,
        "_kbinom_unit",
        lambda h: lambda ctx, a, b, c: h(ctx, a, b, c).scale(V(1 if b == 2 else 0)),
        {"basis"},
    ),
    "fke-to-ekf-drops-a2": Mutant(
        algebra,
        "_fke_to_ekf",
        lambda h: lambda x: h(
            Element(x.ctx, x.orientation, {m: u for m, u in x.terms.items() if m.a != 2})
        ),
        {"oracle"},
    ),
    "kbinom-unit-off-diagonal-negated": Mutant(
        algebra,
        "_kbinom_unit",
        _off_diagonal_negated,
        {"basis"},
    ),
    "multiply-files-by-n-right": Mutant(
        algebra,
        "multiply",
        lambda h: _rewritten(h, "setdefault(n.b1 + n.a,", "setdefault(n.b1 + n.c,"),
        {"relations", "oracle", "lusztig"},
    ),
    "merge-binomial-dropped-when-c-above-t": Mutant(
        algebra,
        "_add_monomial_product",
        lambda h: _rewritten(h, "if c2 and c != t:", "if c2 and c != t and not c > t:"),
        {"oracle"},
    ),
    "straighten-sign-from-k-minus-s-2": Mutant(
        Context,
        "_straighten",
        lambda h: _rewritten(h, "(k - s) % 2", "(k - s) % 3"),
        {"reduction", "basis", "oracle"},
        (5,),
    ),
}


def _break(monkeypatch, row):
    """Patch in the broken function of ``MUTATION_MATRIX[row]``."""
    owner, name, wrap, *_ = MUTATION_MATRIX[row]
    healthy = getattr(owner, name)
    wrapped = wrap(healthy)
    monkeypatch.setattr(owner, name, wrapped)
    if getattr(suites, name, None) is healthy:  # the suites' own binding
        monkeypatch.setattr(suites, name, wrapped)


def _failing_suites(d):
    """The suites with at least one failed check at degree ``d``."""
    report = suites.run_suites(list(suites.SUITES), d)
    assert len(report["checks"]) == CHECK_COUNT
    return {c["id"].split("/")[0] for c in report["checks"] if not c["pass"]}


@pytest.mark.parametrize("row", MUTATION_MATRIX)
def test_the_mutation_matrix(monkeypatch, row):
    mutant = MUTATION_MATRIX[row]
    _break(monkeypatch, row)
    for d in mutant.degrees:
        failed = _failing_suites(d)
        assert failed == mutant.failing, (d, failed)


@pytest.mark.parametrize("d", [1, 2])
def test_product_formula_sign_is_caught_by_the_suites(monkeypatch, d):
    # The row fe-binomial-weight-sign at the degrees below its own: writing
    # +weight where the commutation binomial has -weight already fails the
    # same suites at d = 1 and 2.
    _break(monkeypatch, "fe-binomial-weight-sign")
    assert _failing_suites(d) == MUTATION_MATRIX["fe-binomial-weight-sign"].failing


def _divided_power_step_failures(d):
    """Each (gen, m, side) with m <= d where x^(m) x or x x^(m) is not [m+1] x^(m+1)."""
    ctx = Context(d)
    failures = []
    for gen in ("e", "f"):
        x = algebra.generator_element(ctx, gen)
        for m in range(d + 1):
            xm = algebra.divided_power_element(ctx, gen, m)
            want = algebra.divided_power_element(ctx, gen, m + 1).scale(quantum_int(m + 1))
            for side, got in (("right", multiply(xm, x)), ("left", multiply(x, xm))):
                if got != want:
                    failures.append((gen, m, side))
    return failures


@pytest.mark.parametrize("d", range(7))
def test_a_divided_power_times_its_generator_is_the_next_one(d):
    # f^(m) f and f f^(m), 0 < m < d, are products whose merge binomial
    # [c+c'-t; c'] = [m+1] is not 1 with t < c; no suite meets one.
    assert _divided_power_step_failures(d) == []


@pytest.mark.parametrize("d", [2, 3, 4])
def test_dropping_the_merge_binomial_fails_the_divided_power_step(d, monkeypatch):
    _break(monkeypatch, "merge-binomial-dropped-when-c-above-t")
    want = [("f", m, side) for m in range(1, d) for side in ("right", "left")]
    assert _divided_power_step_failures(d) == want


def _derived_reduction(ctx, quad):
    """The reduction of a non-canonical EKF quadruple, derived from the relations.

    e^(a) K[b1,b2] f^(c) is e^(a) f^(c) 1_n on the idempotent K[b1+c, b2-c] of
    weight n = b1 - b2 + 2c, and U_v(gl_2)'s commutation formula (Lusztig,
    *Introduction to Quantum Groups*, 3.1.9) makes that the sum over t of
    [n + a - c; t] f^(c-t) K[d-l, l] e^(a-t) with l = b2 - a - c + t.  A term
    with l < 0 has an out-of-range idempotent and vanishes; so does every term
    when a > b2 or c > b2.  The FKE sum left is canonical, and
    :func:`convert_orientation` straightens only monomials of lower height.
    """
    a, b1, b2, c = quad
    d = ctx.d
    terms = {}
    for t in range(max(0, a + c - b2), min(a, c) + 1):
        ell = b2 - a - c + t
        terms[Monomial(c - t, d - ell, ell, a - t, FKE)] = gauss_binomial(b1 - b2 + a + c, t)
    return convert_orientation(Element(ctx, FKE, terms), EKF)


def _spanning_mismatches(d):
    """The count of non-canonical EKF quadruples with a, c <= d + 1, and those
    whose reduction differs from its derivation."""
    ctx = Context(d)
    quads = [
        (a, b1, d - b1, c)
        for a, b1, c in itertools.product(range(d + 2), range(d + 1), range(d + 2))
        if a + c > d - b1
    ]
    return len(quads), [q for q in quads if reduce_monomial(ctx, q) != _derived_reduction(ctx, q)]


def test_each_straightening_follows_from_the_commutation_formula():
    # The spanning half of the presentation theorem: every non-canonical EKF
    # monomial is a combination of canonical ones by the relations alone,
    # given _fe_binomial's formula, which the lusztig suite checks.
    counts = [3, 14, 38, 80, 145, 238, 364, 528, 735]
    assert [_spanning_mismatches(d) for d in range(9)] == [(n, []) for n in counts]


def test_a_straightening_sign_wrong_from_k_minus_s_2_fails_the_derivation(monkeypatch):
    # (k - s) % 3 flips the sign of the terms with k - s >= 2, which first
    # appear at d = 5; verify passes this mutant at every d <= 4.
    _break(monkeypatch, "straighten-sign-from-k-minus-s-2")
    assert [len(_spanning_mismatches(d)[1]) for d in range(6)] == [0, 0, 0, 0, 0, 1]


def _fke_basis_failures(d):
    """The FKE basis words whose EKF expansion is not unitriangular by height.

    Each f^(a) K[b1,b2] e^(c) must expand into terms of height at most a + c,
    exactly one of them of height a + c and with coefficient 1, and no two
    words may share that top term.  Then the FKE words are a basis whenever
    the EKF words are.
    """
    ctx = Context(d)
    failures, tops = [], set()
    for m in ctx.monomials(FKE):
        x = convert_orientation(Element(ctx, FKE, {m: ONE}), EKF)
        top = [(n, u) for n, u in x.terms.items() if n.a + n.c >= m.a + m.c]
        if [(n.a + n.c, u) for n, u in top] != [(m.a + m.c, ONE)] or top[0][0] in tops:
            failures.append(m)
        else:
            tops.add(top[0][0])
    return failures


def test_the_fke_basis_is_unitriangular_over_the_ekf_basis():
    for d in range(11):
        assert _fke_basis_failures(d) == [], d


def test_dropping_a2_from_the_fke_expansion_breaks_its_unitriangularity(monkeypatch):
    _break(monkeypatch, "fke-to-ekf-drops-a2")
    assert [len(_fke_basis_failures(d)) for d in (2, 3, 4)] == [1, 3, 6]


def _lusztig_candidates(ctx):
    """The candidate basis "closely related to Lusztig's", in EKF form, by top term.

    The candidates are e^(a) K[b1,b2] f^(c) with a + c <= b2 - b1 and
    f^(a) K[b1,b2] e^(c) with a + c <= b1 - b2, which correspond to the basis
    E^(a) 1_-n F^(c) and F^(a) 1_n E^(c), n >= a + c, that Lusztig gives the
    modified algebra of sl_2 (*Introduction to Quantum Groups*, ch. 25).  Each
    has one term of height a + c, with coefficient 1, and terms of lower height
    only; the two lists meet where n = a + c, and no two other candidates
    share a top term.
    """
    words = [
        (m.a + m.c, Element(ctx, EKF, {m: ONE}))
        for m in ctx.monomials(EKF)
        if m.a + m.c <= m.b2 - m.b1
    ]
    words += [
        (m.a + m.c, convert_orientation(Element(ctx, FKE, {m: ONE}), EKF))
        for m in ctx.monomials(FKE)
        if m.a + m.c <= m.b1 - m.b2
    ]
    by_top = {}
    for height, x in words:
        top = [(n, u) for n, u in x.terms.items() if n.a + n.c >= height]
        assert [(n.a + n.c, u) for n, u in top] == [(height, ONE)], x
        assert by_top.setdefault(top[0][0], x) == x, x
    return by_top


def _lusztig_coordinates(d):
    """Each nonzero coordinate, in the candidate basis, of each product of two
    candidates, found by peeling the product on its top terms."""
    by_top = _lusztig_candidates(Context(d))
    assert len(by_top) == math.comb(d + 3, 3)
    coordinates = []
    for x in by_top.values():
        for y in by_top.values():
            residual = multiply(x, y)
            while not residual.is_zero:
                top = max(residual.terms, key=lambda m: m.a + m.c)
                coeff = residual.terms[top]
                coordinates.append(coeff)
                residual -= by_top[top].scale(coeff)
    return coordinates


def _lusztig_faults(d):
    """The count of coordinates of products of candidates, of those not fixed
    by v -> v^-1, and of those with a negative coefficient."""
    coordinates = _lusztig_coordinates(d)
    return (
        len(coordinates),
        sum(u.bar() != u for u in coordinates),
        sum(any(c < 0 for _, c in u.items()) for u in coordinates),
    )


def test_the_lusztig_candidates_have_bar_invariant_positive_structure_constants():
    # The paper's basis "closely related to Lusztig's", checked without the
    # oracle: the candidates form a basis unitriangular over the EKF basis, and
    # every structure constant in it is fixed by v -> v^-1 and lies in N[v, v^-1].
    counts = [1, 8, 34, 106, 272, 610, 1238, 2326, 4109]
    assert [_lusztig_faults(d) for d in range(9)] == [(n, 0, 0) for n in counts]


def test_dropping_the_merge_binomial_makes_lusztig_coordinates_negative(monkeypatch):
    # Every coordinate stays fixed by v -> v^-1; only positivity sees this mutant.
    _break(monkeypatch, "merge-binomial-dropped-when-c-above-t")
    assert [_lusztig_faults(d)[1:] for d in (3, 4, 6)] == [(0, 4), (0, 18), (0, 186)]


def test_a_wrong_commutation_coefficient_breaks_lusztig_bar_invariance(monkeypatch):
    _break(monkeypatch, "fe-binomial-times-v-at-t1")
    assert [_lusztig_faults(d)[1] for d in (1, 2, 3, 4)] == [1, 6, 30, 105]


def test_change_from_accepts_out_of_range():
    ctx = Context(1)
    # e^(2) [K1;0] is zero by nilpotency
    assert change_from_kbinom_basis(ctx, {(2, 0, 0): ONE}).is_zero
    # [K1;1] f^(1) straightens
    x = change_from_kbinom_basis(ctx, {(0, 1, 1): ONE})
    assert all(m.fake_degree <= 1 for m in x.terms)
    with pytest.raises(IndexOutOfRange):
        change_from_kbinom_basis(ctx, {(-1, 0, 0): ONE})


def reference_change_from(ctx, coeffs):
    """The sum, one Element per triple, that change_from_kbinom_basis replaces;
    each unit e^(a) [K1; b] f^(c) is the sum of [b1; b] e^(a) K[b1,b2] f^(c)
    over the idempotents, each straightened by reduce_monomial."""
    result = zero_element(ctx)
    for (a, b, c), coeff in coeffs.items():
        unit = zero_element(ctx)
        for b1, b2 in ctx.idempotents:
            unit = unit + reduce_monomial(ctx, (a, b1, b2, c)).scale(gauss_binomial(b1, b))
        result = result + unit.scale(coeff)
    return result


@cache
def nonzero_out_of_range_expansions(d):
    """Each triple with entries up to d + 2 and a + b + c > d whose unit is
    not zero, with its K-binomial coordinates (a context of their own)."""
    ctx = Context(d)
    triples = itertools.product(range(d + 3), repeat=3)
    units = {t: change_from_kbinom_basis(ctx, {t: ONE}) for t in triples}
    return [(t, change_to_kbinom_basis(u)) for t, u in units.items() if sum(t) > d and u]


@st.composite
def kbinom_coefficient_maps(draw):
    """A context of degree d <= 5 and a map from triples with entries up to
    d + 2 to zero, plain-int or Laurent coefficients.  It may hold a group
    that cancels: an out-of-range triple with p, and -p times the
    coordinates of its nonzero expansion."""
    d = draw(st.integers(0, 5))
    entry = st.integers(0, d + 2)
    triple = st.tuples(entry, entry, entry)
    coeff = st.one_of(st.just(0), st.integers(-2, 2), small_polys)
    coeffs = draw(st.dictionaries(triple, coeff, max_size=4))
    if d and draw(st.booleans()):
        t, coords = draw(st.sampled_from(nonzero_out_of_range_expansions(d)))
        p = draw(small_polys.filter(lambda p: not p.is_zero))
        coeffs.update({s: -(q * p) for s, q in coords.items()})
        coeffs[t] = p
    return Context(d), coeffs


@settings(max_examples=200, deadline=None)
@given(kbinom_coefficient_maps(), st.data())
def test_change_from_kbinom_basis_matches_the_per_triple_sum(drawn, data):
    ctx, coeffs = drawn
    got = change_from_kbinom_basis(ctx, coeffs)
    assert got == reference_change_from(ctx, coeffs)
    assert all(not u.is_zero for u in got.terms.values())
    entry = st.integers(-2, ctx.d + 2)
    negative = data.draw(st.tuples(entry, entry, entry).filter(lambda t: min(t) < 0))
    with pytest.raises(IndexOutOfRange, match="negative exponent"):
        change_from_kbinom_basis(ctx, {**coeffs, negative: data.draw(st.sampled_from([0, 1]))})


# -- orientation ---------------------------------------------------------------


def test_convert_orientation_fixes_idempotents():
    ctx = Context(2)
    for b1, b2 in ctx.idempotents:
        x = idempotent_element(ctx, b1, b2)
        y = convert_orientation(x, FKE)
        assert y.terms == {Monomial(0, b1, b2, 0, FKE): ONE}


def test_convert_orientation_example():
    ctx = Context(1)
    # the FKE word f^(1) K[1,0] e^(1) straightens to K[0,1]
    x = reduce_monomial(ctx, (1, 1, 0, 1), FKE)
    assert x == Element(ctx, FKE, {Monomial(0, 0, 1, 0, FKE): ONE})
    assert convert_orientation(x, EKF) == unit(ctx, 0, 0, 0)


def test_convert_orientation_to_its_own_orientation_returns_the_element():
    ctx = Context(2)
    for orientation in (EKF, FKE):
        x = identity_element(ctx, orientation)
        assert convert_orientation(x, orientation) is x


def test_convert_orientation_round_trip():
    rng = random.Random(5)
    for d in range(4):
        ctx = Context(d)
        for _ in range(8):
            x = random_element(ctx, rng)
            assert convert_orientation(convert_orientation(x, FKE), EKF) == x


@settings(max_examples=100, deadline=None)
@given(elements())
def test_convert_orientation_round_trip_on_drawn_elements(x):
    other = FKE if x.orientation == EKF else EKF
    y = convert_orientation(x, other)
    assert y.orientation == other
    assert convert_orientation(y, x.orientation) == x


def test_structure_constants_symmetry():
    # Swapping e<->f and K1<->K2 carries the EKF multiplication table to the
    # FKE one.
    d = 2
    ctx = Context(d)
    ekf = ctx.monomials(EKF)
    for m1 in ekf:
        for m2 in ekf:
            x = Element(ctx, EKF, {m1: ONE})
            y = Element(ctx, EKF, {m2: ONE})
            swapped = multiply(
                Element(ctx, FKE, {m1.swapped(): ONE}),
                Element(ctx, FKE, {m2.swapped(): ONE}),
            )
            expected = {m.swapped(): c for m, c in multiply(x, y).terms.items()}
            assert swapped.terms == expected


@pytest.mark.parametrize("orientation", (EKF, FKE))
@pytest.mark.parametrize("d", range(7))
def test_anti_involution_reverses_every_basis_product(d, orientation):
    # The table writes x * y as t(t(y) * t(x)) for half its pairs; this checks
    # that shortcut against the direct product on every basis pair.
    ctx = Context(d)
    units = [Element(ctx, orientation, {m: ONE}) for m in ctx.monomials(orientation)]
    images = [anti_involution(x) for x in units]
    for x, tx in zip(units, images):
        for y, ty in zip(units, images):
            assert multiply(x, y) == anti_involution(multiply(ty, tx))


@settings(max_examples=100, deadline=None)
@given(elements(), st.data())
def test_anti_involution_on_drawn_elements(x, data):
    ctx, orientation = x.ctx, x.orientation
    basis = ctx.monomials(orientation)
    terms = data.draw(st.lists(st.tuples(st.sampled_from(basis), small_polys), max_size=4))
    y = Element(ctx, orientation, terms)
    assert multiply(x, y) == anti_involution(multiply(anti_involution(y), anti_involution(x)))
    assert anti_involution(anti_involution(x)) == x
    other = FKE if orientation == EKF else EKF
    assert convert_orientation(anti_involution(x), other) == anti_involution(
        convert_orientation(x, other)
    )


def test_associativity_sample():
    rng = random.Random(17)
    for d in range(4):
        ctx = Context(d)
        for _ in range(25):
            x, y, z = (random_element(ctx, rng) for _ in range(3))
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


# -- degenerate degree ---------------------------------------------------------


@pytest.mark.parametrize("d", range(5))
def test_fke_divided_powers_are_the_named_generator(d):
    from qschur.oracle import build_rep, matrix_of_divided_power, matrix_of_element

    ctx, rep = Context(d), build_rep(d)
    for gen in ("e", "f"):
        for m in range(d + 2):
            x = divided_power_element(ctx, gen, m, FKE)
            assert matrix_of_element(rep, x) == matrix_of_divided_power(rep, gen, m)
            assert x == convert_orientation(divided_power_element(ctx, gen, m), FKE)


def test_degree_zero_degenerates_gracefully():
    ctx = Context(0)
    assert generator_element(ctx, "e").is_zero
    assert generator_element(ctx, "f").is_zero
    assert k_element(ctx, "K1") == identity_element(ctx)
    assert k_element(ctx, "K2") == identity_element(ctx)
    assert multiply(identity_element(ctx), identity_element(ctx)) == identity_element(ctx)


# -- fault injection -----------------------------------------------------------


def test_unstraightened_context_skips_reduction():
    ctx = _UnstraightenedContext(2)
    red = reduce_monomial(ctx, (2, 2, 0, 2))
    assert list(red.terms) == [Monomial(2, 2, 0, 2, EKF)]
    assert len(ctx.monomials()) == 27  # the full spanning set, not the basis


def test_skip_reduction_raises_where_a_or_c_exceeds_d():
    # At d = 0 the fault fails one check only: e^(2) K[0,0] f^(1) has a > d,
    # so the fault must raise where the healthy context straightens to zero.
    report = suites.run_suites(list(suites.SUITES), 0, fault="skip-reduction")
    assert [c for c in report["checks"] if not c["pass"]] == [
        {
            "id": "basis/orc-kbinom-closure",
            "pass": False,
            "witness": "IndexOutOfRange: monomial Monomial(a=2, b1=0, b2=0, c=1, "
            "orientation='EKF') is not canonical at degree 0",
        }
    ]
    assert reduce_monomial(Context(0), (2, 0, 0, 1)).is_zero
    # An FKE quadruple straightens as its EKF mirror, which the message names.
    fault = _UnstraightenedContext(0)
    mirror = Monomial(2, 0, 0, 1, EKF)
    for orientation in (EKF, FKE):
        with pytest.raises(IndexOutOfRange, match=re.escape(f"{mirror} is not canonical")):
            reduce_monomial(fault, (2, 0, 0, 1), orientation)


def test_a_faulted_context_differs_from_the_healthy_one():
    ctx, fault = Context(2), _UnstraightenedContext(2)
    assert ctx != fault and fault != ctx
    assert fault == _UnstraightenedContext(2) and ctx == Context(2)
    with pytest.raises(ContextMismatch) as raised:
        multiply(identity_element(ctx), identity_element(fault))
    # The message tells the two contexts apart.
    assert str(raised.value) == "contexts differ: Context(d=2) vs _UnstraightenedContext(d=2)"
