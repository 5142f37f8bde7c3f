"""The symbolic algebra: idempotent calculus, straightening, multiplication."""

import contextlib
import itertools
import random
import re
from types import MappingProxyType

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
    monomial_element,
    multiply,
    random_element,
    reduce_monomial,
    reduction_defect,
    zero_element,
)
from qschur import algebra, oracle, suites
from qschur.laurent import LaurentPoly, gauss_binomial, quantum_factorial
from qschur.suites import _UnstraightenedContext, run_suite

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
    assert multiply(k2(1), e2) == multiply(e2, k2(0)) == monomial_element(ctx2, (1, 0, 2, 0))
    assert Monomial(0, 0, 2, 1, FKE).right == -1
    assert multiply(k2(0), e2).is_zero
    # e K[0,1] = K[1,0] e
    assert Monomial(1, 0, 1, 0).left == 1
    assert multiply(e1, k1(0)) == multiply(k1(1), e1) == e1
    # f rules mirror the e rules: f K[1,1] = K[0,2] f, f^(2) K[1,1] = 0,
    # K[1,1] f = f K[2,0] and K[1,1] f^(2) = 0
    assert Monomial(1, 1, 1, 0, FKE).left == 0
    assert multiply(f2, k2(1)) == multiply(k2(0), f2) == monomial_element(ctx2, (0, 0, 2, 1))
    assert Monomial(2, 1, 1, 0, FKE).left == -1
    assert multiply(divided_power_element(ctx2, "f", 2), k2(1)).is_zero
    assert Monomial(0, 1, 1, 1).right == 2
    assert multiply(k2(1), f2) == multiply(f2, k2(2)) == monomial_element(ctx2, (0, 1, 1, 1))
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
    ctx = Context(1)
    with pytest.raises(IndexOutOfRange):
        reduce_monomial(ctx, (1, 1, 1, 0))
    with pytest.raises(IndexOutOfRange):
        reduce_monomial(ctx, (-1, 0, 1, 0))


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


@pytest.mark.parametrize("d", [1, 2])
def test_product_formula_sign_is_caught_by_the_suites(monkeypatch, d):
    # Writing +weight where the commutation binomial has -weight must fail
    # both the symbolic relations and the oracle homomorphism check.
    for name in ("relations", "oracle"):
        assert run_suite(name, d)["pass"]
    with monkeypatch.context() as patch:
        patch.setattr(
            algebra, "_fe_binomial", lambda c, a, weight, t: gauss_binomial(c - a + weight, t)
        )
        for name in ("relations", "oracle"):
            assert not run_suite(name, d)["pass"], name


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


@pytest.mark.parametrize("unstraightened", [False, True])
def test_straightening_memo_holds_reduce_monomial(unstraightened):
    # A straightening that raises must leave no entry: reduce_monomial would
    # raise again below.
    for fill in (fill_straightening_memo, fill_memo_through_kbinom):
        for d in range(6):
            ctx = _UnstraightenedContext(d) if unstraightened else Context(d)
            memo = fill(ctx)
            assert memo
            for (a, b1, c), entry in memo.items():
                assert isinstance(entry, tuple)
                assert dict(entry) == reduce_monomial(ctx, (a, b1, d - b1, c), EKF).terms


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
    assert all(c["pass"] for c in suites.suite_oracle(2, ctx, rep))
    key, ((mono, coeff), *rest) = next(iter(ctx._straightened.items()))
    ctx._straightened[key] = ((mono, -coeff), *rest)
    checks = {c["id"]: c["pass"] for c in suites.suite_oracle(2, ctx, rep)}
    assert checks["orc-homomorphism"] is False


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


# Each row wraps one engine function and names the suites that must then fail
# at every d = 2..4.  The fe-binomial rows fail lusztig because its identity
# e past f^(m) needs the divided-power commutation formula.
MUTATION_MATRIX = {
    "none": (algebra, "_fe_binomial", lambda h: h, set()),
    "fe-binomial-top-plus-one-at-t1": (
        algebra,
        "_fe_binomial",
        lambda h: lambda c, a, weight, t: h(c + (t == 1), a, weight, t),
        {"relations", "oracle", "lusztig"},
    ),
    "fe-binomial-times-v-at-t1": (
        algebra,
        "_fe_binomial",
        lambda h: lambda c, a, weight, t: h(c, a, weight, t) * V(1 if t == 1 else 0),
        {"relations", "oracle", "lusztig"},
    ),
    "straighten-negated-at-height-3": (
        Context,
        "_straighten",
        lambda h: lambda ctx, m: -h(ctx, m) if m.a + m.c >= 3 else h(ctx, m),
        {"reduction", "basis", "oracle", "lusztig"},
    ),
    "kbinom-unit-times-v-at-b2": (
        algebra,
        "_kbinom_unit",
        lambda h: lambda ctx, a, b, c: h(ctx, a, b, c).scale(V(1 if b == 2 else 0)),
        {"basis"},
    ),
    "fke-to-ekf-drops-a2": (
        algebra,
        "_fke_to_ekf",
        lambda h: lambda x: h(
            Element(x.ctx, x.orientation, {m: u for m, u in x.terms.items() if m.a != 2})
        ),
        {"oracle"},
    ),
    "kbinom-unit-off-diagonal-negated": (
        algebra,
        "_kbinom_unit",
        _off_diagonal_negated,
        {"basis"},
    ),
}


@pytest.mark.parametrize("row", MUTATION_MATRIX)
def test_the_mutation_matrix(monkeypatch, row):
    owner, name, wrap, failing = MUTATION_MATRIX[row]
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    for d in (2, 3, 4):
        report = suites.run_suites(list(suites.SUITES), d)
        assert len(report["checks"]) == 452
        failed = {c["id"].split("/")[0] for c in report["checks"] if not c["pass"]}
        assert failed == failing, (d, failed)


def test_change_from_accepts_out_of_range():
    ctx = Context(1)
    # e^(2) [K1;0] is zero by nilpotency
    assert change_from_kbinom_basis(ctx, {(2, 0, 0): ONE}).is_zero
    # [K1;1] f^(1) straightens
    x = change_from_kbinom_basis(ctx, {(0, 1, 1): ONE})
    assert all(m.fake_degree <= 1 for m in x.terms)
    with pytest.raises(IndexOutOfRange):
        change_from_kbinom_basis(ctx, {(-1, 0, 0): ONE})


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
    x = monomial_element(ctx, (1, 1, 0, 1), FKE)
    assert x == Element(ctx, FKE, {Monomial(0, 0, 1, 0, FKE): ONE})
    assert convert_orientation(x, EKF) == unit(ctx, 0, 0, 0)


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
    fault = _UnstraightenedContext(0)
    for orientation in (EKF, FKE):
        mono = Monomial(2, 0, 0, 1, orientation)
        with pytest.raises(IndexOutOfRange, match=re.escape(f"{mono} is not canonical")):
            reduce_monomial(fault, (2, 0, 0, 1), orientation)


def test_a_faulted_context_differs_from_the_healthy_one():
    ctx, fault = Context(2), _UnstraightenedContext(2)
    assert ctx != fault and fault != ctx
    assert fault == _UnstraightenedContext(2) and ctx == Context(2)
    with pytest.raises(ContextMismatch) as raised:
        multiply(identity_element(ctx), identity_element(fault))
    # The message tells the two contexts apart.
    assert str(raised.value) == "contexts differ: Context(d=2) vs _UnstraightenedContext(d=2)"
