"""The matrix representations and their verification machinery."""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qschur.algebra import EKF, FKE, Context, Element, Monomial, identity_element, multiply, zero_element
from qschur.laurent import LaurentPoly, quantum_int
from qschur import oracle, suites
from qschur.cli import main
from qschur.oracle import (
    CoproductCheckFailed,
    DimensionLimit,
    LaurentMatrix,
    OracleRep,
    build_rep,
    diagonal_kbinom,
    idempotent_projector,
    matrix_of_divided_power,
    matrix_of_element,
    oracle_equal,
    span_rank,
    verify_defining_relations,
    verify_lusztig_identities,
)

V = LaurentPoly.v
ONE = LaurentPoly.one()


def test_degree_one_matrices():
    rep = build_rep(1)
    assert rep.e == LaurentMatrix(2, {(0, 1): ONE})
    assert rep.f == LaurentMatrix(2, {(1, 0): ONE})
    assert rep.k1 == LaurentMatrix(2, {(0, 0): V(1), (1, 1): ONE})
    assert rep.k2 == LaurentMatrix(2, {(0, 0): ONE, (1, 1): V(1)})


def test_degree_zero_matrices():
    rep = build_rep(0)
    assert rep.e.is_zero and rep.f.is_zero
    assert rep.k1 == LaurentMatrix.identity(1)
    assert rep.k2 == LaurentMatrix.identity(1)


def test_degree_two_k1_diagonal():
    rep = build_rep(2)
    assert rep.k1 == LaurentMatrix.diagonal([V(2), V(1), V(1), V(0)])


def test_k1_spectrum():
    for d in range(5):
        rep = build_rep(d)
        assert sorted(set(rep.k1.diagonal_exponents())) == list(range(d + 1))


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 0): V(1)},  # a missing diagonal entry
        {(0, 0): V(1), (1, 1): V(1) + ONE},
        {(0, 0): V(1), (1, 1): V(1) * 2},
        {(0, 0): V(1), (1, 1): ONE, (0, 1): ONE},
    ],
)
def test_diagonal_exponents_rejects_other_matrices(entries):
    with pytest.raises(ValueError, match="diagonal"):
        LaurentMatrix(2, entries).diagonal_exponents()


def test_dimension_limit():
    with pytest.raises(DimensionLimit):
        build_rep(11)
    with pytest.raises(DimensionLimit):
        build_rep(4, max_d=3)
    # The limit bounds only the 2^d-dimensional tensor power.
    assert build_rep(11, max_d=3, convention="weyl").dim == 42


@pytest.mark.parametrize("d", range(5))
def test_defining_relations(d):
    for convention in ("standard", "weyl"):
        assert verify_defining_relations(build_rep(d, convention=convention))["pass"]


def test_mutated_rep_fails_with_witness():
    rep = build_rep(2)
    bad = OracleRep(2, rep.e.transpose(), rep.f, rep.k1, rep.k1_inv, rep.k2, rep.k2_inv)
    report = verify_defining_relations(bad)
    assert not report["pass"]
    failed = {c["id"]: c for c in report["checks"] if not c["pass"]}
    assert any("commutator" in cid or "conj" in cid for cid in failed)
    assert all("witness" in c for c in failed.values())


def test_conventions():
    assert oracle.CONVENTIONS == ("standard", "broken", "weyl")
    for name in ("standard", "weyl"):
        rep = build_rep(3, convention=name)
        assert verify_defining_relations(rep)["pass"]
    with pytest.raises(ValueError, match="unknown convention"):
        build_rep(3, convention="mirrored")
    with pytest.raises(CoproductCheckFailed):
        build_rep(2, convention="broken")
    broken = build_rep(2, convention="broken", self_check=False)
    assert not verify_defining_relations(broken)["pass"]


def test_a_failing_standard_convention_is_not_replaced(monkeypatch):
    # The standard convention builds the broken matrices here: no other
    # convention may stand in for build_rep's default.
    healthy = oracle._build_generator_matrices

    def standard_is_broken(d, convention):
        return healthy(d, "broken" if convention == "standard" else convention)

    monkeypatch.setattr(oracle, "_build_generator_matrices", standard_is_broken)
    with pytest.raises(CoproductCheckFailed, match="^standard convention fails "):
        build_rep(2)
    assert build_rep(2, convention="weyl").convention == "weyl"
    # With the tensor conventions healthy again and the Weyl modules wrong,
    # no tensor convention may stand in for the one the suites use either:
    # the build, the suites and verify all fail.
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_build_weyl_matrices", _weyl_with_short_e)
    report = suites.run_suites(list(suites.SUITES), 2)
    assert not report["pass"]
    assert [c["id"] for c in report["checks"]] == [f"{s}/oracle-build" for s in suites.SUITES]
    assert all(
        c["witness"].startswith("CoproductCheckFailed: weyl convention fails ")
        for c in report["checks"]
    )
    assert main(["verify", "--suite", "all", "--d", "2"]) == 1


# -- the Weyl modules ----------------------------------------------------------

_healthy_weyl = oracle._build_weyl_matrices


def _weyl_with_short_e(d):
    """The Weyl generators with e v_j = [n-j] v_{j-1} instead of [n-j+1] v_{j-1}."""
    e, *rest = _healthy_weyl(d)
    # Each entry of e is a quantum integer [m], whose degree is m - 1.
    short = {key: quantum_int(val.degree()) for key, val in e.entries.items()}
    return (LaurentMatrix(e.dim, short), *rest)


def test_weyl_matrices_at_degree_two():
    # L(2,0) on v_0, v_1, v_2, then L(1,1) on its single v_0.
    rep = build_rep(2, convention="weyl")
    two = quantum_int(2)
    assert rep.e == LaurentMatrix(4, {(0, 1): two, (1, 2): ONE})
    assert rep.f == LaurentMatrix(4, {(1, 0): ONE, (2, 1): two})
    assert rep.k1 == LaurentMatrix.diagonal([V(2), V(1), ONE, V(1)])
    assert rep.k2 == LaurentMatrix.diagonal([ONE, V(1), V(2), V(1)])


def test_weyl_dimension():
    for d in range(11):
        assert build_rep(d, convention="weyl").dim == (d + 2) ** 2 // 4
    for d in range(4):
        assert build_rep(d).dim == 1 << d


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_wrong_weyl_module_fails_the_build(d, monkeypatch):
    monkeypatch.setattr(oracle, "_build_weyl_matrices", _weyl_with_short_e)
    with pytest.raises(CoproductCheckFailed, match="^weyl convention fails "):
        build_rep(d, convention="weyl")


def _suite_checks(d, fault):
    report = suites.run_suites(list(suites.SUITES), d, fault=fault)
    return [(c["id"], c["pass"], c.get("witness")) for c in report["checks"]]


@pytest.mark.parametrize("fault", [None, "skip-reduction"])
def test_weyl_and_tensor_oracles_give_the_same_reports(fault, monkeypatch):
    assert suites._build_rep(3, fault).convention == "weyl"
    weyl = {d: _suite_checks(d, fault) for d in range(6)}
    monkeypatch.setattr(
        suites, "_build_rep", lambda d, fault, allow_large_oracle=False: build_rep(d)
    )
    for d in range(6):
        assert _suite_checks(d, fault) == weyl[d], f"d={d}"
    if fault is not None:
        assert not all(passed for _, passed, _ in weyl[5])


def test_the_weyl_oracle_backs_every_suite_at_every_degree():
    checks = suites.run_suite("oracle", 2)["checks"]
    assert {"id": "sym-associativity", "pass": True} in checks
    assert {"id": "sym-nilpotency-index", "pass": True} in checks
    # Past the tensor power's limit of d = 10, and past the fault's cap.
    report = suites.run_suite("lusztig", 11, allow_large_oracle=True)
    assert report["pass"] and len(report["checks"]) == 398
    checks = suites.run_suite("idempotents", 10)["checks"]
    assert {"id": "orc-projector-partition", "pass": True} in checks


def test_the_fault_past_the_tensor_cap_fails_its_build():
    report = suites.run_suite("basis", 7, fault="broken-coproduct")
    assert not report["pass"]
    [check] = report["checks"]
    assert check["id"] == "oracle-build"
    assert check["witness"].startswith("DimensionLimit: ")


def test_run_suites_builds_one_representation(monkeypatch):
    calls = []
    healthy = oracle.build_rep

    def counted(d, **kwargs):
        calls.append(d)
        return healthy(d, **kwargs)

    monkeypatch.setattr(oracle, "build_rep", counted)
    assert suites.run_suites(list(suites.SUITES), 3)["pass"]
    assert calls == [3]
    # The memo holds no representation once the run has returned.
    assert len(suites._REPS) == 0
    assert suites.run_suite("relations", 3)["pass"]
    assert calls == [3, 3]


def test_divided_powers():
    rep1 = build_rep(1)
    assert matrix_of_divided_power(rep1, "e", 0) == LaurentMatrix.identity(2)
    assert matrix_of_divided_power(rep1, "e", 2).is_zero
    rep2 = build_rep(2)
    assert matrix_of_divided_power(rep2, "e", 1) == rep2.e
    # e^(2) at d = 2 maps |11> to |00> with coefficient 1
    assert matrix_of_divided_power(rep2, "e", 2) == LaurentMatrix(4, {(0, 3): ONE})


def test_projectors():
    rep = build_rep(2)
    total = LaurentMatrix(4)
    for b1 in range(3):
        proj = idempotent_projector(rep, b1, 2 - b1)
        assert proj * proj == proj
        total = total + proj
    assert total == LaurentMatrix.identity(4)
    assert idempotent_projector(rep, 1, 1) == LaurentMatrix(
        4, {(1, 1): ONE, (2, 2): ONE}
    )


def test_matrix_of_element():
    ctx = Context(1)
    rep = build_rep(1)
    assert matrix_of_element(rep, identity_element(ctx)) == LaurentMatrix.identity(2)
    k10 = Element(ctx, EKF, {Monomial(0, 1, 0, 0, EKF): ONE})
    assert matrix_of_element(rep, k10) == LaurentMatrix(2, {(0, 0): ONE})
    assert matrix_of_element(rep, zero_element(ctx)).is_zero


def test_matrix_of_fke_element():
    ctx = Context(1)
    rep = build_rep(1)
    x = Element(ctx, FKE, {Monomial(1, 1, 0, 0, FKE): ONE})  # f^(1) K[1,0]
    assert matrix_of_element(rep, x) == rep.f * idempotent_projector(rep, 1, 0)


def test_oracle_equal():
    ctx = Context(1)
    rep = build_rep(1)
    x = identity_element(ctx)
    assert oracle_equal(rep, x, x)
    assert not oracle_equal(rep, x, zero_element(ctx))
    # straightened word equals its raw form
    from qschur.algebra import reduce_monomial

    red = reduce_monomial(ctx, (1, 0, 1, 1))
    k10 = Element(ctx, EKF, {Monomial(0, 1, 0, 0, EKF): ONE})
    assert oracle_equal(rep, red, k10)


# -- exact rank ---------------------------------------------------------------


def test_span_rank_empty():
    assert span_rank([]) == 0


def test_span_rank_known_small_cases():
    # rank over Q(v) certified against hand-checked determinants
    dependent = LaurentMatrix(2, {(0, 0): ONE, (0, 1): V(1)})
    assert span_rank([dependent, dependent.scale(V(3))]) == 1
    a = LaurentMatrix(2, {(0, 0): ONE, (0, 1): V(1)})
    b = LaurentMatrix(2, {(0, 0): V(1), (0, 1): ONE})  # det(1 - v^2) != 0
    assert span_rank([a, b]) == 2
    c = LaurentMatrix(2, {(0, 0): V(1), (0, 1): V(2)})  # = v * a
    assert span_rank([a, c]) == 1
    r1 = LaurentMatrix(2, {(0, 0): ONE, (1, 1): ONE})
    r2 = LaurentMatrix(2, {(0, 0): V(1), (1, 1): V(-1)})
    r3 = r1.scale(V(1) + ONE) - r2  # in the span of r1 and r2
    assert span_rank([r1, r2, r3]) == 2


def test_span_rank_of_canonical_monomials():
    for d, expected in ((0, 1), (1, 4), (2, 10)):
        ctx = Context(d)
        rep = build_rep(d)
        mats = [
            matrix_of_element(rep, Element(ctx, EKF, {m: ONE}))
            for m in ctx.monomials(EKF)
        ]
        assert span_rank(mats) == expected


# -- identity families ----------------------------------------------------------


@pytest.mark.parametrize("d", range(3))
def test_lusztig_identities_small(d):
    report = verify_lusztig_identities(build_rep(d), bound=2)
    assert report["pass"], [c for c in report["checks"] if not c["pass"]][:3]


def test_diagonal_kbinom_matches_scalar():
    rep = build_rep(2)
    kb = diagonal_kbinom(rep.k1, 0, 1)
    # eigenvalues v^2, v, v, 1 give [2], [1], [1], [0]
    from qschur.laurent import quantum_int

    assert kb == LaurentMatrix.diagonal(
        [quantum_int(2), quantum_int(1), quantum_int(1), quantum_int(0)]
    )


def test_homomorphism_on_random_products():
    import random

    from qschur.algebra import random_element

    rng = random.Random(3)
    for d in range(4):
        ctx = Context(d)
        rep = build_rep(d)
        for _ in range(10):
            x = random_element(ctx, rng)
            y = random_element(ctx, rng)
            assert matrix_of_element(rep, multiply(x, y)) == matrix_of_element(
                rep, x
            ) * matrix_of_element(rep, y)


def test_idempotent_projector_raises_on_a_non_projector(monkeypatch):
    # A fresh representation, so no cached projector can skip the check.
    rep = build_rep(2)
    assert ("K", 1, 1) not in rep._dp_cache
    monkeypatch.setattr(
        oracle, "diagonal_kbinom", lambda matrix, c, t: LaurentMatrix.identity(rep.dim).scale(2)
    )
    with pytest.raises(RuntimeError, match="projector"):
        idempotent_projector(rep, 1, 1)


def test_idempotent_projector_is_cached_per_representation():
    rep = build_rep(2)
    first = idempotent_projector(rep, 1, 1)
    assert idempotent_projector(rep, 1, 1) is first
    other = build_rep(2)
    assert idempotent_projector(other, 1, 1) is not first
    assert idempotent_projector(other, 1, 1) == first


# -- matrix_of_element as an algebra map ------------------------------------


def stores_no_zero(m: LaurentMatrix) -> bool:
    return all(val and all(val._terms.values()) for val in m.entries.values())


# Small exponent and coefficient ranges make partial cancellation common.
polys = st.dictionaries(st.integers(-2, 2), st.integers(-2, 2), max_size=3).map(LaurentPoly)


@st.composite
def matrix_pairs(draw):
    dim = draw(st.integers(1, 5))
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    a, b = (
        LaurentMatrix(dim, draw(st.dictionaries(cells, polys, max_size=dim * dim)))
        for _ in range(2)
    )
    return a, b


@settings(max_examples=100, deadline=None)
@given(matrix_pairs())
def test_product_cancelling_to_zero_stores_nothing(pair):
    # [A A] times [B; -B] is AB - AB: every cell cancels exactly.
    a, b = pair
    n = a.dim
    left = LaurentMatrix(
        2 * n, [((r, k + s), v) for (r, k), v in a.entries.items() for s in (0, n)]
    )
    right = LaurentMatrix(
        2 * n,
        [((k, c), v) for (k, c), v in b.entries.items()]
        + [((k + n, c), -v) for (k, c), v in b.entries.items()],
    )
    assert (left * right).entries == {}


@lru_cache(maxsize=None)
def rep_of(d: int) -> OracleRep:
    return build_rep(d)


@st.composite
def elements(draw, ctx=None, orientation=None):
    ctx = Context(draw(st.integers(0, 3))) if ctx is None else ctx
    orientation = draw(st.sampled_from((EKF, FKE))) if orientation is None else orientation
    basis = ctx.monomials(orientation)
    if draw(st.booleans()):
        # A single monomial with coefficient 1 is its word matrix.
        return Element(ctx, orientation, {draw(st.sampled_from(basis)): ONE})
    terms = draw(st.lists(st.tuples(st.sampled_from(basis), polys), max_size=4))
    return Element(ctx, orientation, terms)


@st.composite
def algebra_map_cases(draw):
    """An element x, a split of its terms into two parts, a second element
    of the same degree and orientation, and a scalar."""
    x = draw(elements())
    y = draw(elements(x.ctx, x.orientation))
    split = draw(st.lists(st.booleans(), min_size=len(x.terms), max_size=len(x.terms)))
    return x, split, y, draw(polys)


# The word entry v^2 + 1 times 1 - v^2 cancels inside one cell.
CANCELLING = Element(Context(3), EKF, {Monomial(1, 1, 2, 1, EKF): ONE - V(2)})


@settings(max_examples=100, deadline=None)
@given(algebra_map_cases())
@example((CANCELLING, [True], CANCELLING, V(1)))
def test_matrix_of_element_is_a_faithful_algebra_map(case):
    x, split, y, c = case
    rep = rep_of(x.ctx.d)
    got = matrix_of_element(rep, x)
    assert stores_no_zero(got)
    assert got.is_zero == x.is_zero  # the tensor representation is faithful

    items = x.sorted_terms()
    x1, x2 = (
        Element(x.ctx, x.orientation, [t for t, first in zip(items, split) if first == part])
        for part in (True, False)
    )
    assert x1 + x2 == x
    assert got == matrix_of_element(rep, x1) + matrix_of_element(rep, x2)
    assert matrix_of_element(rep, x.scale(c)) == got.scale(c)
    assert matrix_of_element(rep, multiply(x, y)) == got * matrix_of_element(rep, y)


def test_a_wrong_accumulated_cell_is_caught_by_the_suites(monkeypatch):
    # Dropping the top exponent of one multi-term entry of every evaluated
    # element must fail the suites that evaluate elements, while the healthy
    # build passes them.  At d=2 every straightened monomial has at most one
    # term, so the fault must not be limited to elements of several terms.
    ctx, rep = Context(2), build_rep(2)
    for suite in (suites.suite_relations, suites.suite_reduction):
        assert all(c["pass"] for c in suite(2, ctx, rep))
    healthy = oracle.matrix_of_element

    def one_wrong_cell(rep, x):
        matrix = healthy(rep, x)
        for key, val in matrix.entries.items():
            if len(val) > 1:
                terms = dict(val._terms)
                del terms[max(terms)]
                entries = dict(matrix.entries)
                entries[key] = LaurentPoly(terms)
                return LaurentMatrix(matrix.dim, entries)
        return matrix

    monkeypatch.setattr(oracle, "matrix_of_element", one_wrong_cell)
    # The representation is built before the fault, so the suites' own
    # checks, not the build's self-check, must catch it.
    for suite in (suites.suite_relations, suites.suite_reduction):
        assert not all(c["pass"] for c in suite(2, ctx, rep))
