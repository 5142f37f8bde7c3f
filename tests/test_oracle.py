"""The matrix representations and their verification machinery."""

import hashlib
import json
import operator
import re
from functools import lru_cache
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qschur.algebra import (
    EKF,
    FKE,
    Context,
    ContextMismatch,
    Element,
    Monomial,
    anti_involution,
    identity_element,
    k_element,
    multiply,
    reduce_monomial,
    zero_element,
)
from qschur.laurent import DivisionByZero, LaurentPoly, NotDivisible, gauss_binomial, quantum_int
from qschur import algebra, oracle, suites
from qschur.cli import main
from qschur.oracle import (
    CoproductCheckFailed,
    LaurentMatrix,
    OracleRep,
    build_rep,
    contravariant_form,
    diagonal_kbinom,
    idempotent_projector,
    matrix_of_divided_power,
    matrix_of_element,
    span_rank,
    verify_defining_relations,
)
from tensor_power import tensor_rep

V = LaurentPoly.v
ONE = LaurentPoly.one()


def test_degree_one_matrices():
    # At d = 1 the Weyl module L(1,0) is the natural module.
    for rep in (build_rep(1), tensor_rep(1)):
        assert rep.e == LaurentMatrix(2, {(0, 1): ONE})
        assert rep.f == LaurentMatrix(2, {(1, 0): ONE})
        assert rep.k1 == LaurentMatrix(2, {(0, 0): V(1), (1, 1): ONE})
        assert rep.k2 == LaurentMatrix(2, {(0, 0): ONE, (1, 1): V(1)})


def test_degree_zero_matrices():
    for rep in (build_rep(0), tensor_rep(0)):
        assert rep.e.is_zero and rep.f.is_zero
        assert rep.k1 == LaurentMatrix.identity(1)
        assert rep.k2 == LaurentMatrix.identity(1)


def test_degree_two_k1_diagonal():
    rep = tensor_rep(2)
    assert rep.k1 == LaurentMatrix.diagonal([V(2), V(1), V(1), V(0)])


def test_k1_spectrum():
    for d in range(5):
        for rep in (build_rep(d), tensor_rep(d)):
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


# -- the module operations elements and matrices share ------------------------


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_matrices_of_different_sizes_do_not_combine(op):
    with pytest.raises(ContextMismatch, match="sizes differ"):
        op(LaurentMatrix(2), LaurentMatrix(3, {(2, 2): ONE}))


def test_a_matrix_sums_repeated_cells():
    assert LaurentMatrix(2, [((0, 0), 1), ((0, 0), 1)]) == LaurentMatrix(2, {(0, 0): 2})
    assert LaurentMatrix(2, [((0, 1), V(1)), ((0, 1), -V(1))]).is_zero


def test_a_matrix_takes_any_mapping_of_cells():
    # As Element and LaurentPoly do: a read-only view is a map, not an
    # iterable of (cell, value) pairs.
    cells = MappingProxyType({(0, 0): 1, (1, 0): V(2)})
    assert LaurentMatrix(2, cells) == LaurentMatrix(2, dict(cells))
    assert LaurentMatrix(2, cells).entries == {(0, 0): ONE, (1, 0): V(2)}


@pytest.mark.parametrize(
    "value",
    [
        zero_element(Context(2)),
        identity_element(Context(2)),
        LaurentMatrix(2),
        LaurentMatrix.identity(2),
    ],
    ids=["zero element", "element", "zero matrix", "matrix"],
)
def test_dividing_by_zero_raises_whatever_is_divided(value):
    for zero in (0, LaurentPoly.zero()):
        with pytest.raises(DivisionByZero):
            value.exact_div_scalar(zero)


def test_elements_and_matrices_do_not_combine():
    x, m = identity_element(Context(2)), LaurentMatrix.identity(4)
    with pytest.raises(TypeError):
        x + m
    with pytest.raises(TypeError):
        m - x
    assert x != m


@pytest.mark.parametrize("d", range(5))
def test_defining_relations(d):
    for rep in (build_rep(d), tensor_rep(d)):
        assert verify_defining_relations(rep)["pass"]


def test_mutated_rep_fails_with_witness():
    rep = build_rep(2)
    bad = OracleRep(2, rep.e.transpose(), rep.f, rep.k1, rep.k1_inv, rep.k2, rep.k2_inv)
    report = verify_defining_relations(bad)
    assert not report["pass"]
    failed = {c["id"]: c for c in report["checks"] if not c["pass"]}
    assert any("commutator" in cid or "conj" in cid for cid in failed)
    assert all("witness" in c for c in failed.values())


@pytest.mark.parametrize("orientation", [EKF, FKE])
def test_differs_is_none_for_equal_elements(orientation):
    ctx = Context(3)
    e, f = (algebra.generator_element(ctx, gen, orientation) for gen in ("e", "f"))
    assert oracle._differs(e * f - f * e, e * f - f * e) is None
    assert oracle._differs(zero_element(ctx, orientation), zero_element(ctx, orientation)) is None


def test_differs_is_none_for_equal_matrices():
    rep = build_rep(3)
    assert oracle._differs(rep.k1 * rep.k1_inv, LaurentMatrix.identity(rep.dim)) is None


def test_differs_names_the_smallest_differing_monomial():
    ctx = Context(2)
    shared, small, large = Monomial(0, 0, 2, 0), Monomial(0, 1, 1, 0), Monomial(1, 1, 1, 0)
    lhs = Element(ctx, EKF, {shared: ONE, small: V(1), large: 2})
    rhs = Element(ctx, EKF, {shared: ONE, large: 3})
    at = "at Monomial(a=0, b1=1, b2=1, c=0, orientation='EKF'): "
    assert oracle._differs(lhs, rhs) == at + "v != 0"
    assert oracle._differs(rhs, lhs) == at + "0 != v"
    fke = Element(ctx, FKE, {Monomial(1, 1, 1, 0, FKE): V(-2), Monomial(0, 2, 0, 1, FKE): 3})
    at = "at Monomial(a=0, b1=2, b2=0, c=1, orientation='FKE'): "
    assert oracle._differs(fke, zero_element(ctx, FKE)) == at + "3 != 0"


def test_differs_names_the_smallest_differing_cell():
    lhs = LaurentMatrix(3, {(0, 0): ONE, (1, 2): V(-1), (2, 0): 5})
    rhs = LaurentMatrix(3, {(0, 0): ONE, (1, 0): V(2) + ONE, (1, 2): V(-1), (2, 0): 4})
    assert oracle._differs(lhs, rhs) == "at (1, 0): 0 != v^2 + 1"
    assert oracle._differs(lhs, LaurentMatrix(3)) == "at (0, 0): 1 != 0"


def _equal_cases(d):
    ctx, rep = Context(d), build_rep(d)
    e, f = (algebra.generator_element(ctx, gen) for gen in ("e", "f"))
    yield "ef", e * f, e * f
    yield (0, "matrix"), rep.k1 * rep.k1_inv, LaurentMatrix.identity(rep.dim)
    yield Monomial(0, 0, d, 0), zero_element(ctx), zero_element(ctx)


def test_first_difference_is_none_when_every_case_is_equal():
    assert oracle._first_difference(_equal_cases(3)) is None
    assert oracle._first_difference([]) is None


def test_first_difference_names_the_first_differing_instance():
    ctx = Context(2)
    e, f = (algebra.generator_element(ctx, gen) for gen in ("e", "f"))
    lhs = LaurentMatrix(3, {(0, 0): ONE, (1, 2): V(-1)})
    cases = [
        *_equal_cases(2),
        ((1, 2), lhs, LaurentMatrix(3, {(0, 0): ONE})),
        ((3, 4), e * f, f * e),
    ]
    assert oracle._first_difference(cases) == "(1, 2): at (1, 2): v^-1 != 0"
    want = f"(3, 4): {oracle._differs(e * f, f * e)}"
    assert oracle._first_difference(cases[:3] + cases[4:]) == want


def test_first_difference_reads_no_case_after_the_first_failure():
    def cases():
        yield from _equal_cases(2)
        yield "wrong", LaurentMatrix(2, {(0, 1): 2}), LaurentMatrix(2)
        raise AssertionError("a case after the first failure was built")

    assert oracle._first_difference(cases()) == "wrong: at (0, 1): 2 != 0"


def test_a_sweep_that_raises_before_any_failure_is_a_failed_check():
    def cases():
        yield from _equal_cases(2)
        raise NotDivisible("v is not divisible by 2")

    checks = []
    oracle._run(checks, "sweep", lambda: oracle._first_difference(cases()))
    assert checks == [
        {"id": "sweep", "pass": False, "witness": "NotDivisible: v is not divisible by 2"}
    ]


# The equality checks that report through _first_difference, and the three
# that compare a single pair through _differs.
_SWEEP_CHECKS = {
    "relations/orc-symbolic-agreement",
    "relations/orc-k-minimal-poly",
    "idempotents/sym-orthogonal-idempotents",
    "idempotents/sym-identity-neutral",
    "idempotents/orc-projector-partition",
    "reduction/orc-reduction-matches-raw-word-ekf",
    "reduction/orc-reduction-matches-raw-word-fke",
    "basis/sym-kbinom-round-trip",
    "basis/orc-kbinom-closure",
    "oracle/orc-homomorphism",
    "oracle/sym-associativity",
    "oracle/orc-identity-matrix",
    "oracle/sym-nilpotency-index",
    "oracle/orc-homomorphism-fke",
    "oracle/orc-orientation-round-trip",
}
_SWEEP_WITNESS = re.compile(r"(.+: )?at (Monomial\(.*?\)|\(\d+, \d+\)): .+ != .+")
_CRASH_WITNESS = re.compile(r"[A-Z]\w*: .*")


def test_a_faulted_report_names_one_term_per_failed_equality():
    # Most lusztig identities fail under skip-reduction; each witness names
    # one term, so it stays short however large the two sides grow.  A
    # failed sweep names its first failing instance, then that term; the
    # other sweeps that fail here crash.
    for fault, failing, prefix, swept in (
        ("skip-reduction", 225, "f2ae8e97e249242e", 2),
        ("broken-module", 10, "4a0b779481496bd6", 7),
    ):
        checks = suites.run_suites(list(suites.SUITES), 6, fault=fault)["checks"]
        failed = [c for c in checks if not c["pass"]]
        assert len(checks) == 452 and len(failed) == failing
        ids = json.dumps([c["id"] for c in failed]).encode()
        assert hashlib.sha256(ids).hexdigest().startswith(prefix)
        assert max(len(c["witness"]) for c in failed) <= 400
        sweeps = [c["witness"] for c in failed if c["id"] in _SWEEP_CHECKS]
        named = [w for w in sweeps if _SWEEP_WITNESS.fullmatch(w)]
        assert len(named) == swept, fault
        assert all(_CRASH_WITNESS.fullmatch(w) for w in sweeps if w not in named), fault


def _first_omittable_root(ident, base, roots, witness):
    """The reference for suites._omittable_root: each product leaving out one
    root, multiplied out in order by itself."""
    for j, r in enumerate(roots):
        if oracle._minimal_poly(ident, base, roots[:j] + roots[j + 1 :]).is_zero:
            return witness.format(r)
    return None


@pytest.mark.parametrize("d", range(7))
def test_omittable_root_matches_the_direct_products(d):
    # Both callers' rings and witness texts, on the K1 spectrum and on lists
    # where a root can be left out: an extra root, or a repeated one, whose
    # first copy is then the witness.
    ctx, rep = Context(d), build_rep(d)
    symbolic = "product omitting eigenvalue v^{} already vanishes"
    matrix = "matrix product omitting v^{} vanishes"
    ident_m = LaurentMatrix.identity(rep.dim)
    rings = [(identity_element(ctx), k_element(ctx, name), symbolic) for name in ("K1", "K2", "K")]
    rings += [(ident_m, m, matrix) for m in (rep.k1, rep.k2, (rep.k1 * rep.k1).scale(V(-d)))]
    spectrum = list(range(d + 1))
    root_lists = [
        spectrum,
        spectrum[::-1],
        [d - 2 * i for i in spectrum],
        spectrum[1:],
        spectrum + [d + 1],
        [d + 1] + spectrum,
        spectrum[: d // 2 + 1] + spectrum[d // 2 :],
    ]
    seen = set()
    for ident, base, witness in rings:
        for roots in root_lists:
            got = suites._omittable_root(ident, base, roots, witness)
            assert got == _first_omittable_root(ident, base, roots, witness), (base, roots)
            seen.add(got)
    assert None in seen
    assert {form.format(r) for form in (symbolic, matrix) for r in (d + 1, d // 2)} <= seen


def test_conventions():
    # build_rep takes the degree alone and always builds the Weyl modules.
    assert verify_defining_relations(build_rep(3))["pass"]
    with pytest.raises(TypeError):
        build_rep(3, convention="weyl")


def test_every_suite_takes_one_argument_list():
    # run_suite calls each suite with (d, ctx, rep, seed); a suite that does
    # not read an argument gives the same checks whatever it is.
    ctx, rep = Context(2), build_rep(2)
    assert tuple(suites._SUITE_TABLE) == suites.SUITES
    for name, suite in suites._SUITE_TABLE.items():
        assert suite is getattr(suites, f"suite_{name}")
        want = suites.run_suite(name, 2)["checks"]
        assert suite(2, ctx, rep) == want
        if name not in ("basis", "oracle"):
            assert suite(2, ctx, rep, seed=5) == want


def test_the_word_of_a_non_canonical_monomial_is_its_plain_product():
    # e^(1) K[1,1] f^(1) at d=2 has fake degree 3; its word is still the
    # product, and it equals the matrix of its straightening.
    ctx, rep = Context(2), build_rep(2)
    m = Monomial(1, 1, 1, 1, EKF)
    word = oracle._word_matrix(rep, EKF, 1, idempotent_projector(rep, 1, 1), 1)
    assert word == rep.e * idempotent_projector(rep, 1, 1) * rep.f
    assert word == matrix_of_element(rep, reduce_monomial(ctx, m[:4], EKF))
    assert ("word", m) not in rep._dp_cache


def test_a_wrong_weyl_module_fails_every_suite(monkeypatch):
    # No other representation may stand in for Weyl modules that fail their
    # self-check: the build, the suites and verify all fail.
    wrong = suites._weyl_with_short_e(2)
    monkeypatch.setattr(oracle, "_build_weyl_matrices", lambda d: wrong)
    report = suites.run_suites(list(suites.SUITES), 2)
    assert not report["pass"]
    assert [c["id"] for c in report["checks"]] == [f"{s}/oracle-build" for s in suites.SUITES]
    assert all(
        c["witness"].startswith("CoproductCheckFailed: Weyl modules fail ")
        for c in report["checks"]
    )
    assert main(["verify", "--suite", "all", "--d", "2"]) == 1


# -- the Weyl modules ----------------------------------------------------------


def test_weyl_matrices_at_degree_two():
    # L(2,0) on v_0, v_1, v_2, then L(1,1) on its single v_0.
    rep = build_rep(2)
    two = quantum_int(2)
    assert rep.e == LaurentMatrix(4, {(0, 1): two, (1, 2): ONE})
    assert rep.f == LaurentMatrix(4, {(1, 0): ONE, (2, 1): two})
    assert rep.k1 == LaurentMatrix.diagonal([V(2), V(1), ONE, V(1)])
    assert rep.k2 == LaurentMatrix.diagonal([ONE, V(1), V(2), V(1)])


def test_weyl_dimension():
    for d in range(11):
        assert build_rep(d).dim == (d + 2) ** 2 // 4
    for d in range(4):
        assert tensor_rep(d).dim == 1 << d


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_wrong_weyl_module_fails_the_build(d, monkeypatch):
    wrong = suites._weyl_with_short_e(d)
    monkeypatch.setattr(oracle, "_build_weyl_matrices", lambda d: wrong)
    with pytest.raises(CoproductCheckFailed, match="^Weyl modules fail "):
        build_rep(d)


class _RefusingMatrix(LaurentMatrix):
    """A matrix whose products on the left raise."""

    def __mul__(self, other):
        raise ArithmeticError("product refused")


def test_a_relation_product_that_raises_is_a_failed_check(monkeypatch):
    # Only the ef-commutator multiplies with e on the left; its failure is
    # recorded like any other, and the build then refuses the module.
    e, *rest = oracle._build_weyl_matrices(2)
    refusing = (_RefusingMatrix(e.dim, e.entries), *rest)
    report = verify_defining_relations(OracleRep(2, *refusing))
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed == [
        {"id": "ef-commutator", "pass": False, "witness": "ArithmeticError: product refused"}
    ]
    monkeypatch.setattr(oracle, "_build_weyl_matrices", lambda d: refusing)
    with pytest.raises(CoproductCheckFailed) as raised:
        build_rep(2)
    assert str(raised.value) == (
        "Weyl modules fail ef-commutator: ArithmeticError: product refused "
        "(1 relation checks failed)"
    )


def _suite_checks(d, fault):
    report = suites.run_suites(list(suites.SUITES), d, fault=fault)
    return [(c["id"], c["pass"], c.get("witness")) for c in report["checks"]]


@pytest.mark.parametrize("fault", [None, "skip-reduction"])
def test_weyl_and_tensor_oracles_give_the_same_reports(fault, monkeypatch):
    # The suites use the 6-dimensional Weyl sum at d = 3, not the tensor power.
    assert suites._build_rep(3, fault).dim == 6
    weyl = {d: _suite_checks(d, fault) for d in range(6)}
    monkeypatch.setattr(suites, "_build_rep", lambda d, fault: tensor_rep(d))
    for d in range(6):
        assert _suite_checks(d, fault) == weyl[d], f"d={d}"
    if fault is not None:
        assert not all(passed for _, passed, _ in weyl[5])


def test_the_weyl_oracle_backs_every_suite_at_every_degree():
    checks = suites.run_suite("oracle", 2)["checks"]
    assert {"id": "sym-associativity", "pass": True} in checks
    assert {"id": "sym-nilpotency-index", "pass": True} in checks
    # At d = 11, where the tensor power would have 2048 dimensions.
    report = suites.run_suite("relations", 11)
    assert report["pass"] and len(report["checks"]) == 32
    checks = suites.run_suite("idempotents", 10)["checks"]
    assert {"id": "orc-projector-partition", "pass": True} in checks


# The suites with matrix checks; lusztig checks multiply alone.
ORACLE_SUITES = {"relations", "reduction", "basis", "oracle"}


def _failed_suites(report):
    return {c["id"].split("/")[0] for c in report["checks"] if not c["pass"]}


@pytest.mark.parametrize("d", range(5))
def test_the_broken_module_fails_every_suite_that_meets_e(d):
    # The short e fails every suite with matrix checks but idempotents, which
    # never uses e; at d = 0, where e is zero, the fault changes nothing.
    report = suites.run_suites(list(suites.SUITES), d, fault="broken-module")
    assert len(report["checks"]) == 452
    assert _failed_suites(report) == (ORACLE_SUITES if d else set())
    assert suites.run_suites(list(suites.SUITES), d)["pass"]


def test_the_fault_runs_every_suite_past_the_old_tensor_cap():
    # d = 7 is past the cap of d <= 6 that the fault had while it built the
    # tensor power.  The wrong Weyl module is built at every degree, so each
    # suite runs and fails checks instead of reporting a failed build.
    report = suites.run_suites(list(suites.SUITES), 7, fault="broken-module")
    assert len(report["checks"]) == 452
    assert _failed_suites(report) == ORACLE_SUITES
    assert not any(c["id"].endswith("/oracle-build") for c in report["checks"])


def test_run_suites_builds_one_representation(monkeypatch):
    calls = []
    healthy = oracle.build_rep

    def counted(d):
        calls.append(d)
        return healthy(d)

    monkeypatch.setattr(oracle, "build_rep", counted)
    assert suites.run_suites(list(suites.SUITES), 3)["pass"]
    assert calls == [3]
    # The build outlives the run: a later suite at the same (d, fault) reuses it.
    assert suites.run_suite("relations", 3)["pass"]
    assert calls == [3]
    # Only the last build is kept, so another degree builds anew, and so
    # does a return to the first.
    assert suites.run_suite("relations", 2)["pass"]
    assert suites.run_suite("relations", 3)["pass"]
    assert calls == [3, 2, 3]


def test_divided_powers():
    rep1 = build_rep(1)
    assert matrix_of_divided_power(rep1, "e", 0) == LaurentMatrix.identity(2)
    assert matrix_of_divided_power(rep1, "e", 2).is_zero
    rep2 = build_rep(2)
    assert matrix_of_divided_power(rep2, "e", 1) == rep2.e
    # e^(2) at d = 2 maps v_2 of L(2,0) to v_0 with coefficient [2]/[2]! = 1
    assert matrix_of_divided_power(rep2, "e", 2) == LaurentMatrix(4, {(0, 2): ONE})


def test_projectors():
    rep = build_rep(2)
    total = LaurentMatrix(4)
    for b1 in range(3):
        proj = idempotent_projector(rep, b1, 2 - b1)
        assert proj * proj == proj
        total = total + proj
    assert total == LaurentMatrix.identity(4)
    # The weight-(1,1) vectors: v_1 of L(2,0) and v_0 of L(1,1).
    assert idempotent_projector(rep, 1, 1) == LaurentMatrix(
        4, {(1, 1): ONE, (3, 3): ONE}
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


def test_equal_elements_have_equal_matrices():
    ctx = Context(1)
    rep = build_rep(1)

    def same(x, y):
        return matrix_of_element(rep, x) == matrix_of_element(rep, y)

    x = identity_element(ctx)
    assert same(x, x)
    assert not same(x, zero_element(ctx))
    # straightened word equals its raw form
    red = reduce_monomial(ctx, (1, 0, 1, 1))
    k10 = Element(ctx, EKF, {Monomial(0, 1, 0, 0, EKF): ONE})
    assert same(red, k10)


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


# -- K-binomials, products and projectors -------------------------------------


@pytest.mark.parametrize("d", range(4))
def test_a_kbinom_word_is_its_plain_product(d):
    # The word builder around a [K1;b] middle, against the triple product.
    rep = build_rep(d)
    for a in range(d + 3):
        for b in range(d + 3):
            middle = diagonal_kbinom(rep.k1, b)
            for c in range(d + 3):
                assert oracle._word_matrix(rep, EKF, a, middle, c) == (
                    matrix_of_divided_power(rep, "e", a)
                    * middle
                    * matrix_of_divided_power(rep, "f", c)
                ), (a, b, c)


def test_diagonal_kbinom_matches_scalar():
    rep = build_rep(2)
    kb = diagonal_kbinom(rep.k1, 1)
    # eigenvalues v^2, v, 1, v give [2], [1], [0], [1]
    assert kb == LaurentMatrix.diagonal(
        [quantum_int(2), quantum_int(1), quantum_int(0), quantum_int(1)]
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
        oracle, "diagonal_kbinom", lambda matrix, t: LaurentMatrix.identity(rep.dim).scale(2)
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


# -- the word memo ------------------------------------------------------------


@pytest.mark.parametrize("d", range(6))
def test_every_cached_word_is_its_plain_product(d):
    rep = suites._build_rep(d, None)  # held here, so every suite reuses it
    assert suites.run_suites(list(suites.SUITES), d)["pass"]
    words = {k[1]: w for k, w in rep._dp_cache.items() if k[0] == "word"}
    assert len(words) == 2 * len(Context(d).monomials(EKF))
    for m, word in words.items():
        outer, inner = ("e", "f") if m.orientation == EKF else ("f", "e")
        assert word == (
            matrix_of_divided_power(rep, outer, m.a)
            * idempotent_projector(rep, m.b1, m.b2)
            * matrix_of_divided_power(rep, inner, m.c)
        ), m


def _negated_entry(matrix: LaurentMatrix) -> LaurentMatrix:
    """``matrix`` with the first coefficient of its first entry negated."""
    cell, val = next(iter(matrix.entries.items()))
    (exp, coeff), *rest = val.items()
    return LaurentMatrix(matrix.dim, {**matrix.entries, cell: LaurentPoly([(exp, -coeff), *rest])})


def test_a_wrong_cached_word_is_caught_by_the_oracle():
    ctx, rep = Context(2), build_rep(2)
    assert all(c["pass"] for c in suites.suite_oracle(2, ctx, rep))
    keys = [k for k in rep._dp_cache if k[0] == "word" and k[1].orientation == EKF]
    assert len(keys) == len(ctx.monomials(EKF))
    for key in keys:
        word = rep._dp_cache[key]
        rep._dp_cache[key] = _negated_entry(word)
        checks = {c["id"]: c["pass"] for c in suites.suite_oracle(2, ctx, rep)}
        assert checks["orc-homomorphism"] is False, key
        rep._dp_cache[key] = word


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_wrong_word_whose_form_identity_is_not_checked_is_caught(d):
    # orc-homomorphism checks D M(tau w) = M(w)^T D only on the earlier word
    # of each tau-orbit: e^(a) K f^(c) with c < a is the later one.  A wrong
    # cached matrix of that word must still fail the check.
    rep = suites._build_rep(d, None)  # held here, so run_suites reuses it
    assert suites.run_suites(["oracle"], d)["pass"]
    partners = [m for m in Context(d).monomials(EKF) if m.c < m.a]
    assert partners
    for m in partners:
        word = rep._dp_cache["word", m]
        rep._dp_cache["word", m] = _negated_entry(word)
        checks = {c["id"]: c["pass"] for c in suites.run_suites(["oracle"], d)["checks"]}
        assert checks["oracle/orc-homomorphism"] is False, m
        rep._dp_cache["word", m] = word


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_wrong_cached_head_fails_an_oracle_check(d):
    # _word_matrix keeps each head outer^(a) middle for the words that share
    # it.  Every nonzero head a healthy run keeps, made wrong in a fresh
    # representation before any word is built from it, fails an orc- check
    # of the suites that build words.
    healthy = suites._build_rep(d, None)
    assert suites.run_suites(list(suites.SUITES), d)["pass"]
    heads = {k: m for k, m in healthy._dp_cache.items() if k[0] == "head" and not m.is_zero}
    assert {k[1] for k in heads} == {EKF, FKE}
    for key, head in heads.items():
        ctx, rep = Context(d), build_rep(d)
        rep._dp_cache[key] = _negated_entry(head)
        failed = [
            c["id"]
            for suite in (suites.suite_reduction, suites.suite_basis, suites.suite_oracle)
            for c in suite(d, ctx, rep)
            if not c["pass"]
        ]
        assert any(cid.startswith("orc-") for cid in failed), key[:3]


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


def test_each_representation_owns_its_cache():
    rep, other = build_rep(2), build_rep(2)
    assert rep._dp_cache is not other._dp_cache
    before = dict(other._dp_cache)
    idempotent_projector(rep, 1, 1)
    assert ("K", 1, 1) in rep._dp_cache
    assert other._dp_cache == before
    named = OracleRep(
        d=2, e=rep.e, f=rep.f, k1=rep.k1, k1_inv=rep.k1_inv, k2=rep.k2, k2_inv=rep.k2_inv
    )
    assert (named.d, named.dim, named._dp_cache) == (2, rep.dim, {})
    assert verify_defining_relations(named)["pass"]


@lru_cache(maxsize=None)
def reps_of(d: int) -> tuple[OracleRep, OracleRep]:
    return build_rep(d), tensor_rep(d)


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
    items = x.sorted_terms()
    x1, x2 = (
        Element(x.ctx, x.orientation, [t for t, first in zip(items, split) if first == part])
        for part in (True, False)
    )
    assert x1 + x2 == x
    for rep in reps_of(x.ctx.d):
        got = matrix_of_element(rep, x)
        assert stores_no_zero(got)
        assert got.is_zero == x.is_zero  # both representations are faithful
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


# -- the contravariant form and the tau-orbit sweep --------------------------


@settings(max_examples=50, deadline=None)
@given(matrix_pairs())
def test_transpose_is_an_anti_involution_of_the_product(pair):
    a, b = pair
    assert a.transpose().transpose() == a
    assert (a * b).transpose() == b.transpose() * a.transpose()


def test_the_form_on_the_weyl_modules_is_a_gaussian_binomial():
    for d in range(9):
        rep = build_rep(d)
        # Block k's v_j gets [n; j], n = d - 2k.
        ns = [d - 2 * k for k in range(d // 2 + 1)]
        want = [gauss_binomial(n, j) for n in ns for j in range(n + 1)]
        form = contravariant_form(rep)
        assert form == LaurentMatrix.diagonal(want)
        assert form * rep.f == rep.e.transpose() * form
        # The form is read off the generators each time; it is not cached.
        before = dict(rep._dp_cache)
        assert contravariant_form(rep) == form
        assert rep._dp_cache == before


def test_the_form_on_the_tensor_power_has_monomial_entries():
    for d in range(5):
        rep = tensor_rep(d)
        form = contravariant_form(rep)
        assert len(form.entries) == rep.dim
        assert all(len(val) == 1 for val in form.entries.values())
        assert form * rep.f == rep.e.transpose() * form


@pytest.mark.parametrize("d", range(7))
def test_the_form_transposes_every_basis_word_into_its_image(d):
    ctx, rep = Context(d), build_rep(d)
    form = contravariant_form(rep)
    for orientation in (EKF, FKE):
        for m in ctx.monomials(orientation):
            x = Element(ctx, orientation, {m: ONE})
            lhs = form * matrix_of_element(rep, anti_involution(x))
            assert lhs == matrix_of_element(rep, x).transpose() * form, m


@pytest.mark.parametrize("d", [2, 3, 4])
def test_the_broken_module_has_no_contravariant_form(d):
    rep = OracleRep(d, *suites._weyl_with_short_e(d))
    try:
        form = contravariant_form(rep)
    except (ValueError, NotDivisible):
        return
    assert form * rep.f != rep.e.transpose() * form


def _homomorphism_witness(d):
    (check,) = (c for c in suites.run_suite("oracle", d)["checks"] if c["id"] == "orc-homomorphism")
    return check.get("witness")


def _pairs(d):
    """The EKF basis, its tau index map and its pairs in the sweep's order."""
    basis = Context(d).monomials(EKF)
    tau = [basis.index(Monomial(m.c, m.b1, m.b2, m.a)) for m in basis]
    return basis, tau, [(i, j) for i in range(len(basis)) for j in range(len(basis))]


def _patch_multiply(monkeypatch, lhs, rhs, wrong):
    healthy = suites.multiply

    def patched(x, y):
        if x.terms == {lhs: ONE} and y.terms == {rhs: ONE}:
            return wrong(healthy(x, y))
        return healthy(x, y)

    monkeypatch.setattr(suites, "multiply", patched)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("control", ["identity-tau", "second-of-orbit", "orthogonal", "form"])
def test_the_homomorphism_sweep_catches_each_gap(d, control, monkeypatch):
    assert _homomorphism_witness(d) is None
    basis, tau, pairs = _pairs(d)
    if control == "identity-tau":
        monkeypatch.setattr(algebra, "anti_involution", lambda x: x)
        assert _homomorphism_witness(d) is not None
        return
    if control == "form":
        healthy = oracle.contravariant_form

        def negated(rep):
            entries = healthy(rep).entries
            return LaurentMatrix(rep.dim, {**entries, (0, 0): -entries[0, 0]})

        monkeypatch.setattr(oracle, "contravariant_form", negated)
        assert _homomorphism_witness(d).startswith("('contravariant form', Monomial(")
        return
    ctx = Context(d)
    if control == "second-of-orbit":
        # The later pair of the first orbit of two pairs with a nonzero product.
        i, j = next(
            (tau[j], tau[i])
            for i, j in pairs
            if basis[i].right == basis[j].left
            and (tau[j], tau[i]) > (i, j)
            and multiply(*(Element(ctx, EKF, {basis[k]: ONE}) for k in (i, j)))
        )
        wrong = lambda p: p.scale(2)
    else:
        i, j = next((i, j) for i, j in pairs if basis[i].right != basis[j].left)
        wrong = lambda p: identity_element(ctx)
    product = multiply(*(Element(ctx, EKF, {basis[k]: ONE}) for k in (i, j)))
    _patch_multiply(monkeypatch, basis[i], basis[j], wrong)
    # The sweep names the pair, then the first term where the wrong product differs.
    want = f"{(basis[i], basis[j])}: {oracle._differs(wrong(product), product)}"
    assert _homomorphism_witness(d) == want
