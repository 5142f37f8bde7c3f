"""Theorem-verification suites with machine-readable reports.

Each suite checks a family of exact identities, symbolically and against the
Weyl-module matrix representation, which is built at every degree.
Reports follow one schema: ``{"d", "suite", "checks": [{"id", "pass",
"witness"?}], "pass"}``.  Every check is wrapped so that an unexpected
exception becomes a failed check instead of a crash; the fault-injection
knobs exist precisely so tests can prove the suites catch broken builds.
"""

from __future__ import annotations

import random
import weakref
from math import comb

from . import algebra, oracle
from .algebra import EKF, FKE, Context, identity_element, k_element, multiply, zero_element
from .laurent import LaurentPoly, gauss_binomial

SUITES = ("relations", "idempotents", "reduction", "basis", "oracle", "lusztig")
SUITE_GUARDS = {
    "relations": 6,
    "idempotents": 10,
    "reduction": 6,
    "basis": 8,
    "oracle": 6,
    "lusztig": 6,
}
ORACLE_MAX_D = 6
FAULTS = (None, "skip-reduction", "broken-coproduct")


def schur_dimension(d: int) -> int:
    """The dimension of the degree-d algebra: C(d+3, 3)."""
    return comb(d + 3, 3)


def _crashed(cid: str, exc: Exception) -> dict:
    return {"id": cid, "pass": False, "witness": f"{type(exc).__name__}: {exc}"}


def _run(checks: list, cid: str, fn) -> None:
    """Run one check; fn returns None (pass) or a witness string (fail)."""
    try:
        witness = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        checks.append(_crashed(cid, exc))
        return
    if witness is None:
        checks.append({"id": cid, "pass": True})
    else:
        checks.append({"id": cid, "pass": False, "witness": witness})


def _elements_equal(x, y) -> str | None:
    if x == y:
        return None
    from .textio import format_element

    return f"{format_element(x)} != {format_element(y)}"


# The representations in use, keyed by (d, fault, allow_large_oracle).  One
# stays here only while some caller holds it, as run_suites does for the
# length of its loop, so that all its suites share one build; a failed build
# raises before it is stored, and so is retried and reported by each suite.
_REPS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _build_rep(d: int, fault: str | None, allow_large_oracle: bool = False):
    key = (d, fault, allow_large_oracle)
    cached = _REPS.get(key)
    if cached is not None:
        return cached
    if fault == "broken-coproduct":
        cap = oracle.DEFAULT_MAX_D if allow_large_oracle else ORACLE_MAX_D
        rep = oracle.build_rep(d, max_d=cap, convention="broken", self_check=False)
    else:
        rep = oracle.build_rep(d, convention="weyl")
    _REPS[key] = rep
    return rep


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def _minimal_poly(ctx: Context, base, roots: list[int]):
    ident = identity_element(ctx)
    acc = ident
    for r in roots:
        acc = multiply(acc, base - ident.scale(LaurentPoly.v(r)))
    return acc


def suite_relations(d: int, ctx: Context, rep) -> list[dict]:
    checks: list[dict] = []
    v = LaurentPoly.v
    ident = identity_element(ctx)
    zero = zero_element(ctx)
    e = algebra.generator_element(ctx, "e")
    f = algebra.generator_element(ctx, "f")
    k1 = k_element(ctx, "K1")
    k1i = k_element(ctx, "K1inv")
    k2 = k_element(ctx, "K2")
    k2i = k_element(ctx, "K2inv")
    kk = k_element(ctx, "K")
    kki = k_element(ctx, "Kinv")

    _run(checks, "sym-k1-inverse", lambda: _elements_equal(multiply(k1, k1i), ident))
    _run(checks, "sym-k2-inverse", lambda: _elements_equal(multiply(k2, k2i), ident))
    _run(checks, "sym-k-inverse", lambda: _elements_equal(multiply(kk, kki), ident))
    _run(
        checks,
        "sym-k-is-scaled-k1-squared",
        lambda: _elements_equal(kk, multiply(k1, k1).scale(v(-d))),
    )
    _run(
        checks,
        "sym-k1-conj-e",
        lambda: _elements_equal(multiply(multiply(k1, e), k1i), e.scale(v(1))),
    )
    _run(
        checks,
        "sym-k1-conj-f",
        lambda: _elements_equal(multiply(multiply(k1, f), k1i), f.scale(v(-1))),
    )
    _run(
        checks,
        "sym-k2-conj-e",
        lambda: _elements_equal(multiply(multiply(k2, e), k2i), e.scale(v(-1))),
    )
    _run(
        checks,
        "sym-k2-conj-f",
        lambda: _elements_equal(multiply(multiply(k2, f), k2i), f.scale(v(1))),
    )
    _run(
        checks,
        "sym-k-conj-e",
        lambda: _elements_equal(multiply(multiply(kk, e), kki), e.scale(v(2))),
    )
    _run(
        checks,
        "sym-k-conj-f",
        lambda: _elements_equal(multiply(multiply(kk, f), kki), f.scale(v(-2))),
    )
    _run(
        checks,
        "sym-k1k2-central-scalar",
        lambda: _elements_equal(multiply(k1, k2), ident.scale(v(d))),
    )

    def commutator_k1_form():
        lhs = multiply(e, f) - multiply(f, e)
        num = multiply(k1, k1).scale(v(-d)) - multiply(k1i, k1i).scale(v(d))
        return _elements_equal(lhs, num.exact_div_scalar(v(1) - v(-1)))

    _run(checks, "sym-ef-commutator-k1-form", commutator_k1_form)

    def commutator_k_form():
        lhs = multiply(e, f) - multiply(f, e)
        return _elements_equal(lhs, (kk - kki).exact_div_scalar(v(1) - v(-1)))

    _run(checks, "sym-ef-commutator-k-form", commutator_k_form)

    def commutator_k2_form():
        lhs = multiply(e, f) - multiply(f, e)
        num = multiply(k2i, k2i).scale(v(d)) - multiply(k2, k2).scale(v(-d))
        return _elements_equal(lhs, num.exact_div_scalar(v(1) - v(-1)))

    _run(checks, "sym-ef-commutator-k2-form", commutator_k2_form)

    _run(
        checks,
        "sym-k1-minimal-poly",
        lambda: _elements_equal(_minimal_poly(ctx, k1, list(range(d + 1))), zero),
    )
    _run(
        checks,
        "sym-k2-minimal-poly",
        lambda: _elements_equal(_minimal_poly(ctx, k2, list(range(d + 1))), zero),
    )
    _run(
        checks,
        "sym-k-minimal-poly",
        lambda: _elements_equal(
            _minimal_poly(ctx, kk, [d - 2 * i for i in range(d + 1)]), zero
        ),
    )

    def spectrum_complete():
        # If any proper sub-product of the minimal polynomial vanished, a
        # maximal one (omitting a single root) would vanish too.
        for j in range(d + 1):
            roots = [i for i in range(d + 1) if i != j]
            if _minimal_poly(ctx, k1, roots).is_zero:
                return f"product omitting eigenvalue v^{j} already vanishes"
        return None

    _run(checks, "sym-k1-spectrum-complete", spectrum_complete)

    for c in oracle.verify_defining_relations(rep)["checks"]:
        checks.append({**c, "id": "orc-" + c["id"]})

    ident_m = oracle.LaurentMatrix.identity(rep.dim)
    kmat = (rep.k1 * rep.k1).scale(v(-d))

    def oracle_k_minimal_poly():
        acc = ident_m
        for i in range(d + 1):
            acc = acc * (kmat - ident_m.scale(v(d - 2 * i)))
        return None if acc.is_zero else f"nonzero entries {sorted(acc.entries)[:3]}"

    _run(checks, "orc-k-minimal-poly", oracle_k_minimal_poly)

    def oracle_spectrum():
        got = sorted(set(rep.k1.diagonal_exponents()))
        want = list(range(d + 1))
        return None if got == want else f"K1 exponents {got} != {want}"

    _run(checks, "orc-k1-eigenvalue-spectrum", oracle_spectrum)

    def oracle_spectrum_complete():
        for j in range(d + 1):
            acc = ident_m
            for i in range(d + 1):
                if i != j:
                    acc = acc * (rep.k1 - ident_m.scale(v(i)))
            if acc.is_zero:
                return f"matrix product omitting v^{j} vanishes"
        return None

    _run(checks, "orc-k1-spectrum-complete", oracle_spectrum_complete)

    _run(
        checks,
        "orc-symbolic-agreement",
        lambda: None
        if oracle.matrix_of_element(rep, multiply(e, f) - multiply(f, e))
        == rep.e * rep.f - rep.f * rep.e
        else "symbolic commutator disagrees with the matrix commutator",
    )
    return checks


# ---------------------------------------------------------------------------
# idempotents
# ---------------------------------------------------------------------------


def suite_idempotents(d: int, ctx: Context, rep) -> list[dict]:
    checks: list[dict] = []
    ident = identity_element(ctx)

    def partition_of_unity():
        total = zero_element(ctx)
        for b1, b2 in ctx.idempotents:
            total = total + algebra.idempotent_element(ctx, b1, b2)
        return _elements_equal(total, ident)

    _run(checks, "sym-partition-of-unity", partition_of_unity)

    def orthogonality():
        for p in ctx.idempotents:
            for q in ctx.idempotents:
                want = (
                    algebra.idempotent_element(ctx, *p) if p == q else zero_element(ctx)
                )
                got_direct = algebra.idempotent_mul(ctx, p, q)
                got_generic = multiply(
                    algebra.idempotent_element(ctx, *p), algebra.idempotent_element(ctx, *q)
                )
                if got_direct != want or got_generic != want:
                    return f"K{p} * K{q} is wrong"
        return None

    _run(checks, "sym-orthogonal-idempotents", orthogonality)

    def kbinom_vanishing():
        # The image of [K1;b1][K2;b2] must vanish whenever b1 + b2 = d + 1;
        # its coordinate on K[beta,d-beta] is [beta; b1] * [d-beta; b2].
        for b1 in range(d + 2):
            b2 = d + 1 - b1
            for beta in range(d + 1):
                coeff = gauss_binomial(beta, b1) * gauss_binomial(d - beta, b2)
                if not coeff.is_zero:
                    return f"[K1;{b1}][K2;{b2}] has coordinate {coeff} at K[{beta},{d-beta}]"
        return None

    _run(checks, "sym-kbinom-vanishing-above-degree", kbinom_vanishing)

    def identity_neutral():
        rng = random.Random(20240411 + d)
        for _ in range(5):
            x = algebra.random_element(ctx, rng)
            if multiply(ident, x) != x or multiply(x, ident) != x:
                return "identity element is not neutral"
        return None

    _run(checks, "sym-identity-neutral", identity_neutral)

    def projectors():
        total = oracle.LaurentMatrix(rep.dim)
        mats = {}
        for b1, b2 in ctx.idempotents:
            proj = oracle.idempotent_projector(rep, b1, b2)
            mats[(b1, b2)] = proj
            if not (proj * proj) == proj:
                return f"projector K[{b1},{b2}] is not idempotent"
            total = total + proj
        if total != oracle.LaurentMatrix.identity(rep.dim):
            return "projectors do not sum to the identity matrix"
        for p, mp in mats.items():
            for q, mq in mats.items():
                if p != q and not (mp * mq).is_zero:
                    return f"projectors {p} and {q} are not orthogonal"
        return None

    _run(checks, "orc-projector-partition", projectors)
    return checks


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def suite_reduction(d: int, ctx: Context, rep) -> list[dict]:
    checks: list[dict] = []
    for orientation in (EKF, FKE):
        tag = orientation.lower()

        def structural(orientation=orientation):
            for a in range(d + 1):
                for b1 in range(d + 1):
                    for c in range(d + 1):
                        quad = (a, b1, d - b1, c)
                        if algebra.reduction_defect(ctx, quad, orientation) <= 0:
                            continue
                        red = algebra.reduce_monomial(ctx, quad, orientation)
                        for m in red.terms:
                            if (
                                m.fake_degree > d
                                or min(m.a, m.b1, m.b2, m.c) < 0
                                or m.b1 + m.b2 != d
                            ):
                                return f"reduce{quad} emitted non-canonical {m}"
            return None

        _run(checks, f"sym-reduction-emits-canonical-{tag}", structural)

        def oracle_agreement(orientation=orientation):
            outer, inner = algebra.GENERATOR_ORDER[orientation]
            for a in range(d + 1):
                for b1 in range(d + 1):
                    for c in range(d + 1):
                        quad = (a, b1, d - b1, c)
                        if algebra.reduction_defect(ctx, quad, orientation) <= 0:
                            continue
                        raw = (
                            oracle.matrix_of_divided_power(rep, outer, a)
                            * oracle.idempotent_projector(rep, b1, d - b1)
                            * oracle.matrix_of_divided_power(rep, inner, c)
                        )
                        red = algebra.reduce_monomial(ctx, quad, orientation)
                        if raw != oracle.matrix_of_element(rep, red):
                            return f"straightening of {quad} ({orientation}) disagrees"
            return None

        _run(checks, f"orc-reduction-matches-raw-word-{tag}", oracle_agreement)
    return checks


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------


def suite_basis(d: int, ctx: Context, rep, seed: int = 0) -> list[dict]:
    checks: list[dict] = []
    want = schur_dimension(d)
    rng = random.Random(seed or (97 + d))

    for orientation in (EKF, FKE):
        tag = orientation.lower()
        _run(
            checks,
            f"sym-basis-count-{tag}",
            lambda orientation=orientation: None
            if len(ctx.monomials(orientation)) == want
            else f"{len(ctx.monomials(orientation))} monomials, expected {want}",
        )

    for orientation in (EKF, FKE):
        tag = orientation.lower()

        def rank_check(orientation=orientation):
            basis = ctx.monomials(orientation)
            mats = [
                oracle.matrix_of_element(
                    rep,
                    algebra.Element(
                        ctx, orientation, {m: LaurentPoly.one()}
                    ),
                )
                for m in basis
            ]
            rank = oracle.span_rank(mats)
            if rank != want or len(basis) != want:
                return f"rank {rank}, count {len(basis)}, expected {want}"
            return None

        _run(checks, f"orc-span-rank-{tag}", rank_check)

    def unitriangular():
        order = algebra.kbinom_index_set(ctx)
        position = {t: i for i, t in enumerate(order)}
        for i, (a, b, c) in enumerate(order):
            expansion = algebra.change_from_kbinom_basis(ctx, {(a, b, c): LaurentPoly.one()})
            diag = expansion.coefficient(algebra.Monomial(a, b, ctx.d - b, c, EKF))
            if diag != LaurentPoly.one():
                return f"diagonal coefficient at {(a, b, c)} is {diag}"
            for m in expansion.terms:
                j = position[(m.a, m.b1, m.c)]
                if j < i:
                    return f"unit {(a, b, c)} produced earlier monomial {(m.a, m.b1, m.c)}"
        return None

    _run(checks, "sym-kbinom-change-unitriangular", unitriangular)

    def round_trip():
        for _ in range(10):
            x = algebra.random_element(ctx, rng, max_terms=4)
            coords = algebra.change_to_kbinom_basis(x)
            back = algebra.change_from_kbinom_basis(ctx, coords)
            if back != x:
                return "change_from(change_to(x)) != x"
        return None

    _run(checks, "sym-kbinom-round-trip", round_trip)

    def closure():
        # Out-of-range triples must straighten to canonical elements whose
        # matrices match the raw word e^(a) [K1;b] f^(c).
        triples = [
            (a, b, c)
            for a in range(d + 3)
            for b in range(d + 3)
            for c in range(d + 3)
            if a + b + c > d
        ]
        rng.shuffle(triples)
        for a, b, c in triples[:25]:
            elt = algebra.change_from_kbinom_basis(ctx, {(a, b, c): LaurentPoly.one()})
            raw = (
                oracle.matrix_of_divided_power(rep, "e", a)
                * oracle.diagonal_kbinom(rep.k1, 0, b)
                * oracle.matrix_of_divided_power(rep, "f", c)
            )
            if oracle.matrix_of_element(rep, elt) != raw:
                return f"ingested K-binomial word {(a, b, c)} disagrees with raw word"
        return None

    _run(checks, "orc-kbinom-closure", closure)
    return checks


# ---------------------------------------------------------------------------
# oracle (multiplication soundness)
# ---------------------------------------------------------------------------


def suite_oracle(d: int, ctx: Context, rep, seed: int = 0) -> list[dict]:
    checks: list[dict] = []
    rng = random.Random(seed or (1009 + d))

    def homomorphism():
        basis = ctx.monomials(EKF)
        unit_elements = [
            algebra.Element(ctx, EKF, {m: LaurentPoly.one()}) for m in basis
        ]
        matrices = [oracle.matrix_of_element(rep, x) for x in unit_elements]
        for i, x in enumerate(unit_elements):
            for j, y in enumerate(unit_elements):
                if oracle.matrix_of_element(rep, multiply(x, y)) != matrices[i] * matrices[j]:
                    return f"product of basis monomials {basis[i]} and {basis[j]} disagrees"
        return None

    _run(checks, "orc-homomorphism", homomorphism)

    def associativity():
        for _ in range(200):
            x = algebra.random_element(ctx, rng)
            y = algebra.random_element(ctx, rng)
            z = algebra.random_element(ctx, rng)
            if multiply(multiply(x, y), z) != multiply(x, multiply(y, z)):
                return "associativity failed on a random triple"
        return None

    _run(checks, "sym-associativity", associativity)

    _run(
        checks,
        "orc-identity-matrix",
        lambda: None
        if oracle.matrix_of_element(rep, identity_element(ctx))
        == oracle.LaurentMatrix.identity(rep.dim)
        else "identity element does not map to the identity matrix",
    )

    def nilpotency():
        for gen in ("e", "f"):
            if not algebra.divided_power_element(ctx, gen, d + 1).is_zero:
                return f"{gen}^({d+1}) is not zero symbolically"
            if not oracle.matrix_of_divided_power(rep, gen, d + 1).is_zero:
                return f"{gen}^({d+1}) is not zero in the oracle"
        return None

    _run(checks, "sym-nilpotency-index", nilpotency)

    def fke_products():
        fke_basis = ctx.monomials(FKE)
        for _ in range(20):
            m1 = rng.choice(fke_basis)
            m2 = rng.choice(fke_basis)
            x = algebra.Element(ctx, FKE, {m1: LaurentPoly.one()})
            y = algebra.Element(ctx, FKE, {m2: LaurentPoly.one()})
            prod = multiply(x, y)
            if oracle.matrix_of_element(rep, prod) != oracle.matrix_of_element(
                rep, x
            ) * oracle.matrix_of_element(rep, y):
                return f"FKE product of {m1} and {m2} disagrees with the oracle"
        return None

    _run(checks, "orc-homomorphism-fke", fke_products)

    def orientation_round_trip():
        for _ in range(10):
            x = algebra.random_element(ctx, rng)
            y = algebra.convert_orientation(x, FKE)
            if not oracle.matrix_of_element(rep, x) == oracle.matrix_of_element(rep, y):
                return "orientation change altered the element"
            if algebra.convert_orientation(y, EKF) != x:
                return "double orientation change is not the identity"
        return None

    _run(checks, "orc-orientation-round-trip", orientation_round_trip)
    return checks


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def run_suite(
    name: str,
    d: int,
    *,
    seed: int = 0,
    fault: str | None = None,
    allow_large_oracle: bool = False,
) -> dict:
    """Run one named suite at degree d and return its report.

    The suite checks against the Weyl modules, which are built at every d.
    Only the ``broken-coproduct`` fault builds the 2^d-dimensional tensor
    power instead, capped at ``ORACLE_MAX_D``; ``allow_large_oracle`` lifts
    that cap to the builder's limit ``oracle.DEFAULT_MAX_D``.  Past the cap
    the build fails, and the report is one failed ``oracle-build`` check.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    if fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; choose from {FAULTS}")
    ctx = Context(d, unstraightened=(fault == "skip-reduction"))
    try:
        rep = _build_rep(d, fault, allow_large_oracle)
    except Exception as exc:  # a wrong oracle is a failed check, not a crash
        return oracle._report(d, name, [_crashed("oracle-build", exc)])
    if name == "relations":
        checks = suite_relations(d, ctx, rep)
    elif name == "idempotents":
        checks = suite_idempotents(d, ctx, rep)
    elif name == "reduction":
        checks = suite_reduction(d, ctx, rep)
    elif name == "basis":
        checks = suite_basis(d, ctx, rep, seed)
    elif name == "oracle":
        checks = suite_oracle(d, ctx, rep, seed)
    else:
        try:
            checks = oracle.verify_lusztig_identities(rep)["checks"]
        except Exception as exc:
            checks = [_crashed("lusztig-identities", exc)]
    return oracle._report(d, name, checks)


def run_suites(
    names: list[str],
    d: int,
    *,
    seed: int = 0,
    fault: str | None = None,
    allow_large_oracle: bool = False,
) -> dict:
    """Run several suites and merge their checks into one report.

    All the suites share one representation, built here and held for the
    loop; if that build fails, each suite reports the failure itself.
    """
    try:
        held = _build_rep(d, fault, allow_large_oracle)  # memoised while held
    except Exception:
        held = None
    checks: list[dict] = []
    for name in names:
        report = run_suite(
            name, d, seed=seed, fault=fault, allow_large_oracle=allow_large_oracle
        )
        for c in report["checks"]:
            checks.append({**c, "id": f"{name}/{c['id']}"})
    return oracle._report(d, "+".join(names), checks)
