"""Theorem-verification suites with machine-readable reports.

Each suite checks a family of exact identities, symbolically and, all but
``lusztig``, against the Weyl-module matrix representation, which is built
at every degree.
Reports follow one schema: ``{"d", "suite", "checks": [{"id", "pass",
"witness"?}], "pass"}``.  Every check is wrapped so that an unexpected
exception becomes a failed check instead of a crash; the fault-injection
knobs exist precisely so tests can prove the suites catch broken builds.
"""

from __future__ import annotations

import random
from functools import cache, lru_cache
from math import comb

from . import algebra, oracle
from .algebra import EKF, FKE, Context, identity_element, k_element, multiply, zero_element
from .laurent import LaurentPoly, gauss_binomial, quantum_int
from .oracle import _crashed, _differs, _run

SUITE_GUARDS = {
    "relations": 6,
    "idempotents": 10,
    "reduction": 6,
    "basis": 8,
    "oracle": 6,
    "lusztig": 6,
}
FAULTS = (None, "skip-reduction", "broken-module")


def schur_dimension(d: int) -> int:
    """The dimension of the degree-d algebra: C(d+3, 3)."""
    return comb(d + 3, 3)


def _weyl_with_short_e(d: int):
    """The Weyl generators with e v_j = [n-j] v_{j-1} instead of [n-j+1] v_{j-1}."""
    e, *rest = oracle._build_weyl_matrices(d)
    # Each entry of e is a quantum integer [m], whose degree is m - 1.
    short = {key: quantum_int(val.degree()) for key, val in e.entries.items()}
    return (oracle.LaurentMatrix(e.dim, short), *rest)


class _UnstraightenedContext(Context):
    """The skip-reduction fault: every monomial with a, c <= d counts as
    canonical, and straightening any other raises IndexOutOfRange."""

    def is_canonical(self, m: algebra.Monomial) -> bool:
        return m.a <= self.d and m.c <= self.d

    def _straighten(self, m: algebra.Monomial) -> algebra.Element:
        return algebra.Element(self, m.orientation, {m: LaurentPoly.one()})


# The last build is kept until another (d, fault) needs one, so the suites
# of one run share it; a failed build raises, is not kept, and so is retried
# and reported by each suite.
@lru_cache(maxsize=1)
def _build_rep(d: int, fault: str | None):
    if fault == "broken-module":
        # Unchecked, so that the suites rather than the build must catch it.
        return oracle.OracleRep(d, *_weyl_with_short_e(d))
    return oracle.build_rep(d)


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def _omittable_root(ident, base, roots, witness: str) -> str | None:
    """None if base is killed by no product that leaves out one root, else a witness.

    ident and base are :class:`laurent._Combination` values with a product,
    as for :func:`oracle._minimal_poly`.  If any proper sub-product of the minimal polynomial vanished, a maximal
    one (omitting a single root) would vanish too; ``witness`` is formatted
    with the first root that can be left out.
    """
    factors = [base - ident.scale(LaurentPoly.v(r)) for r in roots]
    # By associativity, leaving out a root is the product ahead of it times the one after it.
    suffixes = [ident]  # the products of the last 0, 1, 2, ... factors
    for x in reversed(factors[1:]):
        suffixes.append(x * suffixes[-1])
    ahead = ident
    for r, x, after in zip(roots, factors, reversed(suffixes)):
        if (ahead * after).is_zero:
            return witness.format(r)
        ahead = ahead * x
    return None


def suite_relations(d: int, ctx: Context, rep, seed: int = 0) -> list[dict]:
    checks: list[dict] = []
    v = LaurentPoly.v
    ident = identity_element(ctx)
    zero = zero_element(ctx)
    e = algebra.generator_element(ctx, "e")
    f = algebra.generator_element(ctx, "f")
    k1, k1i, k2, k2i, kk, kki = (
        k_element(ctx, name) for name in ("K1", "K1inv", "K2", "K2inv", "K", "Kinv")
    )
    spectrum = range(d + 1)
    k_spectrum = [d - 2 * i for i in spectrum]
    # (name, K, K^-1, weight of e, eigenvalue exponents) for K1, K2 and
    # K = v^-d K1^2: K e K^-1 = v^weight e, K f K^-1 = v^-weight f.
    families = (
        ("k1", k1, k1i, 1, spectrum),
        ("k2", k2, k2i, -1, spectrum),
        ("k", kk, kki, 2, k_spectrum),
    )
    for name, k, ki, _, _ in families:
        _run(checks, f"sym-{name}-inverse", lambda k=k, ki=ki: _differs(k * ki, ident))
    _run(checks, "sym-k-is-scaled-k1-squared", lambda: _differs(kk, (k1 * k1).scale(v(-d))))
    for name, k, ki, weight, _ in families:
        for gen, x, w in (("e", e, weight), ("f", f, -weight)):
            _run(
                checks,
                f"sym-{name}-conj-{gen}",
                lambda k=k, ki=ki, x=x, w=w: _differs(k * x * ki, x.scale(v(w))),
            )
    _run(checks, "sym-k1k2-central-scalar", lambda: _differs(k1 * k2, ident.scale(v(d))))

    # ef - fe = (K - K^-1) / (v - v^-1), with K written through each family.
    numerators = {
        "k1": lambda: (k1 * k1).scale(v(-d)) - (k1i * k1i).scale(v(d)),
        "k": lambda: kk - kki,
        "k2": lambda: (k2i * k2i).scale(v(d)) - (k2 * k2).scale(v(-d)),
    }
    for name, numerator in numerators.items():
        _run(
            checks,
            f"sym-ef-commutator-{name}-form",
            lambda numerator=numerator: _differs(
                e * f - f * e, numerator().exact_div_scalar(v(1) - v(-1))
            ),
        )

    for name, k, _, _, roots in families:
        _run(
            checks,
            f"sym-{name}-minimal-poly",
            lambda k=k, roots=roots: _differs(oracle._minimal_poly(ident, k, roots), zero),
        )
    _run(
        checks,
        "sym-k1-spectrum-complete",
        lambda: _omittable_root(
            ident, k1, spectrum, "product omitting eigenvalue v^{} already vanishes"
        ),
    )

    for c in oracle.verify_defining_relations(rep)["checks"]:
        checks.append({**c, "id": "orc-" + c["id"]})

    ident_m = oracle.LaurentMatrix.identity(rep.dim)
    kmat = (rep.k1 * rep.k1).scale(v(-d))

    def oracle_k_minimal_poly():
        acc = oracle._minimal_poly(ident_m, kmat, k_spectrum)
        return None if acc.is_zero else f"nonzero entries {sorted(acc.entries)[:3]}"

    _run(checks, "orc-k-minimal-poly", oracle_k_minimal_poly)

    def oracle_spectrum():
        got = sorted(set(rep.k1.diagonal_exponents()))
        want = list(spectrum)
        return None if got == want else f"K1 exponents {got} != {want}"

    _run(checks, "orc-k1-eigenvalue-spectrum", oracle_spectrum)
    _run(
        checks,
        "orc-k1-spectrum-complete",
        lambda: _omittable_root(
            ident_m, rep.k1, spectrum, "matrix product omitting v^{} vanishes"
        ),
    )
    _run(
        checks,
        "orc-symbolic-agreement",
        lambda: None
        if oracle.matrix_of_element(rep, e * f - f * e) == rep.e * rep.f - rep.f * rep.e
        else "symbolic commutator disagrees with the matrix commutator",
    )
    return checks


# ---------------------------------------------------------------------------
# idempotents
# ---------------------------------------------------------------------------


def suite_idempotents(d: int, ctx: Context, rep, seed: int = 0) -> list[dict]:
    checks: list[dict] = []
    ident = identity_element(ctx)

    def partition_of_unity():
        total = zero_element(ctx)
        for b1, b2 in ctx.idempotents:
            total = total + algebra.idempotent_element(ctx, b1, b2)
        return _differs(total, ident)

    _run(checks, "sym-partition-of-unity", partition_of_unity)

    def orthogonality():
        for p in ctx.idempotents:
            for q in ctx.idempotents:
                want = (
                    algebra.idempotent_element(ctx, *p) if p == q else zero_element(ctx)
                )
                got = multiply(
                    algebra.idempotent_element(ctx, *p), algebra.idempotent_element(ctx, *q)
                )
                if got != want:
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


def _straightened_quads(ctx: Context, orientation: str):
    """The quadruples (a, b1, d-b1, c) with a, c <= d whose fake degree exceeds d."""
    d = ctx.d
    for a in range(d + 1):
        for b1 in range(d + 1):
            for c in range(d + 1):
                quad = (a, b1, d - b1, c)
                if algebra.reduction_defect(ctx, quad, orientation) > 0:
                    yield quad


def suite_reduction(d: int, ctx: Context, rep, seed: int = 0) -> list[dict]:
    checks: list[dict] = []
    for orientation in (EKF, FKE):
        tag = orientation.lower()

        def structural(orientation=orientation):
            for quad in _straightened_quads(ctx, orientation):
                for m in algebra.reduce_monomial(ctx, quad, orientation).terms:
                    if m.fake_degree > d or min(m.a, m.b1, m.b2, m.c) < 0 or m.b1 + m.b2 != d:
                        return f"reduce{quad} emitted non-canonical {m}"
            return None

        _run(checks, f"sym-reduction-emits-canonical-{tag}", structural)

        def oracle_agreement(orientation=orientation):
            for quad in _straightened_quads(ctx, orientation):
                a, b1, b2, c = quad
                projector = oracle.idempotent_projector(rep, b1, b2)
                raw = oracle._word_matrix(rep, orientation, a, projector, c)
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
        # Every K-binomial unit, and 25 sampled out-of-range triples (which
        # must straighten to canonical elements), must have the matrix of
        # the raw word e^(a) [K1;b] f^(c).
        triples = [
            (a, b, c)
            for a in range(d + 3)
            for b in range(d + 3)
            for c in range(d + 3)
            if a + b + c > d
        ]
        rng.shuffle(triples)
        # [K1;b] depends on b alone, so each is built once for every word around it.
        kbinom = cache(lambda b: oracle.diagonal_kbinom(rep.k1, b))
        for a, b, c in triples[:25] + algebra.kbinom_index_set(ctx):
            elt = algebra.change_from_kbinom_basis(ctx, {(a, b, c): LaurentPoly.one()})
            raw = oracle._word_matrix(rep, EKF, a, kbinom(b), c)
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
        # Every pair is multiplied, but matrices only for the first visited
        # pair of each orbit {(i, j), (tau j, tau i)}; the other pair must
        # equal the tau-image x * y = tau(tau y * tau x) of its product.  The
        # checks after the loop finish the proof for every pair: projectors
        # make M(x) M(y) zero when the idempotents do not meet, and the
        # invertible D with D M(tau w) = M(w)^T D carries an orbit's check.
        basis = ctx.monomials(EKF)
        index = {m: i for i, m in enumerate(basis)}
        ends = [(m.left, m.right) for m in basis]
        units = [algebra.Element(ctx, EKF, {m: LaurentPoly.one()}) for m in basis]
        matrices = [oracle.matrix_of_element(rep, x) for x in units]
        tau = [index[image] for x in units for image in algebra.anti_involution(x).terms]
        held: dict[tuple[int, int], algebra.Element] = {}
        for i, (m, x) in enumerate(zip(basis, units)):
            right = ends[i][1]
            for j, (n, y) in enumerate(zip(basis, units)):
                product = multiply(x, y)
                if right != ends[j][0]:
                    ok = product.is_zero
                elif (i, j) in held:
                    ok = product == held.pop((i, j))
                else:
                    ok = oracle.matrix_of_element(rep, product) == matrices[i] * matrices[j]
                    if (tau[j], tau[i]) != (i, j):
                        held[(tau[j], tau[i])] = algebra.anti_involution(product)
                if not ok:
                    return f"product of basis monomials {m} and {n} disagrees"
        met = sorted({b for pair in ends for b in pair})
        projectors = {b: oracle.idempotent_projector(rep, b, d - b) for b in met}
        for p, mp in projectors.items():
            for q, mq in projectors.items():
                if p < q and not (mp * mq).is_zero:
                    return f"projectors K[{p},{d - p}] and K[{q},{d - q}] are not orthogonal"
        form = oracle.contravariant_form(rep)
        for i, (m, word, image, (left, right)) in enumerate(zip(basis, matrices, tau, ends)):
            if not projectors[left] * word == word == word * projectors[right]:
                return f"basis word {m} is not fixed by its idempotents"
            # D is diagonal, so the identity of w = tau w' is the transpose of the one on w'.
            transposed = image < i and tau[image] == i
            if not transposed and form * matrices[image] != word.transpose() * form:
                return f"contravariant form fails on basis word {m}"
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
# lusztig and the dispatcher
# ---------------------------------------------------------------------------


def suite_lusztig(d: int, ctx: Context, rep, seed: int = 0) -> list[dict]:
    """The divided-power and K-binomial identities of U_v(gl_2), on ``multiply``.

    Lusztig, *Introduction to Quantum Groups*, section 3.1: conjugation by K
    powers, K-binomials sliding past e and f, e past f^(m), and the
    recursion, merge and expansion rules for K-binomials.  K1, K2 and
    K = K1 K2^-1 act on K[b1,b2] by v^w, w read from ``algebra._K_WEIGHTS``,
    so K^n is the sum of v^(n w) K[b1,b2] and [K; c, t] the sum of
    [w+c; t] K[b1,b2]; each is built once per call.
    """
    checks: list[dict] = []
    bound = 4  # the largest |n| of K^n, and of the K-binomial indices c and t
    v = LaurentPoly.v
    zero = zero_element(ctx)
    e, f = (algebra.generator_element(ctx, gen) for gen in ("e", "f"))

    def diagonal(name, coeff):
        weight = algebra._K_WEIGHTS[name]
        return algebra._diagonal_element(ctx, lambda b1, b2: coeff(weight(b1, b2)))

    pows = {
        (name, n): diagonal(name, lambda w: v(n * w))
        for name in ("K1", "K2")
        for n in range(-bound, bound + 1)
    }

    @cache
    def kbinom(name: str, c: int, t: int) -> algebra.Element:
        return diagonal(name, lambda w: gauss_binomial(w + c, t))

    # K^-j [K; 0, u] is the same for every c of the expansion, so it is multiplied once.
    @cache
    def lowered(name: str, j: int, u: int) -> algebra.Element:
        return pows[name, -j] * kbinom(name, 0, u)

    def check(cid, sides):
        # sides() returns the identity's two sides; it runs here, under _run,
        # so the loop variables it reads are still current.
        _run(checks, cid, lambda: _differs(*sides()))

    for name, sign in (("K1", 1), ("K2", -1)):
        for n in range(-bound, bound + 1):
            for gen, x, w in (("e", e, sign * n), ("f", f, -sign * n)):
                check(
                    f"conj-{gen}-by-{name.lower()}^{n}",
                    lambda: (pows[name, n] * x * pows[name, -n], x.scale(v(w))),
                )

    for name, shift in (("K1", 1), ("K2", -1)):
        for c in range(-bound, bound + 1):
            for t in range(bound + 1):
                for gen, x, s in (("e", e, shift), ("f", f, -shift)):
                    check(
                        f"kbinom-shift-{name.lower()}-past-{gen}(c={c},t={t})",
                        lambda: (kbinom(name, c, t) * x, x * kbinom(name, c + s, t)),
                    )

    for m in range(bound + 1):
        em, fm = (algebra.divided_power_element(ctx, gen, m) for gen in ("e", "f"))
        em1, fm1 = (
            algebra.divided_power_element(ctx, gen, m - 1) if m else zero for gen in ("e", "f")
        )
        kb = kbinom("K", m - 1, 1)
        check(f"e-past-divided-f(m={m})", lambda: (fm * e, e * fm - kb * fm1))
        check(f"f-past-divided-e(m={m})", lambda: (f * em, em * f - em1 * kb))

    for name in ("K1", "K2"):
        tag = name.lower()
        for c in range(-bound, bound + 1):
            for t in range(bound):
                check(
                    f"kbinom-recursion-{tag}(c={c},t={t})",
                    lambda: (
                        kbinom(name, c + 1, t + 1),
                        kbinom(name, c, t + 1).scale(v(t + 1))
                        + (pows[name, -1] * kbinom(name, c, t)).scale(v(t - c)),
                    ),
                )
        for t in range(bound + 1):
            for tp in range(bound + 1):
                check(
                    f"kbinom-merge-{tag}(t={t},t'={tp})",
                    lambda: (
                        kbinom(name, 0, t) * kbinom(name, -t, tp),
                        kbinom(name, 0, t + tp).scale(gauss_binomial(t + tp, t)),
                    ),
                )
        for c in range(bound + 1):
            for t in range(bound + 1):
                terms = (
                    lowered(name, j, t - j).scale(gauss_binomial(c, j) * v(c * (t - j)))
                    for j in range(t + 1)
                )
                check(
                    f"kbinom-expansion-{tag}(c={c},t={t})",
                    lambda: (kbinom(name, c, t), sum(terms, zero)),
                )
    return checks


# Each suite takes (d, ctx, rep, seed) and ignores what it does not read;
# the table lists them in report order.
_SUITE_TABLE = {
    "relations": suite_relations,
    "idempotents": suite_idempotents,
    "reduction": suite_reduction,
    "basis": suite_basis,
    "oracle": suite_oracle,
    "lusztig": suite_lusztig,
}
SUITES = tuple(_SUITE_TABLE)


def run_suite(name: str, d: int, *, seed: int = 0, fault: str | None = None) -> dict:
    """Run one named suite at degree d and return its report.

    The Weyl modules are built for every suite, at every d.  The
    ``broken-module`` fault gives e a wrong coefficient there and skips
    the build's self-check; at d = 0, where e is zero, it changes nothing.
    The ``skip-reduction`` fault straightens nothing.  A build that fails
    is reported as one failed ``oracle-build`` check.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    if fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; choose from {FAULTS}")
    ctx = _UnstraightenedContext(d) if fault == "skip-reduction" else Context(d)
    try:
        rep = _build_rep(d, fault)
    except Exception as exc:  # a wrong oracle is a failed check, not a crash
        return oracle._report(d, name, [_crashed("oracle-build", exc)])
    return oracle._report(d, name, _SUITE_TABLE[name](d, ctx, rep, seed))


def run_suites(
    names: list[str], d: int, *, seed: int = 0, fault: str | None = None
) -> dict:
    """Run several suites and merge their checks into one report.

    All the suites share one representation, the one :func:`_build_rep`
    keeps; if that build fails, each suite reports the failure itself.
    """
    checks: list[dict] = []
    for name in names:
        report = run_suite(name, d, seed=seed, fault=fault)
        for c in report["checks"]:
            checks.append({**c, "id": f"{name}/{c['id']}"})
    return oracle._report(d, "+".join(names), checks)
