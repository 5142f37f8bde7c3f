"""Theorem-verification suites with machine-readable reports.

Each suite checks a family of exact identities, symbolically and, all but
``lusztig``, against the Weyl-module matrix representation, which is built
at every degree.
Reports follow one schema: ``{"d", "suite", "checks": [{"id", "pass",
"witness"?}], "pass"}``.  The fault-injection knobs exist precisely so
tests can prove the suites catch broken builds.

Every suite, like :func:`oracle._defining_relations`, is a generator of
``(id, check)`` pairs; ``check()`` returns None for a pass or a witness
string for a failure.  :func:`run_suite` is the one place that records a
suite, through :func:`oracle._record`, which runs each check before it
draws the next pair, so a check's closure reads the current loop
variables.  A check that raises fails alone; a raise in a suite's own
set-up, outside any check, propagates.

Every equality of two elements or two matrices goes through
:func:`oracle._differs`.  A check of one identity returns its witness; a
check over many instances is a generator of ``(instance, lhs, rhs)``
cases, read by :func:`oracle._first_difference`, which names the first
failing instance in visiting order and then the first differing term.
"""

from __future__ import annotations

import random
from functools import cache, lru_cache
from math import comb

from . import algebra, oracle
from .algebra import EKF, FKE, Context, identity_element, k_element, multiply, zero_element
from .laurent import LaurentPoly, _add_term, gauss_binomial, quantum_int
from .oracle import _crashed, _differs, _first_difference, _record

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


# The coefficients s v^k of random_element, keyed by (k, s); no operation
# changes a polynomial in place, so every draw may share them.
_SCALARS = (-2, -1, 1, 2)
_RANDOM_COEFFS = {(k, s): LaurentPoly({k: s}) for k in range(-2, 3) for s in _SCALARS}


def random_element(ctx: Context, rng: random.Random, max_terms: int = 3) -> algebra.Element:
    """A small random canonical EKF element with coefficients c v^k, c in {±1, ±2}, |k| <= 2."""
    basis = ctx.monomials(EKF)
    n = rng.randint(1, max_terms)
    terms: dict[algebra.Monomial, LaurentPoly] = {}
    for _ in range(n):
        m = rng.choice(basis)
        _add_term(terms, m, _RANDOM_COEFFS[rng.randint(-2, 2), rng.choice(_SCALARS)])
    return algebra.Element._raw(ctx, EKF, terms)


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
    as for :func:`oracle._minimal_poly`.  If any proper sub-product of the
    minimal polynomial vanished, a maximal one (omitting a single root)
    would vanish too; ``witness`` is formatted with the first root that can
    be left out.
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


def suite_relations(d: int, ctx: Context, rep, seed: int = 0):
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
        yield f"sym-{name}-inverse", lambda: _differs(k * ki, ident)
    yield "sym-k-is-scaled-k1-squared", lambda: _differs(kk, (k1 * k1).scale(v(-d)))
    for name, k, ki, weight, _ in families:
        for gen, x, w in (("e", e, weight), ("f", f, -weight)):
            yield f"sym-{name}-conj-{gen}", lambda: _differs(k * x * ki, x.scale(v(w)))
    yield "sym-k1k2-central-scalar", lambda: _differs(k1 * k2, ident.scale(v(d)))

    # ef - fe = (K - K^-1) / (v - v^-1), with K written through each family.
    numerators = {
        "k1": lambda: (k1 * k1).scale(v(-d)) - (k1i * k1i).scale(v(d)),
        "k": lambda: kk - kki,
        "k2": lambda: (k2i * k2i).scale(v(d)) - (k2 * k2).scale(v(-d)),
    }
    for name, numerator in numerators.items():
        yield f"sym-ef-commutator-{name}-form", lambda: _differs(
            e * f - f * e, numerator().exact_div_scalar(v(1) - v(-1))
        )

    for name, k, _, _, roots in families:
        yield f"sym-{name}-minimal-poly", lambda: _differs(
            oracle._minimal_poly(ident, k, roots), zero
        )
    yield "sym-k1-spectrum-complete", lambda: _omittable_root(
        ident, k1, spectrum, "product omitting eigenvalue v^{} already vanishes"
    )

    for cid, check in oracle._defining_relations(rep):
        yield "orc-" + cid, check

    ident_m = oracle.LaurentMatrix.identity(rep.dim)
    kmat = (rep.k1 * rep.k1).scale(v(-d))
    zero_m = oracle.LaurentMatrix(rep.dim)
    yield "orc-k-minimal-poly", lambda: _differs(
        oracle._minimal_poly(ident_m, kmat, k_spectrum), zero_m
    )

    def oracle_spectrum():
        got = sorted(set(rep.k1.diagonal_exponents()))
        want = list(spectrum)
        return None if got == want else f"K1 exponents {got} != {want}"

    yield "orc-k1-eigenvalue-spectrum", oracle_spectrum
    yield "orc-k1-spectrum-complete", lambda: _omittable_root(
        ident_m, rep.k1, spectrum, "matrix product omitting v^{} vanishes"
    )
    yield "orc-symbolic-agreement", lambda: _differs(
        oracle.matrix_of_element(rep, e * f - f * e), rep.e * rep.f - rep.f * rep.e
    )


# ---------------------------------------------------------------------------
# idempotents
# ---------------------------------------------------------------------------


def suite_idempotents(d: int, ctx: Context, rep, seed: int = 0):
    ident = identity_element(ctx)

    def partition_of_unity():
        total = zero_element(ctx)
        for b1, b2 in ctx.idempotents:
            total = total + algebra.idempotent_element(ctx, b1, b2)
        return _differs(total, ident)

    yield "sym-partition-of-unity", partition_of_unity

    def orthogonality():
        units = {p: algebra.idempotent_element(ctx, *p) for p in ctx.idempotents}
        for p, x in units.items():
            for q, y in units.items():
                yield (p, q), multiply(x, y), x if p == q else zero_element(ctx)

    yield "sym-orthogonal-idempotents", lambda: _first_difference(orthogonality())

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

    yield "sym-kbinom-vanishing-above-degree", kbinom_vanishing

    def identity_neutral():
        rng = random.Random(20240411 + d)
        for i in range(5):
            x = random_element(ctx, rng)
            yield (i, "1 * x"), multiply(ident, x), x
            yield (i, "x * 1"), multiply(x, ident), x

    yield "sym-identity-neutral", lambda: _first_difference(identity_neutral())

    def projectors():
        total = oracle.LaurentMatrix(rep.dim)
        mats = {}
        for p in ctx.idempotents:
            proj = mats[p] = oracle.idempotent_projector(rep, *p)
            yield p, proj * proj, proj
            total = total + proj
        yield "sum", total, oracle.LaurentMatrix.identity(rep.dim)
        zero = oracle.LaurentMatrix(rep.dim)
        for p, mp in mats.items():
            for q, mq in mats.items():
                if p != q:
                    yield (p, q), mp * mq, zero

    yield "orc-projector-partition", lambda: _first_difference(projectors())


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def _straightened_quads(ctx: Context, orientation: str):
    """The quadruples (a, b1, d-b1, c) with a, c <= d whose fake degree exceeds d."""
    d = ctx.d
    for a in range(d + 1):
        for b1 in range(d + 1):
            middle = b1 if orientation == EKF else d - b1
            for c in range(d + 1):
                if a + middle + c > d:
                    yield (a, b1, d - b1, c)


def suite_reduction(d: int, ctx: Context, rep, seed: int = 0):
    for orientation in (EKF, FKE):
        tag = orientation.lower()

        def structural():
            for quad in _straightened_quads(ctx, orientation):
                for m in algebra.reduce_monomial(ctx, quad, orientation).terms:
                    if m.fake_degree > d or min(m.a, m.b1, m.b2, m.c) < 0 or m.b1 + m.b2 != d:
                        return f"reduce{quad} emitted non-canonical {m}"
            return None

        yield f"sym-reduction-emits-canonical-{tag}", structural

        def oracle_agreement():
            for quad in _straightened_quads(ctx, orientation):
                a, b1, b2, c = quad
                projector = oracle.idempotent_projector(rep, b1, b2)
                raw = oracle._word_matrix(rep, orientation, a, projector, c)
                red = algebra.reduce_monomial(ctx, quad, orientation)
                yield quad, raw, oracle.matrix_of_element(rep, red)

        yield f"orc-reduction-matches-raw-word-{tag}", lambda: _first_difference(oracle_agreement())


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------


def suite_basis(d: int, ctx: Context, rep, seed: int = 0):
    want = schur_dimension(d)
    rng = random.Random(seed or (97 + d))

    for orientation in (EKF, FKE):
        yield f"sym-basis-count-{orientation.lower()}", lambda: (
            None
            if len(ctx.monomials(orientation)) == want
            else f"{len(ctx.monomials(orientation))} monomials, expected {want}"
        )

    for orientation in (EKF, FKE):

        def rank_check():
            basis = ctx.monomials(orientation)
            mats = [
                oracle.matrix_of_element(
                    rep, algebra.Element._raw(ctx, orientation, {m: LaurentPoly.one()})
                )
                for m in basis
            ]
            rank = oracle.span_rank(mats)
            if rank != want or len(basis) != want:
                return f"rank {rank}, count {len(basis)}, expected {want}"
            return None

        yield f"orc-span-rank-{orientation.lower()}", rank_check

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

    yield "sym-kbinom-change-unitriangular", unitriangular

    def round_trip():
        for i in range(10):
            x = random_element(ctx, rng, max_terms=4)
            coords = algebra.change_to_kbinom_basis(x)
            yield i, algebra.change_from_kbinom_basis(ctx, coords), x

    yield "sym-kbinom-round-trip", lambda: _first_difference(round_trip())

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
            yield (a, b, c), oracle.matrix_of_element(rep, elt), raw

    yield "orc-kbinom-closure", lambda: _first_difference(closure())


# ---------------------------------------------------------------------------
# oracle (multiplication soundness)
# ---------------------------------------------------------------------------


def suite_oracle(d: int, ctx: Context, rep, seed: int = 0):
    rng = random.Random(seed or (1009 + d))
    zero, zero_m = zero_element(ctx), oracle.LaurentMatrix(rep.dim)

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
        units = [algebra.Element._raw(ctx, EKF, {m: LaurentPoly.one()}) for m in basis]
        matrices = [oracle.matrix_of_element(rep, x) for x in units]
        tau = [index[image] for x in units for image in algebra.anti_involution(x).terms]
        held: dict[tuple[int, int], algebra.Element] = {}
        for i, (m, x) in enumerate(zip(basis, units)):
            right = ends[i][1]
            for j, (n, y) in enumerate(zip(basis, units)):
                product = multiply(x, y)
                if right != ends[j][0]:
                    # Most pairs do not meet; only a nonzero product is a case.
                    if product:
                        yield (m, n), product, zero
                elif (i, j) in held:
                    yield (m, n), product, held.pop((i, j))
                else:
                    yield (m, n), oracle.matrix_of_element(rep, product), matrices[i] * matrices[j]
                    if (tau[j], tau[i]) != (i, j):
                        held[(tau[j], tau[i])] = algebra.anti_involution(product)
        met = sorted({b for pair in ends for b in pair})
        projectors = {b: oracle.idempotent_projector(rep, b, d - b) for b in met}
        for p, mp in projectors.items():
            for q, mq in projectors.items():
                if p < q:
                    yield ((p, d - p), (q, d - q)), mp * mq, zero_m
        form = oracle.contravariant_form(rep)
        for i, (m, word, image, (left, right)) in enumerate(zip(basis, matrices, tau, ends)):
            yield ("left idempotent", m), projectors[left] * word, word
            yield ("right idempotent", m), word, word * projectors[right]
            # D is diagonal, so the identity of w = tau w' is the transpose of the one on w'.
            if not (image < i and tau[image] == i):
                yield ("contravariant form", m), form * matrices[image], word.transpose() * form

    yield "orc-homomorphism", lambda: _first_difference(homomorphism())

    def associativity():
        for i in range(200):
            x = random_element(ctx, rng)
            y = random_element(ctx, rng)
            z = random_element(ctx, rng)
            yield i, multiply(multiply(x, y), z), multiply(x, multiply(y, z))

    yield "sym-associativity", lambda: _first_difference(associativity())
    yield "orc-identity-matrix", lambda: _differs(
        oracle.matrix_of_element(rep, identity_element(ctx)),
        oracle.LaurentMatrix.identity(rep.dim),
    )

    def nilpotency():
        for gen in ("e", "f"):
            yield gen, algebra.divided_power_element(ctx, gen, d + 1), zero
            yield gen, oracle.matrix_of_divided_power(rep, gen, d + 1), zero_m

    yield "sym-nilpotency-index", lambda: _first_difference(nilpotency())

    def fke_products():
        fke_basis = ctx.monomials(FKE)
        for _ in range(20):
            m1 = rng.choice(fke_basis)
            m2 = rng.choice(fke_basis)
            x = algebra.Element._raw(ctx, FKE, {m1: LaurentPoly.one()})
            y = algebra.Element._raw(ctx, FKE, {m2: LaurentPoly.one()})
            got = oracle.matrix_of_element(rep, multiply(x, y))
            yield (m1, m2), got, oracle.matrix_of_element(rep, x) * oracle.matrix_of_element(rep, y)

    yield "orc-homomorphism-fke", lambda: _first_difference(fke_products())

    def orientation_round_trip():
        for i in range(10):
            x = random_element(ctx, rng)
            y = algebra.convert_orientation(x, FKE)
            yield (i, "to FKE"), oracle.matrix_of_element(rep, x), oracle.matrix_of_element(rep, y)
            yield (i, "back to EKF"), algebra.convert_orientation(y, EKF), x

    yield "orc-orientation-round-trip", lambda: _first_difference(orientation_round_trip())


# ---------------------------------------------------------------------------
# lusztig and the dispatcher
# ---------------------------------------------------------------------------


def suite_lusztig(d: int, ctx: Context, rep, seed: int = 0):
    """The divided-power and K-binomial identities of U_v(gl_2), on ``multiply``.

    Lusztig, *Introduction to Quantum Groups*, section 3.1: conjugation by K
    powers, K-binomials sliding past e and f, e past f^(m), and the
    recursion, merge and expansion rules for K-binomials.  K1, K2 and
    K = K1 K2^-1 act on K[b1,b2] by v^w, w read from ``algebra._K_WEIGHTS``,
    so K^n is the sum of v^(n w) K[b1,b2] and [K; c, t] the sum of
    [w+c; t] K[b1,b2]; each is built once per call.
    """
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

    for name, sign in (("K1", 1), ("K2", -1)):
        for n in range(-bound, bound + 1):
            for gen, x, w in (("e", e, sign * n), ("f", f, -sign * n)):
                yield f"conj-{gen}-by-{name.lower()}^{n}", lambda: _differs(
                    pows[name, n] * x * pows[name, -n], x.scale(v(w))
                )

    for name, shift in (("K1", 1), ("K2", -1)):
        for c in range(-bound, bound + 1):
            for t in range(bound + 1):
                for gen, x, s in (("e", e, shift), ("f", f, -shift)):
                    yield f"kbinom-shift-{name.lower()}-past-{gen}(c={c},t={t})", lambda: _differs(
                        kbinom(name, c, t) * x, x * kbinom(name, c + s, t)
                    )

    for m in range(bound + 1):
        em, fm = (algebra.divided_power_element(ctx, gen, m) for gen in ("e", "f"))
        em1, fm1 = (
            algebra.divided_power_element(ctx, gen, m - 1) if m else zero for gen in ("e", "f")
        )
        kb = kbinom("K", m - 1, 1)
        yield f"e-past-divided-f(m={m})", lambda: _differs(fm * e, e * fm - kb * fm1)
        yield f"f-past-divided-e(m={m})", lambda: _differs(f * em, em * f - em1 * kb)

    for name in ("K1", "K2"):
        tag = name.lower()
        for c in range(-bound, bound + 1):
            for t in range(bound):
                yield f"kbinom-recursion-{tag}(c={c},t={t})", lambda: _differs(
                    kbinom(name, c + 1, t + 1),
                    kbinom(name, c, t + 1).scale(v(t + 1))
                    + (pows[name, -1] * kbinom(name, c, t)).scale(v(t - c)),
                )
        for t in range(bound + 1):
            for tp in range(bound + 1):
                yield f"kbinom-merge-{tag}(t={t},t'={tp})", lambda: _differs(
                    kbinom(name, 0, t) * kbinom(name, -t, tp),
                    kbinom(name, 0, t + tp).scale(gauss_binomial(t + tp, t)),
                )
        for c in range(bound + 1):
            for t in range(bound + 1):
                terms = (
                    lowered(name, j, t - j).scale(gauss_binomial(c, j) * v(c * (t - j)))
                    for j in range(t + 1)
                )
                yield f"kbinom-expansion-{tag}(c={c},t={t})", lambda: _differs(
                    kbinom(name, c, t), sum(terms, zero)
                )


# Each suite takes (d, ctx, rep, seed), ignores what it does not read and
# yields (id, check) pairs; the table lists them in report order.
_SUITE_TABLE = {
    "relations": suite_relations,
    "idempotents": suite_idempotents,
    "reduction": suite_reduction,
    "basis": suite_basis,
    "oracle": suite_oracle,
    "lusztig": suite_lusztig,
}
SUITES = tuple(_SUITE_TABLE)


def _new_context(d: int, fault: str | None) -> Context:
    return _UnstraightenedContext(d) if fault == "skip-reduction" else Context(d)


def run_suite(
    name: str, d: int, *, seed: int = 0, fault: str | None = None, _ctx: Context | None = None
) -> dict:
    """Run one named suite at degree d and return its report.

    The Weyl modules are built for every suite, at every d.  The
    ``broken-module`` fault gives e a wrong coefficient there and skips
    the build's self-check; at d = 0, where e is zero, it changes nothing.
    The ``skip-reduction`` fault straightens nothing.  A build that fails
    is reported as one failed ``oracle-build`` check.  The suite runs in a
    new context unless :func:`run_suites` passes its own as ``_ctx``.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    if fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; choose from {FAULTS}")
    ctx = _new_context(d, fault) if _ctx is None else _ctx
    try:
        rep = _build_rep(d, fault)
    except Exception as exc:  # a wrong oracle is a failed check, not a crash
        return oracle._report(d, name, [_crashed("oracle-build", exc)])
    return oracle._report(d, name, _record(_SUITE_TABLE[name](d, ctx, rep, seed)))


def run_suites(
    names: list[str], d: int, *, seed: int = 0, fault: str | None = None
) -> dict:
    """Run several suites and merge their checks into one report.

    All the suites share one context, so its memos are filled once per
    call, and one representation, the one :func:`_build_rep` keeps; if
    that build fails, each suite reports the failure itself.
    """
    ctx = _new_context(d, fault)
    checks: list[dict] = []
    for name in names:
        report = run_suite(name, d, seed=seed, fault=fault, _ctx=ctx)
        for c in report["checks"]:
            checks.append({**c, "id": f"{name}/{c['id']}"})
    return oracle._report(d, "+".join(names), checks)
