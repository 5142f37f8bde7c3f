"""The presented algebra isomorphic to the quantum Schur algebra S_v(2,d).

Elements are exact Z[v, v^-1]-linear combinations of canonical monomials
e^(a) K[b1,b2] f^(c) (orientation ``EKF``) or f^(a) K[b1,b2] e^(c)
(orientation ``FKE``), where K[b1,b2] with b1 + b2 = d are the orthogonal
idempotents of the degree-zero subalgebra and e^(a), f^(c) are divided
powers.  A monomial is canonical when its fake degree (a + b1 + c for EKF,
a + b2 + c for FKE) is at most d; non-canonical monomials are straightened
by the closed-form reduction in :func:`reduce_monomial`.

All computation happens in the EKF basis.  FKE views are obtained through
the algebra automorphism that swaps e with f and K1 with K2.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .laurent import LaurentPoly, gauss_binomial

EKF = "EKF"
FKE = "FKE"
# The divided powers left and right of the idempotent, per orientation.
GENERATOR_ORDER = {EKF: ("e", "f"), FKE: ("f", "e")}


class IndexOutOfRange(ValueError):
    """An idempotent index or monomial exponent violates its constraints."""


class ContextMismatch(ValueError):
    """Operands live in different contexts or bases."""


@dataclass(frozen=True)
class Monomial:
    """A monomial e^(a) K[b1,b2] f^(c), or f^(a) K[b1,b2] e^(c) for FKE."""

    a: int
    b1: int
    b2: int
    c: int
    orientation: str = EKF

    @property
    def fake_degree(self) -> int:
        middle = self.b1 if self.orientation == EKF else self.b2
        return self.a + middle + self.c

    def sort_key(self) -> tuple[int, int, int]:
        return (self.a, self.b1, self.c)

    def swapped(self) -> Monomial:
        """Image under the e<->f, K1<->K2 symmetry, relabeled to the other basis."""
        target = FKE if self.orientation == EKF else EKF
        return Monomial(self.a, self.b2, self.b1, self.c, target)


class Context:
    """Fixed degree d with its idempotent index set.

    Immutable after construction apart from a memo of the canonical basis
    per orientation, and safe to share across threads: the basis is a pure
    function of the context and the orientation, so a duplicate fill from
    two threads is harmless.  The ``unstraightened`` flag disables the
    reduction machinery; it exists only so verification suites can prove
    they would catch a faulty build.
    """

    def __init__(self, d: int, *, unstraightened: bool = False):
        if d < 0:
            raise IndexOutOfRange(f"degree must be nonnegative, got {d}")
        self.d = d
        self.idempotents = [(b1, d - b1) for b1 in range(d + 1)]
        self.unstraightened = unstraightened
        self._basis: dict[str, tuple[Monomial, ...]] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Context):
            return NotImplemented
        return self.d == other.d and self.unstraightened == other.unstraightened

    def __hash__(self) -> int:
        return hash((self.d, self.unstraightened))

    def __repr__(self) -> str:
        return f"Context(d={self.d})"

    def check_pair(self, b1: int, b2: int) -> tuple[int, int]:
        if b1 < 0 or b2 < 0 or b1 + b2 != self.d:
            raise IndexOutOfRange(
                f"idempotent indices ({b1},{b2}) must be nonnegative with sum {self.d}"
            )
        return (b1, b2)

    def is_canonical(self, m: Monomial) -> bool:
        if self.unstraightened:
            return m.a <= self.d and m.c <= self.d
        return m.fake_degree <= self.d

    def monomials(self, orientation: str = EKF) -> list[Monomial]:
        """The canonical basis, ordered lexicographically by (a, b1, c).

        Each call returns a fresh list, so callers may mutate it.
        """
        basis = self._basis.get(orientation)
        if basis is None:
            _check_orientation(orientation)
            d = self.d
            out = []
            for a in range(d + 1):
                for b1 in range(d + 1):
                    middle = b1 if orientation == EKF else d - b1
                    top = d if self.unstraightened else d - a - middle
                    out.extend(Monomial(a, b1, d - b1, c, orientation) for c in range(top + 1))
            basis = self._basis[orientation] = tuple(out)
        return list(basis)


def _check_orientation(orientation: str) -> None:
    if orientation not in (EKF, FKE):
        raise ValueError(f"orientation must be {EKF!r} or {FKE!r}, got {orientation!r}")


def _add_term(terms: dict[Monomial, LaurentPoly], m: Monomial, coeff: LaurentPoly) -> None:
    """terms[m] += coeff, keeping no zero coefficients."""
    prev = terms.get(m)
    coeff = coeff if prev is None else prev + coeff
    if coeff.is_zero:
        terms.pop(m, None)
    else:
        terms[m] = coeff


class Element:
    """A finite Z[v, v^-1]-linear combination of canonical monomials."""

    __slots__ = ("ctx", "orientation", "terms")

    def __init__(
        self,
        ctx: Context,
        orientation: str = EKF,
        terms: Mapping[Monomial, LaurentPoly] | Iterable[tuple[Monomial, LaurentPoly]] = (),
    ):
        _check_orientation(orientation)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, LaurentPoly] = {}
        for m, coeff in items:
            if m.orientation != orientation:
                raise ContextMismatch(f"monomial {m} does not match orientation {orientation}")
            if m.b1 + m.b2 != ctx.d or min(m.a, m.b1, m.b2, m.c) < 0:
                raise IndexOutOfRange(f"monomial {m} does not fit degree {ctx.d}")
            if not ctx.is_canonical(m):
                raise IndexOutOfRange(f"monomial {m} is not canonical at degree {ctx.d}")
            _add_term(acc, m, coeff)
        self.ctx = ctx
        self.orientation = orientation
        self.terms = acc

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.orientation == other.orientation
            and self.terms == other.terms
        )

    def sorted_terms(self) -> list[tuple[Monomial, LaurentPoly]]:
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def coefficient(self, m: Monomial) -> LaurentPoly:
        return self.terms.get(m, LaurentPoly.zero())

    def __repr__(self) -> str:
        from .textio import format_element

        return f"Element(d={self.ctx.d}, {self.orientation}, '{format_element(self)}')"

    # -- linear operations -------------------------------------------------

    def _require_compatible(self, other: Element) -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch(f"contexts differ: d={self.ctx.d} vs d={other.ctx.d}")
        if self.orientation != other.orientation:
            raise ContextMismatch(
                f"orientations differ: {self.orientation} vs {other.orientation}"
            )

    def __add__(self, other: Element) -> Element:
        self._require_compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            _add_term(terms, m, c)
        return self._raw(self.ctx, self.orientation, terms)

    def __neg__(self) -> Element:
        return self._raw(self.ctx, self.orientation, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Element) -> Element:
        return self + (-other)

    def scale(self, scalar: int | LaurentPoly) -> Element:
        scalar = LaurentPoly.coerce(scalar)
        if scalar.is_zero:
            return self._raw(self.ctx, self.orientation, {})
        return self._raw(
            self.ctx, self.orientation, {m: c * scalar for m, c in self.terms.items()}
        )

    def exact_div_scalar(self, scalar: int | LaurentPoly) -> Element:
        scalar = LaurentPoly.coerce(scalar)
        return self._raw(
            self.ctx,
            self.orientation,
            {m: c.exact_div(scalar) for m, c in self.terms.items()},
        )

    def __mul__(self, other: Element) -> Element:
        if isinstance(other, Element):
            return multiply(self, other)
        return NotImplemented

    @classmethod
    def _raw(cls, ctx: Context, orientation: str, terms: dict[Monomial, LaurentPoly]) -> Element:
        # Internal constructor for term maps already known to be canonical.
        out = cls.__new__(cls)
        out.ctx = ctx
        out.orientation = orientation
        out.terms = terms
        return out


# ---------------------------------------------------------------------------
# Construction of distinguished elements
# ---------------------------------------------------------------------------


def zero_element(ctx: Context, orientation: str = EKF) -> Element:
    return Element(ctx, orientation)


def identity_element(ctx: Context, orientation: str = EKF) -> Element:
    """The sum of all idempotents K[b1,b2] with b1 + b2 = d."""
    one = LaurentPoly.one()
    return Element(
        ctx,
        orientation,
        {Monomial(0, b1, b2, 0, orientation): one for b1, b2 in ctx.idempotents},
    )


def idempotent_element(ctx: Context, b1: int, b2: int, orientation: str = EKF) -> Element:
    ctx.check_pair(b1, b2)
    return Element(ctx, orientation, {Monomial(0, b1, b2, 0, orientation): LaurentPoly.one()})


def k_element(ctx: Context, which: str, orientation: str = EKF) -> Element:
    """The elements K1, K2, their inverses, and K = v^-d K1^2 (with inverse).

    Each is diagonal in the idempotent basis: K1 and K2 act on K[b1,b2] by
    v^b1 and v^b2, so K acts by v^(2*b1-d).
    """
    exponent = {
        "K1": lambda b1, b2: b1,
        "K1inv": lambda b1, b2: -b1,
        "K2": lambda b1, b2: b2,
        "K2inv": lambda b1, b2: -b2,
        "K": lambda b1, b2: 2 * b1 - ctx.d,
        "Kinv": lambda b1, b2: ctx.d - 2 * b1,
    }
    if which not in exponent:
        raise ValueError(f"unknown K-type element {which!r}")
    fn = exponent[which]
    return Element(
        ctx,
        orientation,
        {
            Monomial(0, b1, b2, 0, orientation): LaurentPoly.v(fn(b1, b2))
            for b1, b2 in ctx.idempotents
        },
    )


def divided_power_element(ctx: Context, gen: str, m: int, orientation: str = EKF) -> Element:
    """e^(m) or f^(m) as a canonical element (zero once m exceeds d)."""
    if gen not in ("e", "f"):
        raise ValueError(f"generator must be 'e' or 'f', got {gen!r}")
    if m < 0:
        raise IndexOutOfRange("divided-power exponent must be nonnegative")
    _check_orientation(orientation)
    a, c = (m, 0) if gen == GENERATOR_ORDER[orientation][0] else (0, m)
    monos = (Monomial(a, b1, b2, c, orientation) for b1, b2 in ctx.idempotents)
    one = LaurentPoly.one()
    return Element(ctx, orientation, {mono: one for mono in monos if ctx.is_canonical(mono)})


def generator_element(ctx: Context, gen: str, orientation: str = EKF) -> Element:
    return divided_power_element(ctx, gen, 1, orientation)


# ---------------------------------------------------------------------------
# Degree-zero calculus
# ---------------------------------------------------------------------------


def idempotent_mul(ctx: Context, left: tuple[int, int], right: tuple[int, int]) -> Element:
    """K[b1,b2] * K[b1',b2']: the idempotents are mutually orthogonal."""
    ctx.check_pair(*left)
    ctx.check_pair(*right)
    if left == right:
        return idempotent_element(ctx, *left)
    return zero_element(ctx)


def commute_power_past_idempotent(
    ctx: Context,
    side: str,
    gen: str,
    power: int,
    pair: tuple[int, int],
) -> tuple[int, int] | None:
    """Move e^power or f^power across an idempotent.

    ``side`` names the side of the idempotent the generator power starts on.
    Returns the idempotent pair appearing on the other side, or None when the
    product is zero:

    ==== ==== =============================== ==========
    gen  side rewrite                         zero when
    ==== ==== =============================== ==========
    e    right K[b1,b2] e^a -> e^a K[b1-a,b2+a]  b1 < a
    e    left  e^a K[b1,b2] -> K[b1+a,b2-a] e^a  b2 < a
    f    left  f^a K[b1,b2] -> K[b1-a,b2+a] f^a  b1 < a
    f    right K[b1,b2] f^a -> f^a K[b1+a,b2-a]  b2 < a
    ==== ==== =============================== ==========
    """
    b1, b2 = ctx.check_pair(*pair)
    if power < 0:
        raise IndexOutOfRange("generator power must be nonnegative")
    if gen not in ("e", "f") or side not in ("left", "right"):
        raise ValueError(f"bad gen/side: {gen!r}/{side!r}")
    lowers = (gen == "e" and side == "right") or (gen == "f" and side == "left")
    if lowers:
        if b1 < power:
            return None
        return (b1 - power, b2 + power)
    if b2 < power:
        return None
    return (b1 + power, b2 - power)


# ---------------------------------------------------------------------------
# Straightening
# ---------------------------------------------------------------------------


def reduction_defect(ctx: Context, quad: tuple[int, int, int, int], orientation: str = EKF) -> int:
    """The amount s by which a monomial's fake degree exceeds d."""
    a, b1, b2, c = quad
    middle = b1 if orientation == EKF else b2
    return a + middle + c - ctx.d


def reduce_monomial(
    ctx: Context, quad: tuple[int, int, int, int], orientation: str = EKF
) -> Element:
    """Express a possibly non-canonical monomial in the canonical basis.

    A monomial of defect s >= 1 equals the alternating sum over
    k = s..min(a,c) of [k-1; s-1] [b1+k; k] e^(a-k) K[b1+k,b2-k] f^(c-k)
    (mirror image in the FKE basis).  Defect <= 0 returns the monomial
    itself; an empty summation range yields zero.
    """
    a, b1, b2, c = quad
    _check_orientation(orientation)
    if a < 0 or c < 0:
        raise IndexOutOfRange(f"divided-power exponents must be nonnegative: ({a},{c})")
    ctx.check_pair(b1, b2)

    mono = Monomial(a, b1, b2, c, orientation)
    if ctx.unstraightened:
        return Element(ctx, orientation, {mono: LaurentPoly.one()})

    s = reduction_defect(ctx, quad, orientation)
    if s <= 0:
        return Element(ctx, orientation, {mono: LaurentPoly.one()})

    if orientation == FKE:
        # Apply the e<->f, K1<->K2 symmetry, straighten in EKF, map back.
        reduced = reduce_monomial(ctx, (a, b2, b1, c), EKF)
        return Element(
            ctx, FKE, {m.swapped(): coeff for m, coeff in reduced.terms.items()}
        )

    terms: dict[Monomial, LaurentPoly] = {}
    for k in range(s, min(a, c) + 1):
        if k > b2:
            raise RuntimeError("summation index escaped the idempotent range")
        coeff = gauss_binomial(k - 1, s - 1) * gauss_binomial(b1 + k, k)
        if (k - s) % 2:
            coeff = -coeff
        m = Monomial(a - k, b1 + k, b2 - k, c - k, EKF)
        if m.fake_degree > ctx.d or min(m.a, m.b1, m.b2, m.c) < 0:
            raise RuntimeError(f"straightening emitted the non-canonical monomial {m}")
        if not coeff.is_zero:
            terms[m] = coeff
    return Element(ctx, EKF, terms)


def monomial_element(
    ctx: Context, quad: tuple[int, int, int, int], orientation: str = EKF
) -> Element:
    """Ingest a quadruple as an element, straightening if needed."""
    return reduce_monomial(ctx, quad, orientation)


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------


def _fe_binomial(c: int, a: int, weight: int, t: int) -> LaurentPoly:
    """The t-th coefficient of the divided-power commutation formula of U_v(gl_2).

    With 1_weight the idempotent on which K acts by v^weight, f^(c) e^(a)
    1_weight is the sum over t of [c-a-weight; t] e^(a-t) f^(c-t) 1_weight
    (Lusztig, *Introduction to Quantum Groups*, section 3.1).
    """
    return gauss_binomial(c - a - weight, t)


def _add_monomial_product(
    ctx: Context,
    m: Monomial,
    n: Monomial,
    scalar: LaurentPoly,
    terms: dict[Monomial, LaurentPoly],
) -> None:
    """Add scalar * m * n to ``terms`` for EKF monomials with m.b1 + m.c == n.b1 + n.a.

    (e^(a) K[b1,b2] f^(c)) (e^(a') K[b1',b2'] f^(c')) is the sum over t of
    [c-a'-w; t] [a+a'-t; a] [c+c'-t; c'] e^(a+a'-t) K[b1'-c+t, b2'+c-t] f^(c+c'-t)
    with w = b1' - b2': the middle f^(c) e^(a') commutes by :func:`_fe_binomial`,
    and the adjacent divided powers merge.  Terms whose idempotent index would
    be negative vanish; the rest are straightened by :func:`reduce_monomial`.
    """
    weight = n.b1 - n.b2
    for t in range(max(0, m.c - n.b1), min(m.c, n.a) + 1):
        coeff = (
            _fe_binomial(m.c, n.a, weight, t)
            * gauss_binomial(m.a + n.a - t, m.a)
            * gauss_binomial(m.c + n.c - t, n.c)
        )
        if coeff.is_zero:
            continue
        coeff = coeff * scalar
        b1 = n.b1 - m.c + t
        quad = (m.a + n.a - t, b1, ctx.d - b1, m.c + n.c - t)
        for mono, r in reduce_monomial(ctx, quad, EKF).terms.items():
            _add_term(terms, mono, r * coeff)


def multiply(x: Element, y: Element) -> Element:
    """The product x * y, summed term by term with the closed-form monomial product.

    A pair of EKF monomials e^(a) K[b1,b2] f^(c) and e^(a') K[b1',b2'] f^(c')
    multiplies to zero unless b1 + c = b1' + a', since the idempotents are
    orthogonal; no binomial is computed for such a pair.
    """
    x._require_compatible(y)
    if x.orientation == FKE:
        ex = _relabel(x, EKF)
        ey = _relabel(y, EKF)
        return _relabel(multiply(ex, ey), FKE)

    terms: dict[Monomial, LaurentPoly] = {}
    for m, u in x.terms.items():
        for n, w in y.terms.items():
            if m.b1 + m.c == n.b1 + n.a:
                _add_monomial_product(x.ctx, m, n, u * w, terms)
    return Element._raw(x.ctx, EKF, terms)


def _relabel(x: Element, target: str) -> Element:
    """Reinterpret term keys under the e<->f, K1<->K2 symmetry.

    This maps a representation of z in one basis to a representation of the
    automorphic image of z in the other basis, so it is a relabeling of
    keys, not a change of basis for a fixed element.
    """
    return Element._raw(
        x.ctx, target, {m.swapped(): coeff for m, coeff in x.terms.items()}
    )


# ---------------------------------------------------------------------------
# Orientation change and the K1-binomial basis
# ---------------------------------------------------------------------------


def _fke_to_ekf(x: Element) -> Element:
    """An FKE-basis element expanded in the EKF basis.

    f^(a) K[b1,b2] e^(c) is zero when b1 < a or b1 < c; otherwise it is the
    product of the EKF basis monomials K[b1-a,b2+a] f^(a) and e^(c) K[b1-c,b2+c].
    """
    terms: dict[Monomial, LaurentPoly] = {}
    for m, coeff in x.terms.items():
        if m.b1 >= m.a and m.b1 >= m.c:
            left = Monomial(0, m.b1 - m.a, m.b2 + m.a, m.a, EKF)
            right = Monomial(m.c, m.b1 - m.c, m.b2 + m.c, 0, EKF)
            _add_monomial_product(x.ctx, left, right, coeff, terms)
    return Element._raw(x.ctx, EKF, terms)


def convert_orientation(x: Element, target: str) -> Element:
    """Express the same algebra element in the other canonical basis.

    For FKE targets the symmetry automorphism reduces the computation to the
    EKF case: it carries x to an FKE-basis element, whose EKF expansion
    carried back gives x's FKE coordinates.
    """
    _check_orientation(target)
    if x.orientation == target:
        return x
    if target == EKF:
        return _fke_to_ekf(x)
    return _relabel(_fke_to_ekf(_relabel(x, FKE)), FKE)


def _kbinom_unit(ctx: Context, a: int, b: int, c: int) -> Element:
    """e^(a) [K1; b] f^(c) expanded into the EKF canonical basis."""
    result = zero_element(ctx)
    for b1, _ in ctx.idempotents:
        coeff = gauss_binomial(b1, b)
        if coeff.is_zero:
            continue
        result = result + reduce_monomial(ctx, (a, b1, ctx.d - b1, c), EKF).scale(coeff)
    return result


def _kbinom_order_key(triple: tuple[int, int, int]) -> tuple[int, int, int]:
    # Straightening strictly lowers height and the K1-binomial expansion
    # strictly raises the middle index, so this order makes the basis-change
    # matrix unitriangular.
    a, b, c = triple
    return (-(a + c), a, b)


def kbinom_index_set(ctx: Context) -> list[tuple[int, int, int]]:
    """Triples (a, b, c) with a + b + c <= d, in the triangular order."""
    d = ctx.d
    triples = [
        (a, b, c) for a in range(d + 1) for b in range(d - a + 1) for c in range(d - a - b + 1)
    ]
    triples.sort(key=_kbinom_order_key)
    return triples


def change_from_kbinom_basis(
    ctx: Context, coeffs: Mapping[tuple[int, int, int], LaurentPoly]
) -> Element:
    """Assemble sum coeff * e^(a) [K1; b] f^(c) as a canonical EKF element.

    Out-of-range triples (a + b + c > d) are legal; their expansions
    straighten into the canonical basis.
    """
    result = zero_element(ctx)
    for (a, b, c), coeff in coeffs.items():
        if a < 0 or b < 0 or c < 0:
            raise IndexOutOfRange(f"negative exponent in K-binomial triple ({a},{b},{c})")
        coeff = LaurentPoly.coerce(coeff)
        if coeff.is_zero:
            continue
        result = result + _kbinom_unit(ctx, a, b, c).scale(coeff)
    return result


def change_to_kbinom_basis(x: Element) -> dict[tuple[int, int, int], LaurentPoly]:
    """Coordinates of x in the basis e^(a) [K1; b] f^(c), a + b + c <= d.

    The change matrix is unitriangular in the order of
    :func:`kbinom_index_set`, so the coordinates are obtained by peeling:
    no division ever happens and the output stays in Z[v, v^-1].
    """
    if x.orientation != EKF:
        raise ContextMismatch("K-binomial coordinates are computed from the EKF basis")
    ctx = x.ctx
    residual = dict(x.terms)
    out: dict[tuple[int, int, int], LaurentPoly] = {}
    for a, b, c in kbinom_index_set(ctx):
        mono = Monomial(a, b, ctx.d - b, c, EKF)
        coeff = residual.get(mono)
        if coeff is None or coeff.is_zero:
            continue
        out[(a, b, c)] = coeff
        for m, u in _kbinom_unit(ctx, a, b, c).terms.items():
            n = residual.get(m, LaurentPoly.zero()) - u * coeff
            if n.is_zero:
                residual.pop(m, None)
            else:
                residual[m] = n
    if residual:
        raise RuntimeError("peeling left a nonzero residual; triangularity is broken")
    return out


# ---------------------------------------------------------------------------
# Random elements (for property tests and suites)
# ---------------------------------------------------------------------------


def random_element(
    ctx: Context,
    rng: random.Random,
    orientation: str = EKF,
    max_terms: int = 3,
    coeff_span: int = 2,
) -> Element:
    """A small random canonical element with monomial coefficients."""
    basis = ctx.monomials(orientation)
    n = rng.randint(1, max_terms)
    terms: dict[Monomial, LaurentPoly] = {}
    for _ in range(n):
        m = rng.choice(basis)
        coeff = LaurentPoly(
            {rng.randint(-coeff_span, coeff_span): rng.choice([-2, -1, 1, 2])}
        )
        _add_term(terms, m, coeff)
    return Element(ctx, orientation, terms)
