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

from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import cached_property
from itertools import takewhile

from .laurent import LaurentPoly, _add_term, _Combination, gauss_binomial

EKF = "EKF"
FKE = "FKE"
# The divided powers left and right of the idempotent, per orientation.
GENERATOR_ORDER = {EKF: ("e", "f"), FKE: ("f", "e")}


class IndexOutOfRange(ValueError):
    """An idempotent index or monomial exponent violates its constraints."""


class ContextMismatch(ValueError):
    """Operands live in different contexts or bases."""


class Monomial(namedtuple("Monomial", "a b1 b2 c orientation", defaults=(EKF,))):
    """A monomial e^(a) K[b1,b2] f^(c), or f^(a) K[b1,b2] e^(c) for FKE.

    It sits between two idempotents: ``left`` and ``right`` are the K1
    indices of the idempotents K[left, d-left] and K[right, d-right] with
    K[left, d-left] * m = m = m * K[right, d-right].  Since the idempotents
    are orthogonal, m * n is zero unless ``m.right == n.left``.

    A named tuple: it equals and hashes as ``(a, b1, b2, c, orientation)``.
    """

    __slots__ = ()

    @property
    def left(self) -> int:
        """K1 index of the idempotent on the left: e^(a) K[b1,b2] = K[b1+a, b2-a] e^(a)."""
        return self.b1 + self.a if self.orientation == EKF else self.b1 - self.a

    @property
    def right(self) -> int:
        """K1 index of the idempotent on the right: K[b1,b2] f^(c) = f^(c) K[b1+c, b2-c]."""
        return self.b1 + self.c if self.orientation == EKF else self.b1 - self.c

    @property
    def fake_degree(self) -> int:
        middle = self.b1 if self.orientation == EKF else self.b2
        return self.a + middle + self.c

    def swapped(self) -> Monomial:
        """Image under the e<->f, K1<->K2 symmetry, relabeled to the other basis."""
        target = FKE if self.orientation == EKF else EKF
        return Monomial(self.a, self.b2, self.b1, self.c, target)


class Context:
    """Fixed degree d with its idempotent index set.

    Immutable after construction apart from three memos: the canonical basis
    per orientation; the canonical form of each EKF monomial that
    :func:`reduce_monomial` has met, keyed by ``(a, b1, c)`` and held as a
    tuple of ``(Monomial, LaurentPoly)`` pairs (an FKE reduction is its EKF
    mirror's, relabelled, so it stores nothing of its own); and the EKF
    expansion of each K-binomial unit e^(a) [K1; b] f^(c) met, keyed by
    ``(a, b, c)``.  An expansion that raises stores nothing, and all three
    die with the context, so one ``verify`` run, whose suites share a
    context, fills each once.  A context is safe to share across threads: each
    memo entry is a pure function of the context and its key, so a duplicate
    fill from two threads is harmless.  The idempotent pairs are built on
    first read, so a context costs O(1) until something walks them.
    """

    def __init__(self, d: int):
        if d < 0:
            raise IndexOutOfRange(f"degree must be nonnegative, got {d}")
        self.d = d
        self._basis: dict[str, tuple[Monomial, ...]] = {}
        self._straightened: dict[
            tuple[int, int, int], tuple[tuple[Monomial, LaurentPoly], ...]
        ] = {}
        self._kbinom_units: dict[tuple[int, int, int], Element] = {}

    @cached_property
    def idempotents(self) -> list[tuple[int, int]]:
        """The pairs (b1, b2) with b1 + b2 = d, by b1 ascending."""
        return [(b1, self.d - b1) for b1 in range(self.d + 1)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Context):
            return NotImplemented
        return type(self) is type(other) and self.d == other.d

    def __hash__(self) -> int:
        return hash(self.d)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(d={self.d})"

    def check_pair(self, b1: int, b2: int) -> tuple[int, int]:
        if b1 < 0 or b2 < 0 or b1 + b2 != self.d:
            raise IndexOutOfRange(
                f"idempotent indices ({b1},{b2}) must be nonnegative with sum {self.d}"
            )
        return (b1, b2)

    def is_canonical(self, m: Monomial) -> bool:
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
                    # Canonicity only fails more as c grows.
                    run = (Monomial(a, b1, d - b1, c, orientation) for c in range(d + 1))
                    out.extend(takewhile(self.is_canonical, run))
            basis = self._basis[orientation] = tuple(out)
        return list(basis)

    def _straighten(self, m: Monomial) -> Element:
        """A non-canonical EKF monomial of defect s, straightened in the canonical basis.

        It is the sum over k = s..min(a,c) of (-1)^(k-s) [k-1; s-1] [b1+k; k]
        e^(a-k) K[b1+k,b2-k] f^(c-k).
        """
        s = m.fake_degree - self.d
        terms: dict[Monomial, LaurentPoly] = {}
        for k in range(s, min(m.a, m.c) + 1):
            coeff = gauss_binomial(k - 1, s - 1) * gauss_binomial(m.b1 + k, k)
            if (k - s) % 2:
                coeff = -coeff
            n = Monomial(m.a - k, m.b1 + k, m.b2 - k, m.c - k, EKF)
            if n.b2 < 0 or not self.is_canonical(n):
                raise RuntimeError(f"straightening emitted the non-canonical monomial {n}")
            if not coeff.is_zero:
                terms[n] = coeff
        return Element._raw(self, EKF, terms)


def _check_orientation(orientation: str) -> None:
    if orientation not in (EKF, FKE):
        raise ValueError(f"orientation must be {EKF!r} or {FKE!r}, got {orientation!r}")


class Element(_Combination):
    """A finite Z[v, v^-1]-linear combination of canonical monomials: a
    :class:`laurent._Combination` whose space is its (context, orientation)."""

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
            _add_term(acc, m, LaurentPoly.coerce(coeff))
        self.ctx = ctx
        self.orientation = orientation
        self.terms = acc

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, LaurentPoly]]:
        # The keys share one orientation and b1 + b2 = d: tuple order is (a, b1, c) order.
        return sorted(self.terms.items())

    def coefficient(self, m: Monomial) -> LaurentPoly:
        return self.terms.get(m, LaurentPoly.zero())

    def __repr__(self) -> str:
        from .textio import format_element

        return f"Element(d={self.ctx.d}, {self.orientation}, '{format_element(self)}')"

    # -- linear operations -------------------------------------------------

    def _map(self) -> dict[Monomial, LaurentPoly]:
        return self.terms

    def _space(self) -> tuple[Context, str]:
        return self.ctx, self.orientation

    def _require_compatible(self, other: Element) -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatch(f"contexts differ: {self.ctx!r} vs {other.ctx!r}")
        if self.orientation != other.orientation:
            raise ContextMismatch(
                f"orientations differ: {self.orientation} vs {other.orientation}"
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


def _diagonal_element(ctx: Context, coeff, orientation: str = EKF) -> Element:
    """The degree-zero element: the sum of coeff(b1, b2) * K[b1,b2] over the idempotents."""
    return Element(
        ctx,
        orientation,
        {Monomial(0, b1, b2, 0, orientation): coeff(b1, b2) for b1, b2 in ctx.idempotents},
    )


def identity_element(ctx: Context, orientation: str = EKF) -> Element:
    """The sum of all idempotents K[b1,b2] with b1 + b2 = d."""
    return _diagonal_element(ctx, lambda b1, b2: LaurentPoly.one(), orientation)


def idempotent_element(ctx: Context, b1: int, b2: int, orientation: str = EKF) -> Element:
    ctx.check_pair(b1, b2)
    return Element(ctx, orientation, {Monomial(0, b1, b2, 0, orientation): LaurentPoly.one()})


# The weight w of K1, K2 and K = v^-d K1^2 = K1 K2^-1 on K[b1,b2], which each acts on by v^w.
_K_WEIGHTS = {"K1": lambda b1, b2: b1, "K2": lambda b1, b2: b2, "K": lambda b1, b2: b1 - b2}


def k_element(ctx: Context, which: str, orientation: str = EKF) -> Element:
    """The elements K1, K2, their inverses, and K = v^-d K1^2 (with inverse).

    Each is diagonal in the idempotent basis: K1, K2 and K act on K[b1,b2]
    by v^w with w = b1, b2 and b1 - b2 (``_K_WEIGHTS``), an inverse by v^-w.
    """
    name = which.removesuffix("inv")
    if name not in _K_WEIGHTS:
        raise ValueError(f"unknown K-type element {which!r}")
    weight, sign = _K_WEIGHTS[name], (1 if name == which else -1)
    return _diagonal_element(ctx, lambda b1, b2: LaurentPoly.v(sign * weight(b1, b2)), orientation)


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
# Straightening
# ---------------------------------------------------------------------------


def _checked_monomial(ctx: Context, quad: tuple[int, int, int, int], orientation: str) -> Monomial:
    """The monomial of a quadruple whose orientation, exponents and idempotent pair are valid."""
    a, b1, b2, c = quad
    _check_orientation(orientation)
    if a < 0 or c < 0:
        raise IndexOutOfRange(f"divided-power exponents must be nonnegative: ({a},{c})")
    ctx.check_pair(b1, b2)
    return Monomial(a, b1, b2, c, orientation)


def reduction_defect(ctx: Context, quad: tuple[int, int, int, int], orientation: str = EKF) -> int:
    """The amount s by which a monomial's fake degree exceeds d."""
    return _checked_monomial(ctx, quad, orientation).fake_degree - ctx.d


def reduce_monomial(
    ctx: Context, quad: tuple[int, int, int, int], orientation: str = EKF
) -> Element:
    """A monomial in the canonical basis: itself if canonical, else :meth:`Context._straighten`.

    An FKE quadruple is validated as given, then reduced through the e<->f,
    K1<->K2 symmetry: its reduction is that of its EKF mirror (a, b2, b1, c),
    relabelled.  Each EKF monomial is reduced once per context, whose memo
    holds EKF entries only, keyed ``(a, b1, c)`` (see :class:`Context`); one
    whose straightening raises is not stored.  A key is stored only after its
    quadruple is validated, so a memo hit checks b2 = d - b1 alone.  No step
    walks the idempotents, which the context builds on first read, so a
    reduction costs no O(d) state.
    """
    a, b1, b2, c = quad
    if orientation != EKF:
        _checked_monomial(ctx, quad, orientation)
        return _relabel(reduce_monomial(ctx, (a, b2, b1, c)), FKE)
    terms = ctx._straightened.get((a, b1, c))
    if terms is None or b2 != ctx.d - b1:
        mono = _checked_monomial(ctx, quad, EKF)
        if ctx.is_canonical(mono):
            terms = ((mono, LaurentPoly.one()),)
        else:
            terms = tuple(ctx._straighten(mono).terms.items())
        ctx._straightened[a, b1, c] = terms
    return Element._raw(ctx, EKF, dict(terms))


def _add_reduced(acc: dict, ctx: Context, orientation: str, quad, coeff: LaurentPoly) -> None:
    """acc += coeff * reduce_monomial(quad), in place: the one way the parsers
    and the K-binomial units sum straightened monomials, so an input of n
    terms costs time linear in n."""
    for m, c in reduce_monomial(ctx, quad, orientation).terms.items():
        _add_term(acc, m, c * coeff)


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
    """Add scalar * m * n to ``terms`` for EKF monomials with m.right == n.left.

    (e^(a) K[b1,b2] f^(c)) (e^(a') K[b1',b2'] f^(c')) is the sum over t of
    [c-a'-w; t] [a+a'-t; a] [c+c'-t; c'] e^(a+a'-t) K[b1'-c+t, b2'+c-t] f^(c+c'-t)
    with w = b1' - b2': the middle f^(c) e^(a') commutes by :func:`_fe_binomial`,
    and the adjacent divided powers merge.  Terms whose idempotent index would
    be negative vanish; the rest are straightened by :func:`reduce_monomial`,
    whose memo is read here directly.

    [a+a'-t; a] is 1 when a = 0 or a' = t, and [c+c'-t; c'] is 1 when c' = 0
    or c = t, so neither is computed then; nor is a product by the shared
    unit.  ``scalar`` must be nonzero, as every coefficient of an element is.
    """
    one = LaurentPoly.one()
    straightened = ctx._straightened
    a, _, _, c, _ = m
    a2, b1, b2, c2, _ = n
    weight = b1 - b2
    for t in range(max(0, c - b1), min(c, a2) + 1):
        coeff = _fe_binomial(c, a2, weight, t)
        if coeff.is_zero:
            continue
        if a and a2 != t:
            coeff = coeff * gauss_binomial(a + a2 - t, a)
        if c2 and c != t:
            coeff = coeff * gauss_binomial(c + c2 - t, c2)
        if scalar is not one:
            coeff = coeff * scalar
        a3, b3, c3 = a + a2 - t, b1 - c + t, c + c2 - t
        reduced = straightened.get((a3, b3, c3))
        if reduced is None:
            reduced = reduce_monomial(ctx, (a3, b3, ctx.d - b3, c3)).terms.items()
        for mono, r in reduced:
            r = coeff if r is one else r * coeff
            if mono in terms:
                _add_term(terms, mono, r)
            else:
                terms[mono] = r


def multiply(x: Element, y: Element) -> Element:
    """The product x * y, summed term by term with the closed-form monomial product.

    A pair of EKF monomials m, n multiplies to zero unless
    ``m.right == n.left`` (b1 + c = b1' + a'), since the idempotents are
    orthogonal; y's terms are filed by ``left`` once, so such a pair is never
    visited and no binomial is computed for it.  Both ends are read as their
    EKF sums, the only orientation multiplied here.
    """
    ctx = x.ctx
    if ctx is not y.ctx or x.orientation != y.orientation:
        x._require_compatible(y)
    if x.orientation == FKE:
        return _relabel(multiply(_relabel(x, EKF), _relabel(y, EKF)), FKE)

    starting_at: dict[int, list[tuple[Monomial, LaurentPoly]]] = {}
    for n, w in y.terms.items():
        starting_at.setdefault(n.b1 + n.a, []).append((n, w))
    terms: dict[Monomial, LaurentPoly] = {}
    for m, u in x.terms.items():
        for n, w in starting_at.get(m.b1 + m.c, ()):
            _add_monomial_product(ctx, m, n, u * w, terms)
    return Element._raw(ctx, EKF, terms)


def _relabel(x: Element, target: str) -> Element:
    """Reinterpret term keys under the e<->f, K1<->K2 symmetry.

    This maps a representation of z in one basis to a representation of the
    automorphic image of z in the other basis, so it is a relabeling of
    keys, not a change of basis for a fixed element.
    """
    return Element._raw(
        x.ctx, target, {m.swapped(): coeff for m, coeff in x.terms.items()}
    )


def anti_involution(x: Element) -> Element:
    """The image of x under the anti-automorphism that fixes K1, K2 and swaps e with f.

    It maps e^(a) K[b1,b2] f^(c) to e^(c) K[b1,b2] f^(a), and f^(a) K[b1,b2] e^(c)
    to f^(c) K[b1,b2] e^(a), with the same coefficient, so it is its own inverse
    and multiply(x, y) equals anti_involution(multiply(anti_involution(y),
    anti_involution(x))).

    >>> ctx = Context(2)
    >>> anti_involution(reduce_monomial(ctx, (1, 1, 1, 0)))
    Element(d=2, EKF, 'K[1,1] f^(1)')
    """
    return Element._raw(
        x.ctx,
        x.orientation,
        {Monomial(m.c, m.b1, m.b2, m.a, m.orientation): coeff for m, coeff in x.terms.items()},
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
    """e^(a) [K1; b] f^(c) expanded into the EKF canonical basis, once per context."""
    unit = ctx._kbinom_units.get((a, b, c))
    if unit is None:
        terms: dict[Monomial, LaurentPoly] = {}
        for b1, b2 in ctx.idempotents:
            coeff = gauss_binomial(b1, b)
            if not coeff.is_zero:
                _add_reduced(terms, ctx, EKF, (a, b1, b2, c), coeff)
        unit = ctx._kbinom_units[(a, b, c)] = Element._raw(ctx, EKF, terms)
    return unit


def kbinom_index_set(ctx: Context) -> list[tuple[int, int, int]]:
    """Triples (a, b, c) with a + b + c <= d, by height a + c descending, then a, then b.

    Straightening strictly lowers height and the K1-binomial expansion
    strictly raises the middle index, so this order makes the basis-change
    matrix unitriangular.
    """
    d = ctx.d
    heights = range(d, -1, -1)
    return [(a, b, h - a) for h in heights for a in range(h + 1) for b in range(d - h + 1)]


def change_from_kbinom_basis(
    ctx: Context, coeffs: Mapping[tuple[int, int, int], LaurentPoly]
) -> Element:
    """Assemble sum coeff * e^(a) [K1; b] f^(c) as a canonical EKF element.

    Out-of-range triples (a + b + c > d) are legal; their expansions
    straighten into the canonical basis.
    """
    terms: dict[Monomial, LaurentPoly] = {}
    for (a, b, c), coeff in coeffs.items():
        if a < 0 or b < 0 or c < 0:
            raise IndexOutOfRange(f"negative exponent in K-binomial triple ({a},{b},{c})")
        coeff = LaurentPoly.coerce(coeff)
        if coeff.is_zero:
            continue
        for m, u in _kbinom_unit(ctx, a, b, c).terms.items():
            _add_term(terms, m, u * coeff)
    return Element._raw(ctx, EKF, terms)


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
        coeff = residual.get(Monomial(a, b, ctx.d - b, c, EKF))
        if coeff is None:
            continue
        out[(a, b, c)] = coeff
        for m, u in _kbinom_unit(ctx, a, b, c).terms.items():
            _add_term(residual, m, -(u * coeff))
    if residual:
        raise RuntimeError("peeling left a nonzero residual; triangularity is broken")
    return out

