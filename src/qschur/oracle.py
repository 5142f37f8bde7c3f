"""Independent ground truth: an exact matrix representation of the algebra.

It is the direct sum of the Weyl modules L(d-k, k),
0 <= k <= d/2: over Q(v) the algebra is split semisimple with exactly these
simple modules, and the squares of their dimensions d-2k+1 sum to
C(d+3, 3), so the sum is faithful while its dimension is only
floor((d+2)^2/4).  Its generator images are the plain U_v(sl2) module
formulas, built from quantum integers alone, and every build is checked
against the defining relations before it is used.

Everything downstream of the symbolic algebra is checked against these
matrices with exact arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .algebra import GENERATOR_ORDER, ContextMismatch, Element
from .laurent import LaurentPoly, _add_term, _Combination, gauss_binomial, quantum_int


class CoproductCheckFailed(RuntimeError):
    """The built matrices fail the defining relations."""


class LaurentMatrix(_Combination):
    """A sparse square matrix with Laurent polynomial entries: a
    :class:`laurent._Combination` whose space is its size."""

    __slots__ = ("dim", "entries")

    def __init__(
        self,
        dim: int,
        entries: Mapping[tuple[int, int], LaurentPoly] | Iterable = (),
    ):
        self.dim = dim
        items = entries.items() if isinstance(entries, Mapping) else entries
        acc: dict[tuple[int, int], LaurentPoly] = {}
        for (r, c), val in items:
            if not (0 <= r < dim and 0 <= c < dim):
                raise IndexError(f"entry ({r},{c}) outside a {dim}x{dim} matrix")
            _add_term(acc, (r, c), LaurentPoly.coerce(val))
        self.entries = acc

    @staticmethod
    def _raw(dim: int, entries: dict[tuple[int, int], LaurentPoly]) -> LaurentMatrix:
        # Internal constructor for entry maps already free of zero entries.
        out = LaurentMatrix.__new__(LaurentMatrix)
        out.dim = dim
        out.entries = entries
        return out

    @staticmethod
    def identity(dim: int) -> LaurentMatrix:
        one = LaurentPoly.one()
        return LaurentMatrix(dim, {(i, i): one for i in range(dim)})

    @staticmethod
    def diagonal(values: list[LaurentPoly]) -> LaurentMatrix:
        return LaurentMatrix(len(values), {(i, i): x for i, x in enumerate(values)})

    def _map(self) -> dict[tuple[int, int], LaurentPoly]:
        return self.entries

    def _space(self) -> tuple[int]:
        return (self.dim,)

    def _require_compatible(self, other: LaurentMatrix) -> None:
        if self.dim != other.dim:
            raise ContextMismatch(f"sizes differ: {self.dim} vs {other.dim}")

    def __mul__(self, other: LaurentMatrix) -> LaurentMatrix:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        self._require_compatible(other)
        rows: dict[int, dict[int, LaurentPoly]] = {}
        for (r, c), val in other.entries.items():
            rows.setdefault(r, {})[c] = val
        acc: dict[tuple[int, int], LaurentPoly] = {}
        for (r, k), a in self.entries.items():
            row = rows.get(k)
            if not row:
                continue
            for c, b in row.items():
                _add_term(acc, (r, c), a * b)
        return LaurentMatrix._raw(self.dim, acc)

    def transpose(self) -> LaurentMatrix:
        return LaurentMatrix._raw(self.dim, {(c, r): v for (r, c), v in self.entries.items()})

    def diagonal_exponents(self) -> list[int]:
        """Exponents m with entry v^m on the diagonal; requires the matrix
        to be diagonal with unit monomial entries."""
        out = []
        for i in range(self.dim):
            val = self.entries.get((i, i))
            if val is None or len(val) != 1 or val.coefficient(val.degree()) != 1:
                raise ValueError("matrix is not diagonal with monomial entries")
            out.append(val.degree())
        if len(self.entries) != self.dim:
            raise ValueError("matrix has off-diagonal entries")
        return out


class OracleRep:
    """Exact generator matrices of one degree-d representation.

    :func:`build_rep` makes the direct sum of the Weyl modules; ``dim`` is
    read off the matrices.

    Immutable after construction apart from one cache, ``_dp_cache``: it
    holds the divided powers keyed by (gen, m), the idempotent projectors
    keyed by ("K", b1, b2), the basis words outer^(a) K[b1,b2] inner^(c)
    that :func:`matrix_of_element` has evaluated, keyed by
    ("word", monomial), and the heads outer^(a) middle of the words that
    :func:`_word_matrix` has built, keyed by ("head", orientation, a,
    frozenset of the middle's entries).  Each entry is a pure function of
    its key, so a concurrent duplicate fill is benign.

    Matrices handed out by this module, cached ones included, are shared:
    treat them and their ``entries`` as read-only.
    """

    def __init__(self, d, e, f, k1, k1_inv, k2, k2_inv):
        self.d, self.e, self.f = d, e, f
        self.k1, self.k1_inv, self.k2, self.k2_inv = k1, k1_inv, k2, k2_inv
        self._dp_cache: dict = {}

    @property
    def dim(self) -> int:
        return self.e.dim


def _build_weyl_matrices(d: int):
    """The generators on the direct sum of L(d-k, k), 0 <= k <= d/2.

    Block k has basis v_0..v_n with n = d-2k, and v_j has K1 exponent
    d-k-j and K2 exponent k+j; e v_j = [n-j+1] v_{j-1}, f v_j = [j+1] v_{j+1}.
    """
    e_entries: dict[tuple[int, int], LaurentPoly] = {}
    f_entries: dict[tuple[int, int], LaurentPoly] = {}
    k1_exps: list[int] = []
    k2_exps: list[int] = []
    for k in range(d // 2 + 1):
        n = d - 2 * k
        base = len(k1_exps)
        for j in range(n + 1):
            k1_exps.append(d - k - j)
            k2_exps.append(k + j)
            if j > 0:
                e_entries[(base + j - 1, base + j)] = quantum_int(n - j + 1)
            if j < n:
                f_entries[(base + j + 1, base + j)] = quantum_int(j + 1)
    dim = len(k1_exps)
    return (
        LaurentMatrix(dim, e_entries),
        LaurentMatrix(dim, f_entries),
        LaurentMatrix.diagonal([LaurentPoly.v(z) for z in k1_exps]),
        LaurentMatrix.diagonal([LaurentPoly.v(-z) for z in k1_exps]),
        LaurentMatrix.diagonal([LaurentPoly.v(o) for o in k2_exps]),
        LaurentMatrix.diagonal([LaurentPoly.v(-o) for o in k2_exps]),
    )


def build_rep(d: int) -> OracleRep:
    """The direct sum of the Weyl modules at degree d, checked before use.

    The defining relations are verified on the built matrices, and a failure
    aborts the build rather than returning a silently wrong oracle.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    rep = OracleRep(d, *_build_weyl_matrices(d))
    failed = [c for c in verify_defining_relations(rep)["checks"] if not c["pass"]]
    if failed:
        raise CoproductCheckFailed(
            f"Weyl modules fail {failed[0]['id']}: {failed[0]['witness']} "
            f"({len(failed)} relation checks failed)"
        )
    return rep


def matrix_of_divided_power(rep: OracleRep, gen: str, m: int) -> LaurentMatrix:
    """The matrix of e^(m) or f^(m): the m-th power divided by [m]!."""
    if gen not in ("e", "f"):
        raise ValueError(f"generator must be 'e' or 'f', got {gen!r}")
    if m < 0:
        raise ValueError("divided-power exponent must be nonnegative")
    key = (gen, m)
    cached = rep._dp_cache.get(key)
    if cached is not None:
        return cached
    if m == 0:
        result = LaurentMatrix.identity(rep.dim)
    else:
        # X^(m) = X^(m-1) * X / [m]
        base = rep.e if gen == "e" else rep.f
        result = (matrix_of_divided_power(rep, gen, m - 1) * base).exact_div_scalar(
            quantum_int(m)
        )
    rep._dp_cache[key] = result
    return result


def diagonal_kbinom(matrix: LaurentMatrix, t: int) -> LaurentMatrix:
    """The K-binomial [K; t] of an invertible diagonal matrix K with entries v^m.

    Entrywise this is the Gaussian binomial [m; t].
    """
    exps = matrix.diagonal_exponents()
    return LaurentMatrix.diagonal([gauss_binomial(m, t) for m in exps])


def idempotent_projector(rep: OracleRep, b1: int, b2: int) -> LaurentMatrix:
    """The image of K[b1,b2]: a 0/1 diagonal projector onto a weight space.

    Built and checked once per representation, then served from its cache.
    """
    key = ("K", b1, b2)
    cached = rep._dp_cache.get(key)
    if cached is not None:
        return cached
    proj = diagonal_kbinom(rep.k1, b1) * diagonal_kbinom(rep.k2, b2)
    for (r, c), val in proj.entries.items():
        if r != c or val != LaurentPoly.one():
            raise RuntimeError("idempotent image is not a 0/1 projector")
    rep._dp_cache[key] = proj
    return proj


def _word_matrix(rep: OracleRep, orientation: str, a: int, middle: LaurentMatrix, c: int):
    """The matrix of the word outer^(a) middle inner^(c), with outer, inner
    e, f for EKF and f, e for FKE, around a diagonal ``middle``: the
    projector of K[b1,b2] for a monomial's word, canonical or not, or a
    K-binomial."""
    outer, inner = GENERATOR_ORDER[orientation]
    # Words that differ only in c share the head; head * inner^(c) is the same product.
    key = ("head", orientation, a, frozenset(middle.entries.items()))
    head = rep._dp_cache.get(key)
    if head is None:
        head = rep._dp_cache[key] = matrix_of_divided_power(rep, outer, a) * middle
    return head * matrix_of_divided_power(rep, inner, c)


def matrix_of_element(rep: OracleRep, x: Element) -> LaurentMatrix:
    """Evaluate a symbolic element to its matrix: the sum over its terms of
    coeff * outer^(a) K[b1,b2] inner^(c)."""
    if x.ctx.d != rep.d:
        raise ContextMismatch(f"element degree {x.ctx.d} differs from oracle degree {rep.d}")
    acc: dict[tuple[int, int], LaurentPoly] = {}
    for m, coeff in x.terms.items():
        # The monomial carries its orientation, so it alone keys its word.
        key = ("word", m)
        word = rep._dp_cache.get(key)
        if word is None:
            projector = idempotent_projector(rep, m.b1, m.b2)
            word = rep._dp_cache[key] = _word_matrix(rep, m.orientation, m.a, projector, m.c)
        for cell, val in word.entries.items():
            _add_term(acc, cell, val * coeff)
    return LaurentMatrix._raw(rep.dim, acc)


def contravariant_form(rep: OracleRep) -> LaurentMatrix:
    """The diagonal D with D M(tau x) = M(x)^T D for every element x.

    tau is :func:`algebra.anti_involution`.  D is read off the generators:
    walked by column, each entry f[r,c] sets D[r] = D[c] e[c,r] / f[r,c],
    divided exactly, if no earlier one has; D is 1 on the vectors that f
    does not reach.  A zero entry raises ValueError, so D is invertible;
    the identity itself is for the caller to check.  On the Weyl modules,
    block k's v_j gets [d-2k; j].

    >>> form = contravariant_form(build_rep(2))
    >>> [str(form.entries[i, i]) for i in range(form.dim)]
    ['1', 'v + v^-1', '1', '1']
    """
    values = [LaurentPoly.one()] * rep.dim
    reached = set()
    for (r, c), val in sorted(rep.f.entries.items(), key=lambda kv: kv[0][::-1]):
        if r not in reached:
            reached.add(r)
            up = rep.e.entries.get((c, r), LaurentPoly.zero())
            values[r] = (values[c] * up).exact_div(val)
    form = LaurentMatrix.diagonal(values)
    if len(form.entries) != rep.dim:
        raise ValueError("the contravariant form has a zero entry")
    return form


# ---------------------------------------------------------------------------
# Exact rank
# ---------------------------------------------------------------------------


def span_rank(matrices: list[LaurentMatrix]) -> int:
    """The rank over Q(v) of a set of matrices, each flattened to a vector.

    Certification is fully symbolic: rows with disjoint column support are
    split into independent groups and each group is reduced by one-step
    fraction-free elimination, whose divisions are exact in Z[v, v^-1].
    """
    rows = [m.entries for m in matrices if m.entries]
    if not rows:
        return 0
    # Group rows that share any column (union-find keyed through columns).
    parent = list(range(len(rows)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    col_owner: dict[tuple[int, int], int] = {}
    for i, row in enumerate(rows):
        for col in row:
            j = col_owner.setdefault(col, i)
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups: dict[int, list[dict]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(find(i), []).append(row)
    return sum(_fraction_free_rank(g) for g in groups.values())


def _fraction_free_rank(rows: list[dict[tuple[int, int], LaurentPoly]]) -> int:
    """One-step fraction-free elimination (Bareiss) on sparse rows."""
    active = [dict(r) for r in rows]
    prev_pivot = LaurentPoly.one()
    rank = 0
    while active:
        # Smallest row first, then its simplest entry, keeps fill-in low.
        idx = min(range(len(active)), key=lambda i: len(active[i]))
        pivot_row = active.pop(idx)
        pivot_col, pivot = min(
            pivot_row.items(), key=lambda kv: (len(kv[1]), kv[0])
        )
        rank += 1
        next_active = []
        for row in active:
            mult = row.pop(pivot_col, None)
            new_row: dict[tuple[int, int], LaurentPoly] = {}
            cols = set(row)
            if mult is not None:
                cols |= set(pivot_row)
                cols.discard(pivot_col)
            for col in cols:
                val = pivot * row.get(col, LaurentPoly.zero())
                if mult is not None:
                    val = val - mult * pivot_row.get(col, LaurentPoly.zero())
                val = val.exact_div(prev_pivot)
                if not val.is_zero:
                    new_row[col] = val
            if new_row:
                next_active.append(new_row)
        active = next_active
        prev_pivot = pivot
    return rank


# ---------------------------------------------------------------------------
# Checks and relation verification
# ---------------------------------------------------------------------------


def _report(d: int, suite: str, checks: list[dict]) -> dict:
    """The report schema shared by every suite."""
    return {"d": d, "suite": suite, "checks": checks, "pass": all(c["pass"] for c in checks)}


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


def _differs(lhs: _Combination, rhs: _Combination) -> str | None:
    """None if lhs == rhs, else a witness naming the smallest key where they
    differ, a monomial or a cell, with both coefficients there."""
    if lhs == rhs:
        return None
    key = min((lhs - rhs)._map())
    zero = LaurentPoly.zero()
    return f"at {key!r}: {lhs._map().get(key, zero)} != {rhs._map().get(key, zero)}"


def _first_difference(cases: Iterable) -> str | None:
    """None if lhs == rhs in every (instance, lhs, rhs) case, else
    ``<instance>: <_differs witness>`` for the first case that differs; no
    case after it is read, and only its instance is formatted."""
    for instance, lhs, rhs in cases:
        witness = _differs(lhs, rhs)
        if witness is not None:
            return f"{instance}: {witness}"
    return None


def _minimal_poly(ident, base, roots):
    """The product of (base - v^r) over the roots, in the ring whose unit is ident.

    Serves both LaurentMatrix values and the suites' Elements: any
    :class:`laurent._Combination` with a product.
    """
    acc = ident
    for r in roots:
        acc = acc * (base - ident.scale(LaurentPoly.v(r)))
    return acc


def verify_defining_relations(rep: OracleRep) -> dict:
    """Check the presentation relations as exact matrix identities.

    Each check builds its own sides, so a product that raises, such as a
    commutator numerator not divisible by v - v^-1, fails that check.
    """
    checks: list[dict] = []
    ident = LaurentMatrix.identity(rep.dim)
    zero = LaurentMatrix(rep.dim)
    v = LaurentPoly.v
    e, f, k1, k1i, k2, k2i = rep.e, rep.f, rep.k1, rep.k1_inv, rep.k2, rep.k2_inv

    _run(checks, "k1-k2-commute", lambda: _differs(k1 * k2, k2 * k1))
    _run(checks, "k1-inverse", lambda: _differs(k1 * k1i, ident))
    _run(checks, "k2-inverse", lambda: _differs(k2 * k2i, ident))
    _run(checks, "k1-conj-e", lambda: _differs(k1 * e * k1i, e.scale(v(1))))
    _run(checks, "k1-conj-f", lambda: _differs(k1 * f * k1i, f.scale(v(-1))))
    _run(checks, "k2-conj-e", lambda: _differs(k2 * e * k2i, e.scale(v(-1))))
    _run(checks, "k2-conj-f", lambda: _differs(k2 * f * k2i, f.scale(v(1))))
    _run(
        checks,
        "ef-commutator",
        lambda: _differs(e * f - f * e, (k1 * k2i - k1i * k2).exact_div_scalar(v(1) - v(-1))),
    )
    _run(checks, "k1k2-central-scalar", lambda: _differs(k1 * k2, ident.scale(v(rep.d))))
    roots = range(rep.d + 1)
    _run(checks, "k1-minimal-poly", lambda: _differs(_minimal_poly(ident, k1, roots), zero))
    return _report(rep.d, "defining-relations", checks)
