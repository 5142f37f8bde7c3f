"""Text grammar and JSON serialization for elements.

Grammar::

    element := term ('+' term)*
    term    := ['(' laurent ')' '*'] factor+
    factor  := 'e^(' nat ')' | 'K[' nat ',' nat ']' | 'f^(' nat ')'

Every term carries exactly one K factor, with the orientation's first generator
at most once before it and its last at most once after it (e, K, f for EKF;
f, K, e for FKE); an omitted e or f factor means power zero.
The bare string ``0`` denotes the zero element.  Parsing straightens
non-canonical monomials, so any well-formed input yields a canonical
element.
"""

from __future__ import annotations

import re

from .algebra import EKF, FKE, GENERATOR_ORDER, Context, Element, reduce_monomial, zero_element
from .laurent import LaurentPoly, _add_term, _is_int, parse_laurent


class ParseError(ValueError):
    """Malformed element text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def format_element(x: Element) -> str:
    """Canonical text form: terms sorted by (a, b1, c), joined with ' + '."""
    if x.is_zero:
        return "0"
    one = LaurentPoly.one()
    parts = []
    first, last = GENERATOR_ORDER[x.orientation]
    for m, coeff in x.sorted_terms():
        factors = []
        if m.a > 0:
            factors.append(f"{first}^({m.a})")
        factors.append(f"K[{m.b1},{m.b2}]")
        if m.c > 0:
            factors.append(f"{last}^({m.c})")
        body = " ".join(factors)
        if coeff == one:
            parts.append(body)
        else:
            parts.append(f"({coeff}) * {body}")
    return " + ".join(parts)


_FACTOR_RE = re.compile(
    r"(?P<gen>[ef])\^\(\s*(?P<pow>\d+)\s*\)|K\[\s*(?P<b1>\d+)\s*,\s*(?P<b2>\d+)\s*\]"
)
_SPACE_RE = re.compile(r"\s*")


def _add_reduced(acc: dict, ctx: Context, orientation: str, quad, coeff: LaurentPoly) -> None:
    """acc += coeff * reduce_monomial(quad), in place: the one way both parsers
    sum their terms, so an input of n terms costs time linear in n."""
    for m, c in reduce_monomial(ctx, quad, orientation).terms.items():
        _add_term(acc, m, c * coeff)


def _parse_term(text: str, start: int, end: int, orientation: str):
    """The (quad, coeff) pair of one term of the text grammar."""
    coeff = LaurentPoly.one()
    pos = _SPACE_RE.match(text, start, end).end()
    if pos < end and text[pos] == "(":
        # parse_element splits balanced text at depth zero, so the ")" is in this term.
        close = text.find(")", pos)
        try:
            coeff = parse_laurent(text[pos + 1 : close])
        except ValueError as exc:
            raise ParseError(f"bad coefficient: {exc}", pos + 1) from None
        pos = _SPACE_RE.match(text, close + 1, end).end()
        if not text.startswith("*", pos, end):
            raise ParseError("expected '*' after coefficient", pos)
        pos += 1

    first, last = GENERATOR_ORDER[orientation]
    a = pair = c = None
    while (pos := _SPACE_RE.match(text, pos, end).end()) < end:
        m = _FACTOR_RE.match(text, pos, end)
        if not m:
            raise ParseError("expected a factor like e^(1), K[0,1] or f^(1)", pos)
        gen = m["gen"]
        if gen == first and a is None and pair is None:
            a = int(m["pow"])
        elif gen == last and pair is not None and c is None:
            c = int(m["pow"])
        elif gen:
            raise ParseError(f"{gen} factor out of order for {orientation}", pos)
        elif pair is None:
            pair = (int(m["b1"]), int(m["b2"]))
        else:
            raise ParseError("duplicate K factor", pos)
        pos = m.end()
    if pair is None:
        raise ParseError("term is missing its K[b1,b2] factor", start)
    return (a or 0, *pair, c or 0), coeff


def parse_element(source: str | dict, ctx: Context, orientation: str = EKF) -> Element:
    """Parse the text grammar or the JSON object form into a canonical element."""
    if isinstance(source, dict):
        return element_from_json(source, ctx)
    text = source
    stripped = text.strip()
    if stripped == "0":
        return zero_element(ctx, orientation)
    if not stripped:
        raise ParseError("empty element text", 0)

    # Split on '+' at depth zero (coefficients live inside parentheses).
    depth = 0
    start = 0
    boundaries = []
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parenthesis", i)
        elif ch == "+" and depth == 0:
            boundaries.append((start, i))
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced parenthesis", len(text) - 1)
    boundaries.append((start, len(text)))
    acc: dict = {}
    for s, e in boundaries:
        if not text[s:e].strip():
            raise ParseError("empty term", s)
        _add_reduced(acc, ctx, orientation, *_parse_term(text, s, e, orientation))
    return Element._raw(ctx, orientation, acc)


def element_to_json(x: Element) -> dict:
    return {
        "d": x.ctx.d,
        "orientation": x.orientation,
        "terms": [
            {"a": m.a, "b1": m.b1, "b2": m.b2, "c": m.c, "coeff": coeff.to_json()}
            for m, coeff in x.sorted_terms()
        ],
    }


def element_json_text(x: Element, texts: dict | None = None) -> str:
    """Exactly ``json.dumps(element_to_json(x))``, written in one pass without the dicts.

    ``texts``, when given, holds across calls the text of each term's monomial,
    keyed by the ``Monomial``, and of each coefficient, keyed by the
    ``LaurentPoly``, so neither is formatted again.  The monomial key carries
    ``b2`` and the orientation, so one memo may serve elements of any degree.
    """
    if texts is None:
        texts = {}
    parts = []
    for m, coeff in x.sorted_terms():
        head = texts.get(m)
        if head is None:
            head = texts[m] = f'{{"a": {m.a}, "b1": {m.b1}, "b2": {m.b2}, "c": {m.c}, "coeff": ['
        text = texts.get(coeff)
        if text is None:
            text = texts[coeff] = ", ".join(f'[{e}, "{c}"]' for e, c in coeff.items())
        parts.append(f"{head}{text}]}}")
    terms = ", ".join(parts)
    return f'{{"d": {x.ctx.d}, "orientation": "{x.orientation}", "terms": [{terms}]}}'


def _json_int(obj, key: str, where: str) -> int:
    value = obj.get(key) if isinstance(obj, dict) else None
    if not _is_int(value):
        raise ParseError(f"{where} needs an integer {key!r}", 0)
    return value


def _json_coeff(obj, where: str) -> LaurentPoly:
    """A 'coeff' in the form :meth:`LaurentPoly.to_json` writes."""
    try:
        return LaurentPoly.from_json(obj.get("coeff") if isinstance(obj, dict) else None)
    except ValueError:
        raise ParseError(
            f"{where} needs a 'coeff' list of [exponent, coefficient] integer pairs", 0
        ) from None


def element_from_json(data: dict, ctx: Context | None = None) -> Element:
    """Build an element from the JSON object form; a malformed object raises ParseError."""
    d = _json_int(data, "d", "JSON element")
    if ctx is None:
        ctx = Context(d)
    elif ctx.d != d:
        raise ParseError(f"element degree {d} does not match context d={ctx.d}", 0)
    orientation = data.get("orientation", EKF)
    if orientation not in (EKF, FKE):
        raise ParseError(f"bad orientation {orientation!r}", 0)
    terms = data.get("terms")
    if not isinstance(terms, list):
        raise ParseError("JSON element needs a 'terms' list", 0)
    acc: dict = {}
    for i, t in enumerate(terms):
        where = f"JSON term {i}"
        quad = tuple(_json_int(t, key, where) for key in ("a", "b1", "b2", "c"))
        _add_reduced(acc, ctx, orientation, quad, _json_coeff(t, where))
    return Element._raw(ctx, orientation, acc)
