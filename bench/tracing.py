"""Outside-in span recording for a traced benchmark sample.

``install()`` wraps the public functions of each qschur layer at every place
they are bound: the defining module, every other qschur module that imported
the function by name, and the class for methods.  Spans are aggregated in
memory per (parent span, span) edge with call count, total time and self time
(total minus the time covered by child spans), so memory stays bounded even
when a sample makes millions of Laurent multiplications.

``layer_metrics()`` turns one sample's snapshot into the benchmark's per-layer
metrics.  Nothing here is imported by qschur itself; an untraced sample never
loads this module.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

ROOT = "<root>"
# Columns of a snapshot edge: [parent, name, calls, total_ns, self_ns].
CALLS, TOTAL, SELF = 2, 3, 4

# Spans a workload is expected to enter; a traced sample in which any of them
# records zero calls fails, because its wrapper did not take effect.
EXPECTED_SPANS = {
    "table": (
        "laurent.mul",
        "laurent.exact_div",
        "laurent.gauss_binomial",
        "algebra.multiply",
        "algebra.reduce_monomial",
        "textio.element_to_json",
    ),
    "verify": (
        "laurent.mul",
        "laurent.exact_div",
        "laurent.gauss_binomial",
        "algebra.multiply",
        "algebra.reduce_monomial",
        "algebra.convert_orientation",
        "algebra.change_to_kbinom_basis",
        "algebra.change_from_kbinom_basis",
        "oracle.build_rep",
        "oracle.matrix_mul",
        "oracle.matrix_of_element",
        "oracle.span_rank",
        "suites.relations",
        "suites.idempotents",
        "suites.reduction",
        "suites.basis",
        "suites.oracle",
        "suites.lusztig",
    ),
    "session": (
        "laurent.mul",
        "laurent.exact_div",
        "laurent.gauss_binomial",
        "algebra.multiply",
        "algebra.reduce_monomial",
        "algebra.convert_orientation",
        "algebra.change_to_kbinom_basis",
        "algebra.change_from_kbinom_basis",
    ),
}

SUITE_NAMES = ("relations", "idempotents", "reduction", "basis", "oracle", "lusztig")

# Per-layer metrics: name -> unit.  "*.s" is self time (children excluded),
# except "suites.<name>.s", which is the suite's whole duration.
LAYER_METRICS = {
    "laurent.mul.calls": "count",
    "laurent.mul.s": "s",
    "laurent.mul.term_products": "count",
    "laurent.exact_div.calls": "count",
    "laurent.exact_div.s": "s",
    "laurent.gauss_binomial.calls": "count",
    "laurent.gauss_binomial.hit_ratio": "ratio",
    "algebra.multiply.calls": "count",
    "algebra.multiply.s": "s",
    "algebra.multiply.zero_frac": "ratio",
    "algebra.multiply.zero_s": "s",
    "algebra.reduce_monomial.calls": "count",
    "algebra.reduce_monomial.s": "s",
    "algebra.convert_orientation.s": "s",
    "algebra.kbinom.s": "s",
    "oracle.build_rep.calls": "count",
    "oracle.build_rep.s": "s",
    "oracle.matrix_mul.calls": "count",
    "oracle.matrix_mul.s": "s",
    "oracle.matrix_mul.entry_products": "count",
    "oracle.matrix_of_element.calls": "count",
    "oracle.matrix_of_element.s": "s",
    "oracle.span_rank.s": "s",
    **{f"suites.{name}.s": "s" for name in SUITE_NAMES},
    "suites.checks": "count",
    "suites.checks_failed": "count",
    "textio.element_to_json.s": "s",
}


class Tracer:
    """Aggregated span edges plus the counters measured at the same boundaries."""

    def __init__(self):
        self.stack = [[ROOT, 0]]  # open spans: [name, nanoseconds covered by children]
        self.edges: dict[tuple[str, str], list[int]] = {}  # -> [calls, total_ns, self_ns]
        self.counters: dict[str, int] = {}
        self.caches: list = []

    def wrap(self, name: str, fn, observe=None, name_of=None):
        """A wrapper recording one span per call.

        ``observe(args, result, ns)`` updates counters inside the span, so its
        cost is charged to the span; ``name_of(args, kwargs)`` names the span
        per call.
        """
        stack, edges = self.stack, self.edges

        def traced(*args, **kwargs):
            span = name if name_of is None else name_of(args, kwargs)
            frame = [span, 0]
            parent = stack[-1]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result, perf_counter_ns() - t0)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                parent[1] += dt
                rec = edges.get((parent[0], span))
                if rec is None:
                    rec = edges[(parent[0], span)] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def snapshot(self) -> dict:
        counters = dict(self.counters)
        for key, fn in self.caches:
            info = fn.cache_info()
            counters[f"{key}.hits"] = info.hits
            counters[f"{key}.misses"] = info.misses
        return {
            "edges": [[p, n, *rec] for (p, n), rec in sorted(self.edges.items())],
            "counters": counters,
        }


def _rebind(original, replacement) -> None:
    """Replace every module-level binding of ``original`` in qschur's modules."""
    bound = 0
    for modname, module in list(sys.modules.items()):
        if modname != "qschur" and not modname.startswith("qschur."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    if not bound:
        raise RuntimeError(f"{original!r} is bound nowhere in qschur")


def install() -> Tracer:
    """Wrap every traced layer function in the running process."""
    import qschur.cli  # noqa: F401  (loads every module that binds layer functions)
    from qschur import algebra, laurent, oracle, suites, textio

    tracer = Tracer()
    count = tracer.count

    def mul_observe(args, result, ns):
        other = args[1]
        width = len(other._terms) if isinstance(other, laurent.LaurentPoly) else 1
        count("laurent.mul.term_products", len(args[0]._terms) * width)

    poly = laurent.LaurentPoly
    poly.__mul__ = tracer.wrap("laurent.mul", poly.__mul__, mul_observe)
    poly.__rmul__ = tracer.wrap("laurent.mul", poly.__rmul__, mul_observe)
    poly.exact_div = tracer.wrap("laurent.exact_div", poly.exact_div)
    matrix = oracle.LaurentMatrix
    matrix.__mul__ = tracer.wrap("oracle.matrix_mul", matrix.__mul__)

    gauss = laurent.gauss_binomial
    tracer.caches.append(("laurent.gauss_binomial", gauss))
    _rebind(gauss, tracer.wrap("laurent.gauss_binomial", gauss))

    def multiply_observe(args, result, ns):
        if result.is_zero:
            count("algebra.multiply.zero", 1)
            count("algebra.multiply.zero_ns", ns)

    def suite_observe(args, result, ns):
        count("suites.checks", len(result["checks"]))
        count("suites.checks_failed", sum(not c["pass"] for c in result["checks"]))

    def suite_name(args, kwargs):
        return f"suites.{args[0]}"

    spans = (
        ("algebra.multiply", algebra.multiply, multiply_observe, None),
        ("algebra.reduce_monomial", algebra.reduce_monomial, None, None),
        ("algebra.convert_orientation", algebra.convert_orientation, None, None),
        ("algebra.change_to_kbinom_basis", algebra.change_to_kbinom_basis, None, None),
        ("algebra.change_from_kbinom_basis", algebra.change_from_kbinom_basis, None, None),
        ("oracle.build_rep", oracle.build_rep, None, None),
        ("oracle.matrix_of_element", oracle.matrix_of_element, None, None),
        ("oracle.span_rank", oracle.span_rank, None, None),
        ("suites", suites.run_suite, suite_observe, suite_name),
        ("textio.element_to_json", textio.element_to_json, None, None),
    )
    for name, fn, observe, name_of in spans:
        _rebind(fn, tracer.wrap(name, fn, observe, name_of))
    return tracer


def _sum(edges, name: str, column: int) -> int:
    return sum(e[column] for e in edges if e[1] == name)


def count_signature(snapshot: dict) -> dict:
    """The parts of a snapshot that must repeat exactly between runs."""
    counts = {f"{p}>{n}": calls for p, n, calls, _, _ in snapshot["edges"]}
    counts.update(
        (k, v) for k, v in snapshot["counters"].items() if not k.endswith("_ns")
    )
    return counts


def layer_metrics(snapshot: dict) -> dict[str, float]:
    """Per-layer metric values (seconds, counts, ratios) from one snapshot."""
    edges = snapshot["edges"]
    counters = snapshot["counters"]

    def calls(name):
        return _sum(edges, name, CALLS)

    def self_s(*names):
        return sum(_sum(edges, n, SELF) for n in names) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    hits = counters.get("laurent.gauss_binomial.hits", 0)
    misses = counters.get("laurent.gauss_binomial.misses", 0)
    out = {
        "laurent.mul.calls": calls("laurent.mul"),
        "laurent.mul.s": self_s("laurent.mul"),
        "laurent.mul.term_products": counters.get("laurent.mul.term_products", 0),
        "laurent.exact_div.calls": calls("laurent.exact_div"),
        "laurent.exact_div.s": self_s("laurent.exact_div"),
        "laurent.gauss_binomial.calls": calls("laurent.gauss_binomial"),
        "laurent.gauss_binomial.hit_ratio": ratio(hits, hits + misses),
        "algebra.multiply.calls": calls("algebra.multiply"),
        "algebra.multiply.s": self_s("algebra.multiply"),
        "algebra.multiply.zero_frac": ratio(
            counters.get("algebra.multiply.zero", 0), calls("algebra.multiply")
        ),
        "algebra.multiply.zero_s": counters.get("algebra.multiply.zero_ns", 0) / 1e9,
        "algebra.reduce_monomial.calls": calls("algebra.reduce_monomial"),
        "algebra.reduce_monomial.s": self_s("algebra.reduce_monomial"),
        "algebra.convert_orientation.s": self_s("algebra.convert_orientation"),
        "algebra.kbinom.s": self_s(
            "algebra.change_to_kbinom_basis", "algebra.change_from_kbinom_basis"
        ),
        "oracle.build_rep.calls": calls("oracle.build_rep"),
        "oracle.build_rep.s": self_s("oracle.build_rep"),
        "oracle.matrix_mul.calls": calls("oracle.matrix_mul"),
        "oracle.matrix_mul.s": self_s("oracle.matrix_mul"),
        "oracle.matrix_mul.entry_products": sum(
            e[CALLS] for e in edges if e[0] == "oracle.matrix_mul" and e[1] == "laurent.mul"
        ),
        "oracle.matrix_of_element.calls": calls("oracle.matrix_of_element"),
        "oracle.matrix_of_element.s": self_s("oracle.matrix_of_element"),
        "oracle.span_rank.s": self_s("oracle.span_rank"),
        "suites.checks": counters.get("suites.checks", 0),
        "suites.checks_failed": counters.get("suites.checks_failed", 0),
        "textio.element_to_json.s": self_s("textio.element_to_json"),
    }
    for name in SUITE_NAMES:
        out[f"suites.{name}.s"] = _sum(edges, f"suites.{name}", TOTAL) / 1e9
    return out


def missing_spans(snapshot: dict, kind: str) -> list[str]:
    """Expected spans of a workload kind that recorded no calls."""
    return [n for n in EXPECTED_SPANS[kind] if not _sum(snapshot["edges"], n, CALLS)]
