"""One benchmark sample in a fresh interpreter.

    python3 bench/child.py SRC SPEC RESULT

Imports qschur from SRC, stamps the end of set-up, runs the sample described
by the JSON file SPEC and writes timings, exit status, peak RSS and the facts
the parent checks (output digests, round-trip results, trace snapshot) to the
JSON file RESULT.  Nothing is timed here but the work itself: the parent
times set-up from the moment it spawned this process.
"""

import sys
import time

SRC = sys.argv[1] if __name__ == "__main__" else None
if SRC is not None:
    sys.path.insert(0, SRC)
    import qschur

    T_READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def digest(element) -> str:
    """sha256 of an element's canonical JSON form."""
    from qschur.textio import element_to_json

    text = json.dumps(element_to_json(element), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def prepare(op: dict):
    """Build an op's input elements; returns (op, context, inputs)."""
    from qschur.algebra import EKF, Context, Element, Monomial
    from qschur.laurent import LaurentPoly

    ctx = Context(op["d"])
    orientation = op.get("orientation", EKF)

    def element(*terms):
        return Element(ctx, orientation, {
            Monomial(a, b1, ctx.d - b1, c, orientation): LaurentPoly.from_json(coeff)
            for a, b1, c, coeff in terms
        })

    if op["op"] == "multiply":
        return op, ctx, (element(op["lhs"]), element(op["rhs"]))
    if op["op"] == "reduce":
        return op, ctx, tuple(op["quad"])
    return op, ctx, element(*op["terms"])


def execute(prepared):
    """Run one prepared op through the library; returns its raw outputs."""
    from qschur import algebra

    op, ctx, inputs = prepared
    kind = op["op"]
    if kind == "multiply":
        return algebra.multiply(*inputs)
    if kind == "reduce":
        return algebra.reduce_monomial(ctx, inputs, op["orientation"])
    if kind == "orientation":
        there = algebra.convert_orientation(inputs, algebra.FKE)
        return algebra.convert_orientation(there, algebra.EKF)
    if kind == "kbinom":
        coords = algebra.change_to_kbinom_basis(inputs)
        return algebra.change_from_kbinom_basis(ctx, coords)
    raise ValueError(f"unknown session op {kind!r}")


def fact(prepared, output) -> dict:
    """What the parent checks about one op's output."""
    from qschur.laurent import LaurentPoly

    op, _, inputs = prepared
    if op["op"] == "multiply":
        # The operands' coefficients are units s*v^k; divide them out so one
        # recorded digest covers every coefficient choice.
        (k1, s1), (k2, s2) = ((e, int(c)) for ((e, c),) in (op["lhs"][3], op["rhs"][3]))
        return {"digest": digest(output.scale(LaurentPoly({-k1 - k2: s1 * s2})))}
    if op["op"] == "reduce":
        return {"digest": digest(output)}
    return {"round_trip": output == inputs}


def run_sample(spec: dict) -> dict:
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.install()
    out: dict = {}
    if spec["kind"] == "cli":
        from qschur import cli

        t0 = time.monotonic()
        out["rc"] = cli.main(spec["argv"])
        t1 = time.monotonic()
    elif spec["kind"] == "session":
        prepared = [prepare(op) for op in spec["ops"]]
        t0 = time.monotonic()
        outputs = [execute(p) for p in prepared]
        t1 = time.monotonic()
        out["rc"] = 0
    else:
        raise ValueError(f"unknown sample kind {spec['kind']!r}")
    out["wall_s"] = t1 - t0
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    if spec["kind"] == "session":
        out["facts"] = [fact(p, o) for p, o in zip(prepared, outputs)]
    return out


def main() -> int:
    spec_path, result_path = sys.argv[2], sys.argv[3]
    expected = os.path.realpath(os.path.join(SRC, "qschur"))
    loaded = os.path.realpath(os.path.dirname(qschur.__file__))
    if loaded != expected:
        print(f"qschur was imported from {loaded}, not {expected}", file=sys.stderr)
        return 3
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"t_ready": T_READY}
    if spec["kind"] != "setup":
        result.update(run_sample(spec))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
