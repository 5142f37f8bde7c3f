"""qschur benchmark: cold-process samples with correctness gates.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``table-d8``, ``verify-d6``, ``large-d`` or ``all`` (every workload,
interleaved sample by sample).  Each sample is a fresh ``python`` process
started one at a time (a closed loop with one client), because every CLI user
pays for the import and for qschur's cold module-level caches.  The benchmark
checks every output, prints a summary and an environment record, and ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from traced samples, which are run alongside
untraced samples of the same inputs so that tracing overhead is reported.

Standard library only.  qschur is imported from ``src/`` of the checkout
that holds this file; without it the benchmark exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from math import comb

import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
DIGESTS = os.path.join(BENCH, "digests.json")

HARD_LIMIT_S = 165  # every run, including a slow last sample, ends within 180 s
PROBES_PER_SAMPLE = 2  # extra import-only processes per sample, for setup_s
MIN_SETUPS = 15
# About 0.4 s: a loop half as long tracked the host's slow spells less
# closely and added noise of its own.
CALIBRATION_LOOPS = 1_500_000
# calibrate() on the reference host (2-vCPU Xeon VM, CPython 3.11.7): the
# speed that scaled wall times are expressed at.
CALIBRATION_REF_S = 0.41

# Session ops and how many library operations each counts as.
OP_UNITS = {"multiply": 1, "reduce": 1, "orientation": 2, "kbinom": 2}


class BenchError(Exception):
    """The benchmark cannot run here at all; no result is printed."""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table:
    """``qschur table --d D``: every basis-pair product, checked by digest."""

    name: str
    d: int
    kind = "table"
    unit = "products"

    @property
    def units(self) -> int:
        return comb(self.d + 3, 3) ** 2

    def spec(self, seed: int, index: int, out: str) -> dict:
        argv = ["table", "--d", str(self.d), "--max-d-override", "--out", out]
        return {"kind": "cli", "argv": argv}

    def failed_units(self, spec: dict, result: dict, out: str, digests: dict) -> int:
        if result["rc"] != 0 or not os.path.exists(out):
            return self.units
        return 0 if sha256_file(out) == digests["table"][str(self.d)] else self.units


@dataclass(frozen=True)
class Verify:
    """``qschur verify --suite all --d D --seed S``: every check must pass."""

    name: str
    d: int
    checks: int
    kind = "verify"
    unit = "checks"

    @property
    def units(self) -> int:
        return self.checks

    def spec(self, seed: int, index: int, out: str) -> dict:
        suite_seed = random.Random(seed * 1_000_003 + index).randrange(1, 2**31)
        argv = ["verify", "--suite", "all", "--d", str(self.d), "--seed", str(suite_seed),
                "--format", "json", "--out", out]
        return {"kind": "cli", "argv": argv}

    def failed_units(self, spec: dict, result: dict, out: str, digests: dict) -> int:
        if result["rc"] not in (0, 1) or not os.path.exists(out):
            return self.units
        with open(out, encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
        if len(checks) != self.checks or (result["rc"] == 0) != all(c["pass"] for c in checks):
            return self.units
        return sum(not c["pass"] for c in checks)


@dataclass(frozen=True)
class Session:
    """A library session of few, huge operations at large d, no oracle.

    The shape is fixed: which ops, their degrees, the number of terms and
    every monomial e^(a) K[b, d-b] f^(c).  Moving b or the split of a height
    a + c changes an op's cost severalfold (products of two height-20
    monomials at d=40 took 0.13 to 0.62 s), so the seed picks only choices
    that cost the same:
    the op order, the orientation (EKF or FKE) of each product and reduction,
    which qschur computes through the same EKF path, and unit coefficients
    +-v^k.  Products and reductions are checked against digests recorded for
    both orientations, products after dividing out the coefficients; round
    trips must return their input exactly.
    """

    name: str
    d: int
    products: tuple  # ((a, b, c), (a', b', c')) pairs at degree d, with b + c = b' + a'
    reductions: tuple  # (a, b, c): e^(a) K[b, d-b] f^(c), of defect a + b + c - d
    orientation: tuple  # (d, ((a, b, c), ...)): one element sent EKF -> FKE -> EKF
    kbinom: tuple  # (d, ((a, b, c), ...)): one element sent to K-binomials and back
    kind = "session"
    unit = "ops"

    @property
    def units(self) -> int:
        return sum(OP_UNITS[op["op"]] for op in self.ops(random.Random(0)))

    def ops(self, rng: random.Random, orientation=None, unit=None) -> list[dict]:
        """The session's ops; the seed's choices come from ``rng`` unless fixed."""
        d = self.d

        def pick_orientation():
            return orientation or rng.choice(("EKF", "FKE"))

        def coeff():
            return unit or [[rng.randint(-3, 3), str(rng.choice((-1, 1)))]]

        def oriented(a, b, c, o):
            return [a, b if o == "EKF" else d - b, c]

        ops = []
        for lhs, rhs in self.products:
            o = pick_orientation()
            ops.append({"op": "multiply", "d": d, "orientation": o,
                        "lhs": oriented(*lhs, o) + [coeff()],
                        "rhs": oriented(*rhs, o) + [coeff()]})
        for a, b, c in self.reductions:
            o = pick_orientation()
            a, b1, c = oriented(a, b, c, o)
            ops.append({"op": "reduce", "d": d, "orientation": o, "quad": [a, b1, d - b1, c]})
        for kind, (dd, monomials) in (("orientation", self.orientation), ("kbinom", self.kbinom)):
            ops.append({"op": kind, "d": dd, "terms": [[*m, coeff()] for m in monomials]})
        rng.shuffle(ops)
        return ops

    def keyed_ops(self) -> list[dict]:
        """Every multiply and reduce op the seed can choose (for recording digests)."""
        return [op for o in ("EKF", "FKE")
                for op in self.ops(random.Random(0), o, [[0, "1"]])
                if op["op"] in ("multiply", "reduce")]

    def spec(self, seed: int, index: int, out: str) -> dict:
        return {"kind": "session", "ops": self.ops(random.Random(seed * 1_000_003 + index))}

    def failed_units(self, spec: dict, result: dict, out: str, digests: dict) -> int:
        facts = result.get("facts")
        if result["rc"] != 0 or facts is None or len(facts) != len(spec["ops"]):
            return self.units
        failed = 0
        for op, fact in zip(spec["ops"], facts):
            if "digest" in fact:
                ok = fact["digest"] == digests["ops"].get(op_key(op))
            else:
                ok = fact["round_trip"] is True
            failed += 0 if ok else OP_UNITS[op["op"]]
        return failed


def op_key(op: dict) -> str:
    """The digest-table key of a multiply or reduce op (coefficients excluded)."""
    head = f"{op['op']} d={op['d']} {op['orientation']} "
    if op["op"] == "multiply":
        return head + " * ".join(",".join(map(str, m[:3])) for m in (op["lhs"], op["rhs"]))
    return head + ",".join(map(str, op["quad"]))


WORKLOADS = {
    w.name: w
    for w in (
        Table("table-d8", 8),
        Verify("verify-d6", 6, 452),
        Session(
            "large-d",
            d=40,
            products=(((10, 15, 10), (10, 15, 10)), ((8, 13, 12), (12, 13, 8))),
            reductions=((20, 13, 20), (16, 11, 24)),
            orientation=(40, ((10, 12, 10), (8, 14, 8), (6, 16, 6))),
            kbinom=(20, ((5, 5, 5), (4, 4, 4))),
        ),
    )
}

# The same workloads at tiny d, for the smoke test.
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        Table("table-d2", 2),
        Verify("verify-d2", 2, 452),
        Session(
            "session-d6",
            d=6,
            products=(((1, 1, 1), (1, 1, 1)), ((1, 2, 2), (2, 2, 1))),
            reductions=((2, 3, 2), (1, 3, 3)),
            orientation=(6, ((1, 1, 1), (2, 0, 1))),
            kbinom=(4, ((1, 1, 1), (1, 1, 0))),
        ),
    )
}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def spawn(spec: dict, tmp: str, timeout: float, hashseed: int | None = None):
    """Run one child process; returns (result, setup_s) or raises RuntimeError."""
    spec_path = os.path.join(tmp, "spec.json")
    result_path = os.path.join(tmp, "result.json")
    log_path = os.path.join(tmp, "child.log")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    with open(log_path, "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, SRC, spec_path, result_path],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
        )
        try:
            rc = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        why = "timed out" if rc is None else f"exited with status {rc}"
        raise RuntimeError(f"sample process {why}:\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return result, result["t_ready"] - t_spawn


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of dict and integer work, the kind
    qschur does: a yardstick of host speed at this moment."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        k = (i * 7919) & 1023
        table[k] = table.get(k, 0) + i * i
        acc += i & 7
    return time.perf_counter() - t0


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
    except OSError:
        return "unknown"
    return head


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


class Stats:
    """Everything measured for one workload in one run."""

    def __init__(self, workload):
        self.workload = workload
        self.walls: list[float] = []  # scaled to the reference host speed
        self.raw_walls: list[float] = []
        self.setups: list[float] = []
        self.rss_mb: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.traced_walls: list[float] = []
        self.snapshots: list[dict] = []

    def record(self, spec, result, out, digests) -> None:
        w = self.workload
        self.attempted += w.units
        failed = w.failed_units(spec, result, out, digests)
        self.failed += failed
        if failed:
            self.errors.append(f"{w.name}: {failed} of {w.units} {w.unit} failed the check")

    def fail(self, message: str) -> None:
        self.attempted += self.workload.units
        self.failed += self.workload.units
        self.errors.append(f"{self.workload.name}: {message}")


def run_sample(stats: Stats, index: int, seed: int, tmp: str, digests: dict, deadline: float,
               traced: bool = False, hashseed: int | None = None,
               cal_before: float | None = None) -> float:
    """Run and check one sample between two calibrations; returns the second,
    which serves as the next sample's ``cal_before``.

    The shared host's speed drifts by tens of percent over seconds, and the
    calibration loop drifts with it, so the sample's wall time is recorded
    scaled by CALIBRATION_REF_S over the mean of the two calibrations (and,
    for an untraced sample, unscaled as well)."""
    if cal_before is None:
        cal_before = calibrate()
    w = stats.workload
    out = os.path.join(tmp, "output")
    if os.path.exists(out):
        os.remove(out)
    spec = w.spec(seed, index, out)
    spec["trace"] = traced
    try:
        result, setup = spawn(spec, tmp, deadline - time.monotonic(), hashseed)
    except RuntimeError as exc:
        stats.fail(str(exc))
        return calibrate()
    cal_after = calibrate()
    wall = result["wall_s"] * CALIBRATION_REF_S / ((cal_before + cal_after) / 2)
    stats.setups.append(setup)
    stats.record(spec, result, out, digests)
    if not traced:
        stats.walls.append(wall)
        stats.raw_walls.append(result["wall_s"])
        stats.rss_mb.append(result["peak_rss_kb"] / 1024)
        return cal_after
    stats.traced_walls.append(wall)
    snap = result["trace"]
    missing = tracing.missing_spans(snap, w.kind)
    if missing:
        stats.errors.append(f"{w.name}: traced sample recorded no calls of {missing}")
    stats.snapshots.append(snap)
    return cal_after


def probe(stats: Stats, tmp: str, deadline: float) -> None:
    """An import-only process: one more set-up sample."""
    try:
        _, setup = spawn({"kind": "setup"}, tmp, deadline - time.monotonic())
    except RuntimeError as exc:
        stats.errors.append(f"set-up probe failed: {exc}")
        return
    stats.setups.append(setup)


def measure(workloads: list, seed: int, seconds: float, trace: bool, tmp: str,
            digests: dict) -> tuple[list[Stats], dict]:
    """Interleave samples of every workload until ``seconds`` are used."""
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    try:
        spawn({"kind": "setup"}, tmp, 60)  # warm-up: bytecode cache and file cache
    except RuntimeError as exc:
        raise BenchError(f"cannot import qschur from {SRC}: {exc}") from None
    calibration = [calibrate()]
    stats = [Stats(w) for w in workloads]
    cycle_times: list[float] = []
    cycle = 0
    while True:
        c0 = time.monotonic()
        for s in stats:
            for _ in range(PROBES_PER_SAMPLE):
                probe(s, tmp, hard_deadline)
            if trace:
                # Same inputs for every pair, so traced counts must repeat
                # exactly; each traced sample gets its own hash seed.
                first_traced = cycle % 2 == 1
                for traced in (first_traced, not first_traced):
                    calibration.append(run_sample(
                        s, 0, seed, tmp, digests, hard_deadline, traced,
                        cycle + 1 if traced else None, calibration[-1]))
            else:
                calibration.append(run_sample(s, cycle, seed, tmp, digests, hard_deadline,
                                              cal_before=calibration[-1]))
        cycle += 1
        now = time.monotonic()
        cycle_times.append(now - c0)
        expected = statistics.mean(cycle_times)
        if now + expected / 2 > start + seconds or now + expected > hard_deadline:
            break
    for s in stats:
        while len(s.setups) < MIN_SETUPS and time.monotonic() + 1 < hard_deadline:
            probe(s, tmp, hard_deadline)
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "calibration_loops": CALIBRATION_LOOPS,
        "calibration_ref_s": CALIBRATION_REF_S,
        "calibration_s": {"n": len(calibration), "min": min(calibration),
                          "median": statistics.median(calibration), "max": max(calibration)},
        "loadavg": list(os.getloadavg()),
        "seed": seed,
        "seconds": seconds,
        "elapsed_s": time.monotonic() - start,
    }
    return stats, env


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def tail_note(values: list[float]) -> str:
    """The highest percentile with ten samples beyond it, if there is one."""
    n = len(values)
    if n <= 10:
        return "no percentile has ten samples beyond it"
    j = n - 11
    return f"p{100 * (j + 1) / n:.0f} = {sorted(values)[j]:.4f} s"


def end_to_end(s: Stats) -> dict:
    w = s.workload
    return {
        "wall_s": (statistics.median(s.walls), "s"),
        "setup_s": (statistics.median(s.setups), "s"),
        "work_per_s": (statistics.median(w.units / t for t in s.walls), "1/s"),
        "peak_rss_mb": (statistics.median(s.rss_mb), "MB"),
    }


def per_layer(s: Stats) -> dict:
    """Median times over the traced samples; counts, which must be identical
    in every traced sample, from the first."""
    values = [tracing.layer_metrics(snap) for snap in s.snapshots]
    out = {k: (statistics.median(v[k] for v in values) if unit == "s" else values[0][k], unit)
           for k, unit in tracing.LAYER_METRICS.items()}
    overhead = statistics.median(s.traced_walls) - statistics.median(s.walls)
    out["trace.overhead_s"] = (overhead, "s")
    return out


def report(stats: list[Stats], trace: bool, single: bool) -> dict:
    metrics: dict = {}
    for s in stats:
        w = s.workload
        fail_frac = s.failed / s.attempted if s.attempted else 1.0
        if not s.walls or (trace and not s.snapshots):
            s.errors.append(f"{w.name}: no sample completed")
            continue
        e2e = end_to_end(s)
        print(
            f"[{w.name}] wall_s {e2e['wall_s'][0]:.4f} s (median of {len(s.walls)} samples; "
            f"{tail_note(s.walls)}; unscaled median {statistics.median(s.raw_walls):.4f} s, "
            f"{tail_note(s.raw_walls)}) | setup_s {e2e['setup_s'][0]:.4f} s "
            f"(median of {len(s.setups)}) | work_per_s {e2e['work_per_s'][0]:.2f} "
            f"{w.unit}/s | peak_rss_mb {e2e['peak_rss_mb'][0]:.2f} MB | "
            f"fail_frac {fail_frac:g} ({s.failed}/{s.attempted} {w.unit})"
        )
        chosen = per_layer(s) if trace else e2e
        if trace:
            signatures = {json.dumps(tracing.count_signature(x), sort_keys=True)
                          for x in s.snapshots}
            if len(signatures) != 1:
                s.errors.append(f"{w.name}: traced counts differ between samples")
            print(f"[{w.name}] traced {len(s.snapshots)} samples, overhead "
                  f"{chosen['trace.overhead_s'][0]:.4f} s per sample; span edges "
                  "(parent > span: calls, total s, self s) of the first:")
            for parent, name, calls, total, self_ns in s.snapshots[0]["edges"]:
                print(f"    {parent} > {name}: {calls}, {total / 1e9:.4f}, {self_ns / 1e9:.4f}")
        for k, (value, unit) in chosen.items():
            metrics[k if single else f"{w.name}.{k}"] = {"value": value, "unit": unit}
    errors = [e for s in stats for e in s.errors]
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(s.attempted for s in stats),
        "failed": sum(s.failed for s in stats),
        "metrics": metrics,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(workloads: list, seed: int, seconds: float, trace: bool, single: bool) -> dict:
    """Measure and report; raises BenchError when nothing can run."""
    if not os.path.isfile(os.path.join(SRC, "qschur", "__init__.py")):
        raise BenchError(f"no qschur sources under {SRC}")
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        stats, env = measure(workloads, seed, seconds, trace, tmp, digests)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = report(stats, trace, single)
    print("env " + json.dumps(env, sort_keys=True))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        result = run([WORKLOADS[n] for n in names], args.seed, args.seconds,
                     bool(args.trace), single=args.workload != "all")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
