"""The bytes ``verify`` and ``table`` print: every pin of their output, stated once.

Changes that only simplify or speed up the code must not move a single byte
of these outputs.  Each ``verify`` run is pinned in exactly one row of
``REPORT_DIGESTS``, together with its exit status; ``VERDICT_DIGESTS`` pins
the ``[id, pass]`` verdicts at d = 4 apart from the witnesses, and
``TABLE_DIGESTS`` the ``table`` output.  A change that moves an output
re-pins it here; ``tests/test_acceptance.py`` and ``tests/test_cli.py`` run
the verdict and table rows.  One ``python -O`` child checks its report
against its row, and ``tests/test_library_rules.py`` holds the source rule
that makes every other row hold under ``-O`` too.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qschur
from qschur.cli import main

# Checks in every `verify --suite all` report, at every degree.  A change
# that adds or drops checks moves it, REPORT_DIGESTS and VERDICT_DIGESTS
# here, and bench/'s own pins (bench/run.py, bench/test_bench.py).
CHECK_COUNT = 452

# (d, fault, exit status, sha256 prefix of `verify --suite all --format json
# --d d --max-d-override [--inject-fault fault]`'s stdout), healthy and under
# both faults at every d = 0..11.  The status is 0 for a healthy run, so a
# re-pin cannot hide a healthy run that fails, and 1 under a fault.  The
# faulted digests pin the witness text too: each failed check's first
# failing instance and differing term.  So a change that rewords a witness
# re-pins them, while VERDICT_DIGESTS below still holds.
#   - d = 0 is the degenerate algebra: e is zero there, so broken-module
#     changes nothing, exits 0 and its digest is the healthy one, while
#     skip-reduction fails only the check whose straightening raises.
#   - d > 6 is past the suite guards, where the oracle's caches carry the most
#     reuse; the guard override changes nothing on stdout at d <= 6.  The
#     healthy rows there show that with the Weyl-module oracle every suite,
#     the oracle-backed ones included, passes past the guards: at d = 11 the
#     tensor power would have 2,048 dimensions.
#   - d = 10 is where the homomorphism sweep skips the most oracle products
#     (one per tau-orbit).
#   - The d = 11 rows cover the shared partial products (the spectrum checks'
#     prefix and suffix products, the oracle words' shared heads) past the
#     degrees above.  broken-module gives e a wrong coefficient in the Weyl
#     modules and skips the build's self-check; it is built at every degree,
#     so its d = 11 run reaches every suite and fails the same checks of
#     relations, reduction, basis and oracle as at d = 4 (lusztig checks
#     multiply alone and never meets the module).  skip-reduction counts
#     every monomial with a, c <= d as canonical and raises on any other, so
#     most lusztig identities fail, more of them at d = 11 than at d = 4.
REPORT_DIGESTS = [
    (0, None, 0, "a06442b0d9d1"),
    (0, "broken-module", 0, "a06442b0d9d1"),
    (0, "skip-reduction", 1, "b14980a453dc"),
    (1, None, 0, "1447f8c09d09"),
    (1, "broken-module", 1, "1103eb0f5529"),
    (1, "skip-reduction", 1, "258727acdcc8"),
    (2, None, 0, "a8ee47e4e51f"),
    (2, "broken-module", 1, "0f1f12929db8"),
    (2, "skip-reduction", 1, "388cc1a3706a"),
    (3, None, 0, "71b6936640c0"),
    (3, "broken-module", 1, "475de394fcc3"),
    (3, "skip-reduction", 1, "c6a81841405a"),
    (4, None, 0, "4346136d409f"),
    (4, "broken-module", 1, "105fb6bed28a"),
    (4, "skip-reduction", 1, "969264f03591"),
    (5, None, 0, "79a2aadc5e44"),
    (5, "broken-module", 1, "fd0724918771"),
    (5, "skip-reduction", 1, "12cd1720d720"),
    (6, None, 0, "6020b869ebab"),
    (6, "broken-module", 1, "5995516f2d15"),
    (6, "skip-reduction", 1, "14d0c245f3d6"),
    (7, None, 0, "163b0b1a5a2a"),
    (7, "broken-module", 1, "f5bf2d875bee"),
    (7, "skip-reduction", 1, "07bd2e7458a6"),
    (8, None, 0, "ad5fd499d8e3"),
    (8, "broken-module", 1, "7340c24ad7cf"),
    (8, "skip-reduction", 1, "985c2edc92c0"),
    (9, None, 0, "25ee312d5e37"),
    (9, "broken-module", 1, "600c98db8693"),
    (9, "skip-reduction", 1, "0b28c4f40c38"),
    (10, None, 0, "a0e8033ddee7"),
    (10, "broken-module", 1, "7e1829aa00b0"),
    (10, "skip-reduction", 1, "653c8c8fed3d"),
    (11, None, 0, "6d57aee54f21"),
    (11, "broken-module", 1, "66f087d265f7"),
    (11, "skip-reduction", 1, "dfd8218852fe"),
]


def _verify_argv(d, fault):
    argv = ["verify", "--suite", "all", "--format", "json", "--d", str(d), "--max-d-override"]
    return argv + (["--inject-fault", fault] if fault else [])


def _prefix(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@pytest.mark.parametrize(
    "d, fault, status, prefix",
    REPORT_DIGESTS,
    ids=[f"{d}-{fault}-{prefix}" for d, fault, _, prefix in REPORT_DIGESTS],
)
def test_each_report_matches_its_recorded_digest(capsys, d, fault, status, prefix):
    assert (main(_verify_argv(d, fault)), _prefix(capsys.readouterr().out)) == (status, prefix)


# (fault, sha256 prefix of the JSON list of [id, pass] of every check, the
# number of failed checks) of `run_suites(SUITES, 4)`, healthy and under each
# fault.  The witnesses are left out, so a change that only rewords a witness
# must leave every row here unchanged; tests/test_acceptance.py runs them.
VERDICT_DIGESTS = [
    (None, "450f79fa650afe42", 0),
    ("broken-module", "600a86f848ac4b06", 10),
    ("skip-reduction", "3665b4e0ff205259", 213),
]

# The sha256 (or its 12-character prefix) of `table --d d`'s stdout, which
# tests/test_cli.py also compares with the --out file.  The lines are
# assembled by hand: each lhs row is a copy of one per-run template of
# zero-product line tails with only its meeting columns overwritten; each
# monomial's and each coefficient's text is formatted once per run; and half
# the products are written from the anti-involution's image of another.
# d = 0, 1 and 2 cover the degenerate and smallest tables; d = 7, 8 and 10 are
# past the table guard, and d = 10 also covers the pairs skipped as zero and
# the reuse of straightened monomials past the benchmarked degree.
TABLE_DIGESTS = {
    0: "bdf2ade51218",
    1: "f8a9796d5efa",
    2: "add67ec44488d13c9212f88050050c08b439b1b5ff3b4e9832db772763f41d75",
    3: "afa17c11b5ae",
    4: "535e89ddc9461df54b463d24d091aa48f5b1a0e2bcff0e57e47a72d176c129a9",
    5: "4682d36af82570a199213fef8d58146bb692014ea3a7285bc8419340b2d0ecf5",
    6: "1b66f38b87bfc5cd7468d201801cab1bcb89ae29845f4c9302572df42ab1171f",
    7: "b7e53467bc63",
    8: "b347fd59cb32",
    10: "30ee4929ccaf",
}


def test_verify_under_python_O_matches_its_recorded_digest():
    # -O strips asserts and sets __debug__ false, and the library uses
    # neither (tests/test_library_rules.py), so every row above holds under
    # -O.  This one cold child, a faulted run that must still fail, checks
    # that and is also the only run of __main__.py.  -O is a flag of the
    # interpreter, hence the child; -B keeps it from writing
    # src/qschur/__pycache__.
    d, fault = 4, "broken-module"
    status, prefix = next(row[2:] for row in REPORT_DIGESTS if row[:2] == (d, fault))
    src = str(Path(qschur.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-O", "-B", "-m", "qschur", *_verify_argv(d, fault)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (run.returncode, _prefix(run.stdout)) == (status, prefix)
