"""The bytes ``verify`` prints: every JSON report's digest, and its summary under ``python -O``.

Changes that only simplify or speed up the code must not move a single byte
of these outputs.  Each pin is stated here once; a change that moves one
re-pins it in this table, and ``tests/test_cli.py::TABLE_DIGESTS`` holds the
same for ``table``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qschur
from qschur.cli import main

# Checks in every `verify --suite all` report.  A change that adds or drops
# checks moves it here and in bench/'s own pins (bench/run.py, bench/test_bench.py).
CHECK_COUNT = 452

# (d, fault, sha256 prefix of `verify --suite all --format json --d d
# --max-d-override [--inject-fault fault]`'s stdout), healthy and under both
# faults at every d = 0..10.  The faulted digests pin the witness text too:
# each failed check's first failing instance and differing term.  So a change
# that rewords a witness re-pins them, while the verdicts alone are pinned by
# a golden test in tests/test_acceptance.py.
#   - d = 0 is the degenerate algebra: e is zero there, so broken-module
#     changes nothing and its digest is the healthy one.
#   - d > 6 is past the suite guards, where the oracle's caches carry the most
#     reuse; the guard override changes nothing on stdout at d <= 6.
#   - d = 10 is where the homomorphism sweep skips the most oracle products
#     (one per tau-orbit).
#   - The healthy d = 11 run covers the shared partial products (the spectrum
#     checks' prefix and suffix products, the oracle words' shared heads) past
#     the degrees above.
REPORT_DIGESTS = [
    (0, None, "a06442b0d9d1"),
    (0, "broken-module", "a06442b0d9d1"),
    (0, "skip-reduction", "b14980a453dc"),
    (1, None, "1447f8c09d09"),
    (1, "broken-module", "1103eb0f5529"),
    (1, "skip-reduction", "258727acdcc8"),
    (2, None, "a8ee47e4e51f"),
    (2, "broken-module", "0f1f12929db8"),
    (2, "skip-reduction", "388cc1a3706a"),
    (3, None, "71b6936640c0"),
    (3, "broken-module", "475de394fcc3"),
    (3, "skip-reduction", "c6a81841405a"),
    (4, None, "4346136d409f"),
    (4, "broken-module", "105fb6bed28a"),
    (4, "skip-reduction", "969264f03591"),
    (5, None, "79a2aadc5e44"),
    (5, "broken-module", "fd0724918771"),
    (5, "skip-reduction", "12cd1720d720"),
    (6, None, "6020b869ebab"),
    (6, "broken-module", "5995516f2d15"),
    (6, "skip-reduction", "14d0c245f3d6"),
    (7, None, "163b0b1a5a2a"),
    (7, "broken-module", "f5bf2d875bee"),
    (7, "skip-reduction", "07bd2e7458a6"),
    (8, None, "ad5fd499d8e3"),
    (8, "broken-module", "7340c24ad7cf"),
    (8, "skip-reduction", "985c2edc92c0"),
    (9, None, "25ee312d5e37"),
    (9, "broken-module", "600c98db8693"),
    (9, "skip-reduction", "0b28c4f40c38"),
    (10, None, "a0e8033ddee7"),
    (10, "broken-module", "7e1829aa00b0"),
    (10, "skip-reduction", "653c8c8fed3d"),
    (11, None, "6d57aee54f21"),
]


@pytest.mark.parametrize("d, fault, prefix", REPORT_DIGESTS)
def test_each_report_matches_its_recorded_digest(capsys, d, fault, prefix):
    # A faulted run exits 1, so the status is left to the summaries below; a
    # crash changes the output and so the digest.
    argv = ["verify", "--suite", "all", "--format", "json", "--d", str(d), "--max-d-override"]
    main(argv + (["--inject-fault", fault] if fault else []))
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:12] == prefix


# (exit status, last line of stdout, arguments after `verify --suite all`).
# The checks raise instead of asserting, so stripping asserts must neither
# break the healthy build nor hide an injected fault.
#   - The d = 8 run lifts the degree guards: with the Weyl-module oracle every
#     suite, the oracle-backed ones included, passes there.
#   - broken-module gives e a wrong coefficient in the Weyl modules and skips
#     the build's self-check.  It is built at every degree, so the d = 11 run
#     must reach every suite and fail the same checks of relations,
#     reduction, basis and oracle as at d = 4 (lusztig checks multiply alone
#     and never meets the module).
#   - skip-reduction runs the suites in a context that counts every monomial
#     with a, c <= d as canonical and raises on any other.  At d = 0 only that
#     raise fails a check, while at d = 4 and d = 11 most lusztig identities
#     fail as well, more of them at the larger degree.
SUMMARIES = [
    (0, "PASS  overall (452/452 checks)", "--d 4"),
    (1, "FAIL  overall (442/452 checks)", "--d 4 --inject-fault broken-module"),
    (1, "FAIL  overall (239/452 checks)", "--d 4 --inject-fault skip-reduction"),
    (0, "PASS  overall (452/452 checks)", "--d 8 --max-d-override"),
    (1, "FAIL  overall (442/452 checks)", "--d 11 --max-d-override --inject-fault broken-module"),
    (1, "FAIL  overall (451/452 checks)", "--d 0 --inject-fault skip-reduction"),
    (1, "FAIL  overall (223/452 checks)", "--d 11 --max-d-override --inject-fault skip-reduction"),
]


@pytest.mark.parametrize("status, line, args", SUMMARIES, ids=[row[2] for row in SUMMARIES])
def test_verify_under_python_O_ends_with_its_summary(status, line, args):
    # -O is a flag of the interpreter, so each row runs in a child process;
    # -B keeps it from writing src/qschur/__pycache__.
    src = str(Path(qschur.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-O", "-B", "-m", "qschur", "verify", "--suite", "all", *args.split()],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (run.returncode, run.stdout.splitlines()[-1]) == (status, line)
