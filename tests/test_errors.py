"""Each validation error of the library and the CLI: its exception type and message."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qschur
from qschur.algebra import (
    EKF,
    Context,
    ContextMismatch,
    Element,
    IndexOutOfRange,
    divided_power_element,
)
from qschur.cli import main
from qschur.laurent import LaurentPoly, quantum_factorial
from qschur.oracle import LaurentMatrix, build_rep, matrix_of_divided_power, matrix_of_element
from qschur.suites import run_suite
from qschur.textio import ParseError, element_from_json

# One row per raise: (case, a call or a command line, the exception type or
# the exit status of a command line, the message).  argparse turns a bad
# argument into exit 2 and one `error:` line on stderr.
VALIDATION_ERRORS = [
    (
        "cli-orientation",
        ["basis", "--d", "1", "--orientation", "XYZ"],
        2,
        "argument --orientation: orientation must be 'ekf' or 'fke', got 'XYZ'",
    ),
    (
        "cli-quadruple-length",
        ["reduce", "--d", "1", "--monomial", "1,2"],
        2,
        "argument --monomial: expected a,b1,b2,c but got '1,2'",
    ),
    (
        "cli-quadruple-integer",
        ["reduce", "--d", "1", "--monomial", "1,2,x,0"],
        2,
        "argument --monomial: non-integer component in '1,2,x,0'",
    ),
    (
        "divided-power-generator",
        lambda: divided_power_element(Context(1), "g", 1),
        ValueError,
        "generator must be 'e' or 'f', got 'g'",
    ),
    (
        "divided-power-exponent",
        lambda: divided_power_element(Context(1), "e", -1),
        IndexOutOfRange,
        "divided-power exponent must be nonnegative",
    ),
    (
        "matrix-divided-power-generator",
        lambda: matrix_of_divided_power(build_rep(1), "g", 1),
        ValueError,
        "generator must be 'e' or 'f', got 'g'",
    ),
    (
        "matrix-divided-power-exponent",
        lambda: matrix_of_divided_power(build_rep(1), "e", -1),
        ValueError,
        "divided-power exponent must be nonnegative",
    ),
    (
        "matrix-of-element-degree",
        lambda: matrix_of_element(build_rep(1), Element(Context(2), EKF)),
        ContextMismatch,
        "element degree 2 differs from oracle degree 1",
    ),
    (
        "matrix-entry-range",
        lambda: LaurentMatrix(2, {(2, 0): 1}),
        IndexError,
        "entry (2,0) outside a 2x2 matrix",
    ),
    ("build-rep-degree", lambda: build_rep(-1), ValueError, "degree must be nonnegative"),
    (
        "run-suite-name",
        lambda: run_suite("nope", 1),
        ValueError,
        "unknown suite 'nope'; choose from "
        "('relations', 'idempotents', 'reduction', 'basis', 'oracle', 'lusztig')",
    ),
    (
        "run-suite-fault",
        lambda: run_suite("basis", 1, fault="nope"),
        ValueError,
        "unknown fault 'nope'; choose from (None, 'skip-reduction', 'broken-module')",
    ),
    (
        "json-orientation",
        lambda: element_from_json({"d": 1, "orientation": "XYZ", "terms": []}),
        ParseError,
        "bad orientation 'XYZ' (at position 0)",
    ),
    (
        "quantum-factorial",
        lambda: quantum_factorial(-1),
        ValueError,
        "quantum factorial of a negative integer",
    ),
    ("zero-degree", lambda: LaurentPoly.zero().degree(), ValueError, "zero polynomial has no degree"),
    (
        "zero-valuation",
        lambda: LaurentPoly.zero().valuation(),
        ValueError,
        "zero polynomial has no valuation",
    ),
]


@pytest.mark.parametrize(
    "call, error, message",
    [row[1:] for row in VALIDATION_ERRORS],
    ids=[row[0] for row in VALIDATION_ERRORS],
)
def test_every_validation_error_is_pinned(capsys, call, error, message):
    if isinstance(call, list):
        assert main(call) == error
        assert capsys.readouterr().err.endswith(f": error: {message}\n")
    else:
        with pytest.raises(error) as err:
            call()
        assert (type(err.value), str(err.value)) == (error, message)


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_quietly(unbuffered):
    # `qschur basis --d 6 | head -1`: a reader that closed stdout is not bad
    # input.  The read end is closed before the child starts, so its first
    # write to stdout fails, whether it writes at once or on the last flush.
    # The child exits 141 (128 + SIGPIPE, what `yes | head -1` gives) with
    # nothing on stderr.
    src = str(Path(qschur.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-B", "-m", "qschur", "basis", "--d", "6"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (141, b"")


def test_a_closed_stdout_leaves_a_caller_of_main_its_stdout(monkeypatch):
    # Called in process, main reports a closed stdout by its status alone:
    # file descriptor 1 still names the same file, and no descriptor leaks.
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return 1

    before = os.fstat(1)
    open_fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["basis", "--d", "6"]) == 141
    monkeypatch.undo()
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
    if open_fds is not None:
        assert len(os.listdir("/proc/self/fd")) == open_fds


def _run_capped(argv, cap_mib):
    """``python -m qschur argv`` in a child under an address-space cap of ``cap_mib`` MiB."""
    resource = pytest.importorskip("resource")
    cap = cap_mib * 2**20

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(qschur.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-B", "-m", "qschur", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=capped,
    )


def test_a_huge_degree_needs_no_memory_of_its_size():
    # Reducing one canonical monomial needs O(1) state at any d: a context
    # builds its idempotent pairs only when something walks them.  The child
    # runs under a 512 MiB address-space cap, where a list of d + 1 pairs at
    # d = 10^12 ends in MemoryError instead of the whole machine's memory.
    d = 10**12
    run = _run_capped(["reduce", "--d", str(d), "--monomial", f"1,2,{d - 2},3"], 512)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines() == [
        f"result: e^(1) K[2,{d - 2}] f^(3)",
        f"s: {6 - d}",
        "k: none (already canonical)",
    ]


def test_running_out_of_memory_exits_2_with_one_error_line():
    # basis walks all d + 1 idempotents.  Under the cap the walk ends in
    # MemoryError, which is bad input like any other (exit 2, one line), not
    # the interpreter's dump of an exception it could not print (exit 1).
    run = _run_capped(["basis", "--d", str(10**11)], 128)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == f"error: out of memory at d={10**11}\n"
