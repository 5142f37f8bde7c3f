"""What ``import qschur`` loads: the engine's own modules, not unused stdlib chains."""

import subprocess
import sys
from pathlib import Path

import qschur

# dataclasses pulls in inspect, ast and dis; fractions pulls in decimal and numbers.
NOT_AT_IMPORT = ("dataclasses", "inspect", "fractions", "decimal")


def test_import_loads_no_unused_stdlib_chain():
    src = str(Path(qschur.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import qschur\n"
        f"print([name for name in {NOT_AT_IMPORT!r} if name in sys.modules])\n"
        "value = qschur.LaurentPoly.v(-1).evaluate(2)\n"
        "print(type(value).__module__, type(value).__name__, value)\n"
    )
    # -E also drops PYTHONDONTWRITEBYTECODE, so -B keeps the child from
    # writing src/qschur/__pycache__.
    run = subprocess.run(
        [sys.executable, "-B", "-E", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert run.stdout.splitlines() == ["[]", "fractions Fraction 1/2"]
