"""What ``import qschur`` loads: the engine's own modules, not unused stdlib chains."""

import subprocess
import sys
from pathlib import Path

import pytest

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


PUBLIC_NAMES = """
    EKF FKE Context ContextMismatch CoproductCheckFailed DivisionByZero Element
    EvalAtZero IndexOutOfRange LaurentMatrix LaurentPoly Monomial NotDivisible
    OracleRep ParseError build_rep change_from_kbinom_basis change_to_kbinom_basis
    convert_orientation divided_power_element element_from_json element_to_json
    format_element gauss_binomial generator_element identity_element
    idempotent_element k_element matrix_of_divided_power matrix_of_element multiply
    parse_element parse_laurent quantum_factorial quantum_int reduce_monomial
    reduction_defect run_suite run_suites schur_dimension span_rank
    verify_defining_relations zero_element
""".split()


def test_the_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 43
    assert qschur.__all__ == PUBLIC_NAMES
    assert all(hasattr(qschur, name) for name in PUBLIC_NAMES)


@pytest.mark.parametrize(
    "cls, public, operators",
    [
        (
            qschur.Element,
            "coefficient ctx exact_div_scalar is_zero orientation scale sorted_terms terms",
            "__add__ __bool__ __eq__ __mul__ __neg__ __sub__",
        ),
        (
            qschur.LaurentMatrix,
            "diagonal diagonal_exponents dim entries exact_div_scalar identity is_zero "
            "scale transpose",
            "__add__ __eq__ __mul__ __neg__ __sub__",
        ),
    ],
)
def test_the_attributes_of_elements_and_matrices_are_pinned(cls, public, operators):
    # Methods shared through a base class must not drop out of either class.
    assert sorted(name for name in dir(cls) if not name.startswith("_")) == public.split()
    for name in operators.split():
        assert getattr(cls, name, None) not in (None, getattr(object, name, None)), name
