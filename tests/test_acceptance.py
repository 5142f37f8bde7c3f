"""Acceptance criteria, one test per criterion, all at tolerance zero.

Every check is an exact algebraic identity, verified symbolically and/or
against an independent oracle: the Weyl-module representation that the
suites use, or the tensor power of the natural module (``tensor_power.py``
beside this file), which criterion 1 builds at d <= 6.  The golden digests
pin every check at d = 4, healthy and under each fault, once with its
witness and once by verdict alone; the ``broken-module`` fault is the Weyl
modules with a wrong coefficient in e.
Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion.
"""

import hashlib
import json
from contextlib import contextmanager

import pytest

from qschur import oracle
from qschur.algebra import EKF, Context, Element
from qschur.laurent import LaurentPoly, gauss_binomial, quantum_int
from qschur.oracle import (
    CoproductCheckFailed,
    build_rep,
    matrix_of_element,
    span_rank,
)
from qschur.suites import SUITES, _weyl_with_short_e, run_suite, run_suites, schur_dimension
from tensor_power import tensor_rep

ONE = LaurentPoly.one()
V = LaurentPoly.v


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def _failures(report: dict) -> list:
    return [c for c in report["checks"] if not c["pass"]]


def test_criterion_1_dimension_reproduction():
    expected = {0: 1, 1: 4, 2: 10, 3: 20, 4: 35, 5: 56, 6: 84}
    with criterion(1, "dimension reproduction"):
        for d in range(7):
            ctx = Context(d)
            rep = tensor_rep(d)
            basis = ctx.monomials(EKF)
            assert len(basis) == expected[d] == schur_dimension(d)
            mats = [
                matrix_of_element(rep, Element(ctx, EKF, {m: ONE})) for m in basis
            ]
            assert span_rank(mats) == expected[d], f"d={d}"


def test_criterion_2_presentation_relations():
    with criterion(2, "presentation relations and minimal polynomials"):
        for d in range(7):
            report = run_suite("relations", d)
            assert report["pass"], (d, _failures(report)[:3])


def test_criterion_3_idempotent_decomposition():
    with criterion(3, "orthogonal idempotent decomposition"):
        for d in range(11):
            report = run_suite("idempotents", d)
            assert report["pass"], (d, _failures(report)[:3])


def test_criterion_4_reduction_formulas():
    with criterion(4, "reduction formulas in both orientations"):
        for d in range(6):
            report = run_suite("reduction", d)
            assert report["pass"], (d, _failures(report)[:3])


def test_criterion_5_multiplication_soundness():
    with criterion(5, "multiplication soundness and integrality"):
        for d in range(5):
            report = run_suite("oracle", d)
            assert report["pass"], (d, _failures(report)[:3])


def test_criterion_6_basis_change():
    with criterion(6, "K1-binomial basis change"):
        for d in range(9):
            report = run_suite("basis", d)
            assert report["pass"], (d, _failures(report)[:3])


def test_criterion_7_lusztig_identity_suite():
    with criterion(7, "divided-power and K-binomial identity suite"):
        for d in range(5):
            report = run_suite("lusztig", d)
            assert report["pass"], (d, _failures(report)[:3])


def test_criterion_8_quantum_combinatorics_kernel():
    with criterion(8, "quantum combinatorics kernel"):
        # [r+s] = v^-s [r] + v^r [s]
        for r in range(-10, 11):
            for s in range(-10, 11):
                assert quantum_int(r + s) == V(-s) * quantum_int(r) + V(r) * quantum_int(s)
        # [r+1; s] = v^-s [r; s] + v^(r-s+1) [r; s-1]
        for r in range(-10, 11):
            for s in range(0, 11):
                assert gauss_binomial(r + 1, s) == V(-s) * gauss_binomial(r, s) + V(
                    r - s + 1
                ) * gauss_binomial(r, s - 1)
        # classical limit against an integer Pascal triangle
        triangle = [[1]]
        for n in range(1, 13):
            prev = triangle[-1]
            triangle.append(
                [1] + [prev[i] + prev[i + 1] for i in range(n - 1)] + [1]
            )
        for r in range(13):
            for s in range(r + 1):
                assert gauss_binomial(r, s).evaluate(1) == triangle[r][s]


def test_criterion_9_negative_controls(monkeypatch):
    with criterion(9, "negative controls catch injected faults"):
        # Disabling the straightening step must break the dimension and
        # reduction suites.
        for d in (2, 3):
            assert not run_suite("basis", d, fault="skip-reduction")["pass"]
            assert not run_suite("reduction", d, fault="skip-reduction")["pass"]
        # A wrong Weyl module must break the presentation relations.
        for d in (2, 3):
            assert not run_suite("relations", d, fault="broken-module")["pass"]
        # The wrong module cannot even pass the build-time self-check.
        wrong = _weyl_with_short_e(3)
        monkeypatch.setattr(oracle, "_build_weyl_matrices", lambda d: wrong)
        with pytest.raises(CoproductCheckFailed):
            build_rep(3)
        monkeypatch.undo()
        # The healthy build passes the same suites (the controls are not
        # vacuous).
        for name in ("basis", "reduction", "relations"):
            assert run_suite(name, 3)["pass"]


@pytest.mark.parametrize(
    "fault, prefix, failing",
    [
        (None, "e0b40de54e35d310", 0),
        ("broken-module", "e906bf5f82f7ebf3", 10),
        ("skip-reduction", "470fea368ffd1409", 213),
    ],
)
def test_check_outcomes_match_their_golden_digest(fault, prefix, failing):
    # Ids, outcomes and witnesses of all 452 checks at d=4, healthy and under
    # each fault; faster evaluation must leave every one of them unchanged.
    checks = run_suites(list(SUITES), 4, seed=0, fault=fault)["checks"]
    assert len(checks) == 452
    assert sum(not c["pass"] for c in checks) == failing
    rows = [[c["id"], c["pass"], c.get("witness")] for c in checks]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest().startswith(prefix)


@pytest.mark.parametrize(
    "fault, prefix",
    [
        (None, "450f79fa650afe42"),
        ("broken-module", "600a86f848ac4b06"),
        ("skip-reduction", "3665b4e0ff205259"),
    ],
)
def test_check_verdicts_match_their_golden_digest(fault, prefix):
    # Ids and outcomes alone, witnesses left out: a change that only rewords
    # a witness must leave every check's verdict unchanged.
    checks = run_suites(list(SUITES), 4, seed=0, fault=fault)["checks"]
    rows = [[c["id"], c["pass"]] for c in checks]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest().startswith(prefix)
