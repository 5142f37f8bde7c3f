"""Fixtures shared by every test module."""

import pytest

from qschur import suites


@pytest.fixture(autouse=True)
def _fresh_representations():
    """Forget the suites' representations after each test.

    A failed test's traceback can keep a representation alive in
    ``suites._REPS``, and its caches may have been filled under a
    monkeypatch; the next test must build its own.
    """
    yield
    suites._REPS.clear()
