"""Fixtures shared by every test module."""

import pytest

from qschur import suites


@pytest.fixture(autouse=True)
def _fresh_representations():
    """Forget the suites' representation after each test.

    ``suites._build_rep`` keeps its last build, whose caches may have been
    filled under a monkeypatch; the next test must build its own.
    """
    yield
    suites._build_rep.cache_clear()
