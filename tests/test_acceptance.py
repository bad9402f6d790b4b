"""Acceptance gate: every criterion at its fixed tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail
line per criterion (or ``radon-hgf suite --level desk``).
"""

import pytest

from radon_hgf import acceptance


@pytest.mark.parametrize(
    "criterion", acceptance.CRITERIA, ids=[f"criterion_{k}" for k in range(1, 14)]
)
def test_criterion(criterion):
    res = criterion()
    mark = "PASS" if res.passed else "FAIL"
    print(f"[{mark}] criterion {res.number:2d}: {res.name} "
          f"({res.seconds:.2f}s of {res.limit_s:g}s) - {res.detail}")
    # passed includes the criterion's runtime budget
    assert res.passed, f"criterion {res.number} ({res.name}): {res.detail}"


def test_criterion_over_budget_fails(monkeypatch):
    monkeypatch.setitem(acceptance.RUNTIME_LIMITS, 1, 0.0)
    res = acceptance.criterion_1()
    assert not res.passed
    assert "over budget" in res.detail
