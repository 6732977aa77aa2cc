"""Shared fixtures: expensive automata are built once per session."""

from __future__ import annotations

import pytest

from repro.spec import OP, SS
from repro.spec.det import build_det_spec
from repro.spec.nondet import build_nondet_spec


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test (deselect with -m 'not slow')"
    )


@pytest.fixture(scope="session")
def det_spec_ss_22():
    """Σdss for 2 threads, 2 variables (Algorithm 6)."""
    return build_det_spec(2, 2, SS)


@pytest.fixture(scope="session")
def det_spec_op_22():
    """Σdop for 2 threads, 2 variables (Algorithm 6)."""
    return build_det_spec(2, 2, OP)


@pytest.fixture(scope="session")
def nondet_spec_ss_22():
    """Σss for 2 threads, 2 variables (Algorithm 5)."""
    return build_nondet_spec(2, 2, SS)


@pytest.fixture(scope="session")
def nondet_spec_op_22():
    """Σop for 2 threads, 2 variables (Algorithm 5)."""
    return build_nondet_spec(2, 2, OP)


@pytest.fixture(scope="session")
def det_spec_ss_21():
    return build_det_spec(2, 1, SS)


@pytest.fixture(scope="session")
def det_spec_op_21():
    return build_det_spec(2, 1, OP)
