"""Shared fixtures."""

import pytest

import ctfactor.estimate as estimate_module


@pytest.fixture
def fit_policy(monkeypatch):
    """Sets ``estimate``'s fit constants for one test: ``fit_policy(RESTARTS=1)``."""

    def set_policy(**values):
        for name, value in values.items():
            monkeypatch.setattr(estimate_module, name, value)

    return set_policy


@pytest.fixture
def tight(fit_policy):
    """EM to a log-likelihood tolerance of 1e-13, with 20000 updates to get there."""
    fit_policy(LOGLIK_TOL=1e-13, MAX_ITERATIONS=20000)
