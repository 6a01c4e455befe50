"""Fixtures shared by the test modules."""

import os

import pytest

from reflectlab import samplers


@pytest.fixture
def refuse_draws(monkeypatch):
    """Fail the test at its first draw or forked helper.

    ``samplers._generators`` is the only source of random bits of every
    law, so no path can be drawn under this guard, and no sharded run can
    start its helpers.
    """
    def drew(seed, indices, stream=0):
        raise AssertionError(f"drew paths {list(indices)}")

    def forked():
        raise AssertionError("forked a helper process")

    monkeypatch.setattr(samplers, "_generators", drew)
    monkeypatch.setattr(os, "fork", forked)
