"""Hermetic observability tests: no inherited journal or histograms env."""

from __future__ import annotations

import pytest

from repro.obs import configure_journal


@pytest.fixture(autouse=True)
def _isolated_journal(monkeypatch):
    """Each test starts with a clean journal and no obs environment."""
    monkeypatch.delenv("REPRO_LOG_DIR", raising=False)
    monkeypatch.delenv("REPRO_LOG", raising=False)
    monkeypatch.delenv("REPRO_HISTOGRAMS", raising=False)
    configure_journal()
    yield
    configure_journal()
