"""Shared scaffolding for the service tests.

The autouse fixture keeps every test hermetic against inherited fault
plans and journal configuration, mirroring ``tests/faults/conftest.py``
— the chaos tests here reconfigure both globals.
"""

from __future__ import annotations

import pytest

from repro.faults import configure_faults
from repro.obs import configure_journal


@pytest.fixture(autouse=True)
def _isolated_globals(monkeypatch):
    """Each test starts with no fault plan and a clean journal."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_LOG_DIR", raising=False)
    monkeypatch.delenv("REPRO_LOG", raising=False)
    monkeypatch.delenv("REPRO_STATE_DIR", raising=False)
    # a stateful SimulationService exports its checkpoint dir into the
    # environment; scrub it so it can't leak across tests
    monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
    configure_faults(None)
    configure_journal()
    yield
    configure_faults(None)
    configure_journal()

