"""Shared fixtures."""

import pytest

import plancode.separation as separation_mod
from oracles import fine_level_schedule


@pytest.fixture
def fine_schedule(monkeypatch):
    """Separate every host under ``oracles.fine_level_schedule``, so that
    hosts of 7 to 10 and of 26 to 72 nodes, which ``level_schedule`` leaves
    whole, get a level.  Encode reads the schedule; decode does not."""
    monkeypatch.setattr(separation_mod, "level_schedule", fine_level_schedule)
