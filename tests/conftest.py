"""Shared test plumbing: the acceptance scoreboard.

Acceptance tests record one verdict line each; the lines are replayed in
the terminal summary so they survive pytest's output capture; and a
fixture that sends 3D quadric sections to the polar rule.
"""
import numpy as np
import pytest

from ccgeom import sections

ACCEPTANCE_LINES = []


def record_verdict(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def refuse_closed_forms(monkeypatch):
    """A function that has ``sections._form_check`` refuse every level, as it
    refuses a level where F is off its kind's form: each 3D quadric level
    then takes the polar rule, with its form-guessed ray batches, and its
    diameter the 128-node grid. refuse(False) restores the check."""
    check = sections._form_check

    def refused(body, anchors, guide):
        return np.zeros(len(anchors), dtype=bool), 2 * sections._FIRST_NODES

    def refuse(on=True):
        monkeypatch.setattr(sections, "_form_check", refused if on else check)
    return refuse
