"""Shared pytest wiring: prints a one-line verdict per acceptance check,
and counts eigensolves for the tests of where states are validated."""

import numpy as np
import pytest


@pytest.fixture
def eigensolve_calls(monkeypatch):
    """The shapes of every np.linalg.eigvalsh and np.linalg.eigh call the test makes."""
    calls = []

    def counted(solve):
        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return solve(a, *args, **kwargs)
        return counting

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            if getattr(rep, "when", "call") not in ("call", None):
                continue
            detail = dict(getattr(rep, "user_properties", ())).get("detail", "")
            rows.append((rep.location[1], outcome, nodeid.split("::")[-1], detail))
    if not rows:
        return
    terminalreporter.section("acceptance summary")
    for _, outcome, name, detail in sorted(rows):
        tag = "pass" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{tag}  {name}  {detail}".rstrip())
