import json
from importlib import resources

import pytest

from impuritybound.bounds import ConstantsRegistry, default_registry


@pytest.fixture(scope="session")
def registry() -> ConstantsRegistry:
    return default_registry()


@pytest.fixture(scope="session")
def lambda_tilde_rows():
    ref = resources.files("impuritybound").joinpath(
        "data/lambda_tilde_sweep.json")
    return json.loads(ref.read_text())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    from test_acceptance import CRITERIA

    outcomes = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                num = int(nodeid.split("test_criterion_")[1].split("_")[0])
                outcomes[num] = status
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        status = outcomes.get(num, "not run")
        verdict = {"passed": "PASS", "not run": "NOT RUN"}.get(status, "FAIL")
        terminalreporter.write_line(
            f"criterion {num:2d}: {verdict} - {CRITERIA[num]}")
