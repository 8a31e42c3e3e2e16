"""The CI workflow parses, and each of its steps can run and be told apart."""

from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_ci_workflow_parses_and_names_every_run_step():
    # an invalid workflow runs no check at all, and nothing else reads it
    yaml = pytest.importorskip("yaml")  # PyYAML is not a declared dependency
    workflow = yaml.safe_load(WORKFLOW.read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert "run" in step or "uses" in step, step
        if "run" in step:
            assert step.get("name"), step["run"]
