"""The CI workflow's shell steps are valid bash: each `run:` script of
.github/workflows/tests.yml, with its ${{ ... }} expressions replaced by a
placeholder word, passes `bash -n`, so a quoting slip shows in tier-1 and
not first on the CI runner.  And the checks of the capaminer command are
tier-1 tests, not steps: only Install runs it, to check that the console
script is installed."""

import re
import subprocess
from pathlib import Path

import pytest
import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
STEPS = [step for job in yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"].values()
         for step in job["steps"] if "run" in step]


@pytest.mark.parametrize("step", STEPS, ids=[step["name"] for step in STEPS])
def test_run_script_parses(step):
    script = re.sub(r"\$\{\{.*?\}\}", "placeholder", step["run"], flags=re.DOTALL)
    checked = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True)
    assert checked.returncode == 0, checked.stderr


def test_only_install_runs_the_command():
    runs = [step["name"] for step in STEPS if re.search(r"\bcapaminer\b", step["run"])]
    assert runs == ["Install"]
    install, = (step["run"] for step in STEPS if step["name"] == "Install")
    assert "capaminer --help > /dev/null" in install.splitlines()
