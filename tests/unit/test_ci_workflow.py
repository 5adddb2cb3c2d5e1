"""The CI workflow, checked without running Actions: every command line
it carries must still mean something to this checkout."""

import re
import shlex
from pathlib import Path

import pytest

from repro.faults import SCENARIOS
from repro.tools import build_parser

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[2]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def _command_lines():
    """Every shell line of every ``run:`` string: job steps and the
    smoke matrix rows alike."""
    doc = yaml.safe_load(WORKFLOW.read_text())
    runs = []
    for job in doc["jobs"].values():
        runs += [step["run"] for step in job["steps"] if "run" in step]
        include = job.get("strategy", {}).get("matrix", {}).get("include", [])
        runs += [row["run"] for row in include]
    for run in runs:
        for line in run.replace("\\\n", " ").splitlines():
            if line.strip() and "${{" not in line:
                yield shlex.split(line)


def test_workflow_keeps_four_jobs_and_every_smoke_row_runs_something():
    doc = yaml.safe_load(WORKFLOW.read_text())
    assert sorted(doc["jobs"]) == ["lint", "perf-selfcheck", "smoke", "tests"]
    rows = doc["jobs"]["smoke"]["strategy"]["matrix"]["include"]
    names = [row["name"] for row in rows]
    assert len(names) == len(set(names)) == 12
    assert all(row["run"].strip() for row in rows)


def test_the_bench_suite_runs_on_one_interpreter():
    """``pytest benchmarks/`` is minutes of deterministic simulation
    (``bench_population``'s 10^7 offered ops, ``bench_parallel`` at full
    scale): the ``tests`` job runs ``tests/`` on every interpreter of
    its matrix and the benches on the newest one only."""
    job = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]
    versions = job["strategy"]["matrix"]["python-version"]
    assert len(versions) >= 3 and versions[-1] == "3.12"
    by_target = {step["run"].split()[1]: step
                 for step in job["steps"] if "pytest" in step.get("run", "")}
    assert sorted(by_target) == ["benchmarks/", "tests/"]
    assert "if" not in by_target["tests/"]
    assert by_target["benchmarks/"]["if"] == \
        "matrix.python-version == '3.12'"


def test_the_tests_job_logs_its_slowest_tests():
    """Tier-1's wall time is a number the ROADMAP tracks; the log of
    every run says which tests own it."""
    job = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]
    tier1 = [step["run"] for step in job["steps"]
             if step.get("run", "").startswith("pytest tests/")]
    assert len(tier1) == 1 and "--durations=20" in tier1[0].split()


def test_the_perf_smoke_row_ends_by_enforcing_the_recorded_bounds():
    """ROADMAP: a floor is "what ``perf history`` enforces" — so it runs,
    after the benches of its row have rewritten their files."""
    rows = yaml.safe_load(WORKFLOW.read_text())[
        "jobs"]["smoke"]["strategy"]["matrix"]["include"]
    perf = next(row for row in rows if row["name"] == "perf")
    assert perf["run"].strip().splitlines()[-1].strip() == \
        "python -m repro.tools perf history"


def test_every_example_runs_in_the_examples_smoke_row():
    """Examples are callers too: each one runs end to end in CI."""
    rows = yaml.safe_load(WORKFLOW.read_text())[
        "jobs"]["smoke"]["strategy"]["matrix"]["include"]
    row = next(row for row in rows if row["name"] == "examples")
    ran = [shlex.split(line) for line in row["run"].strip().splitlines()]
    assert sorted(ran) == [["python", f"examples/{path.name}"]
                           for path in sorted(ROOT.glob("examples/*.py"))]


def test_every_cli_line_parses_and_names_a_known_scenario():
    parser = build_parser()
    cli_lines = [words[3:] for words in _command_lines()
                 if words[:3] == ["python", "-m", "repro.tools"]]
    assert len(cli_lines) >= 12
    for argv in cli_lines:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"workflow command no longer parses: {argv}")
        if args.command == "chaos" and args.resize:
            assert "resize/" + args.resize in SCENARIOS, argv
        if args.command == "observe":
            assert args.fault in SCENARIOS, argv


def test_every_pytest_path_exists():
    paths = [word for words in _command_lines() if "pytest" in words
             for word in words if word.endswith((".py", "/"))]
    assert len(paths) >= 10
    for path in paths:
        assert (ROOT / path).exists(), path


def test_every_runtime_dependency_is_imported_somewhere():
    """``pip install -e .[dev]`` is what every CI job runs, so a runtime
    dependency nothing imports is installed in all of them for nothing
    (``numpy`` was listed for ten PRs and imported by none)."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r"^dependencies = \[(.*?)\]", pyproject,
                         re.S | re.M).group(1)
    names = [re.split(r"[<>=!~\[; ]", spec, maxsplit=1)[0]
             for spec in re.findall(r'"([^"]+)"', declared)]
    sources = "\n".join(path.read_text()
                        for path in (ROOT / "src").rglob("*.py"))
    unused = [name for name in names if not re.search(
        rf"^\s*(import|from) {re.escape(name.replace('-', '_'))}\b",
        sources, re.M)]
    assert unused == []
