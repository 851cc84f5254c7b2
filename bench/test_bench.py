"""Self-tests of the benchmark: ``python3 -m pytest bench -q`` from the repository root."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = {"raw_unique": {"rows": 150}, "kanon_bulk": {"rows": 1200, "classes": 12, "k": 90}}


def _digests(hash_seed: str) -> str:
    code = (
        "import hashlib, gen\n"
        "for f in (gen.raw_unique, gen.kanon_bulk):\n"
        "    for part in f(7):\n"
        "        print(hashlib.sha256(part).hexdigest())\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_generator_is_deterministic_across_processes():
    first, second = _digests("1"), _digests("2")
    assert first == second
    assert len(set(first.split())) == 4


def test_generator_seed_changes_the_table():
    import gen

    assert gen.raw_unique(1, rows=50) != gen.raw_unique(2, rows=50)


def test_oracle_does_not_import_the_program():
    code = "import sys, oracle; print(any(m.startswith('reident_risk') for m in sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def _fixture_expectation(name, tmp_path):
    from reident_risk.fixtures import write_fixture

    csv_path, meta_path = write_fixture(name, tmp_path)
    header, rows = oracle.read_table(csv_path)
    return oracle.expected_report(header, rows, oracle.read_meta(meta_path))


@pytest.mark.parametrize("name", run.FIXTURES)
def test_oracle_reproduces_golden_reports(name, tmp_path):
    golden = json.loads((ROOT / "tests" / "golden" / f"{name}.json").read_bytes())
    assert oracle.compare(golden, _fixture_expectation(name, tmp_path)) == []


def test_oracle_rejects_a_wrong_number(tmp_path):
    golden = json.loads((ROOT / "tests" / "golden" / "hipaa.json").read_bytes())
    golden["metrics_appendix"]["discrimination_rates"][0]["h_s_given_qi"] = "0.000001"
    golden["flagged_records"][-1]["class_inference"] = "0.500000"
    problems = oracle.compare(golden, _fixture_expectation("hipaa", tmp_path))
    assert len(problems) == 2


def test_markdown_check_needs_every_flagged_row():
    from reident_risk import assess, fixtures, to_markdown
    from reident_risk.report import report_to_dict

    meta = fixtures.fixture_metadata()
    report = assess(fixtures.fixture_dataset("initial"), meta.attributes, meta.options)
    document = report_to_dict(report)
    text = to_markdown(report)
    assert oracle.check_markdown(text, document) == []
    dropped = "\n".join(line for line in text.splitlines() if "**HIV**" not in line)
    assert oracle.check_markdown(dropped, document) != []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reduced_smoke_run_has_no_failures(workload):
    result = run.run(workload, 3, 0.2, "both", ROOT, SMALL.get(workload))
    assert result["attempted"] >= 4
    assert result["failed"] == 0 and result["correct"]
    assert set(result["metrics"]) == set(run.END_TO_END) | set(run.PER_LAYER)


def test_trace_self_times_add_up_to_the_traced_time(tmp_path):
    import reident_risk.cli

    runner = run.Runner(reident_risk.cli)
    cases = run.build_cases("raw_unique", 5, tmp_path, ROOT, SMALL["raw_unique"])
    tracer = Tracer()
    with tracer.installed():
        walls = [runner.assess(case, tracer)[0] for case in cases]
    assert runner.failed == 0
    assert sum(tracer.self_s.values()) == pytest.approx(sum(walls), rel=0.02)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, "bench/run.py", "--workload", "raw_unique", "--seed", "1"]
    done = subprocess.run(
        command + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "reident_risk" in done.stderr
