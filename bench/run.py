"""Seeded benchmark of ``reident-risk assess``, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload raw_unique --seed 1 --seconds 20 --trace 0

The program under test is the package in ``src/`` of the current directory,
imported in-process; the run fails before measuring anything when it is
absent. One caller runs assessments one after another through
``reident_risk.cli.main`` (a closed loop, one process, no threads), each from
the generated CSV and metadata files to the report files written. Every
report is checked: against ``tests/golden`` for the bundled fixtures, and
against the independent oracle in ``oracle.py`` for the generated tables.

The real CLI starts a fresh process for every call, so state carried from one
call to the next must not read as a gain. The timed loop therefore rotates
over ``VARIANTS`` inputs written at the start, each at its own path: seeded
tables of their own for the generated workloads, copies in separate
directories for the fixtures. The first assessment of the process is timed
and printed on its own as ``assess_first_s``.

The machine this runs on may change speed by a third within seconds, so
every time is reported at a nominal speed: just before each assessment the
run times a fixed pure-Python reference slice, and the assessment's wall time
is scaled by ``REF_S`` over that reference time. The reference does the same
work whatever the program does, so the scaled times still move with the
program and only the machine's drift cancels. Wall times are printed too.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``spans.py``), ``--trace both`` both. Human-readable
lines come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from pathlib import Path

import gen
import oracle
from spans import Tracer

WORKLOADS = ("raw_unique", "kanon_bulk", "fixtures_small")
FIXTURES = ("initial", "kanon", "hipaa")
SETUP_SPAWNS = 11
# Inputs the timed loop rotates over.
VARIANTS = 3
# Nominal duration of one reference slice; scaled times read in seconds at
# the speed where the slice takes this long.
REF_S = 0.002


def _reference_rows() -> list[tuple[str, ...]]:
    rng = random.Random(0)
    return [tuple(f"v{rng.randrange(30)}" for _ in range(4)) for _ in range(2000)]


_REF_ROWS = _reference_rows()

END_TO_END = {
    "assess_p50_s": "s",
    "rows_per_s": "rows/s",
    "peak_heap_mib": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "ingest.load_csv_s": "s",
    "ingest.rows": "count",
    "ingest.csv_bytes": "bytes",
    "ingest.load_metadata_s": "s",
    "model.validate_meta_s": "s",
    "engine.build_combinations_s": "s",
    "metrics.discrimination_rate_s": "s",
    "metrics.discrimination_rate_calls": "count",
    "metrics.value_inference_s": "s",
    "metrics.value_inference_calls": "count",
    "metrics.partitions_built": "count",
    "metrics.partition_useful_ratio": "ratio",
    "metrics.k_anonymity_s": "s",
    "metrics.distinct_l_diversity_s": "s",
    "engine.severity_of_value_s": "s",
    "engine.severity_lookups": "count",
    "engine.flagged_records": "count",
    "engine.top_combo_classes": "count",
    "engine.top_combo_singletons": "count",
    "engine.assess_self_s": "s",
    "report.to_json_s": "s",
    "report.json_bytes": "bytes",
    "report.to_markdown_s": "s",
    "report.markdown_bytes": "bytes",
    "cli.main_self_s": "s",
    "trace.assess_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Case:
    """One assessment: its CLI arguments, its outputs and their check."""

    def __init__(self, name, csv_path, meta_path, out, fmt, check):
        self.name = name
        self.argv = ["assess", "--data", str(csv_path), "--meta", str(meta_path)]
        self.argv += ["--format", fmt, "--out", str(out)]
        if fmt == "both":
            self.outputs = {"json": Path(f"{out}.json"), "markdown": Path(f"{out}.md")}
        else:
            self.outputs = {fmt: Path(out)}
        self.check = check
        header, rows = oracle.read_table(csv_path)
        self.rows = len(rows)
        self.columns = len(header)
        self.csv_bytes = csv_path.stat().st_size
        self.sha256 = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        meta = oracle.read_meta(meta_path)
        self.top_classes, self.top_singletons = oracle.top_combo_sizes(header, rows, meta)


def _golden_check(golden: bytes, label: str):
    produced = f'"dataset_label":"{label}.csv"'.encode()
    expected = f'"dataset_label":"{label}"'.encode()

    def check(case: Case) -> list[str]:
        got = case.outputs["json"].read_bytes().replace(produced, expected, 1)
        return [] if got == golden else [f"{case.name}: report differs from tests/golden"]

    return check


def _oracle_check(csv_path: Path, meta_path: Path):
    header, rows = oracle.read_table(csv_path)
    expected = oracle.expected_report(header, rows, oracle.read_meta(meta_path))

    def check(case: Case) -> list[str]:
        report = json.loads(case.outputs["json"].read_bytes())
        problems = oracle.compare(report, expected)
        if "markdown" in case.outputs and not problems:
            text = case.outputs["markdown"].read_text(encoding="utf-8")
            problems = oracle.check_markdown(text, report)
        return problems

    return check


def build_cases(workload: str, seed: int, work: Path, root: Path, sizes=None) -> list[Case]:
    """Write the workload's ``VARIANTS`` inputs under ``work`` and describe
    their assessments, in the order the timed loop runs them."""
    cases = []
    if workload == "fixtures_small":
        from reident_risk.fixtures import write_fixture

        for name in FIXTURES:
            golden = (root / "tests" / "golden" / f"{name}.json").read_bytes()
            for i in range(VARIANTS):
                copy = work / f"copy{i}"
                csv_path, meta_path = write_fixture(name, copy)
                out = copy / f"{name}.report.json"
                check = _golden_check(golden, name)
                cases.append(Case(f"{name}#{i}", csv_path, meta_path, out, "json", check))
        random.Random(seed).shuffle(cases)
        return cases
    generate = getattr(gen, workload)
    fmt = "both" if workload == "raw_unique" else "json"
    for i in range(VARIANTS):
        csv_data, meta_data = generate(seed * VARIANTS + i, **(sizes or {}))
        csv_path, meta_path = work / f"{workload}-{i}.csv", work / f"{workload}-{i}.meta.json"
        csv_path.write_bytes(csv_data)
        meta_path.write_bytes(meta_data)
        check = _oracle_check(csv_path, meta_path)
        cases.append(Case(f"{workload}#{i}", csv_path, meta_path, work / f"report-{i}", fmt, check))
    return cases


def reference_s() -> float:
    """Median time of five runs of a fixed slice of grouping, entropy and
    JSON work: how fast the machine runs at this moment."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        groups: dict[tuple, list[int]] = {}
        for i, row in enumerate(_REF_ROWS):
            groups.setdefault(row[:2], []).append(i)
        h = 0.0
        for idxs in groups.values():
            p = len(idxs) / len(_REF_ROWS)
            h -= p * math.log2(p)
        json.dumps({"/".join(k): v for k, v in groups.items()}, sort_keys=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Runs assessments through ``reident_risk.cli.main`` and counts failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.peak_bytes = 0  # tracemalloc peak of the last assessment, when tracing

    def assess(self, case: Case, tracer: Tracer | None = None) -> tuple[float, float]:
        """Run one assessment and check its outputs.

        Returns its wall time and the reference time measured just before it.
        """
        for path in case.outputs.values():
            path.unlink(missing_ok=True)
        gc.collect()
        ref = reference_s()
        self.attempted += 1
        problems = []
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        try:
            if tracer is None:
                code = self.cli.main(case.argv)
            else:
                code = tracer.request(self.cli.main, case.argv)
        except (Exception, SystemExit):
            code = None
            problems.append(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.peak_bytes = tracemalloc.get_traced_memory()[1] - base
        if code != 0 and not problems:
            problems.append(f"exit code {code}")
        if not problems:
            try:
                problems = case.check(case)
            except (OSError, ValueError, KeyError, TypeError):
                problems.append(traceback.format_exc())
        if problems:
            self.failed += 1
            print(f"FAILED {case.name}: {problems[0]}", file=sys.stderr)
        return elapsed, ref


def _scaled(sample: tuple[float, float]) -> float:
    wall, ref = sample
    return wall * REF_S / ref


def _setup_times(root: Path) -> list[tuple[float, float]]:
    """Wall time of fresh interpreters that import ``reident_risk.cli`` and
    exit, each with the reference time measured just before it."""
    code = f"import sys; sys.path.insert(0, {str(root / 'src')!r}); import reident_risk.cli"
    command = [sys.executable, "-c", code]
    subprocess.run(command, check=True, cwd=root)  # byte-compiles once, untimed
    times = []
    for _ in range(SETUP_SPAWNS):
        ref = reference_s()
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=root)
        times.append((time.perf_counter() - start, ref))
    return times


def end_to_end(runner: Runner, cases: list[Case], seconds: float, root: Path) -> dict:
    # A warm-up of every input keeps one-time lazy allocations out of the
    # peak; the process's first assessment is reported on its own.
    first = _scaled(runner.assess(cases[0]))
    for case in cases[1:]:
        runner.assess(case)
    peaks = []
    tracemalloc.start()
    try:
        for case in cases:  # untimed
            runner.assess(case)
            peaks.append(runner.peak_bytes)
    finally:
        tracemalloc.stop()

    samples, rows = [], 0
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        case = cases[len(samples) % len(cases)]
        samples.append(runner.assess(case))
        rows += case.rows
    setup = _setup_times(root)

    scaled = [_scaled(s) for s in samples]
    n = len(samples)
    print(f"assess samples: n={n}")
    print(f"assess_first_s = {first:.6f} s (first assessment of the process, untimed loop)")
    print(f"assess_p50_wall_s = {statistics.median(s[0] for s in samples):.6f} s (unscaled)")
    print(f"reference slice median = {statistics.median(s[1] for s in samples):.6f} s")
    if n >= 100:  # at least ten samples beyond the 90th percentile
        p90 = statistics.quantiles(scaled, n=10)[-1]
        print(f"assess_p90_s = {p90:.6f} s (n={n})")
    print(f"setup_wall_s = {statistics.median(s[0] for s in setup):.6f} s (unscaled, n={len(setup)})")
    return {
        "assess_p50_s": statistics.median(scaled),
        "rows_per_s": rows / sum(scaled),
        "peak_heap_mib": max(peaks) / 2**20,
        "setup_s": statistics.median(_scaled(s) for s in setup),
    }


def per_layer(runner: Runner, cases: list[Case], seconds: float) -> tuple[dict, Tracer]:
    runner.assess(cases[0])  # warm-up
    tracer = Tracer()
    plain, traced, done = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        case = cases[len(traced) % len(cases)]
        plain.append(runner.assess(case))
        with tracer.installed():
            traced.append(runner.assess(case, tracer))
        done.append(case)

    n = len(traced)
    # Layer times are scaled by the run's median reference time.
    factor = REF_S / statistics.median(ref for _, ref in traced)
    total = defaultdict(float, {k: v * factor for k, v in tracer.total_s.items()})
    self_s = defaultdict(float, {k: v * factor for k, v in tracer.self_s.items()})
    calls = tracer.calls
    partitions = calls["metrics.equivalence_classes"]
    useful = sum(len(s) for s in tracer.partitioned_sets)
    # Each case's outputs are those of its last assessment, which was traced.
    sizes = {}
    for case in set(done):
        json_path, md_path = case.outputs.get("json"), case.outputs.get("markdown")
        sizes[case.name] = (
            json_path.stat().st_size if json_path else 0,
            md_path.stat().st_size if md_path else 0,
            len(json.loads(json_path.read_bytes())["flagged_records"]) if json_path else 0,
        )
    json_bytes, markdown_bytes, flagged = (sum(x) for x in zip(*(sizes[c.name] for c in done)))
    metrics = {
        "ingest.load_csv_s": total["ingest.load_csv"] / n,
        "ingest.rows": sum(c.rows for c in done) / n,
        "ingest.csv_bytes": sum(c.csv_bytes for c in done) / n,
        "ingest.load_metadata_s": total["ingest.load_metadata"] / n,
        "model.validate_meta_s": total["model.validate_meta"] / n,
        "engine.build_combinations_s": total["engine.build_combinations"] / n,
        "metrics.discrimination_rate_s": total["metrics.discrimination_rate"] / n,
        "metrics.discrimination_rate_calls": calls["metrics.discrimination_rate"] / n,
        "metrics.value_inference_s": total["metrics.value_inference"] / n,
        "metrics.value_inference_calls": calls["metrics.value_inference"] / n,
        "metrics.partitions_built": partitions / n,
        "metrics.partition_useful_ratio": useful / partitions if partitions else 0.0,
        "metrics.k_anonymity_s": total["metrics.k_anonymity"] / n,
        "metrics.distinct_l_diversity_s": total["metrics.distinct_l_diversity"] / n,
        "engine.severity_of_value_s": total["engine.severity_of_value"] / n,
        "engine.severity_lookups": calls["engine.severity_of_value"] / n,
        "engine.flagged_records": flagged / n,
        "engine.top_combo_classes": sum(c.top_classes for c in done) / n,
        "engine.top_combo_singletons": sum(c.top_singletons for c in done) / n,
        "engine.assess_self_s": self_s["engine.assess"] / n,
        "report.to_json_s": total["report.to_json"] / n,
        "report.json_bytes": json_bytes / n,
        "report.to_markdown_s": total["report.to_markdown"] / n,
        "report.markdown_bytes": markdown_bytes / n,
        "cli.main_self_s": self_s["cli.main"] / n,
        "trace.assess_s": statistics.fmean(wall for wall, _ in traced) * factor,
        "trace.overhead_ratio": statistics.median(map(_scaled, traced))
        / statistics.median(map(_scaled, plain)),
    }
    print(f"traced assessments: n={n}; untraced: n={len(plain)}")
    print(f"trace self times = {sum(tracer.self_s.values()) / sum(w for w, _ in traced):.6f} "
          "of the traced assessment time")
    return metrics, tracer


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")


def run(workload, seed, seconds, trace, root: Path, sizes=None) -> dict:
    """Measure one workload; return the result object printed as the last line."""
    import reident_risk.cli

    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cases = build_cases(workload, seed, work, root, sizes)
        for case in cases:
            print(
                f"input {case.name}: sha256={case.sha256} rows={case.rows} "
                f"columns={case.columns} engine.top_combo_classes={case.top_classes}"
            )
        runner = Runner(reident_risk.cli)
        metrics = {}
        if trace in ("0", "both"):
            e2e = end_to_end(runner, cases, seconds, root)
            _print_metrics(e2e, END_TO_END)
            metrics.update({k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()})
        if trace in ("1", "both"):
            layers, tracer = per_layer(runner, cases, seconds)
            _print_metrics(layers, PER_LAYER)
            metrics.update({k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()})
            spans_out = root / ".bench_out" / f"spans-{workload}-{seed}.json"
            spans_out.parent.mkdir(exist_ok=True)
            spans_out.write_text(json.dumps(tracer.spans), encoding="utf-8")
        print(f"failed_ratio = {runner.failed / runner.attempted:.6g} ratio "
              f"({runner.failed} of {runner.attempted})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1", "both"))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "reident_risk" / "cli.py").is_file():
        print(f"error: {root}: no reident_risk sources under src/", file=sys.stderr)
        return 2
    if not (root / "tests" / "golden").is_dir():
        print(f"error: {root}: no tests/golden directory", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result = run(args.workload, args.seed, args.seconds, args.trace, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
