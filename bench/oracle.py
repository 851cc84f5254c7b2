"""Independent re-derivation of an assessment report, used as the output check.

Nothing here imports ``reident_risk``: the table is read with :mod:`csv`, the
metadata with :mod:`json`, and every metric is a linear pass with
:class:`collections.Counter`. The entropy sums visit categories in the order
of first occurrence, as the program does, so the six-decimal strings agree
exactly rather than within a tolerance.

Only the metadata features the benchmark inputs and the bundled fixtures use
are supported: default matrices and the ``per_level`` strategy with explicit
combinations on top. Anything else raises ``ValueError``.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

EXPOSURE_CODES = {"IR": 1, "IE": 2, "ER": 3, "EE": 4}
LABELS = {
    "exposure": ("IR", "IE", "ER", "EE"),
    "severity": ("Negligible", "Limited", "Significant", "Maximum"),
    "inference": ("Weak", "Moderate", "Severe", "Critical"),
    "exploitability": ("Very Difficult", "Difficult", "Easy", "Very Easy"),
    "risk": ("Low", "Medium", "High", "Critical"),
}


def _level(scale: str, level: int) -> dict:
    return {"label": LABELS[scale][level - 1], "level": level}


def _display(level: dict) -> str:
    return f"{level['level']}-{level['label']}"


def _num(x: float) -> str:
    return f"{x:.6f}"


def read_table(path: str | Path) -> tuple[list[str], list[tuple[str, ...]]]:
    with open(path, encoding="utf-8", newline="") as stream:
        records = [[cell.strip() for cell in record] for record in csv.reader(stream)]
    return records[0], [tuple(r) for r in records[1:]]


def _severity(raw: dict) -> int:
    return max(int(raw[k]) for k in ("bodily", "material", "moral"))


def _exposure(raw) -> int:
    return raw if isinstance(raw, int) else EXPOSURE_CODES[raw]


def read_meta(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as stream:
        document = json.load(stream)
    if document.get("matrices"):
        raise ValueError("oracle supports the default matrices only")
    options = document.get("options") or {}
    if options.get("combination_strategy", "per_level") != "per_level":
        raise ValueError("oracle supports the per_level strategy only")
    return {
        "attributes": {a["name"]: a for a in document["attributes"]},
        "threshold": int(options.get("flag_threshold", 3)),
        "explicit": [list(c) for c in options.get("explicit_combinations", [])],
    }


def _entropy(counts) -> float:
    values = [float(c) for c in counts]
    total = sum(values)
    h = 0.0
    for c in values:
        p = c / total
        h -= p * math.log2(p)
    return h


def _band(x: float) -> int:
    return 1 if x < 0.25 else 2 if x < 0.5 else 3 if x < 0.75 else 4


def _exploitability(exposure: int, inference: int) -> int:
    return (exposure + inference) // 2


def _risk(exploitability: int, severity: int) -> int:
    product = exploitability * severity
    return 1 if product <= 2 else 2 if product <= 6 else 3 if product <= 9 else 4


def _classes(rows, idxs: list[int], s: int | None = None) -> dict:
    """Class key -> Counter of sensitive values (or of None when ``s`` is None)."""
    classes: dict[tuple, Counter] = {}
    for row in rows:
        key = tuple(row[i] for i in idxs)
        counter = classes.get(key)
        if counter is None:
            counter = classes[key] = Counter()
        counter[None if s is None else row[s]] += 1
    return classes


def combinations(header: list[str], meta: dict) -> list[dict]:
    """Individual QIs, then one group per occupied exposure level, then the
    explicit combinations; duplicates by member set keep the first."""
    attrs = meta["attributes"]
    qis = [n for n in header if attrs[n]["role"] == "quasi_identifier"]
    exposure = {n: _exposure(attrs[n]["exposure"]) for n in qis}

    def make(names, origin):
        members = sorted(names, key=header.index)
        return {"members": members, "exposure": max(exposure[n] for n in members), "origin": origin}

    candidates = [make([n], "individual") for n in qis]
    for level in sorted(set(exposure.values()), reverse=True):
        candidates.append(make([n for n in qis if exposure[n] == level], "per_level_group"))
    candidates.extend(make(c, "explicit") for c in meta["explicit"])
    seen, result = set(), []
    for c in candidates:
        key = frozenset(c["members"])
        if key not in seen:
            seen.add(key)
            result.append(c)
    return result


def top_combination(header: list[str], meta: dict) -> dict:
    """The combination flagged records are scored under."""
    return min(
        combinations(header, meta),
        key=lambda c: (-c["exposure"], -len(c["members"]), [header.index(n) for n in c["members"]]),
    )


def top_combo_sizes(header, rows, meta) -> tuple[int, int]:
    """(classes, singleton classes) under the top combination."""
    idxs = [header.index(n) for n in top_combination(header, meta)["members"]]
    sizes = Counter(tuple(row[i] for i in idxs) for row in rows)
    return len(sizes), sum(1 for v in sizes.values() if v == 1)


def expected_report(header, rows, meta) -> dict:
    """The checked parts of the report, in the report's JSON form."""
    attrs = meta["attributes"]
    n = len(rows)
    qis = [a for a in header if attrs[a]["role"] == "quasi_identifier"]
    sensitives = [a for a in header if attrs[a]["role"] == "sensitive"]
    combos = combinations(header, meta)
    top = top_combination(header, meta)
    qi_idxs = [header.index(a) for a in qis]

    exploitability_rows, risk_rows, dr_entries, l_entries, flagged = [], [], [], [], []
    for s_name in sensitives:
        s = header.index(s_name)
        column = Counter(row[s] for row in rows)
        overrides = attrs[s_name].get("value_severity") or {}
        rating = attrs[s_name].get("severity")
        severity_of = {
            v: _severity(overrides[v]) if v in overrides else _severity(rating) for v in column
        }
        max_severity = max(severity_of.values())
        h_s = _entropy(column.values())

        scored = []
        for combo in combos:
            idxs = [header.index(m) for m in combo["members"]]
            h_given = 0.0
            for counter in _classes(rows, idxs, s).values():
                h_given += (sum(counter.values()) / n) * _entropy(counter.values())
            dr = 1.0 if h_s == 0.0 else min(1.0, max(0.0, 1.0 - h_given / h_s))
            inference = _band(dr)
            expl = _exploitability(combo["exposure"], inference)
            sort_key = (-expl, -combo["exposure"], -inference, -len(idxs), idxs)
            scored.append((sort_key, combo, h_given, dr, inference, expl))
        scored.sort(key=lambda item: item[0])
        for _, combo, h_given, dr, inference, expl in scored:
            exposure = _level("exposure", combo["exposure"])
            exploitability_rows.append(
                {
                    "combination": combo["members"],
                    "dr": _num(dr),
                    "exploitability": _level("exploitability", expl),
                    "exposure": exposure,
                    "inference": _level("inference", inference),
                    "origin": combo["origin"],
                    "sensitive": s_name,
                }
            )
            risk_rows.append(
                {
                    "combination": combo["members"],
                    "description": f"Re-identification risk based on {_display(exposure)}: "
                    + "/".join(combo["members"]),
                    "exploitability": _level("exploitability", expl),
                    "risk": _level("risk", _risk(expl, max_severity)),
                    "sensitive": s_name,
                    "severity": _level("severity", max_severity),
                }
            )
            dr_entries.append(
                {
                    "dr": _num(dr),
                    "h_s": _num(h_s),
                    "h_s_given_qi": _num(h_given),
                    "inference": _level("inference", inference),
                    "qi": combo["members"],
                    "sensitive": s_name,
                }
            )

        l_entries.append(
            {"l": min(len(c) for c in _classes(rows, qi_idxs, s).values()), "sensitive": s_name}
        )

        top_idxs = [header.index(m) for m in top["members"]]
        class_score = {}
        for key, counter in _classes(rows, top_idxs, s).items():
            h_class = _entropy(counter.values())
            if h_class == 0.0 or h_s == 0.0:
                class_score[key] = 1.0
            else:
                class_score[key] = min(1.0, max(0.0, 1.0 - h_class / h_s))
        for i, row in enumerate(rows):
            level = severity_of[row[s]]
            if level < meta["threshold"]:
                continue
            score = class_score[tuple(row[j] for j in top_idxs)]
            record_expl = _exploitability(top["exposure"], _band(score))
            flagged.append(
                {
                    "attribute": s_name,
                    "class_inference": _num(score),
                    "record_risk": _level("risk", _risk(record_expl, level)),
                    "row": i + 1,
                    "value": row[s],
                    "value_severity": _level("severity", level),
                }
            )

    return {
        "row_count": n,
        "exploitability_rows": exploitability_rows,
        "risk_rows": risk_rows,
        "overall_risk": _level("risk", max(r["risk"]["level"] for r in risk_rows)),
        "flagged_records": flagged,
        "metrics_appendix": {
            "qi_set": qis,
            "k_anonymity": min(sum(c.values()) for c in _classes(rows, qi_idxs).values()),
            "l_diversity": l_entries,
            "discrimination_rates": dr_entries,
        },
    }


def compare(report: dict, expected: dict) -> list[str]:
    """Problems found comparing a report against :func:`expected_report`."""
    problems = []
    for key, want in expected.items():
        got = report.get(key)
        if key == "metrics_appendix" and isinstance(got, dict):
            problems.extend(
                f"metrics_appendix.{k}: differs from the oracle"
                for k, v in want.items()
                if got.get(k) != v
            )
        elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
            bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
            if bad is not None:
                problems.append(f"{key}[{bad}]: got {got[bad]!r}, oracle {want[bad]!r}")
        elif got != want:
            shown = f"{len(got)} entries, oracle {len(want)}" if isinstance(got, list) else repr(got)
            problems.append(f"{key}: got {shown}")
    return problems


def markdown_lines(report: dict) -> list[str]:
    """Lines the Markdown rendering of ``report`` must contain, in order."""
    appendix = report["metrics_appendix"]
    lines = [
        f"# Re-identification Risk Assessment: {report['dataset_label']}",
        f"- Dataset: {report['dataset_label']} ({report['row_count']} rows)",
        f"- Overall risk: **{_display(report['overall_risk'])}**",
    ]
    lines.extend(
        "| " + " | ".join(f"**{cell}**" for cell in (
            rec["row"], rec["attribute"], rec["value"], _display(rec["value_severity"]),
            rec["class_inference"], _display(rec["record_risk"]),
        )) + " |"
        for rec in report["flagged_records"]
    )
    lines.append(f"- k-anonymity over {'/'.join(appendix['qi_set'])}: {appendix['k_anonymity']}")
    lines.extend(
        f"- distinct l-diversity for {e['sensitive']}: {e['l']}" for e in appendix["l_diversity"]
    )
    lines.extend(
        "| " + " | ".join((
            dr["sensitive"], "/".join(dr["qi"]), dr["h_s"], dr["h_s_given_qi"], dr["dr"],
            _display(dr["inference"]),
        )) + " |"
        for dr in appendix["discrimination_rates"]
    )
    return lines


def check_markdown(text: str, report: dict) -> list[str]:
    """The Markdown must carry the verified JSON report's numbers, in order."""
    wanted = markdown_lines(report)
    found = 0
    for line in text.splitlines():
        if found < len(wanted) and line == wanted[found]:
            found += 1
    if found == len(wanted):
        return []
    return [f"markdown: missing or out of order: {wanted[found]!r}"]
