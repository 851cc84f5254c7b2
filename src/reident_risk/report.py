"""Assessment result type and its JSON / Markdown renderings.

The JSON form is canonical: object keys sorted, arrays in report order,
real-valued metrics fixed to six decimal places, UTF-8 with a trailing
newline. Reports with identical content therefore serialize to identical
bytes, which makes golden-file comparison in CI meaningful. The Markdown
form mirrors the same content for human review; levels always render with
both numeral and label ("4-Critical") in both forms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .metrics import DrResult
from .model import AttributeMeta, RiskLevel, global_severity

if TYPE_CHECKING:  # row types are produced by the engine
    from .engine import ExploitabilityRow, FlaggedRecord


@dataclass(frozen=True)
class LDiversityEntry:
    sensitive: str
    l_value: int


@dataclass(frozen=True)
class MetricsAppendix:
    """Raw metric values backing the levels, so a report can be re-derived."""

    qi_set: tuple[str, ...]
    k_anonymity: int
    l_diversity: tuple[LDiversityEntry, ...]


@dataclass(frozen=True)
class AssessmentReport:
    """Each fact once: the renderers derive the severity, override and exposure
    tables from ``attributes`` (metadata in column order), and the risk table and
    the appendix's discrimination rates from ``exploitability_rows``."""

    dataset_label: str
    row_count: int
    attributes: tuple[AttributeMeta, ...]
    exploitability_rows: tuple["ExploitabilityRow", ...]
    overall_risk: RiskLevel
    flagged_records: tuple["FlaggedRecord", ...]
    metrics_appendix: MetricsAppendix
    warnings: tuple[str, ...]


def _num(x: float) -> str:
    return f"{x:.6f}"


def _level(level) -> dict:
    return {"level": int(level), "label": level.label}


def _description(row: "ExploitabilityRow") -> str:
    combo = row.combination
    return f"Re-identification risk based on {combo.exposure.display}: " + "/".join(combo.members)


def _dr_entry(dr: DrResult) -> dict:
    return {
        "qi": list(dr.qi_set),
        "sensitive": dr.sensitive,
        "h_s": _num(dr.h_s),
        "h_s_given_qi": _num(dr.h_s_given_qi),
        "dr": _num(dr.dr),
        "inference": _level(dr.inference),
    }


def report_to_dict(report: AssessmentReport) -> dict:
    """Plain-data form of a report (the JSON document before encoding)."""
    return {
        "dataset_label": report.dataset_label,
        "row_count": report.row_count,
        "attribute_severity_table": [
            {
                "attribute": m.name,
                "bodily": _level(m.severity.bodily),
                "material": _level(m.severity.material),
                "moral": _level(m.severity.moral),
                "global": _level(global_severity(m.severity)),
            }
            for m in report.attributes
            if m.severity is not None
        ],
        "value_severity_table": [
            {"attribute": m.name, "value": v, "severity": _level(global_severity(rating))}
            for m in report.attributes
            for v, rating in m.value_severity.items()
        ],
        "exposure_table": [
            {"attribute": m.name, "exposure": _level(m.exposure)}
            for m in report.attributes
            if m.exposure is not None
        ],
        "exploitability_rows": [
            {
                "sensitive": row.sensitive,
                "combination": list(row.combination.members),
                "origin": row.combination.origin.value,
                "exposure": _level(row.combination.exposure),
                "inference": _level(row.inference),
                "dr": _num(row.dr.dr),
                "exploitability": _level(row.exploitability),
            }
            for row in report.exploitability_rows
        ],
        "risk_rows": [
            {
                "description": _description(row),
                "sensitive": row.sensitive,
                "combination": list(row.combination.members),
                "exploitability": _level(row.exploitability),
                "severity": _level(row.severity),
                "risk": _level(row.risk),
            }
            for row in report.exploitability_rows
        ],
        "overall_risk": _level(report.overall_risk),
        "flagged_records": [
            {
                "row": rec.row_index + 1,
                "attribute": rec.attribute,
                "value": rec.sensitive_value,
                "value_severity": _level(rec.value_severity),
                "class_inference": _num(rec.class_inference),
                "record_risk": _level(rec.record_risk),
            }
            for rec in report.flagged_records
        ],
        "metrics_appendix": {
            "qi_set": list(report.metrics_appendix.qi_set),
            "k_anonymity": report.metrics_appendix.k_anonymity,
            "l_diversity": [
                {"sensitive": e.sensitive, "l": e.l_value}
                for e in report.metrics_appendix.l_diversity
            ],
            "discrimination_rates": [_dr_entry(row.dr) for row in report.exploitability_rows],
        },
        "warnings": list(report.warnings),
    }


def to_json(report: AssessmentReport) -> bytes:
    """Canonical JSON bytes: sorted keys, fixed formatting, trailing newline."""
    payload = report_to_dict(report)
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def to_markdown(report: AssessmentReport) -> str:
    """Human-readable report with sections in fixed order."""
    out: list[str] = []
    out.append(f"# Re-identification Risk Assessment: {report.dataset_label}")
    out.append("")

    out.append("## Summary")
    out.append("")
    out.append(f"- Dataset: {report.dataset_label} ({report.row_count} rows)")
    out.append(f"- Overall risk: **{report.overall_risk.display}**")
    out.append("")

    out.append("## Severity")
    out.append("")
    severity_rows = [
        [
            m.name,
            m.severity.bodily.display,
            m.severity.material.display,
            m.severity.moral.display,
            global_severity(m.severity).display,
        ]
        for m in report.attributes
        if m.severity is not None
    ]
    if severity_rows:
        out.extend(_table(["Attribute", "Bodily", "Material", "Moral", "Global"], severity_rows))
    else:
        out.append("none")
    out.append("")
    override_rows = [
        [m.name, v, global_severity(rating).display]
        for m in report.attributes
        for v, rating in m.value_severity.items()
    ]
    if override_rows:
        out.append("Value severity overrides:")
        out.append("")
        out.extend(_table(["Attribute", "Value", "Severity"], override_rows))
        out.append("")

    out.append("## Exposure")
    out.append("")
    exposure_rows = [
        [m.name, m.exposure.display] for m in report.attributes if m.exposure is not None
    ]
    if exposure_rows:
        out.extend(_table(["Attribute", "Exposure"], exposure_rows))
    else:
        out.append("none")
    out.append("")

    out.append("## Exploitability")
    out.append("")
    out.extend(
        _table(
            ["Sensitive", "Combination", "Exposure", "Inference", "Exploitability"],
            [
                [
                    row.sensitive,
                    "/".join(row.combination.members),
                    row.combination.exposure.display,
                    row.inference.display,
                    row.exploitability.display,
                ]
                for row in report.exploitability_rows
            ],
        )
    )
    out.append("")

    out.append("## Risk")
    out.append("")
    out.extend(
        _table(
            ["Description", "Exploitability", "Severity", "Risk Level"],
            [
                [
                    _description(row),
                    row.exploitability.display,
                    row.severity.display,
                    row.risk.display,
                ]
                for row in report.exploitability_rows
            ],
        )
    )
    out.append("")

    out.append("## Flagged Records")
    out.append("")
    if report.flagged_records:
        out.extend(
            _table(
                ["Row", "Attribute", "Value", "Severity", "Class Inference", "Record Risk"],
                [
                    [
                        f"**{rec.row_index + 1}**",
                        f"**{rec.attribute}**",
                        f"**{rec.sensitive_value}**",
                        f"**{rec.value_severity.display}**",
                        f"**{_num(rec.class_inference)}**",
                        f"**{rec.record_risk.display}**",
                    ]
                    for rec in report.flagged_records
                ],
            )
        )
    else:
        out.append("none")
    out.append("")

    appendix = report.metrics_appendix
    out.append("## Metrics Appendix")
    out.append("")
    out.append(f"- k-anonymity over {'/'.join(appendix.qi_set)}: {appendix.k_anonymity}")
    for entry in appendix.l_diversity:
        out.append(f"- distinct l-diversity for {entry.sensitive}: {entry.l_value}")
    out.append("")
    out.extend(
        _table(
            ["Sensitive", "Quasi-identifiers", "H(S)", "H(S|QI)", "DR", "Inference"],
            [
                [
                    dr.sensitive,
                    "/".join(dr.qi_set),
                    _num(dr.h_s),
                    _num(dr.h_s_given_qi),
                    _num(dr.dr),
                    dr.inference.display,
                ]
                for dr in (row.dr for row in report.exploitability_rows)
            ],
        )
    )
    out.append("")

    out.append("## Warnings")
    out.append("")
    if report.warnings:
        out.extend(f"- {w}" for w in report.warnings)
    else:
        out.append("none")
    out.append("")

    return "\n".join(out)
