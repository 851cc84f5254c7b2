"""Assessment engine: combinations, exploitability, risk, flagged records.

Likelihood of a successful attack is modelled per quasi-identifier
combination as a matrix lookup of (exposure, inference), and risk as a
lookup of (exploitability, severity). Both matrices default to explicit
closed forms and can be overridden from metadata:

- exploitability: cell(e, i) = floor((e + i) / 2) — a middle course between
  the linkage channel (exposure) and the inference channel;
- risk: the product e * s banded at <=2 -> 1, <=6 -> 2, <=9 -> 3, else 4.

Combined exposure of a combination is the maximum over its members: the
attacker is assumed to reach every member through the most exposed channel
the combination offers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .metrics import DrResult, Partition, band
from .model import (
    AttributeMeta,
    AttributeRole,
    Dataset,
    ExploitabilityLevel,
    ExposureLevel,
    InferenceLevel,
    RiskLevel,
    ScaleMatrix,
    SeverityLevel,
    coerce_field,
    global_severity,
    strings,
    validate_meta,
)
from .report import AssessmentReport, LDiversityEntry, MetricsAppendix

DEFAULT_EXPLOITABILITY_MATRIX = ScaleMatrix(
    name="exploitability",
    cells=tuple(tuple((e + i) // 2 for i in range(1, 5)) for e in range(1, 5)),
)


def _risk_band(product: int) -> int:
    if product <= 2:
        return 1
    if product <= 6:
        return 2
    if product <= 9:
        return 3
    return 4


DEFAULT_RISK_MATRIX = ScaleMatrix(
    name="risk",
    cells=tuple(tuple(_risk_band(e * s) for s in range(1, 5)) for e in range(1, 5)),
)


class CombinationStrategy(str, Enum):
    PER_LEVEL = "per_level"
    CUMULATIVE = "cumulative"
    EXPLICIT = "explicit"

    @classmethod
    def parse(cls, raw: "CombinationStrategy | str") -> "CombinationStrategy":
        try:
            return cls(raw.strip().lower() if isinstance(raw, str) else raw)
        except ValueError:
            raise ValueError(f"unknown combination strategy {raw!r}") from None


class CombinationOrigin(str, Enum):
    INDIVIDUAL = "individual"
    PER_LEVEL_GROUP = "per_level_group"
    CUMULATIVE_GROUP = "cumulative_group"
    EXPLICIT = "explicit"


class AssessmentError(ValueError):
    """Raised when assessment preconditions fail; carries all of them."""

    def __init__(self, errors: Sequence[str]):
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class QiCombination:
    members: tuple[str, ...]
    exposure: ExposureLevel
    origin: CombinationOrigin


@dataclass(frozen=True)
class ExploitabilityRow:
    """One (sensitive attribute, combination) pair. ``severity`` is the
    attribute's maximum value severity; ``risk`` combines it with ``exploitability``."""

    sensitive: str
    combination: QiCombination
    dr: DrResult
    exploitability: ExploitabilityLevel
    severity: SeverityLevel
    risk: RiskLevel

    @property
    def inference(self) -> InferenceLevel:
        return self.dr.inference


@dataclass(frozen=True)
class FlaggedRecord:
    """A record whose sensitive value is severe enough to call out.

    ``row_index`` is 0-based; reports render it 1-based to match the way
    source tables are usually numbered. ``class_inference`` is the
    per-class inference score of the record's equivalence class under the
    highest-exposure combination.
    """

    row_index: int
    attribute: str
    sensitive_value: str
    value_severity: SeverityLevel
    class_inference: float
    record_risk: RiskLevel


@dataclass(frozen=True)
class AssessmentOptions:
    flag_threshold: SeverityLevel = SeverityLevel.SIGNIFICANT
    combination_strategy: CombinationStrategy = CombinationStrategy.PER_LEVEL
    explicit_combinations: tuple[tuple[str, ...], ...] = ()
    exploitability_matrix: ScaleMatrix = DEFAULT_EXPLOITABILITY_MATRIX
    risk_matrix: ScaleMatrix = DEFAULT_RISK_MATRIX
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        coerce_field(self, "flag_threshold", SeverityLevel.parse)
        coerce_field(self, "combination_strategy", CombinationStrategy.parse)
        coerce_field(self, "explicit_combinations", _combinations)
        coerce_field(self, "notes", strings)
        coerce_field(self, "exploitability_matrix", _matrix)
        coerce_field(self, "risk_matrix", _matrix)


def _matrix(raw: ScaleMatrix) -> ScaleMatrix:
    if not isinstance(raw, ScaleMatrix):
        raise ValueError(f"expected a ScaleMatrix, got {raw!r}")
    return raw


def _combinations(raw: Sequence[Sequence[str]]) -> tuple[tuple[str, ...], ...]:
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"expected an array of attribute-name arrays, got {raw!r}")
    return tuple(strings(combo) for combo in raw)


def build_combinations(
    meta: Sequence[AttributeMeta],
    strategy: CombinationStrategy | str = CombinationStrategy.PER_LEVEL,
    explicit: Sequence[Sequence[str]] = (),
) -> list[QiCombination]:
    """Quasi-identifier combinations to evaluate.

    Every quasi-identifier is always evaluated individually. The strategy
    adds grouped combinations: ``per_level`` groups the attributes sharing
    each occupied exposure level, ``cumulative`` takes, for each occupied
    level, every attribute at that level or above, and ``explicit`` adds no
    automatic groups. Explicitly listed combinations are always added on
    top, whatever the strategy. Duplicates (same member set) are emitted
    once, keeping the first occurrence.
    """
    strategy = CombinationStrategy.parse(strategy)
    qis = [m for m in meta if m.role is AttributeRole.QUASI_IDENTIFIER]
    if not qis:
        raise ValueError("at least one quasi-identifier is required")
    for m in qis:
        if m.exposure is None:
            raise ValueError(f"quasi-identifier {m.name!r}: missing exposure level")
    exposure_of = {m.name: m.exposure for m in qis}
    order = {m.name: i for i, m in enumerate(qis)}

    def make(names: Sequence[str], origin: CombinationOrigin) -> QiCombination:
        members = tuple(sorted(names, key=order.__getitem__))
        return QiCombination(
            members=members,
            exposure=ExposureLevel(max(exposure_of[n] for n in members)),
            origin=origin,
        )

    candidates: list[QiCombination] = [make([m.name], CombinationOrigin.INDIVIDUAL) for m in qis]

    occupied = sorted({int(m.exposure) for m in qis}, reverse=True)
    if strategy is CombinationStrategy.PER_LEVEL:
        for level in occupied:
            members = [m.name for m in qis if int(m.exposure) == level]
            candidates.append(make(members, CombinationOrigin.PER_LEVEL_GROUP))
    elif strategy is CombinationStrategy.CUMULATIVE:
        for level in occupied:
            members = [m.name for m in qis if int(m.exposure) >= level]
            candidates.append(make(members, CombinationOrigin.CUMULATIVE_GROUP))

    for names in _combinations(explicit):
        if not names:
            raise ValueError("explicit combination must not be empty")
        for n in names:
            if n not in exposure_of:
                raise ValueError(f"explicit combination names {n!r}, not a declared quasi-identifier")
        if len(set(names)) != len(names):
            raise ValueError(f"explicit combination repeats an attribute: {list(names)!r}")
        candidates.append(make(names, CombinationOrigin.EXPLICIT))

    result: list[QiCombination] = []
    seen: set[frozenset[str]] = set()
    for c in candidates:
        key = frozenset(c.members)
        if key not in seen:
            seen.add(key)
            result.append(c)
    return result


def exploitability(
    exposure: ExposureLevel,
    inference: InferenceLevel,
    matrix: ScaleMatrix = DEFAULT_EXPLOITABILITY_MATRIX,
) -> ExploitabilityLevel:
    return ExploitabilityLevel(matrix.lookup(int(exposure), int(inference)))


def risk(
    exploitability_level: ExploitabilityLevel,
    severity: SeverityLevel,
    matrix: ScaleMatrix = DEFAULT_RISK_MATRIX,
) -> RiskLevel:
    return RiskLevel(matrix.lookup(int(exploitability_level), int(severity)))


def assess(
    dataset: Dataset,
    meta: Sequence[AttributeMeta],
    options: AssessmentOptions | None = None,
) -> AssessmentReport:
    """Run the full assessment and assemble the report.

    Raises :class:`AssessmentError` with the complete list of problems when
    the metadata does not validate against the dataset, when no sensitive
    attribute or quasi-identifier is declared, or when the dataset has
    fewer than two rows.
    """
    options = options or AssessmentOptions()
    outcome = validate_meta(dataset, meta)
    errors = list(outcome.errors)

    roles = {m.name: m.role for m in meta}
    sensitive_names = [n for n in dataset.attributes if roles.get(n) is AttributeRole.SENSITIVE]
    qi_names = [n for n in dataset.attributes if roles.get(n) is AttributeRole.QUASI_IDENTIFIER]
    if not sensitive_names:
        errors.append("at least one sensitive attribute is required")
    if not qi_names:
        errors.append("at least one quasi-identifier is required")
    if dataset.row_count < 2:
        errors.append(f"dataset has {dataset.row_count} rows; at least 2 are required")
    if errors:
        raise AssessmentError(errors)

    # Normalize metadata to dataset attribute order so member ordering and
    # every report table follow the table's own column order.
    by_name = {m.name: m for m in meta}
    ordered_meta = tuple(by_name[n] for n in dataset.attributes)

    warnings = list(outcome.warnings)
    identifier_names = [n for n in dataset.attributes if roles.get(n) is AttributeRole.IDENTIFIER]
    if identifier_names:
        listed = ", ".join(repr(n) for n in identifier_names)
        warnings.append(
            f"identifier attributes present ({listed}); they are excluded from "
            "combinations and should have been removed by anonymization"
        )
    empty_cells = sum(
        counts[values.index("")] for values, _, counts in dataset.columns.values() if "" in values
    )
    if empty_cells:
        warnings.append(
            f"dataset contains {empty_cells} empty-string cell(s), treated as a distinct category"
        )

    try:
        combinations = build_combinations(
            ordered_meta, options.combination_strategy, options.explicit_combinations
        )
    except ValueError as exc:
        raise AssessmentError([str(exc)]) from exc

    # Highest exposure first; ties go to the larger member set (weakly higher
    # inference), then dataset order. Severe records are flagged under the
    # first combination, and the stable row sort below keeps this order on ties.
    position = {name: i for i, name in enumerate(dataset.attributes)}
    combinations.sort(
        key=lambda c: (-int(c.exposure), -len(c.members), [position[n] for n in c.members])
    )
    top_combo = combinations[0]
    qi_set = tuple(qi_names)

    # One partition per combination, shared by every sensitive attribute;
    # only the flagging and appendix partitions outlive their iteration.
    dr_by_sensitive: dict[str, list[DrResult]] = {s: [] for s in sensitive_names}
    top_partition = appendix_partition = None
    for combo in combinations:
        partition = Partition(dataset, combo.members)
        for sensitive in sensitive_names:
            dr_by_sensitive[sensitive].append(partition.discrimination_rate(sensitive))
        if combo is top_combo:
            top_partition = partition
        if combo.members == qi_set:
            appendix_partition = partition
    if appendix_partition is None:
        appendix_partition = Partition(dataset, qi_set)

    # A flagged record's risk depends only on its class's inference band and
    # its value's severity: 16 outcomes, looked up rather than recomputed.
    record_risk = {
        (inference, severity): risk(
            exploitability(top_combo.exposure, inference, options.exploitability_matrix),
            severity,
            options.risk_matrix,
        )
        for inference in InferenceLevel
        for severity in SeverityLevel
    }
    exploitability_rows = []
    flagged: list[FlaggedRecord] = []
    for sensitive in sensitive_names:
        values, codes, _ = dataset.columns[sensitive]
        entry = by_name[sensitive]  # validated: a sensitive attribute carries a severity
        value_severities = [
            global_severity(entry.value_severity.get(v, entry.severity)) for v in values
        ]
        attribute_max_severity = SeverityLevel(max(value_severities))

        rows = []
        for combo, dr in zip(combinations, dr_by_sensitive[sensitive]):
            level = exploitability(combo.exposure, dr.inference, options.exploitability_matrix)
            rows.append(
                ExploitabilityRow(
                    sensitive=sensitive,
                    combination=combo,
                    dr=dr,
                    exploitability=level,
                    severity=attribute_max_severity,
                    risk=risk(level, attribute_max_severity, options.risk_matrix),
                )
            )
        rows.sort(
            key=lambda r: (-int(r.exploitability), -int(r.combination.exposure), -int(r.inference))
        )
        exploitability_rows.extend(rows)

        if rows and rows[0].dr.h_s == 0.0:
            warnings.append(
                f"sensitive attribute {sensitive!r} carries a single value; "
                "discrimination rate is defined as 1"
            )

        class_scores = top_partition.class_inference(sensitive)
        for i, code in enumerate(codes):
            level = value_severities[code]
            if level < options.flag_threshold:
                continue
            score = class_scores[top_partition.class_of[i]]
            flagged.append(
                FlaggedRecord(
                    row_index=i,
                    attribute=sensitive,
                    sensitive_value=values[code],
                    value_severity=level,
                    class_inference=score,
                    record_risk=record_risk[band(score), level],
                )
            )

    overall_risk = max(r.risk for r in exploitability_rows)

    appendix = MetricsAppendix(
        qi_set=qi_set,
        k_anonymity=appendix_partition.k_anonymity(),
        l_diversity=tuple(
            LDiversityEntry(sensitive=s, l_value=appendix_partition.l_diversity(s))
            for s in sensitive_names
        ),
    )

    warnings.extend(options.notes)

    return AssessmentReport(
        dataset_label=dataset.source_label,
        row_count=dataset.row_count,
        attributes=ordered_meta,
        exploitability_rows=tuple(exploitability_rows),
        overall_risk=overall_risk,
        flagged_records=tuple(flagged),
        metrics_appendix=appendix,
        warnings=tuple(warnings),
    )
