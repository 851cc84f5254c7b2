"""Loading datasets from CSV and attribute metadata from JSON.

The metadata document carries everything an analyst decides by hand: roles,
exposure levels, severity ratings and per-value overrides, optional matrix
overrides, and assessment options. Severity components accept integers 1-4
or their labels ("negligible".."maximum"); exposure accepts 1-4 or the
IR/IE/ER/EE abbreviations (including the swapped RI/EI variants). A key the
format does not define is rejected with its JSON path.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Any, Collection, Union

from .engine import AssessmentOptions
from .model import (
    AttributeMeta,
    AttributeRole,
    Dataset,
    ExposureLevel,
    ScaleError,
    ScaleMatrix,
    SeverityRating,
    parse_severity_rating,
)

Source = Union[str, Path, IO[str]]

METADATA_VERSION = 1


class IngestError(ValueError):
    """Input could not be parsed; the message names the location."""


@dataclass(frozen=True)
class MetadataDocument:
    version: int
    attributes: tuple[AttributeMeta, ...]
    options: AssessmentOptions


def _open_text(source: Source) -> tuple[IO[str], bool, str]:
    if isinstance(source, (str, Path)):
        path = Path(source)
        # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
        return path.open("r", encoding="utf-8-sig", newline=""), True, path.name
    label = getattr(source, "name", "<stream>")
    return source, False, str(label)


def load_csv(source: Source, label: str | None = None) -> Dataset:
    """Read a comma-separated table; the first row is the header.

    Cell whitespace is trimmed at both ends, case is preserved. Ragged rows
    are rejected with their 1-based data row number.
    """
    stream, owned, default_label = _open_text(source)
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{default_label}: empty file, no header row") from None
        attributes = [cell.strip() for cell in header]
        if not attributes or all(a == "" for a in attributes):
            raise IngestError(f"{default_label}: empty header")
        if any(a == "" for a in attributes):
            raise IngestError(f"{default_label}: header contains an empty attribute name")
        duplicates = sorted({a for a in attributes if attributes.count(a) > 1})
        if duplicates:
            raise IngestError(
                f"{default_label}: duplicate header names: {', '.join(duplicates)}"
            )
        rows = []
        for number, record in enumerate(reader, start=1):
            cells = [cell.strip() for cell in record]
            if len(cells) != len(attributes):
                raise IngestError(
                    f"{default_label}: row {number} has {len(cells)} cells, "
                    f"expected {len(attributes)}"
                )
            rows.append(cells)  # Dataset builds the row tuples; one copy is enough
    finally:
        if owned:
            stream.close()
    return Dataset(
        attributes=tuple(attributes),
        rows=tuple(rows),
        source_label=label if label is not None else default_label,
    )


def _check_keys(obj: dict, allowed: Collection[str], path: str) -> None:
    """Reject a key outside ``allowed``: a misspelled option must not fall back
    to its default."""
    for key in obj:
        if key not in allowed:
            raise IngestError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise IngestError(f"{path}.{key}: required field is missing")
    return obj[key]


def _parse_attribute(raw: Any, path: str) -> AttributeMeta:
    if not isinstance(raw, dict):
        raise IngestError(f"{path}: expected an object")
    _check_keys(raw, ("name", "role", "exposure", "severity", "value_severity"), path)
    name = _require(raw, "name", path)
    if not isinstance(name, str) or not name.strip():
        raise IngestError(f"{path}.name: expected a non-empty string")
    name = name.strip()
    try:
        role = AttributeRole.parse(_require(raw, "role", path))
    except ScaleError as exc:
        raise IngestError(f"{path}.role: {exc}") from None

    exposure = None
    if raw.get("exposure") is not None:
        try:
            exposure = ExposureLevel.parse(raw["exposure"])
        except ScaleError as exc:
            raise IngestError(f"{path}.exposure: {exc}") from None

    severity = None
    if raw.get("severity") is not None:
        severity = _parse_severity(raw["severity"], f"{path}.severity")

    value_severity: dict[str, SeverityRating] = {}
    overrides = raw.get("value_severity")
    if overrides is not None:
        if not isinstance(overrides, dict):
            raise IngestError(f"{path}.value_severity: expected an object")
        for value, rating in overrides.items():
            value_severity[str(value)] = _parse_severity(
                rating, f"{path}.value_severity[{value!r}]"
            )

    return AttributeMeta(
        name=name, role=role, exposure=exposure, severity=severity, value_severity=value_severity
    )


def _parse_severity(raw: Any, path: str) -> SeverityRating:
    if not isinstance(raw, dict):
        raise IngestError(f"{path}: expected an object with bodily/material/moral")
    try:
        return parse_severity_rating(raw)
    except ScaleError as exc:
        raise IngestError(f"{path}: {exc}") from None


def _parse_matrix(raw: Any, name: str, path: str) -> ScaleMatrix:
    if not isinstance(raw, list):
        raise IngestError(f"{path}: expected a 4x4 array of levels")
    try:
        return ScaleMatrix(name=name, cells=tuple(tuple(r) for r in raw))
    except (ScaleError, TypeError, ValueError) as exc:
        raise IngestError(f"{path}: {exc}") from None


def _combinations(raw: Any) -> list:
    if not isinstance(raw, list) or any(not isinstance(c, list) for c in raw):
        raise ValueError("expected an array of attribute-name arrays")
    return raw


def _notes(raw: Any) -> list:
    if not isinstance(raw, list):
        raise ValueError("expected an array of strings")
    return raw


# Each option key names an AssessmentOptions field. The constructor coerces
# every value; these checks reject the JSON shapes it would misread.
_OPTION_CHECKS = {
    "flag_threshold": lambda raw: raw,
    "combination_strategy": lambda raw: raw,
    "explicit_combinations": _combinations,
    "notes": _notes,
}


def _parse_options(raw: Any, matrices: dict[str, ScaleMatrix], path: str) -> AssessmentOptions:
    options = AssessmentOptions(
        exploitability_matrix=matrices.get("exploitability", AssessmentOptions.exploitability_matrix),
        risk_matrix=matrices.get("risk", AssessmentOptions.risk_matrix),
    )
    if raw is None:
        return options
    if not isinstance(raw, dict):
        raise IngestError(f"{path}: expected an object")
    _check_keys(raw, _OPTION_CHECKS, path)
    for key, value in raw.items():
        if value is None:
            continue
        try:
            options = replace(options, **{key: _OPTION_CHECKS[key](value)})
        except (TypeError, ValueError) as exc:
            raise IngestError(f"{path}.{key}: {exc}") from None
    return options


def load_metadata(source: Source) -> MetadataDocument:
    """Parse and structurally validate a metadata JSON document."""
    stream, owned, label = _open_text(source)
    try:
        try:
            document = json.load(stream)
        except json.JSONDecodeError as exc:
            raise IngestError(f"{label}: invalid JSON: {exc}") from None
    finally:
        if owned:
            stream.close()

    if not isinstance(document, dict):
        raise IngestError(f"{label}: expected a JSON object at the top level")
    _check_keys(document, ("version", "attributes", "matrices", "options"), "")
    version = document.get("version")
    if version != METADATA_VERSION:
        raise IngestError(f"version: unrecognized value {version!r}, expected {METADATA_VERSION}")

    raw_attributes = document.get("attributes")
    if not isinstance(raw_attributes, list) or not raw_attributes:
        raise IngestError("attributes: expected a non-empty array")
    attributes = tuple(
        _parse_attribute(raw, f"attributes[{i}]") for i, raw in enumerate(raw_attributes)
    )

    matrices: dict[str, ScaleMatrix] = {}
    raw_matrices = document.get("matrices")
    if raw_matrices is not None:
        if not isinstance(raw_matrices, dict):
            raise IngestError("matrices: expected an object")
        _check_keys(raw_matrices, ("exploitability", "risk"), "matrices")
        for key in ("exploitability", "risk"):
            if raw_matrices.get(key) is not None:
                matrices[key] = _parse_matrix(raw_matrices[key], key, f"matrices.{key}")

    options = _parse_options(document.get("options"), matrices, "options")
    return MetadataDocument(version=int(version), attributes=attributes, options=options)


def load_csv_text(text: str, label: str) -> Dataset:
    """Convenience wrapper for in-memory CSV content."""
    return load_csv(io.StringIO(text), label=label)
