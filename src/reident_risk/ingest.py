"""Loading datasets from CSV and attribute metadata from JSON.

The metadata document carries everything an analyst decides by hand: roles,
exposure levels, severity ratings and per-value overrides, optional matrix
overrides, and assessment options. The loader checks the document's shape
(objects, arrays, allowed and required keys; null means absent) and leaves
each value to the constructor that owns it, so a document and the library
accept the same values. Every error names its JSON path.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Collection, Iterator, Union

from .engine import AssessmentOptions
from .model import AttributeMeta, Dataset, ScaleMatrix

Source = Union[str, Path, IO[str]]

METADATA_VERSION = 1


class IngestError(ValueError):
    """Input could not be parsed; the message names the location."""


@dataclass(frozen=True)
class MetadataDocument:
    version: int
    attributes: tuple[AttributeMeta, ...]
    options: AssessmentOptions


@contextmanager
def _open_text(source: Source) -> Iterator[tuple[IO[str], str]]:
    """Yield ``(stream, label)``. A path is opened here and closed on exit; a
    stream belongs to the caller and is left open."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
        with path.open("r", encoding="utf-8-sig", newline="") as stream:
            yield stream, path.name
    else:
        yield source, str(getattr(source, "name", "<stream>"))


def load_csv(source: Source, label: str | None = None) -> Dataset:
    """Read a comma-separated UTF-8 table; the first row is the header.

    Cell whitespace is trimmed at both ends, case is preserved. Rows the CSV
    reader cannot parse are rejected with their 1-based data row number, and
    the header and rows are checked by :class:`Dataset`.
    """
    with _open_text(source) as (stream, default_label):
        label = default_label if label is None else label
        header: list[str] | None = None
        rows: list[list[str]] = []
        try:
            reader = csv.reader(stream)
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{label}: empty file, no header row")
            attributes = [cell.strip() for cell in header]
            if all(a == "" for a in attributes):
                raise IngestError(f"{label}: empty header")
            rows.extend([cell.strip() for cell in record] for record in reader)
        except csv.Error as exc:
            # For example a cell longer than csv.field_size_limit().
            where = "header" if header is None else f"row {len(rows) + 1}"
            raise IngestError(f"{label}: {where}: {exc}") from None
        except UnicodeDecodeError as exc:
            # Decoding runs a buffer ahead of the reader, so no row is named.
            raise IngestError(f"{label}: not valid UTF-8: {exc}") from None
    try:
        return Dataset(attributes=attributes, rows=rows, source_label=label)
    except ValueError as exc:
        raise IngestError(f"{label}: {exc}") from None


def _object(raw: Any, path: str, allowed: Collection[str]) -> dict:
    """A JSON object (null reads as an empty one) whose keys are all in
    ``allowed``: a misspelled option must not fall back to its default."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise IngestError(f"{path}: expected an object")
    for key in raw:
        if key not in allowed:
            raise IngestError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
    return raw


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise IngestError(f"{path}.{key}: required field is missing")
    return obj[key]


def _present(raw: dict) -> dict:
    """The members that are not null: null means absent."""
    return {key: value for key, value in raw.items() if value is not None}


def _parse_attribute(raw: Any, path: str) -> AttributeMeta:
    raw = _object(raw, path, ("name", "role", "exposure", "severity", "value_severity"))
    required = {key: _require(raw, key, path) for key in ("name", "role")}  # null stays null
    try:
        return AttributeMeta(**{**_present(raw), **required})
    except ValueError as exc:
        raise IngestError(f"{path}.{exc}") from None


def load_metadata(source: Source) -> MetadataDocument:
    """Parse a metadata JSON document; every error names its JSON path."""
    with _open_text(source) as (stream, label):
        try:
            document = json.load(stream)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and an integer longer than the
            # interpreter's digit limit; RecursionError, arrays nested too deep.
            raise IngestError(f"{label}: invalid JSON: {exc}") from None

    if not isinstance(document, dict):
        raise IngestError(f"{label}: expected a JSON object at the top level")
    _object(document, "", ("version", "attributes", "matrices", "options"))
    version = document.get("version")
    if type(version) is not int or version != METADATA_VERSION:
        raise IngestError(f"version: unrecognized value {version!r}, expected {METADATA_VERSION}")

    raw_attributes = document.get("attributes")
    if not isinstance(raw_attributes, list) or not raw_attributes:
        raise IngestError("attributes: expected a non-empty array")
    attributes = tuple(
        _parse_attribute(raw, f"attributes[{i}]") for i, raw in enumerate(raw_attributes)
    )

    matrices = {}
    raw_matrices = _object(document.get("matrices"), "matrices", ("exploitability", "risk"))
    for key, cells in _present(raw_matrices).items():
        try:
            matrices[f"{key}_matrix"] = ScaleMatrix(name=key, cells=cells)
        except ValueError as exc:
            raise IngestError(f"matrices.{key}: {exc}") from None

    raw_options = _object(
        document.get("options"),
        "options",
        ("flag_threshold", "combination_strategy", "explicit_combinations", "notes"),
    )
    try:
        options = AssessmentOptions(**_present(raw_options), **matrices)
    except ValueError as exc:
        raise IngestError(f"options.{exc}") from None
    return MetadataDocument(version=version, attributes=attributes, options=options)


def load_csv_text(text: str, label: str) -> Dataset:
    """Convenience wrapper for in-memory CSV content."""
    return load_csv(io.StringIO(text), label=label)
