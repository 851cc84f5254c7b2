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
import os
from collections.abc import Collection, Iterator
from contextlib import contextmanager
from itertools import count
from operator import itemgetter

from .engine import AssessmentOptions
from .model import MISSING, AttributeMeta, Dataset, Record, ScaleMatrix

METADATA_VERSION = 1


class IngestError(ValueError):
    """Input could not be parsed; the message names the location."""


class MetadataDocument(Record):
    """A loaded metadata document; its members are stored as given."""

    fields = dict.fromkeys(("version", "attributes", "options"), (None, MISSING))


# Each key is declared once, by the type that takes its value.
_OPTIONS = [key for key in AssessmentOptions.fields if not key.endswith("_matrix")]
_MATRICES = {k.removesuffix("_matrix"): k for k in AssessmentOptions.fields if k not in _OPTIONS}
_REQUIRED = [key for key, (_, default) in AttributeMeta.fields.items() if default is MISSING]


@contextmanager
def _open_text(
    source: str | bytes | os.PathLike | io.TextIOBase,
) -> Iterator[tuple[io.TextIOBase, str]]:
    """Yield ``(stream, label)``. A path, a ``str``, ``bytes`` or ``os.PathLike``,
    is opened here, labelled with its file name and closed on exit; an object
    with a ``read`` method is a text stream, which belongs to the caller and is
    left open. Anything else is rejected."""
    if isinstance(source, (str, bytes, os.PathLike)):
        # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
        with open(source, encoding="utf-8-sig", newline="") as stream:
            yield stream, os.fsdecode(os.path.basename(source))
    elif hasattr(source, "read"):
        yield source, str(getattr(source, "name", "<stream>"))
    else:
        raise IngestError(f"source: expected a path or a text stream, got {source!r}")


def load_csv(
    source: str | bytes | os.PathLike | io.TextIOBase, label: str | None = None
) -> Dataset:
    """Read a comma-separated UTF-8 table; the first row is the header.

    Cell whitespace is trimmed at both ends, case is preserved; cells that
    differ only in it are one value. The rows go to :class:`Dataset` as they
    are read, which checks and codes them a block at a time, so the whole
    table is never held as strings; each distinct value is then trimmed once.
    The first fault in file order is reported: a row the CSV reader cannot
    parse, or one :class:`Dataset` rejects, with its 1-based data row number.
    """
    with _open_text(source) as (stream, default_label):
        label = default_label if label is None else label
        read = count()  # numbers the records the reader returns, the header 0
        rows = map(itemgetter(0), zip(csv.reader(stream), read))
        try:
            header = next(rows, None)
            if header is not None:
                header = list(map(str.strip, header))
                return Dataset(attributes=header, rows=rows, source_label=label)._trimmed()
        except csv.Error as exc:
            # For example a cell longer than csv.field_size_limit(). zip
            # numbers a record only once the reader has returned it, so the
            # next number is the faulty record's.
            faulty = next(read)
            where = "header" if faulty == 0 else f"row {faulty}"
            raise IngestError(f"{label}: {where}: {exc}") from None
        except UnicodeDecodeError as exc:
            # Decoding runs a buffer ahead of the reader, so no row is named.
            raise IngestError(f"{label}: not valid UTF-8: {exc}") from None
        except ValueError as exc:
            raise IngestError(f"{label}: {exc}") from None
    raise IngestError(f"{label}: empty file, no header row")


def _object(
    raw: object, path: str, allowed: Collection[str], required: Collection[str] = ()
) -> dict:
    """The non-null members of a JSON object, which may be null: null means
    absent. Its keys must be in ``allowed``, so a misspelled option cannot
    fall back to its default, and include ``required``, whose null is kept."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise IngestError(f"{path}: expected an object")
    for key in raw:
        if key not in allowed:
            raise IngestError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
    for key in required:
        if key not in raw:
            raise IngestError(f"{path}.{key}: required field is missing")
    return {key: value for key, value in raw.items() if value is not None or key in required}


def _parse_attribute(raw: object, path: str) -> AttributeMeta:
    raw = _object(raw, path, AttributeMeta.fields, _REQUIRED)
    try:
        return AttributeMeta(**raw)
    except ValueError as exc:
        raise IngestError(f"{path}.{exc}") from None


def load_metadata(source: str | bytes | os.PathLike | io.TextIOBase) -> MetadataDocument:
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
    _object(document, "", (*MetadataDocument.fields, "matrices"))
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
    for key, cells in _object(document.get("matrices"), "matrices", _MATRICES).items():
        try:
            matrices[_MATRICES[key]] = ScaleMatrix(name=key, cells=cells)
        except ValueError as exc:
            raise IngestError(f"matrices.{key}: {exc}") from None

    raw_options = _object(document.get("options"), "options", _OPTIONS)
    try:
        options = AssessmentOptions(**raw_options, **matrices)
    except ValueError as exc:
        raise IngestError(f"options.{exc}") from None
    return MetadataDocument(version=version, attributes=attributes, options=options)
