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
from collections.abc import Collection, Iterable, Iterator
from contextlib import contextmanager
from functools import partial
from itertools import chain, islice

from .engine import AssessmentOptions
from .model import _BLOCK_ROWS, MISSING, AttributeMeta, Dataset, Record, ScaleMatrix, _row_blocks

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


def _columns(lines: list[str], width: int) -> list[list[str]] | None:
    """The columns of ``lines`` if the ``csv`` module reads each line as
    ``line[:-1].split(",")`` of ``width`` cells, else None."""
    text, limit = "\0".join(lines), csv.field_size_limit()  # a TypeError for a non-str line
    # Each line ends in its only \n and has no ", \r or NUL, nor a cell over limit;
    # in one column, csv.reader reads a blank line as no cell.
    if width < 2 or '"' in text or "\r" in text or not text.endswith("\n") or not (
        text.count("\0") == text.count("\n\0") == text.count("\n") - 1 == len(lines) - 1
    ) or (len(text) > limit and max(map(len, lines)) > limit):
        return None
    # A NUL starts each row's first cell but the first row's: each row has width
    # cells if column 0 holds every NUL and there are rows * width cells.
    cells = text[:-1].replace("\n\0", ",\0").split(",")
    del text  # frees the batch's text before its cells are sliced into columns
    first = "".join(cells[::width]).split("\0")
    if len(cells) != len(lines) * width or len(first) != len(lines):
        return None
    return [first, *(cells[j::width] for j in range(1, width))]


def _blocks(lines: Iterator[str], width: int) -> Iterator[list]:
    """The columns of each batch of ``_BLOCK_ROWS`` lines, split by ``_columns``
    up to the first batch it cannot split, from which ``csv.reader`` reads on."""
    done = 0
    while True:
        batch: list[str] = []
        try:
            batch.extend(islice(lines, _BLOCK_ROWS))
            columns = _columns(batch, width)
        except Exception:
            # The lines read before it go to csv.reader, which also rejects one
            # that is not a str; an error of the read is raised after them.
            yield from _row_blocks(csv.reader(batch), width, done, csv.Error)
            raise
        if not batch:
            return
        if columns is None:
            batch = chain(iter(batch), lines)  # its iterator frees it once read; chain would not
            break
        yield columns
        done += len(batch)
    yield from _row_blocks(csv.reader(batch), width, done, csv.Error)


def load_csv(
    source: str | bytes | os.PathLike | io.TextIOBase, label: str | None = None
) -> Dataset:
    """Read a comma-separated UTF-8 table; the first row is the header.

    Cell whitespace is trimmed at both ends, case is preserved; cells that
    differ only in it are one value. :class:`Dataset` codes the lines a block
    at a time as they are read, so the table is never held whole as strings;
    each distinct value is then trimmed once. Blocks of plain lines, with no
    quote, carriage return or NUL and a cell a column, are split directly,
    and the ``csv`` module reads the rest, with the same cells and errors.
    The first fault in file order is reported: a row the CSV reader cannot
    parse, or one :class:`Dataset` rejects, with its 1-based data row number.
    """
    with _open_text(source) as (stream, default_label):
        label = default_label if label is None else label
        # An object with only a read method has no lines, like a binary stream.
        lines = iter(stream if isinstance(stream, Iterable) else [b""])
        try:
            first = next(lines, None)
            if isinstance(first, str):
                plain = _columns([first], first.count(",") + 1)
                header = first[:-1].split(",") if plain else next(csv.reader(chain([first], lines)))
                blocks = partial(_blocks, lines)
                return Dataset._from_blocks(list(map(str.strip, header)), blocks, label)._trimmed()
        except csv.Error as exc:  # for example a cell longer than csv.field_size_limit()
            raise IngestError(f"{label}: header: {exc}") from None
        except UnicodeDecodeError as exc:
            # Decoding runs a buffer ahead of the reader, so no row is named.
            raise IngestError(f"{label}: not valid UTF-8: {exc}") from None
        except ValueError as exc:
            raise IngestError(f"{label}: {exc}") from None
    if first is None:
        raise IngestError(f"{label}: empty file, no header row")
    raise IngestError(f"source: expected a path or a text stream, got {source!r}")


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
