"""Loading datasets from CSV and attribute metadata from JSON.

The metadata document carries everything an analyst decides by hand: roles,
exposure levels, severity ratings and per-value overrides, optional matrix
overrides, and assessment options. The loader checks the document's shape
(objects, arrays, allowed and required keys; null means absent) and leaves
each value to the constructor that owns it, so a document and the library
accept the same values. Every error names its JSON path.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import os
from collections.abc import Callable, Collection, Iterable, Iterator
from contextlib import contextmanager
from functools import partial
from itertools import chain

from .engine import AssessmentOptions
from .model import MISSING, AttributeMeta, Dataset, Record, ScaleMatrix, _row_blocks

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
    source: str | bytes | os.PathLike | io.TextIOBase, mode: str = "r"
) -> Iterator[tuple[io.IOBase, str]]:
    """Yield ``(stream, label)``. A path, a ``str``, ``bytes`` or ``os.PathLike``,
    is opened here in ``mode``, labelled with its file name and closed on exit;
    an object with a ``read`` method is a text stream, which belongs to the
    caller and is left open. Anything else is rejected."""
    if isinstance(source, (str, bytes, os.PathLike)):
        # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
        text = {} if "b" in mode else {"encoding": "utf-8-sig", "newline": ""}
        with open(source, mode, **text) as stream:
            yield stream, os.fsdecode(os.path.basename(source))
    elif hasattr(source, "read"):
        yield source, str(getattr(source, "name", "<stream>"))
    else:
        raise IngestError(f"source: expected a path or a text stream, got {source!r}")


# Characters read from a stream at a time, or bytes from a file. On a 6,000-row
# kanon_bulk CSV, chunks of 2, 4 and 8 KiB load in 7.4, 6.8 and 6.3 ms and peak at
# 109, 141 and 216 KiB; 256-line batches took 8.0 ms and 278 KiB (Python 3.11).
_CHUNK_BYTES = 4096


def _decoded(read: Callable[[], bytes]) -> Iterator[str]:
    """The text of the UTF-8 chunks that ``read`` returns; at a byte that is not
    UTF-8, the text before it, then a ValueError naming the byte's offset."""
    # Not utf-8-sig, which reads the first bytes of a mark alone as no text.
    decoder, end = codecs.getincrementaldecoder("utf-8")(), 0
    for raw in chain(iter(read, b""), [b""]):  # b"" ends the text
        end += len(raw)  # a pipe cannot tell its offset
        try:
            text = decoder.decode(raw, final=not raw)
        except UnicodeDecodeError as exc:  # in the bytes held back and raw
            yield exc.object[: exc.start].decode()
            offset = end - len(exc.object) + exc.start
            raise ValueError(f"not valid UTF-8: {exc.reason} at byte offset {offset}") from None
        yield text


def _texts(chunks: Iterable, source: object) -> Iterator[str]:
    """``chunks`` cut after their last ``\\n``, into texts of whole lines, each line
    joined once; a chunk that is not a ``str`` rejects the source."""
    parts: list[str] = []
    for chunk in chunks:
        if not isinstance(chunk, str):
            raise IngestError(f"source: expected a path or a text stream, got {source!r}")
        if cut := chunk.rfind("\n") + 1:
            yield "".join((*parts, chunk[:cut]))
            parts = [chunk[cut:]]  # with a \r that may end a \r\n
        else:
            parts.append(chunk)
    if tail := "".join(parts):
        yield tail


def _lines(texts: Iterable[str]) -> Iterator[str]:
    """The lines of ``texts`` as a file opened with ``newline=""`` reads them."""
    return chain.from_iterable(map(partial(io.StringIO, newline=""), texts))


def _columns(text: str, width: int) -> list[list[str]] | None:
    """The columns of the lines of ``text`` if the ``csv`` module reads each
    as split at its commas into ``width`` cells, else None."""
    if "\r" in text:  # 40 times faster than a replace that finds nothing
        text = text.replace("\r\n", "\n")  # a lone \r, a line end to csv.reader, stays
    # No ", \r or NUL, nor a cell over the limit; in one column, csv.reader
    # reads a blank line as no cell.
    limit = csv.field_size_limit()
    if width < 2 or '"' in text or "\r" in text or "\0" in text or len(text) > limit:
        return None
    # A NUL starts each row's first cell but the first row's: each row has width
    # cells if column 0 holds every NUL and there are rows * width cells.
    body = text.removesuffix("\n")
    rows = len(cells := body.replace("\n", ",\0")) - len(body) + 1  # a NUL per line end
    cells = cells.split(",")
    first = "".join(cells[::width]).split("\0")
    if len(cells) != rows * width or len(first) != rows:
        return None
    return [first, *(cells[j::width] for j in range(1, width))]


def _blocks(texts: Iterator[str], width: int) -> Iterator[list]:
    """The columns of each text split by ``_columns``, up to the first it cannot
    split: ``csv.reader`` reads the lines of that text and of every later one."""
    done = 0
    for text in filter(None, texts):  # the header's text may hold nothing more
        if (columns := _columns(text, width)) is None:
            rest = chain(iter([text]), texts)  # its iterator frees the text once read
            del text
            yield from _row_blocks(csv.reader(_lines(rest)), width, done, csv.Error)
            return
        done += len(columns[0])
        yield columns


def load_csv(source: str | bytes | os.PathLike | io.TextIOBase) -> Dataset:
    """Read a comma-separated UTF-8 table; the first row is the header.

    Cell whitespace is trimmed at both ends, case is preserved; cells that
    differ only in it are one value. The source is read and coded in chunks of
    whole lines, never held whole as strings. Chunks of plain lines, with no
    quote, NUL or lone carriage return and a cell a column, are split directly;
    the ``csv`` module reads on from the first other chunk, with the same cells
    and errors. The first fault in file order is reported: a row the CSV reader
    cannot parse or :class:`Dataset` rejects, with its 1-based data row number,
    or a byte that is not UTF-8, with its offset in the file.
    """
    with _open_text(source, "rb") as (stream, label):
        read = partial(stream.read, _CHUNK_BYTES)
        try:
            try:
                chunks = chain([read()], iter(read, "")) if stream is source else _decoded(read)
            except TypeError:  # a read that takes no size
                chunks = [None]  # which _texts rejects as the source
            texts = _texts(chunks, source)
            if not (first := next(texts, "").removeprefix("\ufeff")):  # a byte-order mark
                raise IngestError(f"{label}: empty file, no header row")
            end = first.find("\n") + 1 or len(first)
            if columns := _columns(first[:end], first.count(",", 0, end) + 1):
                texts = chain(iter([first[end:]]), texts)
                header, blocks = chain(*columns), partial(_blocks, texts)
            else:  # the csv module reads the header and every row
                rows = csv.reader(_lines(chain(iter([first]), texts)))
                header, blocks = next(rows), partial(_row_blocks, rows, errors=csv.Error)
            del first  # each iterator frees its text once read
            return Dataset._from_blocks(list(map(str.strip, header)), blocks, label)._trimmed()
        except IngestError:
            raise
        except csv.Error as exc:  # for example a cell longer than csv.field_size_limit()
            raise IngestError(f"{label}: header: {exc}") from None
        except UnicodeDecodeError as exc:  # raised by a text stream's read
            raise IngestError(f"{label}: not valid UTF-8: {exc}") from None
        except ValueError as exc:
            raise IngestError(f"{label}: {exc}") from None


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
