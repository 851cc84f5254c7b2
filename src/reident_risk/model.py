"""Domain types: datasets, attribute metadata, and the ordinal four-level scales.

Everything here is immutable after construction and free of I/O. Validation
that needs a dataset *and* metadata together lives in :func:`validate_meta`,
which reports problems instead of raising so callers can display all of them
at once.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict, namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence, Set
from enum import Enum, IntEnum
from functools import cached_property, partial
from itertools import count, filterfalse, islice, repeat
from operator import itemgetter
from struct import pack
from types import MappingProxyType


class ScaleError(ValueError):
    """Raised for a metadata value the constructors reject: an out-of-range
    level, an unknown label, a bad matrix, or a value of the wrong shape."""


def utf8(text: str) -> str:
    """``text`` if it is a string that encodes as UTF-8, as every report is
    written. A lone surrogate, such as Python makes of a file-name byte that
    does not decode, is rejected where it enters."""
    if not isinstance(text, str):
        raise ValueError(f"expected a string, got {text!r}")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{text!r} does not encode as UTF-8") from None
    return text


def _array(raw: Sequence[str]) -> Sequence[str]:
    """``raw`` if it is a list or tuple of strings: a bare string is rejected,
    not split, and no other value is turned into a string."""
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"expected an array of strings, got {raw!r}")
    if not all(map(isinstance, raw, repeat(str))):
        member = next(m for m in raw if not isinstance(m, str))
        raise ValueError(f"member {member!r} is not a string")
    return raw


def strings(raw: Sequence[str]) -> tuple[str, ...]:
    """An array of strings that encode as UTF-8, as a tuple (see ``_array``)."""
    for member in filterfalse(str.isascii, _array(raw)):
        utf8(member)
    return tuple(raw)


MISSING = object()  # the default of a required field, or an argument not passed


def parsed(name: str, parse: Callable[[object], object], value: object) -> object:
    """``parse(value)``, whose error gets the prefix ``<name>: ``."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ScaleError(f"{name}: {exc}") from None


class Record:
    """Base of the immutable types that check their arguments when built.

    ``fields`` maps each parameter, in order, to ``(parse, default)``; a
    ``MISSING`` default makes it required. A value is stored as ``parse(value)``,
    or as given if ``parse`` is None or value and default are both None. A
    subclass with its own ``__init__`` lists only what repr and hash show."""

    fields: dict[str, tuple[Callable[[object], object] | None, object]] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        if len(args) > len(self.fields) or not kwargs.keys() <= self.fields.keys():
            raise TypeError(f"{type(self).__name__}() takes only {', '.join(self.fields)}")
        for i, (key, (parse, default)) in enumerate(self.fields.items()):
            value = args[i] if i < len(args) else kwargs.pop(key, default)
            if value is MISSING:
                raise TypeError(f"{type(self).__name__}() missing required argument {key!r}")
            if parse is not None and not (value is None and default is None):
                value = parsed(key, parse, value)
            super().__setattr__(key, value)  # unlike self.__dict__, makes no dict per instance
        if kwargs:  # left over when also given by position
            raise TypeError(f"{type(self).__name__}() got {', '.join(kwargs)} twice")

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(map(self.__dict__.__getitem__, self.fields)))

    def __repr__(self) -> str:
        shown = ", ".join(f"{key}={self.__dict__[key]!r}" for key in self.fields)
        return f"{type(self).__name__}({shown})"


class _OrdinalScale(IntEnum):
    """Base for the 1..4 ordinal scales. Labels are bijective with values."""

    @cached_property
    def label(self) -> str:
        return " ".join(self.name.split("_")).title()

    @cached_property
    def display(self) -> str:
        """Rendering used throughout reports, e.g. ``4-Critical``."""
        return f"{self.value}-{self.label}"

    @classmethod
    def parse(cls, raw: int | str) -> "_OrdinalScale":
        """Coerce an integer 1..4 or, case-insensitively, a member's label,
        name, name with spaces for underscores, or display to a level."""
        if isinstance(raw, bool):
            raise ScaleError(f"{cls.__name__}: expected level 1..4 or label, got bool")
        if isinstance(raw, int):
            if not 1 <= raw <= 4:
                raise ScaleError(f"{cls.__name__}: level {raw} out of range 1..4")
            return cls(raw)
        if isinstance(raw, str):
            text = raw.strip().lower()
            for member in cls:
                name = member.name.lower()
                if text in (
                    member.label.lower(), name, name.replace("_", " "), member.display.lower()
                ):
                    return member
            member = _SWAPPED_SPELLINGS.get(text)
            if isinstance(member, cls):
                return member
            raise ScaleError(f"{cls.__name__}: unknown label {raw!r}")
        raise ScaleError(f"{cls.__name__}: expected int or str, got {type(raw).__name__}")


class SeverityLevel(_OrdinalScale):
    """Impact of disclosure on the individual (CNIL four-level scale)."""

    NEGLIGIBLE = 1
    LIMITED = 2
    SIGNIFICANT = 3
    MAXIMUM = 4


class ExposureLevel(_OrdinalScale):
    """How findable an attribute is in auxiliary data sources."""

    INTERNAL_RESTRICTED = 1
    INTERNAL_EXTENDED = 2
    EXTERNAL_RESTRICTED = 3
    EXTERNAL_EXTENDED = 4

    @cached_property
    def label(self) -> str:
        return ("IR", "IE", "ER", "EE")[self.value - 1]


# Swapped spellings of exposure labels seen in the wild, lower-cased.
_SWAPPED_SPELLINGS = {
    "ri": ExposureLevel.INTERNAL_RESTRICTED,
    "1-ri": ExposureLevel.INTERNAL_RESTRICTED,
    "ei": ExposureLevel.INTERNAL_EXTENDED,
    "2-ei": ExposureLevel.INTERNAL_EXTENDED,
}


class InferenceLevel(_OrdinalScale):
    """How well quasi-identifier values determine the sensitive value."""

    WEAK = 1
    MODERATE = 2
    SEVERE = 3
    CRITICAL = 4


class ExploitabilityLevel(_OrdinalScale):
    """Attacker's ability to execute the linkage/inference attack."""

    VERY_DIFFICULT = 1
    DIFFICULT = 2
    EASY = 3
    VERY_EASY = 4


class RiskLevel(_OrdinalScale):
    """Final re-identification risk verdict."""

    LOW = 1
    MEDIUM = 2
    HIGH = 3
    CRITICAL = 4


class AttributeRole(str, Enum):
    IDENTIFIER = "identifier"
    QUASI_IDENTIFIER = "quasi_identifier"
    SENSITIVE = "sensitive"
    OTHER = "other"

    @classmethod
    def parse(cls, raw: "AttributeRole | str") -> "AttributeRole":
        try:
            return cls(raw.strip().lower() if isinstance(raw, str) else raw)
        except ValueError:
            raise ScaleError(f"unknown attribute role {raw!r}") from None


class SeverityRating(Record):
    """Per-impact-type severity: bodily, material, and moral, each 1..4."""

    fields = dict.fromkeys(("bodily", "material", "moral"), (SeverityLevel.parse, MISSING))

    @classmethod
    def parse(cls, raw: "SeverityRating | Mapping[str, int | str]") -> "SeverityRating":
        """A rating as given, or one built from a mapping with exactly the keys
        bodily, material and moral."""
        if isinstance(raw, cls):
            return raw
        if not isinstance(raw, Mapping):
            raise ScaleError(f"expected an object with bodily/material/moral, got {raw!r}")
        if set(raw) != set(cls.fields):
            raise ScaleError(f"expected the keys bodily, material and moral, got {list(raw)!r}")
        return cls(**raw)

    def components(self) -> tuple[SeverityLevel, SeverityLevel, SeverityLevel]:
        return (self.bodily, self.material, self.moral)


def global_severity(rating: SeverityRating) -> SeverityLevel:
    """Global severity of a rating: the maximum over its three impact types."""
    return SeverityLevel(max(rating.components()))


def _name(raw: str) -> str:
    if not isinstance(raw, str) or not raw.strip():
        raise ValueError("expected a non-empty string")
    return utf8(raw.strip())  # as the CSV header loader does


def _value_severities(raw: Mapping[str, object]) -> Mapping[str, SeverityRating]:
    if not isinstance(raw, Mapping):
        raise ScaleError(f"expected an object, got {raw!r}")
    ratings = {}
    for value, rating in raw.items():
        if not isinstance(value, str):
            raise ScaleError(f"key {value!r} is not a string")
        utf8(value)
        try:
            ratings[value] = SeverityRating.parse(rating)
        except ValueError as exc:
            raise ScaleError(f"{value!r}: {exc}") from None
    return MappingProxyType(ratings)


class AttributeMeta(Record):
    """Analyst judgments for one attribute.

    ``exposure`` is meaningful for quasi-identifiers and ``severity`` for
    sensitive attributes; both may be supplied for any role (the severity
    table in a report lists every attribute that carries a rating).
    Role-based *requirements* are checked by :func:`validate_meta`, not at
    construction, so a half-complete document can still be loaded and all
    its problems reported together.
    """

    fields = {
        "name": (_name, MISSING),
        "role": (AttributeRole.parse, MISSING),
        "exposure": (ExposureLevel.parse, None),
        "severity": (SeverityRating.parse, None),
        "value_severity": (_value_severities, MappingProxyType({})),
    }


def typecode(size: int) -> str:
    """The narrowest unsigned ``array`` typecode past ``bytes`` for ``range(size)``."""
    return "H" if size <= 1 << 16 else "I" if size <= 1 << 32 else "Q"


def extended(codes: array, items: Iterable[int]) -> array:
    """``codes`` extended by ``items``, packed by ``struct`` a block at a time:
    ``array("H").extend`` parses each int alone, 1.5-3 times as slowly (3.11)."""
    items = iter(items)
    while block := tuple(islice(items, _BLOCK_ROWS)):
        codes.frombytes(pack(f"{len(block)}{codes.typecode}", *block))
    return codes


def recode(codes: Iterable[int], table: Sequence[int] | Mapping, size: int) -> bytes | array:
    """``table[c]`` for each code ``c`` of ``codes``, each in ``range(size)``, as
    ``bytes`` up to 256 values, else the narrowest array; ``bytes`` are translated in C."""
    if type(codes) is bytes:  # so table has at most 256 entries
        return codes.translate(bytes(table).ljust(256, b"\0"))
    coded = map(table.__getitem__, codes)
    return bytes(coded) if size <= 256 else extended(array(typecode(size)), coded)


Column = namedtuple("Column", "values codes counts")
Column.__doc__ = """One column, coded: ``values``, a tuple of strings, holds the
distinct cells in order of first occurrence, ``codes[i]`` is the index in
``values`` of row ``i``'s cell, and ``counts[c]``, in a list of ints, the
number of rows with code ``c``. ``codes`` is ``bytes`` when there are at most
256 values, else an ``array('H')``, or an ``array('I')`` past 65,536 values."""


class _Columns(dict):
    def __missing__(self, name: str) -> Column:
        raise KeyError(f"unknown attribute {name!r}")


# Rows checked and coded at a time, in a Dataset built from rows or read by the
# csv module; a partition keys rows into blocks of 8 * _BLOCK_ROWS bytes.
_BLOCK_ROWS = 256

# Up to this many values, a column is counted with one bytes.count scan per
# value, at about 0.6 ns a row each, instead of one Counter pass, at about
# 40 ns a row (Python 3.11; the two cost the same at about 45 values).
_COUNT_EACH = 32


class Coder:
    """Codes hashable items in order of first occurrence, a block at a time,
    into a ``bytearray`` until a code passes 255, then the narrowest ``array``:
    ``index`` maps each item to its code, and a new item gets the next code in C."""

    def __init__(self) -> None:
        self.index: defaultdict[object, int] = defaultdict(count().__next__)
        self.codes: bytearray | array = bytearray()

    def extend(self, block: Sequence[object]) -> None:
        # itemgetter of one item returns the item, not a tuple
        codes = itemgetter(*block)(self.index) if len(block) > 1 else (self.index[block[0]],)
        if len(self.index) <= 256:  # so the codes are a bytearray
            self.codes.extend(codes)
            return
        kind = typecode(len(self.index))
        if type(self.codes) is bytearray or self.codes.typecode != kind:  # code 256 or 65,536
            self.codes = extended(array(kind), self.codes)
        self.codes.frombytes(pack(f"{len(codes)}{kind}", *codes))  # a whole tuple at once

    def done(self) -> tuple[bytes | array, list[int]]:
        """The codes, ``bytes`` if they fit, and per code its number of items;
        the coder keeps the ``bytes`` in place of its ``bytearray``."""
        self.codes = codes = bytes(self.codes) if type(self.codes) is bytearray else self.codes
        size = len(self.index)  # a Counter's keys first occur in code order
        counted = codes if size <= 256 else memoryview(codes)  # twice as fast as an array
        counts = map(codes.count, range(size)) if size <= _COUNT_EACH else Counter(counted).values()
        return codes, list(counts)


def _check_rows(block: list[object], done: int, width: int) -> None:
    """Raise for the first row of ``block`` that is not a list or tuple of
    ``width`` strings, numbering the block's rows from ``done + 1``."""
    for i, raw in enumerate(block, done + 1):
        try:
            size = len(_array(raw))
        except ValueError as exc:
            raise ValueError(f"row {i}: {exc}") from None
        if size != width:
            raise ValueError(f"row {i} has {size} cells, expected {width}")


def _row_blocks(rows: Iterable, width: int, done: int = 0, errors: type | tuple = ()) -> Iterator:
    """The columns of each block of ``_BLOCK_ROWS`` rows, numbered from ``done + 1``;
    an error in ``errors`` that reading a row raises is a ValueError naming it."""
    # A set or a mapping is iterable but unordered, or not rows at all.
    if isinstance(rows, (str, bytes, Set, Mapping)) or not isinstance(rows, Iterable):
        raise ValueError(f"rows: expected an array of rows, got {rows!r}")
    rows = iter(rows)
    block: list[object] = []
    while True:
        try:
            block.extend(islice(rows, _BLOCK_ROWS))
        except Exception as exc:
            # extend keeps the rows read before the error: an earlier
            # faulty row is reported first.
            _check_rows(block, done, width)
            if isinstance(exc, errors):
                raise ValueError(f"row {done + len(block) + 1}: {exc}") from None
            raise
        if not block:
            return
        if not (
            all(map(isinstance, block, repeat((list, tuple))))
            and all(map(width.__eq__, map(len, block)))
        ):
            _check_rows(block, done, width)
        columns = list(zip(*block))
        for cells in columns:
            try:
                "".join(cells)  # a TypeError for exactly the cells that are not strings
            except TypeError:
                _check_rows(block, done, width)
        done += len(block)
        block.clear()  # the columns hold the cells
        yield columns


class Dataset(Record):
    """Immutable table of categorical string cells with a named header,
    stored by column as integer codes.

    ``rows`` is any ordered iterable of rows: a list, a tuple or an iterator,
    which is consumed. The rows are checked and coded as they are read, a
    block at a time, and are not kept. The first faulty row is reported,
    also ahead of an error the iterator raises after yielding it. A value
    that does not encode as UTF-8 is found once the rows are read. A
    column's codes are ``bytes`` when it has at most 256 values, else an
    ``array`` (see :class:`Column`), which is shared and must not be mutated."""

    # ``columns`` is compared, but neither shown nor hashed.
    fields = dict.fromkeys(("attributes", "source_label", "row_count"))

    def __init__(
        self, attributes: Sequence[str], rows: Iterable[Sequence[str]], source_label: str = ""
    ) -> None:
        self._code(attributes, partial(_row_blocks, rows), source_label)

    @classmethod
    def _from_blocks(cls, attributes: Sequence[str], blocks: Callable, label: str) -> Dataset:
        """A dataset of the unchecked lists of columns that ``blocks(width)`` yields, its
        header names and values stripped of surrounding whitespace as they are coded: a
        column's values that strip alike become one, in order of first occurrence, and
        their counts are summed."""
        dataset = object.__new__(cls)
        dataset._code([*map(str.strip, attributes)], blocks, label, trim=True)
        return dataset

    def _code(
        self, attributes: Sequence[str], blocks: Callable, source_label: str, trim: bool = False
    ) -> None:
        attrs = parsed("attributes", strings, attributes)
        label = parsed("source_label", utf8, source_label)
        if not attrs:
            raise ValueError("dataset needs at least one attribute")
        if any(a == "" for a in attrs):
            raise ValueError("attribute names must be non-empty")
        if len(set(attrs)) != len(attrs):
            dupes = sorted({a for a in attrs if attrs.count(a) > 1})
            raise ValueError(f"duplicate attribute names: {', '.join(dupes)}")
        coders = [Coder() for _ in attrs]
        for columns in blocks(len(attrs)):
            for cells, coder in zip(columns, coders):
                coder.extend(cells)
            columns.clear()  # so the block's cells are freed before the next is read
        rows = len(coders[0].codes)
        columns = _Columns()
        for name in attrs:
            coder = coders.pop(0)  # so its index is freed before the next column counts
            values, (codes, counts) = tuple(coder.index), coder.done()
            for value in filterfalse(str.isascii, values):
                parsed(f"attribute {name!r}", utf8, value)
            if trim and (stripped := tuple(map(str.strip, values))) != values:
                code_of: dict[str, int] = {}
                remap = [code_of.setdefault(value, len(code_of)) for value in stripped]
                merged = [0] * len(code_of)
                for code, n in zip(remap, counts):
                    merged[code] += n
                values, codes, counts = tuple(code_of), recode(codes, remap, len(merged)), merged
            columns[name] = Column(values, codes, counts)
        self.__dict__.update(
            attributes=attrs, source_label=label, row_count=rows, columns=MappingProxyType(columns)
        )


def _is_level(value: object) -> bool:
    """An integer 1..4: an IntEnum level is one, a bool is not."""
    return isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= 4


class ScaleMatrix(Record):
    """4x4 lookup combining two ordinal levels into one.

    ``cells[r][c]`` is the output level for row level ``r+1`` and column
    level ``c+1``. Cells must be in 1..4 and monotone non-decreasing along
    rows and columns: a higher input level never lowers the output.
    """

    fields = dict.fromkeys(("name", "cells"))

    def __init__(self, name: str, cells: Sequence[Sequence[int]]) -> None:
        if not isinstance(name, str) or not name.strip():
            raise ScaleError(f"matrix name: expected a non-empty string, got {name!r}")
        if not isinstance(cells, (list, tuple)) or len(cells) != 4 or any(
            not isinstance(row, (list, tuple)) or len(row) != 4 for row in cells
        ):
            raise ScaleError(f"matrix {name!r}: expected a 4x4 grid")
        for r in range(4):
            for c in range(4):
                v = cells[r][c]
                if not _is_level(v):
                    raise ScaleError(
                        f"matrix {name!r}: cell ({r + 1},{c + 1}) value {v!r} "
                        "out of range: expected an integer 1..4"
                    )
                if c > 0 and v < cells[r][c - 1]:
                    raise ScaleError(f"matrix {name!r}: row {r + 1} decreases at column {c + 1}")
                if r > 0 and v < cells[r - 1][c]:
                    raise ScaleError(f"matrix {name!r}: column {c + 1} decreases at row {r + 1}")
        self.__dict__.update(name=name, cells=tuple(tuple(int(v) for v in row) for row in cells))

    def lookup(self, row_level: int, col_level: int) -> int:
        if not (_is_level(row_level) and _is_level(col_level)):
            levels = f"{row_level!r}, {col_level!r}"
            raise ScaleError(f"matrix {self.name!r}: lookup levels {levels} are not integers 1..4")
        return self.cells[row_level - 1][col_level - 1]


ValidationOutcome = namedtuple("ValidationOutcome", "errors warnings", defaults=((), ()))
ValidationOutcome.__doc__ = """Errors and warnings from cross-checking metadata against a
dataset, each a tuple of messages, empty by default."""


def argument_errors(*, meta: object, dataset: object = MISSING) -> list[str]:
    """A message naming each wrongly typed argument: ``meta`` must be a list or
    tuple of :class:`AttributeMeta` and ``dataset``, when passed, a :class:`Dataset`."""
    errors = []
    if dataset is not MISSING and not isinstance(dataset, Dataset):
        errors.append(f"dataset: expected a Dataset, got {dataset!r}")
    if not isinstance(meta, (list, tuple)):
        return errors + [f"meta: expected an array of AttributeMeta, got {meta!r}"]
    return errors + [
        f"meta[{i}]: expected an AttributeMeta, got {m!r}"
        for i, m in enumerate(meta)
        if not isinstance(m, AttributeMeta)
    ]


def validate_meta(dataset: Dataset, meta: Sequence[AttributeMeta]) -> ValidationOutcome:
    """Cross-check attribute metadata against a dataset.

    Errors: metadata naming attributes absent from the dataset, dataset
    attributes without metadata, duplicate metadata entries, and missing
    role-required fields (exposure for quasi-identifiers, severity for
    sensitive attributes). Warnings: value-severity overrides for values
    never seen in the dataset, and an absence of declared quasi-identifiers.
    A wrongly typed argument raises ``ValueError`` instead.
    """
    errors = argument_errors(dataset=dataset, meta=meta)
    if errors:
        raise ValueError("; ".join(errors))
    warnings: list[str] = []

    seen: dict[str, AttributeMeta] = {}
    for m in meta:
        if m.name in seen:
            errors.append(f"duplicate metadata for attribute {m.name!r}")
            continue
        seen[m.name] = m

    dataset_attrs = set(dataset.attributes)
    for name in seen:
        if name not in dataset_attrs:
            errors.append(f"unknown attribute {name!r}: not present in the dataset")
    for name in dataset.attributes:
        if name not in seen:
            errors.append(f"attribute {name!r} has no metadata entry")

    for name, m in seen.items():
        if m.role is AttributeRole.QUASI_IDENTIFIER and m.exposure is None:
            errors.append(f"quasi-identifier {name!r}: missing exposure level")
        if m.role is AttributeRole.SENSITIVE and m.severity is None:
            errors.append(f"sensitive attribute {name!r}: missing severity rating")
        if m.value_severity and name in dataset_attrs:
            present = set(dataset.columns[name].values)
            unused = [v for v in m.value_severity if v not in present]
            if unused:
                listed = ", ".join(repr(v) for v in unused)
                warnings.append(
                    f"attribute {name!r}: value severity overrides never used: {listed}"
                )

    if not any(m.role is AttributeRole.QUASI_IDENTIFIER for m in seen.values()):
        warnings.append("no quasi-identifiers declared")

    return ValidationOutcome(errors=tuple(errors), warnings=tuple(warnings))
