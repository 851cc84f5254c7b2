"""Domain types: datasets, attribute metadata, and the ordinal four-level scales.

Everything here is immutable after construction and free of I/O. Validation
that needs a dataset *and* metadata together lives in :func:`validate_meta`,
which reports problems instead of raising so callers can display all of them
at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import InitVar, dataclass, field
from enum import Enum, IntEnum
from functools import cached_property
from itertools import repeat
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Sequence


class ScaleError(ValueError):
    """Raised for a metadata value the constructors reject: an out-of-range
    level, an unknown label, a bad matrix, or a value of the wrong shape."""


def strings(raw: Sequence[str]) -> tuple[str, ...]:
    """An array of strings as a tuple: a bare string is rejected, not split,
    and no other value is turned into a string."""
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"expected an array of strings, got {raw!r}")
    if not all(map(isinstance, raw, repeat(str))):
        member = next(m for m in raw if not isinstance(m, str))
        raise ValueError(f"member {member!r} is not a string")
    return tuple(raw)


def coerce_field(obj: object, name: str, parse: Callable[[Any], Any]) -> None:
    """Replace the frozen field ``name`` of ``obj`` by ``parse(value)``. An
    error starts with the field name; the JSON loader prepends its path."""
    try:
        value = parse(getattr(obj, name))
    except ValueError as exc:
        raise ScaleError(f"{name}: {exc}") from None
    object.__setattr__(obj, name, value)


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
    def _extra_aliases(cls) -> dict[str, int]:
        return {}

    @classmethod
    def parse(cls, raw: int | str) -> "_OrdinalScale":
        """Coerce an integer 1..4 or a label (case-insensitive) to a level."""
        if isinstance(raw, bool):
            raise ScaleError(f"{cls.__name__}: expected level 1..4 or label, got bool")
        if isinstance(raw, int):
            if not 1 <= raw <= 4:
                raise ScaleError(f"{cls.__name__}: level {raw} out of range 1..4")
            return cls(raw)
        if isinstance(raw, str):
            text = raw.strip().lower()
            for member in cls:
                if text in (member.label.lower(), member.name.lower(), member.display.lower()):
                    return member
            aliases = {k.lower(): v for k, v in cls._extra_aliases().items()}
            if text in aliases:
                return cls(aliases[text])
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

    @classmethod
    def _extra_aliases(cls) -> dict[str, int]:
        # RI/EI are accepted swapped spellings seen in the wild.
        return {
            "RI": 1,
            "EI": 2,
            "1-RI": 1,
            "2-EI": 2,
            "Internal Restricted": 1,
            "Internal Extended": 2,
            "External Restricted": 3,
            "External Extended": 4,
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


_IMPACT_TYPES = ("bodily", "material", "moral")


@dataclass(frozen=True)
class SeverityRating:
    """Per-impact-type severity: bodily, material, and moral, each 1..4."""

    bodily: SeverityLevel
    material: SeverityLevel
    moral: SeverityLevel

    def __post_init__(self) -> None:
        for name in _IMPACT_TYPES:
            coerce_field(self, name, SeverityLevel.parse)

    @classmethod
    def parse(cls, raw: "SeverityRating | Mapping[str, int | str]") -> "SeverityRating":
        """A rating as given, or one built from a mapping with exactly the keys
        bodily, material and moral."""
        if isinstance(raw, cls):
            return raw
        if not isinstance(raw, Mapping):
            raise ScaleError(f"expected an object with bodily/material/moral, got {raw!r}")
        if set(raw) != set(_IMPACT_TYPES):
            raise ScaleError(f"expected the keys bodily, material and moral, got {list(raw)!r}")
        return cls(**raw)

    def components(self) -> tuple[SeverityLevel, SeverityLevel, SeverityLevel]:
        return (self.bodily, self.material, self.moral)


def global_severity(rating: SeverityRating) -> SeverityLevel:
    """Global severity of a rating: the maximum over its three impact types."""
    return SeverityLevel(max(rating.components()))


@dataclass(frozen=True)
class AttributeMeta:
    """Analyst judgments for one attribute.

    ``exposure`` is meaningful for quasi-identifiers and ``severity`` for
    sensitive attributes; both may be supplied for any role (the severity
    table in a report lists every attribute that carries a rating).
    Role-based *requirements* are checked by :func:`validate_meta`, not at
    construction, so a half-complete document can still be loaded and all
    its problems reported together.
    """

    name: str
    role: AttributeRole
    exposure: ExposureLevel | None = None
    severity: SeverityRating | None = None
    value_severity: Mapping[str, SeverityRating] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ScaleError("name: expected a non-empty string")
        object.__setattr__(self, "name", self.name.strip())  # as the CSV header loader does
        coerce_field(self, "role", AttributeRole.parse)
        if self.exposure is not None:
            coerce_field(self, "exposure", ExposureLevel.parse)
        if self.severity is not None:
            coerce_field(self, "severity", SeverityRating.parse)
        coerce_field(self, "value_severity", _value_severities)


def _value_severities(raw: Mapping[str, Any]) -> Mapping[str, SeverityRating]:
    if not isinstance(raw, Mapping):
        raise ScaleError(f"expected an object, got {raw!r}")
    ratings = {}
    for value, rating in raw.items():
        if not isinstance(value, str):
            raise ScaleError(f"key {value!r} is not a string")
        try:
            ratings[value] = SeverityRating.parse(rating)
        except ValueError as exc:
            raise ScaleError(f"{value!r}: {exc}") from None
    return MappingProxyType(ratings)


class Column(NamedTuple):
    """One column, coded: ``values`` holds the distinct cells in order of
    first occurrence, ``codes[i]`` is the index in ``values`` of row ``i``'s
    cell, and ``counts[c]`` the number of rows with code ``c``."""

    values: tuple[str, ...]
    codes: list[int]
    counts: list[int]


class _Columns(dict):
    def __missing__(self, name: str) -> Column:
        raise KeyError(f"unknown attribute {name!r}")


@dataclass(frozen=True)
class Dataset:
    """Immutable table of categorical string cells with a named header,
    stored by column as integer codes. The rows are checked and coded once,
    at construction, and are not kept. The code lists are shared and must
    not be mutated."""

    attributes: tuple[str, ...]
    rows: InitVar[Sequence[Sequence[str]]]
    source_label: str = ""
    row_count: int = field(init=False)
    columns: Mapping[str, Column] = field(init=False, repr=False, hash=False)

    def __post_init__(self, rows: Sequence[Sequence[str]]) -> None:
        coerce_field(self, "attributes", strings)
        if not isinstance(self.source_label, str):
            raise ValueError(f"source_label: expected a string, got {self.source_label!r}")
        attrs = self.attributes
        if not attrs:
            raise ValueError("dataset needs at least one attribute")
        if any(a == "" for a in attrs):
            raise ValueError("attribute names must be non-empty")
        if len(set(attrs)) != len(attrs):
            dupes = sorted({a for a in attrs if attrs.count(a) > 1})
            raise ValueError(f"duplicate attribute names: {', '.join(dupes)}")
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"rows: expected an array of rows, got {rows!r}")
        for i, raw in enumerate(rows, 1):
            try:
                size = len(strings(raw))
            except ValueError as exc:
                raise ValueError(f"row {i}: {exc}") from None
            if size != len(attrs):
                raise ValueError(f"row {i} has {size} cells, expected {len(attrs)}")
        columns = _Columns()
        for name, cells in zip(attrs, zip(*rows) if rows else repeat(())):
            counts = Counter(cells)  # distinct values in first-occurrence order
            code_of = dict(zip(counts, range(len(counts))))
            codes = list(map(code_of.__getitem__, cells))
            columns[name] = Column(tuple(counts), codes, list(counts.values()))
        object.__setattr__(self, "row_count", len(rows))
        object.__setattr__(self, "columns", MappingProxyType(columns))

    def attribute_index(self, name: str) -> int:
        try:
            return self.attributes.index(name)
        except ValueError:
            raise KeyError(f"unknown attribute {name!r}") from None

    def column(self, name: str) -> tuple[str, ...]:
        """The cells of column ``name``, one per row."""
        values, codes, _ = self.columns[name]
        return tuple(map(values.__getitem__, codes))


@dataclass(frozen=True)
class ScaleMatrix:
    """4x4 lookup combining two ordinal levels into one.

    ``cells[r][c]`` is the output level for row level ``r+1`` and column
    level ``c+1``. Cells must be in 1..4 and monotone non-decreasing along
    rows and columns: a higher input level never lowers the output.
    """

    name: str
    cells: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        grid = self.cells
        if not isinstance(grid, (list, tuple)) or len(grid) != 4 or any(
            not isinstance(row, (list, tuple)) or len(row) != 4 for row in grid
        ):
            raise ScaleError(f"matrix {self.name!r}: expected a 4x4 grid")
        for r in range(4):
            for c in range(4):
                v = grid[r][c]
                if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= 4:
                    raise ScaleError(
                        f"matrix {self.name!r}: cell ({r + 1},{c + 1}) value {v!r} "
                        "out of range: expected an integer 1..4"
                    )
                if c > 0 and v < grid[r][c - 1]:
                    raise ScaleError(
                        f"matrix {self.name!r}: row {r + 1} decreases at column {c + 1}"
                    )
                if r > 0 and v < grid[r - 1][c]:
                    raise ScaleError(
                        f"matrix {self.name!r}: column {c + 1} decreases at row {r + 1}"
                    )
        object.__setattr__(self, "cells", tuple(tuple(int(v) for v in row) for row in grid))

    def lookup(self, row_level: int, col_level: int) -> int:
        if not (1 <= int(row_level) <= 4 and 1 <= int(col_level) <= 4):
            raise ScaleError(f"matrix {self.name!r}: lookup levels must be 1..4")
        return self.cells[int(row_level) - 1][int(col_level) - 1]


@dataclass(frozen=True)
class ValidationOutcome:
    """Errors and warnings from cross-checking metadata against a dataset."""

    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_meta(dataset: Dataset, meta: Sequence[AttributeMeta]) -> ValidationOutcome:
    """Cross-check attribute metadata against a dataset.

    Errors: metadata naming attributes absent from the dataset, dataset
    attributes without metadata, duplicate metadata entries, and missing
    role-required fields (exposure for quasi-identifiers, severity for
    sensitive attributes). Warnings: value-severity overrides for values
    never seen in the dataset, and an absence of declared quasi-identifiers.
    """
    errors: list[str] = []
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
