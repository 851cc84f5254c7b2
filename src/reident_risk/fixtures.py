"""Bundled example datasets and their reference metadata.

Three small hospital-style tables demonstrate the assessment end to end:
the raw table ("initial"), a 3-anonymous generalization of it ("kanon"),
and a version with only admission dates generalized ("hipaa"). Generalized
cells such as "2*" or "2019-**-**" are stored as literal strings; the
metrics are purely categorical, so that is sound. The reference metadata
carries the analyst ratings used throughout: demographics are widely
findable (EE), the admission date circulates only inside the organization
(IE), the blood type is restricted to care operations (IR), and only the
disease attribute is sensitive, with per-value severity overrides.
"""

from __future__ import annotations

import io
import json
import os

from .ingest import MetadataDocument, load_csv, load_metadata
from .model import Dataset

FIXTURE_NAMES = ("initial", "kanon", "hipaa")

# Computed inference levels on these examples do not always match the
# analyst-assigned labels circulated with them; the report derives every
# inference level from the data, so the computed values are authoritative.
FIXTURE_NOTE = (
    "Example fixture: inference levels are derived from the dataset's value "
    "frequencies; analyst-assigned reference labels for some individual "
    "attributes in these examples differ from the computed values."
)

_INITIAL_CSV = """\
Age,Gender,Country,Admission Date,Blood Type,Disease
23,M,Nigeria,2019-09-21,A+,Colds
23,M,Cameroon,2019-06-05,O+,Colds
25,M,Nigeria,2019-06-05,O+,Colds
32,F,France,2022-10-12,O+,Colds
31,F,France,2022-10-12,O+,Flu
37,F,Spain,2022-05-14,AB+,HIV
51,F,Canada,2021-04-01,AB-,Diabetes
53,F,USA,2021-04-01,O-,Cancer
53,F,Mexico,2021-04-01,B-,HIV
57,F,Canada,2022-04-01,B-,Colds
36,F,Belgium,2017-02-12,O+,Flu
30,F,Italy,2015-01-02,AB-,Flu
"""

_KANON_CSV = """\
Age,Gender,Country,Admission Date,Blood Type,Disease
2*,M,Africa,2019-**-**,Positive Rehsus,Colds
2*,M,Africa,2019-**-**,Positive Rehsus,Colds
2*,M,Africa,2019-**-**,Positive Rehsus,Colds
3*,F,Europe,2022-**-**,Positive Rehsus,Colds
3*,F,Europe,2022-**-**,Positive Rehsus,Flu
3*,F,Europe,2022-**-**,Positive Rehsus,HIV
5*,F,America,2021-**-**,Negative Rehsus,Diabetes
5*,F,America,2021-**-**,Negative Rehsus,Cancer
5*,F,America,2021-**-**,Negative Rehsus,HIV
"""

_HIPAA_CSV = """\
Age,Gender,Country,Admission Date,Blood Type,Disease
23,M,Nigeria,2019-**-**,A+,Colds
23,M,Cameroon,2019-**-**,O+,Colds
25,M,Nigeria,2019-**-**,O+,Colds
32,F,France,2022-**-**,O+,Colds
31,F,France,2022-**-**,O+,Flu
37,F,Spain,2022-**-**,AB+,HIV
51,F,Canada,2021-**-**,AB-,Diabetes
53,F,USA,2021-**-**,O-,Cancer
53,F,Mexico,2021-**-**,B-,HIV
57,F,Canada,2022-**-**,B-,Colds
36,F,Belgium,2017-**-**,O+,Flu
30,F,Italy,2015-**-**,AB-,Flu
"""

_CSV = {"initial": _INITIAL_CSV, "kanon": _KANON_CSV, "hipaa": _HIPAA_CSV}

_NEGLIGIBLE = {"bodily": 1, "material": 1, "moral": 1}

_REFERENCE_METADATA = {
    "version": 1,
    "attributes": [
        {"name": "Age", "role": "quasi_identifier", "exposure": "EE", "severity": _NEGLIGIBLE},
        {"name": "Gender", "role": "quasi_identifier", "exposure": "EE", "severity": _NEGLIGIBLE},
        {"name": "Country", "role": "quasi_identifier", "exposure": "EE", "severity": _NEGLIGIBLE},
        {
            "name": "Admission Date",
            "role": "quasi_identifier",
            "exposure": "IE",
            "severity": _NEGLIGIBLE,
        },
        {
            "name": "Blood Type",
            "role": "quasi_identifier",
            "exposure": "IR",
            "severity": _NEGLIGIBLE,
        },
        {
            "name": "Disease",
            "role": "sensitive",
            "severity": {"bodily": 1, "material": 3, "moral": 4},
            "value_severity": {
                "Colds": {"bodily": 1, "material": 1, "moral": 1},
                "Flu": {"bodily": 1, "material": 1, "moral": 1},
                "Diabetes": {"bodily": 1, "material": 3, "moral": 3},
                "HIV": {"bodily": 1, "material": 3, "moral": 4},
                "Cancer": {"bodily": 1, "material": 3, "moral": 4},
            },
        },
    ],
    "options": {
        "flag_threshold": 3,
        "combination_strategy": "per_level",
        "explicit_combinations": [["Admission Date", "Blood Type"]],
        "notes": [FIXTURE_NOTE],
    },
}


def _check_name(name: str) -> str:
    if name not in FIXTURE_NAMES:
        known = ", ".join(FIXTURE_NAMES)
        raise KeyError(f"unknown fixture {name!r}; available: {known}")
    return name


def fixture_csv(name: str) -> str:
    return _CSV[_check_name(name)]


def fixture_dataset(name: str) -> Dataset:
    return load_csv(io.StringIO(fixture_csv(name)), label=_check_name(name))


def reference_metadata_json() -> str:
    return json.dumps(_REFERENCE_METADATA, indent=2, ensure_ascii=False) + "\n"


def fixture_metadata() -> MetadataDocument:
    """The reference metadata document shared by all three fixtures."""
    return load_metadata(io.StringIO(reference_metadata_json()))


def write_fixture(name: str, directory: str | os.PathLike) -> tuple[os.PathLike, os.PathLike]:
    """Write ``<name>.csv`` and ``<name>.meta.json`` into ``directory``, and
    return their two paths as ``pathlib.Path`` objects."""
    import pathlib

    _check_name(name)
    target = pathlib.Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    csv_path = target / f"{name}.csv"
    meta_path = target / f"{name}.meta.json"
    csv_path.write_text(fixture_csv(name), encoding="utf-8")
    meta_path.write_text(reference_metadata_json(), encoding="utf-8")
    return csv_path, meta_path
