"""Seeded input generators for the benchmark workloads.

Every workload is a CSV table plus its metadata JSON, written to disk so the
program sees only files. Generation uses ``random.Random(seed)`` and ordered
containers only; nothing depends on ``hash()`` of strings, which Python salts
per process, so one seed gives byte-identical files in every interpreter.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import random


def _rating(bodily: int, material: int, moral: int) -> dict:
    return {"bodily": bodily, "material": material, "moral": moral}


def _csv_bytes(header: list[str], rows: list[list[str]]) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _meta_bytes(attributes: list[dict], explicit: list[list[str]]) -> bytes:
    document = {
        "version": 1,
        "attributes": attributes,
        "options": {
            "flag_threshold": 3,
            "combination_strategy": "per_level",
            "explicit_combinations": explicit,
        },
    }
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")


# Disease values with their (bodily, material, moral) ratings and weights.
# The six ratings of global severity >= 3 carry 60% of the weight, so about
# 60% of raw_unique rows are flagged at the default threshold of 3.
_RAW_DISEASES = [
    ("Colds", (1, 1, 1), 12),
    ("Flu", (1, 1, 1), 10),
    ("Migraine", (1, 1, 2), 9),
    ("Asthma", (2, 1, 2), 9),
    ("Diabetes", (2, 3, 3), 14),
    ("Hypertension", (2, 2, 3), 16),
    ("Depression", (1, 2, 4), 10),
    ("Hepatitis", (3, 3, 4), 6),
    ("HIV", (3, 3, 4), 5),
    ("Cancer", (4, 3, 4), 9),
]
_BLOOD_TYPES = ["O+", "A+", "B+", "AB+", "O-", "A-", "B-", "AB-"]
_BLOOD_WEIGHTS = [37, 34, 9, 4, 7, 6, 2, 1]


def raw_unique(seed: int, rows: int = 500) -> tuple[bytes, bytes]:
    """A raw hospital extract whose externally exposed columns are near-unique.

    About 5% of rows are repeat admissions of an earlier patient, so the
    (birth date, ZIP, gender) combination has a few classes of two or more
    rows among many singletons.
    """
    rng = random.Random(seed)
    born_lo = datetime.date(1935, 1, 1).toordinal()
    born_span = datetime.date(2004, 12, 31).toordinal() - born_lo + 1
    adm_lo = datetime.date(2019, 1, 1).toordinal()
    adm_span = datetime.date(2023, 12, 31).toordinal() - adm_lo + 1
    zips = [f"{z:05d}" for z in rng.sample(range(1000, 100000), 400)]
    diseases = [name for name, _, _ in _RAW_DISEASES]
    disease_weights = [w for _, _, w in _RAW_DISEASES]

    table = []
    patients: list[tuple[str, str, str]] = []
    for i in range(rows):
        if patients and rng.random() < 0.05:
            person = patients[rng.randrange(len(patients))]
        else:
            person = (
                datetime.date.fromordinal(born_lo + rng.randrange(born_span)).isoformat(),
                rng.choice(zips),
                rng.choice(("F", "M")),
            )
            patients.append(person)
        table.append(
            [
                f"R{i + 1:05d}",
                *person,
                datetime.date.fromordinal(adm_lo + rng.randrange(adm_span)).isoformat(),
                rng.choices(_BLOOD_TYPES, weights=_BLOOD_WEIGHTS)[0],
                rng.choices(diseases, weights=disease_weights)[0],
            ]
        )
    header = ["Ref", "Birth Date", "ZIP", "Gender", "Admission Date", "Blood Type", "Disease"]
    attributes = [
        {"name": "Ref", "role": "other"},
        {"name": "Birth Date", "role": "quasi_identifier", "exposure": "EE"},
        {"name": "ZIP", "role": "quasi_identifier", "exposure": "EE"},
        {"name": "Gender", "role": "quasi_identifier", "exposure": "EE"},
        {"name": "Admission Date", "role": "quasi_identifier", "exposure": "IE"},
        {"name": "Blood Type", "role": "quasi_identifier", "exposure": "IR"},
        {
            "name": "Disease",
            "role": "sensitive",
            "severity": _rating(2, 3, 4),
            "value_severity": {name: _rating(*r) for name, r, _ in _RAW_DISEASES},
        },
    ]
    return _csv_bytes(header, table), _meta_bytes(attributes, [])


_KANON_QI = [
    ("Age Band", "EE", ["18-29", "30-39", "40-49", "50-59", "60-69", "70-79", "80+"]),
    ("Gender", "EE", ["F", "M"]),
    ("Region", "ER", ["North", "South", "East", "West", "Centre", "Islands"]),
    (
        "Occupation",
        "ER",
        ["Clerical", "Craft", "Health", "Manager", "Retired", "Sales", "Student", "Technical"],
    ),
    ("Admission Year", "IE", ["2019", "2020", "2021", "2022", "2023"]),
    ("Stay", "IE", ["1-3d", "4-7d", "8+d"]),
    ("Ward", "IR", ["W1", "W2", "W3", "W4", "W5", "W6"]),
]
# Seven diagnoses below global severity 3 and five at 3 or 4; the severe
# ones carry about 40% of the base weight.
_KANON_DIAGNOSES = [
    ("Colds", (1, 1, 1), 10),
    ("Flu", (1, 1, 1), 9),
    ("Migraine", (1, 1, 2), 8),
    ("Asthma", (2, 1, 2), 9),
    ("Allergy", (1, 1, 1), 8),
    ("Fracture", (2, 2, 1), 8),
    ("Back Pain", (1, 2, 1), 8),
    ("Diabetes", (2, 3, 3), 12),
    ("Hypertension", (2, 2, 3), 12),
    ("Depression", (1, 2, 4), 7),
    ("HIV", (3, 3, 4), 3),
    ("Cancer", (4, 3, 4), 6),
]
# Income bands: the two highest (about 20% of rows) are rated severe.
_KANON_INCOME = [
    ("<15k", None, 15),
    ("15-30k", None, 25),
    ("30-50k", None, 25),
    ("50-80k", None, 15),
    ("80-120k", (1, 3, 2), 12),
    (">120k", (1, 4, 3), 8),
]


def kanon_bulk(
    seed: int, rows: int = 6000, classes: int = 120, k: int = 40
) -> tuple[bytes, bytes]:
    """A generalized release with ``classes`` classes under the full QI set.

    One class has exactly ``k`` rows and every other class at least ``k``,
    so the release is exactly k-anonymous. Each class favours two diagnoses
    of its own, which gives the discrimination rates a spread of values.
    """
    if rows < classes * k:
        raise ValueError(f"{rows} rows cannot fill {classes} classes of at least {k}")
    rng = random.Random(seed)
    keys: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    while len(keys) < classes:
        key = tuple(rng.choice(domain) for _, _, domain in _KANON_QI)
        if key not in seen:
            seen.add(key)
            keys.append(key)
    sizes = [k] * classes
    for _ in range(rows - classes * k):
        sizes[1 + rng.randrange(classes - 1)] += 1
    members = [c for c, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(members)

    diagnoses = [name for name, _, _ in _KANON_DIAGNOSES]
    base = [w for _, _, w in _KANON_DIAGNOSES]
    class_weights = []
    for _ in range(classes):
        weights = list(base)
        for favoured in rng.sample(range(len(diagnoses)), 2):
            weights[favoured] += 25
        class_weights.append(weights)
    incomes = [name for name, _, _ in _KANON_INCOME]
    income_weights = [w for _, _, w in _KANON_INCOME]

    table = [
        [
            *keys[c],
            rng.choices(diagnoses, weights=class_weights[c])[0],
            rng.choices(incomes, weights=income_weights)[0],
        ]
        for c in members
    ]
    header = [name for name, _, _ in _KANON_QI] + ["Diagnosis", "Income"]
    attributes = [
        {"name": name, "role": "quasi_identifier", "exposure": level} for name, level, _ in _KANON_QI
    ]
    attributes.append(
        {
            "name": "Diagnosis",
            "role": "sensitive",
            "severity": _rating(2, 3, 4),
            "value_severity": {name: _rating(*r) for name, r, _ in _KANON_DIAGNOSES},
        }
    )
    attributes.append(
        {
            "name": "Income",
            "role": "sensitive",
            "severity": _rating(1, 2, 2),
            "value_severity": {name: _rating(*r) for name, r, _ in _KANON_INCOME if r},
        }
    )
    explicit = [["Gender", "Ward"], ["Region", "Admission Year", "Ward"]]
    return _csv_bytes(header, table), _meta_bytes(attributes, explicit)
