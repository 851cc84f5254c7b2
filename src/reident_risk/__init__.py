"""Re-identification risk assessment for anonymized tabular datasets.

Combines the severity of disclosure (what an attacker learns) with the
exploitability of the quasi-identifiers (how easily they can learn it,
via exposure and entropy-based inference) on four-level ordinal scales,
and reports the combined risk per attribute combination and overall.
"""

from .engine import (
    AssessmentError,
    AssessmentOptions,
    CombinationStrategy,
    DEFAULT_EXPLOITABILITY_MATRIX,
    DEFAULT_RISK_MATRIX,
    assess,
    build_combinations,
)
from .ingest import IngestError, MetadataDocument, load_csv, load_metadata
from .metrics import DrResult, Partition, band
from .model import (
    AttributeMeta,
    AttributeRole,
    Column,
    Dataset,
    ExploitabilityLevel,
    ExposureLevel,
    InferenceLevel,
    RiskLevel,
    ScaleMatrix,
    SeverityLevel,
    SeverityRating,
    ValidationOutcome,
    global_severity,
    validate_meta,
)
from .report import AssessmentReport, to_json, to_markdown

__version__ = "0.1.0"

__all__ = [
    "AssessmentError",
    "AssessmentOptions",
    "AssessmentReport",
    "AttributeMeta",
    "AttributeRole",
    "Column",
    "CombinationStrategy",
    "DEFAULT_EXPLOITABILITY_MATRIX",
    "DEFAULT_RISK_MATRIX",
    "Dataset",
    "DrResult",
    "ExploitabilityLevel",
    "ExposureLevel",
    "InferenceLevel",
    "IngestError",
    "MetadataDocument",
    "Partition",
    "RiskLevel",
    "ScaleMatrix",
    "SeverityLevel",
    "SeverityRating",
    "ValidationOutcome",
    "assess",
    "band",
    "build_combinations",
    "global_severity",
    "load_csv",
    "load_metadata",
    "to_json",
    "to_markdown",
    "validate_meta",
]
