"""Exact toolkit for the normality measure of finite binary sequences and
the discrepancy of binary-shift orbits."""

from .bitcore import (
    BitSequence,
    ExactValue,
    Pattern,
    parse_bits,
)
from .discrepancy import (
    DiscrepancyReport,
    PointSet,
    extreme_discrepancy,
    extreme_discrepancy_reference,
    parse_points_file,
    phi_envelope,
)
from .generators import (
    DigitStream,
    GeneratorSpec,
    champernowne_bits,
    file_bits,
    random_bits,
    rational_bits,
)
from .measure import (
    NormalityReport,
    count_occurrences,
    normality_fast,
    normality_naive,
    normality_value,
)
from .orbit import (
    VerificationReport,
    count_via_orbit,
    default_checkpoints,
    lemma1_verify,
    orbit_points,
)
from .search import ScanStats, SearchResult, exhaustive_min, typical_scan

__version__ = "0.1.0"

__all__ = [
    "BitSequence",
    "ExactValue",
    "Pattern",
    "parse_bits",
    "NormalityReport",
    "count_occurrences",
    "normality_naive",
    "normality_fast",
    "normality_value",
    "PointSet",
    "DiscrepancyReport",
    "extreme_discrepancy",
    "extreme_discrepancy_reference",
    "phi_envelope",
    "parse_points_file",
    "DigitStream",
    "GeneratorSpec",
    "champernowne_bits",
    "rational_bits",
    "random_bits",
    "file_bits",
    "VerificationReport",
    "orbit_points",
    "count_via_orbit",
    "lemma1_verify",
    "default_checkpoints",
    "SearchResult",
    "ScanStats",
    "exhaustive_min",
    "typical_scan",
    "__version__",
]
