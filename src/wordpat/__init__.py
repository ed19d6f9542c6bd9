"""Patterns in words with repeated letters.

Core objects are plain tuples of non-negative ints; positions in
occurrences are 1-based throughout.
"""

from types import ModuleType as _ModuleType

from .algebra import concat, direct_power, direct_sum, skew_power, skew_sum
from .construction import (
    ConstructionParts,
    MonotoneReport,
    VerifyReport,
    build,
    max_monotone_of_r,
    verify,
    verify_q_lemma,
)
from .guards import GuardExceeded
from .monotone import (
    NONDECREASING,
    NONINCREASING,
    GuaranteeUnavailable,
    es_extract,
    longest_nondecreasing,
    longest_nonincreasing,
)
from .oracle import (
    check_unavoidability_balanced,
    enumerate_balanced,
    enumerate_cayley,
    max_repeats_avoiding,
)
from .patterns import (
    Direction,
    FamilyId,
    constant_pattern,
    contains_any_family,
    contains_constant,
    contains_double_run,
    contains_multiplied_monotone,
    double_run_pattern,
    family,
    family_mult,
    find_family_member,
    multiplied_monotone_pattern,
    run_pattern,
    base_pattern,
)
from .witness import InsufficientRepeats, WitnessTrace, extract_witness, validate_trace
from .words import (
    InvalidOccurrence,
    InvariantViolation,
    Occurrence,
    Word,
    contains,
    format_word,
    is_pattern,
    multiplicities,
    occurrences_by_value,
    parse_word,
    repeats,
    reverse,
    standardise,
    subword,
)

# Every public name imported above; the submodules are bound here too,
# but they are not part of the flat API.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

__version__ = "0.1.0"
