"""The flat package namespace."""

import ast
from pathlib import Path

import wordpat

# The names ``from wordpat import *`` exports; no submodule is among them.
EXPORTED = {
    "ConstructionParts", "Direction", "FamilyId", "GuaranteeUnavailable", "GuardExceeded",
    "InsufficientRepeats", "InvalidOccurrence", "InvariantViolation", "MonotoneReport",
    "NONDECREASING", "NONINCREASING", "Occurrence", "VerifyReport", "WitnessTrace", "Word",
    "base_pattern", "build", "check_unavoidability_balanced", "concat", "constant_pattern",
    "contains", "contains_any_family", "contains_constant", "contains_double_run",
    "contains_multiplied_monotone", "direct_power", "direct_sum", "double_run_pattern",
    "enumerate_balanced", "enumerate_cayley", "es_extract", "extract_witness", "family",
    "family_mult", "find_family_member", "format_word", "is_pattern",
    "longest_nondecreasing", "longest_nonincreasing", "max_monotone_of_r",
    "max_repeats_avoiding", "multiplicities", "multiplied_monotone_pattern",
    "occurrences_by_value", "parse_word", "repeats", "reverse", "run_pattern",
    "skew_power", "skew_sum", "standardise", "subword", "validate_trace", "verify",
    "verify_q_lemma",
}


def test_exported_names():
    assert len(EXPORTED) == 55
    assert len(wordpat.__all__) == len(set(wordpat.__all__))
    assert set(wordpat.__all__) == EXPORTED
    assert all(hasattr(wordpat, name) for name in EXPORTED)


def _library_nodes():
    """(file name, node) for every syntax node of every library module."""
    for path in sorted(Path(wordpat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_library_raises_instead_of_asserting():
    # python -O strips assert statements, and the invariants must hold
    # there too.
    asserts = [f"{name}:{node.lineno}" for name, node in _library_nodes() if isinstance(node, ast.Assert)]
    assert asserts == []


def test_library_reads_no_environment_variable():
    # A guard is lifted only by its guard argument (--guard on the
    # command line), so no setting can hide in the environment.
    env = {"environ", "environb", "getenv", "getenvb"}
    reads = [
        f"{name}:{node.lineno}"
        for name, node in _library_nodes()
        if isinstance(node, ast.Attribute) and node.attr in env
        or isinstance(node, ast.ImportFrom) and node.module == "os" and env & {a.name for a in node.names}
    ]
    assert reads == []
