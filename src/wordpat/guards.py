"""Shared argument checks: size guards for desk-scale runs, and integer ranges.

Every guarded entry point takes a ``guard`` argument, and the command
line's ``--guard`` passes it on; nothing else lifts a guard.
``check_guard`` words the one message for both.
"""


class GuardExceeded(ValueError):
    """Requested instance is larger than the guard allows."""


def check_guard(size: int, guard: int, what: str) -> None:
    if size > guard:
        raise GuardExceeded(
            f"{what} has size {size}, above the guard {guard}; pass a larger guard to override"
        )


def check_ints(**bounds: tuple[int, int]) -> None:
    """Each keyword names an argument as (its value, its least allowed
    value); unless every value is an int at least that, one ValueError
    names them all."""
    if not all(isinstance(value, int) and value >= low for value, low in bounds.values()):
        *rest, last = [f"{name} >= {low}" for name, (_, low) in bounds.items()]
        need = f"ints {', '.join(rest)} and {last}" if rest else f"an int {last}"
        got = ", ".join(f"{name}={value!r}" for name, (value, _) in bounds.items())
        raise ValueError(f"need {need}, got {got}")


def check_nk(n: int, k: int) -> None:
    check_ints(n=(n, 1), k=(k, 1))
