"""Shared argument checks: size guards for desk-scale runs, and the (n, k) range.

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


def check_nk(n: int, k: int) -> None:
    if not (isinstance(n, int) and isinstance(k, int)) or n < 1 or k < 1:
        raise ValueError(f"need ints n >= 1 and k >= 1, got n={n!r}, k={k!r}")
