"""Shared argument checks: size guards for desk-scale runs, and the (n, k) range."""


class GuardExceeded(ValueError):
    """Requested instance is larger than the configured guard allows;
    ``args[0]`` says by how much, without the advice on overriding it."""

    def __str__(self) -> str:
        return f"{self.args[0]}; pass a larger guard argument to override"


def check_guard(size: int, guard: int, what: str) -> None:
    if size > guard:
        raise GuardExceeded(f"{what} has size {size}, above the guard {guard}")


def check_nk(n: int, k: int) -> None:
    if not (isinstance(n, int) and isinstance(k, int)) or n < 1 or k < 1:
        raise ValueError(f"need ints n >= 1 and k >= 1, got n={n!r}, k={k!r}")
