"""Size guards for desk-scale enumeration and verification entry points."""


class GuardExceeded(ValueError):
    """Requested instance is larger than the configured guard allows;
    ``args[0]`` says by how much, without the advice on overriding it."""

    def __str__(self) -> str:
        return f"{self.args[0]}; pass a larger guard argument to override"


def check_guard(size: int, guard: int, what: str) -> None:
    if size > guard:
        raise GuardExceeded(f"{what} has size {size}, above the guard {guard}")
