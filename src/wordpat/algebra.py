"""Word combinators: concatenation, direct sum, skew sum, iterated powers.

The sum combinators follow the 1-based convention: operands must be
nonempty words with all letters >= 1, so worked examples like
31422 (+) 4132 = 314228576 come out bit-exact.  ``standardise`` bridges
back to 0-based patterns when needed.
"""

from __future__ import annotations

from .words import Word


def _check_positive(word, side: str) -> Word:
    word = tuple(word)
    if not word:
        raise ValueError(f"{side} operand must be nonempty")
    if min(word) < 1:
        raise ValueError(f"{side} operand must not contain the value 0: {word}")
    return word


def concat(pi, sigma) -> Word:
    """Letters of ``pi`` followed by letters of ``sigma``, unshifted."""
    return tuple(pi) + tuple(sigma)


def direct_sum(pi, sigma) -> Word:
    """``pi`` unchanged, then ``sigma`` shifted up by max(pi)."""
    pi, sigma = _check_positive(pi, "left"), _check_positive(sigma, "right")
    h = max(pi)
    return pi + tuple(v + h for v in sigma)


def skew_sum(pi, sigma) -> Word:
    """``pi`` shifted up by max(sigma), then ``sigma`` unchanged."""
    pi, sigma = _check_positive(pi, "left"), _check_positive(sigma, "right")
    shift = max(sigma)
    return tuple(v + shift for v in pi) + sigma


def direct_power(pi, m: int) -> Word:
    """``direct_sum`` of ``m`` copies of ``pi`` (m >= 1): copy i shifted up
    by i * max(pi)."""
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    pi = _check_positive(pi, "power's")
    h = max(pi)
    return tuple(v + i * h for i in range(m) for v in pi)


def skew_power(pi, m: int) -> Word:
    """``skew_sum`` of ``m`` copies of ``pi`` (m >= 1): copy i shifted up
    by (m - 1 - i) * max(pi)."""
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    pi = _check_positive(pi, "power's")
    h = max(pi)
    return tuple(v + (m - 1 - i) * h for i in range(m) for v in pi)
