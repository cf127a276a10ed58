"""The one argument rule of the public entries.

A count is a Python or numpy integer; a number is a Python or numpy
integer or real. A bool is neither, though Python counts it as an int.
Every refusal is a ValueError, or the subclass the caller names, whose
message starts with the argument's name.
"""

from __future__ import annotations

import math
import numbers


def integer(x, name: str, least: int | None = None, error=ValueError):
    """x, once it is a count and, when `least` is given, at least `least`."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise error(f"{name} must be an integer, got {x!r}")
    if least is not None and x < least:
        raise error(f"{name} must be >= {least}, got {x}")
    return x


def real(x, name: str, ok, what: str, error=ValueError):
    """x, once it is a number for which `ok(x)` holds; `what` says in the
    message what the argument must be, e.g. "be finite and positive". A NaN
    passes only an `ok` that lets it through."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise error(f"{name} must be a number, got {x!r}")
    if not ok(x):
        raise error(f"{name} must {what}, got {x}")
    return x


def positive(x, name: str, error=ValueError):
    """x, once it is a finite number above 0."""
    return real(x, name, lambda y: 0 < y < math.inf, "be finite and positive", error)
