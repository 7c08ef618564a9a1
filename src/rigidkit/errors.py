"""Exception hierarchy shared across the package.

Validation errors mean the input violates a documented precondition and map
to CLI exit code 2; solver errors mean a numerical backend gave up and map
to exit code 3. Library callers catch one of these two; the message text
says which precondition or backend failed. Read at call time, ``BALL_TOL`` is
the slack of every closed-unit-ball check, and ``MAX_ENTRIES`` the most floats
an array that an option sizes may hold, which ``check_entries`` tests first.
"""

from __future__ import annotations

BALL_TOL = 1e-9
MAX_ENTRIES = 1 << 24  # float entries in one array; 128 MB of doubles


class RigidKitError(Exception):
    """Base class for all package errors."""


class ValidationError(RigidKitError):
    """Input violates a documented invariant or precondition."""


class SolverError(RigidKitError):
    """A numerical backend failed to produce a usable answer."""


def check_entries(entries: int, array: str) -> None:
    """Raise ``ValidationError`` naming ``array`` when its ``entries`` floats exceed ``MAX_ENTRIES``."""
    if entries > MAX_ENTRIES:
        raise ValidationError(f"{array} would hold {entries} entries, more than {MAX_ENTRIES}")


JSON_NUMBERS = frozenset((int, float))  # the types json.loads gives a number; int() and float() also take bool and str


def json_number(value, refusal: str, integral: bool = False):
    """``value``, an int if ``integral``; ``ValidationError(refusal)`` unless a JSON number, whole if ``integral``."""
    if type(value) not in JSON_NUMBERS or integral and int(value) != value:  # int() of a NaN or an infinity raises
        raise ValidationError(refusal)
    return int(value) if integral else value
