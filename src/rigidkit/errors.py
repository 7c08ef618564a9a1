"""Exception hierarchy shared across the package.

Validation errors mean the input violates a documented precondition and map
to CLI exit code 2; solver errors mean a numerical backend gave up and map
to exit code 3. Library callers catch one of these two; the message text
says which precondition or backend failed.
"""

from __future__ import annotations


class RigidKitError(Exception):
    """Base class for all package errors."""


class ValidationError(RigidKitError):
    """Input violates a documented invariant or precondition."""


class SolverError(RigidKitError):
    """A numerical backend failed to produce a usable answer."""
