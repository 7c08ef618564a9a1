"""Smooth rigidity of polynomial zero sets: geometry, bounds, estimators.

The package quantifies how large the high-order derivatives of a smooth
function must be once its zero set is topologically rich (many nested ovals)
or metrically massive (box dimension near the ambient dimension). Modules,
each imported by its own path: validated oval configurations and their domain
decomposition (``geometry``), Remez-constant machinery (``remez``), rigidity
bounds (``rigidity``), test curves (``curves``), box-counting (``fractal``),
critical-point accounting (``prooftrace``), and the ``rigidkit`` CLI (``cli``).
"""

__version__ = "0.1.0"

from .errors import RigidKitError, SolverError, ValidationError

__all__ = ["__version__", "RigidKitError", "ValidationError", "SolverError"]
