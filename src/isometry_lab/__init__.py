"""Recover, compose, and decompose orientation-preserving isometries of
the Euclidean plane and the unit 2-sphere, with matching algebraic and
geometric solution routes that can cross-check each other.

Each module declares its public names in its own `__all__`; the package
re-exports all of them."""

from . import cli, errors, figures, linalg, planar, spherical
from .cli import *
from .errors import *
from .figures import *
from .linalg import *
from .planar import *
from .spherical import *

__version__ = "0.1.0"

__all__ = sorted(
    name for module in (cli, errors, figures, linalg, planar, spherical) for name in module.__all__
)
