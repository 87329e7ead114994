"""Finite-key secret key rates for decoy-state BB84.

The package splits into four layers: ``model`` holds the shared domain types
and math primitives, ``bounds`` the finite-key estimation chain, ``simulator``
the expected-statistics channel model, and ``optimizer`` the parameter search
used for rate/time comparisons. ``cli`` exposes all of it as a command-line
tool emitting CSV. Each layer declares its public names in its ``__all__``;
the package re-exports all four.
"""

from . import bounds, model, optimizer, simulator
from .model import *
from .bounds import *
from .simulator import *
from .optimizer import *

__all__ = model.__all__ + bounds.__all__ + simulator.__all__ + optimizer.__all__

__version__ = "0.1.0"
