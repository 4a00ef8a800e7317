"""Exact and numeric verification of a fixed quadratic-map construction.

The package replays, mechanically, every computation the construction
rests on: symbolic identities over the eighth cyclotomic field, the
finite symmetry group and its induced linear actions, Jacobian ranks at
distinguished points, exact solution sets on parameterized linear
slices, and seeded homotopy-continuation counts for the claims that are
numeric in nature.  The `verify` console script runs the whole battery.
"""

from .scalar import CycScalar, Rat
from .mpoly import MPoly
from .binform import BinaryForm, GroupElt, Lambda, calibrate_conventions, delta, transvectant
from .exlinalg import ExactMatrix, Subspace

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "CycScalar",
    "ExactMatrix",
    "GroupElt",
    "Lambda",
    "MPoly",
    "Rat",
    "Subspace",
    "calibrate_conventions",
    "delta",
    "transvectant",
    "__version__",
]
