"""Mild-solution HJB solver for control systems with unbounded control action.

Subpackages by responsibility:

- :mod:`pshjb.spectral`: PSD matrix functions, the matrix exponential,
  Gaussian quadrature and the Gauss-Jacobi time rule;
- :mod:`pshjb.ou`: the projected model contract, transition semigroup and
  Cameron-Martin machinery;
- :mod:`pshjb.smoothing`: smoothing operators and blow-up exponent fits;
- :mod:`pshjb.heat` / :mod:`pshjb.delay`: the two concrete models
  (boundary-controlled heat, delayed-control linear SDE);
- :mod:`pshjb.hjb`: the Picard fixed-point solver and solution evaluation;
- :mod:`pshjb.harness`: policy simulation and dominance checks;
- :mod:`pshjb.cli`: the batch command-line entry point.
"""

from . import costs, delay, errors, harness, heat, hjb, ou, smoothing, spectral
from .errors import PshjbError

__version__ = "0.1.0"

__all__ = [
    "costs",
    "delay",
    "errors",
    "harness",
    "heat",
    "hjb",
    "ou",
    "smoothing",
    "spectral",
    "PshjbError",
    "__version__",
]
