"""Higher-moment portfolio diversification and minimum-kurtosis optimization.

The package is organised around three capabilities:

* measuring how many independent return streams a portfolio behaves like
  (its *dimensionality*), via leverage-invariant ratios of non-Gaussianity
  measures (:mod:`portdim.divmeasure`),
* globally minimising portfolio kurtosis over the long-only fully-invested
  simplex, with a deterministic branch-and-bound solver
  (:mod:`portdim.bbsolve`) and a stochastic projected-Langevin multistart
  solver (:mod:`portdim.gld`),
* simulating return panels with Gaussian dependence and normal-inverse
  Gaussian margins so that target covariance and margin shapes are matched
  exactly (:mod:`portdim.retsim`).

Sample co-moment tensors and their derivatives live in
:mod:`portdim.comoments`; the small dense packing-LP simplex used by the
branch-and-bound bounding step lives in :mod:`portdim.subsolver`; the
command-line interface lives in :mod:`portdim.harness`.
"""

__version__ = "0.1.0"

from . import bbsolve, comoments, divmeasure, gld, harness, retsim, subsolver

__all__ = [
    "__version__",
    "bbsolve",
    "comoments",
    "divmeasure",
    "gld",
    "harness",
    "retsim",
    "subsolver",
]
