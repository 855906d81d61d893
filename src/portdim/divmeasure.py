"""Diversification measure D and portfolio dimensionality d.

A portfolio's non-Gaussianity is summarised by a leverage-invariant
functional nu (excess kurtosis or squared skewness).  Relative to a
reference asset Z, the curve

    f(k) = nu(Z) / k

is the value an equal-weight portfolio of k iid copies of Z would attain
(cumulant additivity), so

    D = nu(Z) / nu(portfolio)

reads as the number of independent Z-like return streams the portfolio is
worth.  The dimensionality d maps D through the inverse of that curve,
k = nu(Z) / f(k), which is the identity for both supported measures, so
d = D exactly.  A near-Gaussian portfolio (nu at numerical zero or below)
reports D as +inf with the result flag ``near_gaussian``, not a warning:
vanishing excess kurtosis is a success mode of diversification.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .comoments import CoMomentSet, Weights, portfolio_kurtosis, portfolio_skewness
from .retsim import MarginTarget

__all__ = [
    "NuMeasure",
    "ReferenceAsset",
    "DiversificationResult",
    "NEAR_GAUSSIAN_NU",
    "nu",
    "reference_curve",
    "diversification",
    "dimensionality",
    "toy_rp_weight",
    "toy_dr_weight",
]

#: below this, nu(portfolio) is treated as numerically Gaussian
NEAR_GAUSSIAN_NU = 1e-6


class NuMeasure(enum.Enum):
    """Choice of the non-Gaussianity functional."""

    EXCESS_KURTOSIS = "excess_kurtosis"
    SQUARED_SKEWNESS = "squared_skewness"


@dataclass(frozen=True)
class ReferenceAsset:
    """Reference random variable Z, reduced to its nu value."""

    nu_value: float

    def __post_init__(self) -> None:
        if not (self.nu_value > 0.0 and np.isfinite(self.nu_value)):
            raise ValueError(f"reference nu must be positive and finite, got {self.nu_value!r}")

    @classmethod
    def from_target(cls, target: MarginTarget, measure: NuMeasure) -> "ReferenceAsset":
        if measure is NuMeasure.EXCESS_KURTOSIS:
            value = target.kurtosis - 3.0
        else:
            value = target.skewness**2
        return cls(nu_value=value)


@dataclass(frozen=True)
class DiversificationResult:
    """D (or d) together with the quantities it was formed from."""

    value: float
    nu_portfolio: float
    nu_reference: float
    near_gaussian: bool


def nu(w: Weights | np.ndarray, c: CoMomentSet, m: NuMeasure) -> float:
    """Leverage-invariant non-Gaussianity of the portfolio w under measure m;
    an excess kurtosis can be zero or negative."""
    if m is NuMeasure.EXCESS_KURTOSIS:
        return portfolio_kurtosis(w, c) - 3.0
    if m is NuMeasure.SQUARED_SKEWNESS:
        return portfolio_skewness(w, c) ** 2
    raise TypeError(f"unsupported measure {m!r}")


def reference_curve(k: int, ref: ReferenceAsset) -> float:
    """nu of an equal-weight portfolio of k iid copies of Z: nu(Z)/k.

    Both supported measures scale as 1/k under iid averaging (fourth and
    squared-third cumulants are additive while variance powers cancel), so
    the curve is strictly decreasing in k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    return ref.nu_value / float(k)


def diversification(
    w: Weights | np.ndarray, c: CoMomentSet, ref: ReferenceAsset, m: NuMeasure
) -> DiversificationResult:
    """D = nu(Z) / nu(portfolio), with a +inf sentinel near the Gaussian."""
    nu_p = nu(w, c, m)
    if nu_p <= NEAR_GAUSSIAN_NU:
        return DiversificationResult(
            value=math.inf, nu_portfolio=nu_p, nu_reference=ref.nu_value, near_gaussian=True
        )
    return DiversificationResult(
        value=ref.nu_value / nu_p, nu_portfolio=nu_p, nu_reference=ref.nu_value, near_gaussian=False
    )


def dimensionality(
    w: Weights | np.ndarray, c: CoMomentSet, ref: ReferenceAsset, m: NuMeasure
) -> DiversificationResult:
    """Portfolio dimensionality d: D mapped through the inverse reference
    curve.  Both measures scale as nu(Z)/k, so the inverse is the identity
    and d equals D."""
    return diversification(w, c, ref, m)


def _check_rho(rho: float) -> None:
    if not (-1.0 < rho < 1.0):
        raise ValueError(f"rho must lie strictly inside (-1, 1), got {rho!r}")


def toy_rp_weight(rho: float) -> float:
    """Third-asset weight of the 3-asset risk-parity portfolio.

    Universe: assets 1 and 2 unit-variance with correlation rho, asset 3
    unit-variance independent of both.
    """
    _check_rho(rho)
    return (2.0 * math.sqrt(1.0 + rho) - (1.0 + rho)) / (3.0 - rho)


def toy_dr_weight(rho: float) -> float:
    """Third-asset weight of the 3-asset maximum-diversification-ratio portfolio."""
    _check_rho(rho)
    return (1.0 + rho) / (3.0 + rho)
