"""Shared fixtures: exact synthetic co-moment sets and one simulated panel,
plus the dense forms that only tests read.

The synthetic iid co-moments are population values written down by hand
(unit variances, zero or prescribed third moments, marginal kurtosis
``kurt``), so tests against them are exact up to float arithmetic rather
than Monte Carlo tolerance.
"""

import math

import numpy as np
import pytest

from portdim import comoments as cm
from portdim import retsim as rs


def iid_comoments(n: int, kurt: float = 6.0, skew: float = 0.0) -> cm.CoMomentSet:
    """Population co-moments of n iid unit-variance margins.

    Central moments: E[x_i^4] = kurt, E[x_i^2 x_j^2] = 1 (i != j),
    E[x_i^3] = skew, every other third/fourth cross moment zero.
    """
    tri = np.stack(cm._sorted_tuple_arrays(n, 3), axis=1)
    m3_unique = np.where((tri[:, 0] == tri[:, 1]) & (tri[:, 1] == tri[:, 2]), skew, 0.0)
    quad = np.stack(cm._sorted_tuple_arrays(n, 4), axis=1)
    all_equal = np.all(quad[:, 1:] == quad[:, :-1], axis=1)
    two_pairs = (
        (quad[:, 0] == quad[:, 1]) & (quad[:, 2] == quad[:, 3]) & (quad[:, 1] != quad[:, 2])
    )
    m4_unique = np.where(all_equal, kurt, np.where(two_pairs, 1.0, 0.0))
    return cm.CoMomentSet(
        mean=np.zeros(n),
        m2=np.eye(n),
        m3_unique=m3_unique.astype(float),
        m4_unique=m4_unique.astype(float),
        n_assets=n,
        n_obs=1,
    )


def m4_block(c: cm.CoMomentSet) -> np.ndarray:
    """Fourth co-moment block matrix of shape (N, N^3), expanded from ``m4_gram``."""
    n = c.n_assets
    pair_of = cm._pair_layout(n)[3]
    return c.m4_gram[np.ix_(pair_of, pair_of)].reshape(n, n**3)


def m3_tensor(c: cm.CoMomentSet) -> np.ndarray:
    return c.m3.reshape((c.n_assets,) * 3)


def m4_tensor(c: cm.CoMomentSet) -> np.ndarray:
    return m4_block(c).reshape((c.n_assets,) * 4)


def cell_volume(vertices: np.ndarray) -> float:
    """Euclidean (N-1)-volume of a simplex cell, one vertex per row, via the Gram determinant of its edge vectors."""
    edges = vertices[1:] - vertices[0]
    if edges.shape[0] == 0:
        return 1.0
    det = float(np.linalg.det(edges @ edges.T))
    return math.sqrt(max(det, 0.0)) / math.factorial(edges.shape[0])


def homogeneous_spec(n: int, rho: float, kurt: float = 6.0) -> rs.MetaGaussianSpec:
    target = rs.MarginTarget(mean=0.0, variance=1.0, skewness=0.0, kurtosis=kurt)
    corr = np.full((n, n), rho)
    np.fill_diagonal(corr, 1.0)
    return rs.MetaGaussianSpec.from_targets((target,) * n, corr)


@pytest.fixture(scope="session")
def margin_k6() -> rs.MarginTarget:
    return rs.MarginTarget(mean=0.0, variance=1.0, skewness=0.0, kurtosis=6.0)


@pytest.fixture(scope="session")
def c2_iid() -> cm.CoMomentSet:
    return iid_comoments(2)


@pytest.fixture(scope="session")
def sample_n3() -> cm.ReturnSample:
    """Simulated 3-asset panel: homogeneous rho = -0.2, kurtosis 6, T = 1e5."""
    return rs.sample_meta_gaussian(homogeneous_spec(3, -0.2), 100_000, seed=7)


@pytest.fixture(scope="session")
def c_n3(sample_n3) -> cm.CoMomentSet:
    return cm.build_comoments(sample_n3)
