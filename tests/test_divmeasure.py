"""Diversification measure, dimensionality, and toy-universe closed forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from portdim import comoments as cm
from portdim import divmeasure as dv
from portdim import retsim as rs

from conftest import iid_comoments

rhos = st.floats(min_value=-0.99, max_value=0.99)


def test_toy_weights_at_zero_correlation():
    # three iid assets: every covariance-based rule is equal weight
    assert dv.toy_rp_weight(0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert dv.toy_dr_weight(0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_toy_weights_frozen_values():
    assert dv.toy_rp_weight(0.5) == pytest.approx(0.3797958971132712, abs=1e-15)
    assert dv.toy_dr_weight(0.5) == pytest.approx(3.0 / 7.0, abs=1e-15)
    # rho -> 1 limits: sqrt(2) - 1 and 1/2
    assert dv.toy_rp_weight(1 - 1e-12) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)
    assert dv.toy_dr_weight(1 - 1e-12) == pytest.approx(0.5, abs=1e-9)


@given(rhos)
@settings(max_examples=100, deadline=None)
def test_toy_weights_lie_in_unit_interval(rho):
    assert 0.0 < dv.toy_rp_weight(rho) < 1.0
    assert 0.0 < dv.toy_dr_weight(rho) < 1.0


@given(st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=60, deadline=None)
def test_duplication_raises_weight_of_the_distinct_asset(rho):
    # the more assets 1 and 2 duplicate each other, the more weight the
    # independent third asset gets under both covariance rules
    assert dv.toy_rp_weight(rho) > 1.0 / 3.0
    assert dv.toy_dr_weight(rho) > 1.0 / 3.0


@given(st.floats(min_value=-0.95, max_value=-0.01))
@settings(max_examples=60, deadline=None)
def test_hedging_lowers_dr_weight_fastest(rho):
    assert dv.toy_dr_weight(rho) < 1.0 / 3.0
    assert dv.toy_rp_weight(rho) > dv.toy_dr_weight(rho)


def test_toy_weight_domain_errors():
    for bad in (-1.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            dv.toy_rp_weight(bad)
        with pytest.raises(ValueError):
            dv.toy_dr_weight(bad)


def test_nu_excess_kurtosis(c2_iid):
    assert dv.nu(np.array([1.0, 0.0]), c2_iid, dv.NuMeasure.EXCESS_KURTOSIS) == pytest.approx(
        3.0, abs=1e-12
    )
    assert dv.nu(np.array([0.5, 0.5]), c2_iid, dv.NuMeasure.EXCESS_KURTOSIS) == pytest.approx(
        1.5, abs=1e-12
    )


def test_nu_squared_skewness():
    c = iid_comoments(2, kurt=6.0, skew=0.8)
    got = dv.nu(np.array([1.0, 0.0]), c, dv.NuMeasure.SQUARED_SKEWNESS)
    assert got == pytest.approx(0.64, abs=1e-12)


def test_nu_of_a_gaussian_portfolio_is_zero():
    c = iid_comoments(2, kurt=3.0)  # exactly Gaussian fourth moments
    value = dv.nu(np.array([0.5, 0.5]), c, dv.NuMeasure.EXCESS_KURTOSIS)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_reference_curve_is_nu_over_k(margin_k6):
    ref = dv.ReferenceAsset.from_target(margin_k6, dv.NuMeasure.EXCESS_KURTOSIS)
    assert ref.nu_value == pytest.approx(3.0, abs=1e-15)
    assert dv.reference_curve(1, ref) == 3.0
    assert dv.reference_curve(6, ref) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        dv.reference_curve(0, ref)


def test_gaussian_reference_rejected():
    with pytest.raises(ValueError):
        dv.ReferenceAsset(nu_value=0.0)


@pytest.mark.parametrize("k", [2, 3, 5, 8, 16])
def test_equal_weight_iid_portfolio_has_dimensionality_k(k, margin_k6):
    # the semantics the measure is built for: averaging k iid copies of the
    # reference asset is worth exactly k dimensions
    c = iid_comoments(k, kurt=6.0)
    ref = dv.ReferenceAsset.from_target(margin_k6, dv.NuMeasure.EXCESS_KURTOSIS)
    ew = np.full(k, 1.0 / k)
    div = dv.diversification(ew, c, ref, dv.NuMeasure.EXCESS_KURTOSIS)
    dim = dv.dimensionality(ew, c, ref, dv.NuMeasure.EXCESS_KURTOSIS)
    assert div.value == pytest.approx(float(k), rel=1e-10)
    assert dim.value == pytest.approx(float(k), rel=1e-8)
    assert not dim.near_gaussian


def test_dimensionality_under_squared_skewness():
    # same additivity story for the squared-skewness measure
    c = iid_comoments(4, kurt=6.0, skew=0.6)
    target = rs.MarginTarget(mean=0.0, variance=1.0, skewness=0.6, kurtosis=6.0)
    ref = dv.ReferenceAsset.from_target(target, dv.NuMeasure.SQUARED_SKEWNESS)
    dim = dv.dimensionality(np.full(4, 0.25), c, ref, dv.NuMeasure.SQUARED_SKEWNESS)
    assert dim.value == pytest.approx(4.0, rel=1e-8)


def test_single_asset_has_dimensionality_one(margin_k6):
    c = iid_comoments(3, kurt=6.0)
    ref = dv.ReferenceAsset.from_target(margin_k6, dv.NuMeasure.EXCESS_KURTOSIS)
    dim = dv.dimensionality(np.array([1.0, 0.0, 0.0]), c, ref, dv.NuMeasure.EXCESS_KURTOSIS)
    assert dim.value == pytest.approx(1.0, rel=1e-10)


def test_near_gaussian_portfolio_reports_infinite_d(margin_k6):
    c = iid_comoments(2, kurt=3.0)
    ref = dv.ReferenceAsset.from_target(margin_k6, dv.NuMeasure.EXCESS_KURTOSIS)
    div = dv.diversification(np.array([0.5, 0.5]), c, ref, dv.NuMeasure.EXCESS_KURTOSIS)
    assert math.isinf(div.value)
    assert div.near_gaussian
    dim = dv.dimensionality(np.array([0.5, 0.5]), c, ref, dv.NuMeasure.EXCESS_KURTOSIS)
    assert math.isinf(dim.value) and dim.near_gaussian


def test_near_gaussian_is_a_result_flag_not_a_warning(margin_k6):
    c = iid_comoments(2, kurt=3.0)  # exactly Gaussian fourth moments
    ref = dv.ReferenceAsset.from_target(margin_k6, dv.NuMeasure.EXCESS_KURTOSIS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filters = list(warnings.filters)
        dim = dv.dimensionality(np.array([0.5, 0.5]), c, ref, dv.NuMeasure.EXCESS_KURTOSIS)
        nu_p = dv.nu(np.array([0.5, 0.5]), c, dv.NuMeasure.EXCESS_KURTOSIS)
        assert warnings.filters == filters
    assert dim.near_gaussian and math.isinf(dim.value)
    assert dim.nu_portfolio == nu_p


def test_dimensionality_is_leverage_consistent(c_n3, margin_k6):
    # kurtosis is scale free, so dimensionality must not depend on leverage;
    # checked on an estimated co-moment set with non-simplex weights
    ref = dv.ReferenceAsset.from_target(margin_k6, dv.NuMeasure.EXCESS_KURTOSIS)
    w = np.array([0.2, 0.3, 0.5])
    base = dv.dimensionality(w, c_n3, ref, dv.NuMeasure.EXCESS_KURTOSIS).value
    lev = dv.dimensionality(3.0 * w, c_n3, ref, dv.NuMeasure.EXCESS_KURTOSIS).value
    assert lev == pytest.approx(base, rel=1e-10)


@pytest.mark.parametrize("measure", list(dv.NuMeasure))
@pytest.mark.parametrize("nu_reference", [0.01, 3.0, 1e3])
def test_dimensionality_equals_diversification(measure, nu_reference):
    # the reference curve nu(Z)/k inverts to the identity, so d == D exactly,
    # for D below 1 and above 64 as well
    c = iid_comoments(3, kurt=6.0, skew=0.6)
    ref = dv.ReferenceAsset(nu_value=nu_reference)
    for w in (np.array([1.0, 0.0, 0.0]), np.array([0.2, 0.3, 0.5])):
        div = dv.diversification(w, c, ref, measure)
        dim = dv.dimensionality(w, c, ref, measure)
        assert dim.value == div.value
        assert dim == div
