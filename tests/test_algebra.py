import math
import random

import pytest

from effchain import (
    BadBase,
    CommissionOutOfRange,
    EfficiencyOutOfRange,
    EmptyChain,
    GainNotAllowed,
    Lossiness,
    NegativeLossiness,
    NonPositiveOutput,
    WrongArity,
    bsc_endpoint_accuracy,
    chain_efficiency,
    check_efficiency,
    commission_to_efficiency,
    from_lossiness,
    link_efficiency,
    to_lossiness,
)


def test_check_efficiency_accepts_unit_interval():
    check_efficiency(1.0)
    check_efficiency(0.5)
    check_efficiency(1e-300)


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.0000001, 2.0, float("nan"), float("inf")])
def test_check_efficiency_rejects_out_of_range(bad):
    with pytest.raises(EfficiencyOutOfRange):
        check_efficiency(bad)


def test_check_efficiency_annotates_line():
    with pytest.raises(EfficiencyOutOfRange, match="line 7"):
        check_efficiency(1.5, line=7)


def test_link_efficiency_is_output_over_input():
    assert link_efficiency(100.0, 97.0) == 0.97
    assert link_efficiency(50.0, 50.0) == 1.0


def test_link_efficiency_rejects_bad_volumes():
    with pytest.raises(ValueError):
        link_efficiency(0.0, 1.0)
    with pytest.raises(NonPositiveOutput):
        link_efficiency(10.0, 0.0)
    with pytest.raises(NonPositiveOutput):
        link_efficiency(10.0, -1.0)
    with pytest.raises(GainNotAllowed):
        link_efficiency(10.0, 10.5)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("service_in", [NAN, INF, -INF])
def test_link_efficiency_rejects_a_non_finite_input(service_in):
    for service_out in (0.5, 1.0, NAN, INF):
        with pytest.raises(ValueError, match="finite"):
            link_efficiency(service_in, service_out)


def test_link_efficiency_rejects_a_non_finite_output():
    with pytest.raises(NonPositiveOutput):
        link_efficiency(1.0, NAN)
    with pytest.raises(GainNotAllowed):
        link_efficiency(1.0, INF)


def test_chain_efficiency_multiplies_left_to_right():
    assert chain_efficiency([0.5]) == 0.5
    assert chain_efficiency([0.9, 0.8, 0.7]) == (0.9 * 0.8) * 0.7


def test_chain_efficiency_rejects_empty_and_invalid():
    with pytest.raises(EmptyChain):
        chain_efficiency([])
    with pytest.raises(EfficiencyOutOfRange):
        chain_efficiency([0.9, 1.2])


def test_lossiness_of_one_is_zero():
    assert to_lossiness(1.0).value == 0.0


def test_lossiness_of_half_base_two_is_one():
    assert to_lossiness(0.5, base=2.0).value == 1.0


def test_lossiness_round_trip():
    rng = random.Random(42)
    for _ in range(500):
        eta = 1.0 - rng.random()
        for base in (2.0, math.e, 10.0):
            back = from_lossiness(to_lossiness(eta, base=base))
            assert back == pytest.approx(eta, abs=1e-12)


def test_lossiness_is_additive_over_products():
    rng = random.Random(7)
    for _ in range(1000):
        e1 = 1.0 - rng.random()
        e2 = 1.0 - rng.random()
        for base in (2.0, math.e, 10.0):
            t12 = to_lossiness(e1 * e2, base=base).value
            t1 = to_lossiness(e1, base=base).value
            t2 = to_lossiness(e2, base=base).value
            assert abs(t12 - (t1 + t2)) <= 1e-10


def test_lossiness_never_negative():
    rng = random.Random(99)
    for _ in range(1000):
        assert to_lossiness(1.0 - rng.random()).value >= 0.0


def test_bad_base_rejected():
    with pytest.raises(BadBase):
        to_lossiness(0.5, base=1.0)
    with pytest.raises(BadBase):
        to_lossiness(0.5, base=0.5)
    with pytest.raises(BadBase):
        from_lossiness(Lossiness(1.0, base=1.0))


def test_from_lossiness_rejects_negative_value():
    with pytest.raises(NegativeLossiness):
        from_lossiness(Lossiness(-0.1, base=2.0))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_from_lossiness_rejects_a_non_finite_value(value):
    with pytest.raises(NegativeLossiness, match="finite"):
        from_lossiness(Lossiness(value, base=2.0))


def test_bsc_two_links():
    assert bsc_endpoint_accuracy(0.9, 0.8) == pytest.approx(0.74, abs=1e-12)


def test_bsc_symmetry_and_identity():
    rng = random.Random(3)
    for _ in range(200):
        e1 = 1.0 - rng.random()
        e2 = 1.0 - rng.random()
        assert bsc_endpoint_accuracy(e1, e2) == bsc_endpoint_accuracy(e2, e1)
        assert bsc_endpoint_accuracy(1.0, e1) == pytest.approx(e1, abs=1e-15)


def test_bsc_at_least_plain_product():
    rng = random.Random(11)
    for _ in range(200):
        e1 = 1.0 - rng.random()
        e2 = 1.0 - rng.random()
        assert bsc_endpoint_accuracy(e1, e2) >= e1 * e2


def test_bsc_wrong_arity():
    with pytest.raises(WrongArity):
        bsc_endpoint_accuracy(0.9)
    with pytest.raises(WrongArity):
        bsc_endpoint_accuracy(0.9, 0.8, 0.7)


def test_commission_two_percent():
    assert commission_to_efficiency(2) == 0.98


def test_commission_bounds():
    assert commission_to_efficiency(0) == 1.0
    with pytest.raises(CommissionOutOfRange):
        commission_to_efficiency(100)
    with pytest.raises(CommissionOutOfRange):
        commission_to_efficiency(-1)
