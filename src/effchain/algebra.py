"""Efficiency arithmetic and the logarithmic lossiness transform.

An efficiency is a dimensionless ratio in (0, 1]: useful service volume at
the output of a link divided by service volume spent at its input.  Chains
multiply efficiencies.  The lossiness of a link is -log_b(efficiency) for a
base b > 1; chains add lossiness, so the chain with the smallest total
lossiness is the chain with the largest efficiency product.  Base 2 is the
default, the natural choice for information networks where efficiency is
the per-bit transmission reliability.
"""

import math
from dataclasses import dataclass

from .errors import (
    BadBase,
    CommissionOutOfRange,
    EfficiencyOutOfRange,
    EmptyChain,
    GainNotAllowed,
    NegativeLossiness,
    NonPositiveOutput,
    WrongArity,
)

DEFAULT_BASE = 2.0


def check_efficiency(value: float, *, line: int | None = None, pair: tuple[str, str] | None = None) -> float:
    """Validate that ``value`` is a real in (0, 1] and return it."""
    if not (0.0 < value <= 1.0):
        raise EfficiencyOutOfRange(
            f"efficiency must be in (0, 1], got {value!r}", line=line, pair=pair
        )
    return value


def _check_base(base: float) -> None:
    """Raise BadBase unless ``base`` is a finite logarithm base above 1."""
    if not (math.isfinite(base) and base > 1.0):
        raise BadBase(f"log base must exceed 1, got {base!r}")


@dataclass(frozen=True)
class Lossiness:
    """A nonnegative additive link weight with the log base it was taken in.

    A value of 0 corresponds to a perfectly efficient link (efficiency 1).
    """

    value: float
    base: float = DEFAULT_BASE


def link_efficiency(service_in: float, service_out: float) -> float:
    """Efficiency of one link: service volume out / service volume in.

    Raises ValueError unless the input is finite and above 0,
    NonPositiveOutput unless the output is above 0 (NaN is not; the ratio
    would leave the (0, 1] domain) and GainNotAllowed when the output
    exceeds the input.
    """
    if not (0 < service_in < math.inf):
        raise ValueError(
            f"service input must be finite and positive, got {service_in!r}"
        )
    if not service_out > 0:
        raise NonPositiveOutput(
            f"service output must be positive, got {service_out!r}"
        )
    if service_out > service_in:
        raise GainNotAllowed(
            f"service output {service_out!r} exceeds input {service_in!r}"
        )
    return service_out / service_in


def chain_efficiency(links: list[float] | tuple[float, ...]) -> float:
    """Overall efficiency of a chain: the product of its link efficiencies.

    The product of values in (0, 1] stays in (0, 1].  Factors are
    accumulated left to right in plain floating point.
    """
    if not links:
        raise EmptyChain("a chain needs at least one link")
    product = 1.0
    for eta in links:
        check_efficiency(eta)
        product *= eta
    return product


def to_lossiness(eta: float, base: float = DEFAULT_BASE) -> Lossiness:
    """Transform an efficiency into its additive lossiness -log_base(eta).

    Monotone decreasing in eta: more efficient links are less lossy.
    """
    _check_base(base)
    check_efficiency(eta)
    # abs() folds the -0.0 that -log(1.0) would produce into 0.0.
    return Lossiness(abs(math.log(eta) / math.log(base)), base)


def from_lossiness(t: Lossiness) -> float:
    """Efficiency corresponding to a lossiness: base ** (-value).

    Round-trips with to_lossiness to within 1e-12.
    """
    _check_base(t.base)
    if not (0 <= t.value < math.inf):
        raise NegativeLossiness(
            f"lossiness must be finite and >= 0, got {t.value!r}"
        )
    return t.base ** (-t.value)


def bsc_endpoint_accuracy(*etas: float) -> float:
    """End-to-end bit accuracy of two consecutive binary symmetric channels.

    When correctness is judged only by comparing the final bit with the
    initial bit, two flips cancel, so the accuracy is
    eta1*eta2 + (1 - eta1)*(1 - eta2) rather than the plain product.
    Defined for exactly two links; there is no supported generalization.
    """
    if len(etas) != 2:
        raise WrongArity(f"expected exactly 2 link efficiencies, got {len(etas)}")
    eta1, eta2 = etas
    check_efficiency(eta1)
    check_efficiency(eta2)
    return eta1 * eta2 + (1.0 - eta1) * (1.0 - eta2)


def commission_to_efficiency(ksb_percent: float) -> float:
    """Efficiency of a transaction channel charging a percentage commission."""
    if not (0.0 <= ksb_percent < 100.0):
        raise CommissionOutOfRange(
            f"commission percentage must be in [0, 100), got {ksb_percent!r}"
        )
    return 1.0 - ksb_percent / 100.0
