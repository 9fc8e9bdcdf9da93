"""Maximum-efficiency chains and guaranteed service levels.

Model a logistic network as a directed graph whose arcs carry an
efficiency in (0, 1], find the chain between two nodes whose efficiency
product is maximal, and certify a floor that every node pair is
guaranteed to meet.  See the io module for the edge-list file format and
the cli module for the command-line interface.
"""

__version__ = "0.1.0"

from .algebra import (
    DEFAULT_BASE,
    Lossiness,
    bsc_endpoint_accuracy,
    chain_efficiency,
    check_efficiency,
    commission_to_efficiency,
    from_lossiness,
    link_efficiency,
    to_lossiness,
)
from .errors import (
    BadBase,
    BadLabel,
    CommissionOutOfRange,
    ConflictingArc,
    DuplicateArc,
    EffchainError,
    EfficiencyOutOfRange,
    EmptyChain,
    GainNotAllowed,
    NegativeLossiness,
    NonPositiveOutput,
    NotConnected,
    NotSymmetric,
    ParseError,
    SelfLoop,
    SomePairUnreachable,
    UnknownNode,
    WrongArity,
)
from .fixtures import demo_energy_network
from .guarantee import (
    GuaranteedLevel,
    guaranteed_min_all_pairs,
    guaranteed_min_by_tree,
    max_product_spanning_tree,
    tree_path,
)
from .io import parse_network, read_network, render_network, to_dot
from .network import (
    MERGE_TOLERANCE,
    Arc,
    Network,
    NetworkKind,
    as_symmetric,
    build_network,
    classify,
    is_connected,
    validate_label,
)
from .routing import (
    Chain,
    additive_search,
    best_chain_multiplicative,
    best_chain_via_lossiness,
    multiplicative_search,
)

__all__ = [
    "DEFAULT_BASE",
    "MERGE_TOLERANCE",
    "Arc",
    "BadBase",
    "BadLabel",
    "Chain",
    "CommissionOutOfRange",
    "ConflictingArc",
    "DuplicateArc",
    "EffchainError",
    "EfficiencyOutOfRange",
    "EmptyChain",
    "GainNotAllowed",
    "GuaranteedLevel",
    "Lossiness",
    "NegativeLossiness",
    "Network",
    "NetworkKind",
    "NonPositiveOutput",
    "NotConnected",
    "NotSymmetric",
    "ParseError",
    "SelfLoop",
    "SomePairUnreachable",
    "UnknownNode",
    "WrongArity",
    "additive_search",
    "as_symmetric",
    "best_chain_multiplicative",
    "best_chain_via_lossiness",
    "bsc_endpoint_accuracy",
    "build_network",
    "chain_efficiency",
    "check_efficiency",
    "classify",
    "commission_to_efficiency",
    "demo_energy_network",
    "from_lossiness",
    "guaranteed_min_all_pairs",
    "guaranteed_min_by_tree",
    "is_connected",
    "link_efficiency",
    "max_product_spanning_tree",
    "multiplicative_search",
    "parse_network",
    "read_network",
    "render_network",
    "to_dot",
    "to_lossiness",
    "tree_path",
    "validate_label",
]
