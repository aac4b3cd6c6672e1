"""Multi-qubit information measures, monogamy identity checks, and n-tangle."""

from .statekit import (
    MixedState,
    PureState,
    density_of,
    load_state,
    make_named,
    pure_from_amplitudes,
    random_mixed,
    random_pure,
    save_state,
    state_from_json,
    state_to_json,
)
from .pauli import PauliString, apply_pure, expectation_mixed, expectation_pure, strings_on_support
from .reduction import partial_trace, purity, spin_flip, tilde_overlap
from .measures import (
    InfoTable,
    all_infos_enumerated,
    all_infos_fast,
    all_infos_mixed,
    concurrence_sq_2q,
    info_single,
    info_subset,
    local_info,
    n_tangle,
    nonlocal_info,
    tau_linear_entropy,
)
from .identities import (
    IDENTITIES,
    IdentityReport,
    applicable,
    fuzz,
    mixed_total_info_margin,
    residual_combination_4q,
    residual_complementarity,
    residual_mixed_pair,
    residual_mixed_triple,
    residual_pair_partition,
    residual_single_partition,
    residual_tangle_relation_4q,
)

__version__ = "0.1.0"
