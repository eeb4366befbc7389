"""Quantum channel machinery: representations, entropies, Holevo bounds, Davies maps."""

from .bounds import (
    symmetric_triple_check,
    correlation_from_ensemble,
    correlation_matrix,
    fidelity_matrix,
    hierarchy,
    holevo,
    holevo_mutual_check,
    lindblad_check,
    sigma_min_two,
    theorem1_check,
    triple_from_params,
)
from .channels import (
    Channel,
    InvalidChannelError,
    coherent_information,
    exchange_entropy,
    identity_channel,
    is_cptp,
    kraus_from_ensemble,
    map_entropy,
    unitary_channel,
)
from .davies import DaviesQubit, DaviesQutritBlock, DaviesRates, membership
from .entropy import (
    Ensemble,
    EntropyOrder,
    classical_entropy,
    entropic_distance,
    quantum_mutual_information,
    relative_entropy,
    transmission_distance,
    vn_entropy,
)
from .matfun import partial_trace, psd_sqrt, reshuffle
from .qubit import (
    additivity_region,
    depolarizing,
    max_output_2norm,
    min_output_entropy,
    pauli_channel,
    preserve_smin,
    sandwich_check,
    smin_from_smap,
)
from .sampling import dirichlet, haar_unitary, hs_random_density, random_channel, random_ensemble, stream_rng
from .states import angle, fidelity, from_bloch, purify, root_fidelity, schmidt, to_bloch, uhlmann_max

__version__ = "0.1.0"
