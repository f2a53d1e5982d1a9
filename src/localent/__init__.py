"""Entanglement detection in pairs of free Gaussian wave packets.

A numerical laboratory for a two-parameter family of bipartite Gaussian
states: closed-form dispersions, covariance-matrix separability analysis
and entanglement of formation, an independent spectral-grid oracle, and the
single-observer measurement protocols that classify the source and extract
its entanglement width.

Units: hbar and the particles' common mass are both 1 throughout, so a
momentum is a wavenumber and a time t stands for hbar t / m.  No physics is
lost: rescaling t, p and Simon's invariant removes both constants from every
dispersion, from the sign of the invariant and from the entanglement of
formation.
"""

from .covariance import (
    CovMatrix4,
    covariance_matrix,
    entanglement_of_formation,
    entropy_from_symplectic_eigenvalue,
    reduced_symplectic_eigenvalue,
    simon_invariant,
    simon_invariant_closed_form,
)
from .errors import DomainError, FitError, GridError
from .protocols import (
    BlindBatch,
    HiddenScenario,
    KnownOriginBatch,
    ambiguity_time,
    critical_time,
    crossing_times,
    entangled_alpha,
    entanglement_width_from_alpha,
    mimic_width,
    predicted_dispersion_entangled,
    predicted_dispersion_separable,
    run_blind_batch,
    run_known_origin_batch,
    width_from_momentum_dispersion,
)
from .states import (
    PairParams,
    entanglement_factor,
    momentum_dispersion,
    position_dispersion,
)

__version__ = "0.1.0"
