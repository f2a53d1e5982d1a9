"""Entanglement detection in pairs of free Gaussian wave packets.

A numerical laboratory for a two-parameter family of bipartite Gaussian
states: closed-form dispersions and marginals, covariance-matrix
separability analysis and entanglement of formation, an independent
spectral-grid oracle, and the single-observer measurement protocols that
classify the source and extract its entanglement width.

Units: hbar and the particles' common mass are both 1 throughout, so a
momentum is a wavenumber and a time t stands for hbar t / m.  No physics is
lost: rescaling t, p and Simon's invariant removes both constants from every
dispersion, from the sign of the invariant and from the entanglement of
formation.
"""

from .covariance import (
    CovMatrix4,
    SimonResult,
    StandardForm,
    covariance_matrix,
    entanglement_of_formation,
    entropy_from_symplectic_eigenvalue,
    reduced_symplectic_eigenvalue,
    simon_invariant,
    simon_invariant_closed_form,
    standard_form,
    standard_form_from_cm,
)
from .errors import DomainError, FitError, GridError
from .protocols import (
    BlindBatch,
    DispersionSeries,
    FitOutcome,
    HiddenScenario,
    KnownOriginBatch,
    Verdict,
    ambiguity_time,
    classify_blind,
    classify_known_origin,
    critical_time,
    crossing_times,
    entangled_alpha,
    entanglement_width_from_alpha,
    fit_dispersion_curve,
    mimic_width,
    predicted_dispersion_entangled,
    predicted_dispersion_separable,
    run_blind_batch,
    run_blind_trial,
    run_known_origin_batch,
    run_known_origin_trial,
    width_from_momentum_dispersion,
)
from .states import (
    GaussianDensity,
    PairParams,
    drift_velocity,
    entanglement_factor,
    initial_amplitude,
    marginal_momentum,
    marginal_position,
    momentum_dispersion,
    position_dispersion,
    spreading_factor,
)

__version__ = "0.1.0"
