"""quadmeas: numerical lab for an all-optical projective quadrature measurement.

The package builds, in a truncated Fock basis, the outcome-indexed family of
reduction operators realized by mixing the signal with a squeezed probe on a
beam splitter, homodyning the probe, and applying outcome-dependent feedback
plus squeezing corrections to the signal — and verifies that the family acts
as a Gaussian-smeared quadrature projector of tunable width.

Submodules
----------
fock        truncated-basis states, ladder/Gaussian operators, guard bands
kernel      outcome grids, reduction families, probability operators, densities
scheme      the beam-splitter/feedback pipeline and its operator-identity checks
gaussian    exact covariance-matrix oracle for all Gaussian expectations
montecarlo  seeded sampling of outcomes, conditioning, repeatability statistics
cli         `quadmeas` command-line interface (verify / pom / sample / sweep)

The package holds the code the four commands run, and four names that no
command reads yet: the input states fock_state, coherent_gaussian and
squeezed_vacuum_gaussian, and the back-action conjugate_variance_after.
Reference oracles that only tests read (Born densities of arbitrary states,
ideal quadrature densities, KS statistics) live with the tests.
"""

from .errors import (
    QuadmeasError,
    ParameterError,
    DimensionMismatchError,
    GridRangeError,
    ZeroProbabilityError,
    InfeasibleFeedbackError,
    DegenerateCovarianceError,
)
from .fock import (
    GUARD_FRACTION,
    guard_level,
    StateVector,
    DensityOperator,
    vacuum_state,
    fock_state,
    coherent_state,
    squeezed_vacuum,
    make_annihilation,
    make_quadrature,
    quadrature_eigenvector_matrix,
    quadrature_nodes,
    expectation,
    variance,
    trace_distance,
)
from .kernel import (
    OutcomeGrid,
    ReductionOperatorFamily,
    PomDensity,
    OutcomeDensity,
    vn_target_family,
    widen_grid_for_density,
)
from .scheme import (
    SchemeParams,
    StageMask,
    FeedbackSpec,
    SchemeFamilyBuilder,
    PipelineResult,
    BchReport,
    GaussianSchemeOracle,
    build_scheme_family,
    verify_bch_factorization,
    measurement_width,
    presqueeze_param,
    backsqueeze_param,
    feedback_coefficient,
    feedback_displacement,
)
from .gaussian import (
    GaussianState,
    SymplecticTransform,
    vacuum_gaussian,
    coherent_gaussian,
    squeeze_symplectic,
    beam_splitter_symplectic,
    tensor_product,
    condition_on_quadrature,
    quadrature_statistics,
    normal_pdf,
    conjugate_variance_after,
)
from .montecarlo import (
    RngSeed,
    TrialEngine,
    RepeatabilityStats,
    finite_lo_displacement,
    summarize_repeatability,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
