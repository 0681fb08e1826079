"""modcat: exact-arithmetic toolkit for metaplectic fusion rings,
metric groups with quadratic forms, Z2 gauging and condensation."""

from .errors import (
    DegenerateInputError,
    InternalConsistencyError,
    MalformedInputError,
    ModcatError,
    ParameterError,
    PreconditionError,
    RedirectError,
    ResourceLimitError,
    UnsupportedInputError,
)
from .ring import (
    AlgebraicReal,
    AxiomReport,
    FusionRing,
    Grading,
    InvertibleGroup,
    adjoint_subring,
    asymptotic_dim_ratio,
    exact_dimensions,
    fp_dimensions,
    global_fp_dim,
    gn_grading,
    hom_space_dim,
    invertibles,
    subring_generated,
    universal_grading,
    verify_axioms,
)
from .modular import (
    Phase,
    RibbonData,
    SMatrix,
    centralizer,
    classify_invertible,
    gauss_sums,
    is_modular,
    muger_center,
    s_matrix,
    transparency_constraint,
)
from .metric import (
    MetricGroup,
    cyclic_form,
    enumerate_cyclic_metric_groups,
    equivalence_test,
    form_preserving_autos,
    pointed_ribbon_data,
)
from .gauging import (
    CondensationReport,
    GaugingDatum,
    Z2Module,
    condense_boson,
    count_gaugings_per_form,
    count_metaplectic,
    gauge_particle_hole,
    z2_cohomology,
)
from .catalog import (
    IsingParams,
    MetaplecticCensus,
    based_ring_isomorphism,
    boson_fermion_census,
    build_so_n2,
    ising_squared_data,
    ising_squared_enumeration,
    ising_squared_total_count,
    sixteen_m_component_census,
    structure_census,
)

__version__ = "0.1.0"
