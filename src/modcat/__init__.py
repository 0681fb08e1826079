"""modcat: exact-arithmetic toolkit for metaplectic fusion rings,
metric groups with quadratic forms, Z2 gauging and condensation.

Every public name imports the submodule that defines it on first use
(PEP 562), so a caller that only counts never imports numpy.
"""

# public name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in {
    "errors": (
        "DegenerateInputError", "InternalConsistencyError", "MalformedInputError",
        "ModcatError", "ParameterError", "PreconditionError", "RedirectError",
        "ResourceLimitError", "UnsupportedInputError",
    ),
    "_abelian": ("count_metaplectic", "ising_squared_enumeration"),
    "ring": (
        "AlgebraicReal", "AxiomReport", "FusionRing", "Grading", "InvertibleGroup",
        "adjoint_subring", "asymptotic_dim_ratio", "exact_dimensions", "fp_dimensions",
        "gn_grading", "hom_space_dim", "invertibles", "subring_generated", "universal_grading",
        "verify_axioms",
    ),
    "modular": (
        "Phase", "RibbonData", "SMatrix", "centralizer", "classify_invertible",
        "gauss_sums", "is_modular", "muger_center", "s_matrix",
    ),
    "metric": (
        "MetricGroup", "cyclic_form", "enumerate_cyclic_metric_groups", "equivalence_test",
        "form_preserving_autos", "pointed_ribbon_data",
    ),
    "gauging": (
        "CondensationReport", "GaugingDatum", "Z2Module", "condense_boson",
        "count_gaugings_per_form", "gauge_particle_hole", "z2_cohomology",
    ),
    "catalog": (
        "IsingParams", "MetaplecticCensus", "based_ring_isomorphism", "boson_fermion_census",
        "build_so_n2", "deligne_product", "deligne_ribbon", "ising_squared_data",
        "ising_squared_total_count", "sixteen_m_component_census", "structure_census",
    ),
}.items() for name in names}

__all__ = list(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # here, so the package holds only public names

    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value
