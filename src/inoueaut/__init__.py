"""Exact computation of automorphism component groups of Inoue surfaces
from real quadratic number field data."""

from .exactnum import (
    QuadComplex,
    QuadReal,
    parse_rational,
)
from .quadfield import (
    FieldDescriptor,
    FieldElement,
    chi,
    parse_field_element,
)
from .lattice import Lattice, LatticeQuotient
from .units import (
    fundamental_unit,
    invariant_unit_generator,
    unit_exponent,
    utheta_exponent,
)
from .surfacegroup import (
    AffineElement,
    InoueData,
    ParameterError,
    StandardFormError,
    SurfaceParams,
    is_standard_form_direct,
    make_generators,
    surface_group_contains,
    to_inoue_data,
)
from .components import (
    AmbientGroup,
    AutReport,
    ComponentGroup,
    GroupStructure,
    InternalConsistencyError,
    automorphism_report,
    build_ambient,
    component_group,
    membership_conditions,
    normalizer_oracle,
    oracle_crosscheck,
    order_bound,
    require_standard_form,
)

__version__ = "0.1.0"

__all__ = [
    "QuadComplex",
    "QuadReal",
    "FieldDescriptor",
    "FieldElement",
    "chi",
    "parse_field_element",
    "parse_rational",
    "Lattice",
    "LatticeQuotient",
    "fundamental_unit",
    "invariant_unit_generator",
    "unit_exponent",
    "utheta_exponent",
    "AffineElement",
    "InoueData",
    "ParameterError",
    "StandardFormError",
    "SurfaceParams",
    "is_standard_form_direct",
    "make_generators",
    "surface_group_contains",
    "to_inoue_data",
    "AmbientGroup",
    "AutReport",
    "ComponentGroup",
    "GroupStructure",
    "InternalConsistencyError",
    "automorphism_report",
    "build_ambient",
    "component_group",
    "membership_conditions",
    "normalizer_oracle",
    "oracle_crosscheck",
    "order_bound",
    "require_standard_form",
]
