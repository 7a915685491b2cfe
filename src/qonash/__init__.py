"""Nash components and essential divisors of quasi-ordinary hypersurface germs.

The public surface: exact lattice arithmetic (:mod:`qonash.intlat`), branch
lattice towers (:mod:`qonash.qobranch`), quadrant-cone geometry
(:mod:`qonash.conegeom`), the per-branch and per-variety analysis
(:mod:`qonash.nashmap`), brute-force cross-checks (:mod:`qonash.oracle`), and
a CLI (:mod:`qonash.cli`).
"""

from .conegeom import (
    Divisor,
    Face,
    barycenter,
    face_data,
    leq_sigma,
    minimal_elements,
    minimal_toric_divisors,
    monomial_valuation,
    parallelepiped_points,
    singular_faces,
)
from .errors import DomainError, SchemaError
from .intlat import (
    Lattice,
    RatVec,
    contains,
    dual_lattice,
    hnf,
    index,
    lattice_from_generators,
    lattice_sum,
    primitive_on_ray,
    snf,
    standard_lattice,
)
from .nashmap import (
    BranchInput,
    BranchReport,
    Contact,
    Diagnostic,
    VarietyReport,
    analyze_branch,
    analyze_variety,
    componentize,
    contact_faces,
    essential_divisors,
)
from .qobranch import BranchLattices, BranchSpec, build_tower

__version__ = "0.1.0"

__all__ = [
    "BranchInput",
    "BranchLattices",
    "BranchReport",
    "BranchSpec",
    "Contact",
    "Diagnostic",
    "Divisor",
    "DomainError",
    "Face",
    "Lattice",
    "RatVec",
    "SchemaError",
    "VarietyReport",
    "analyze_branch",
    "analyze_variety",
    "barycenter",
    "build_tower",
    "componentize",
    "contact_faces",
    "contains",
    "dual_lattice",
    "essential_divisors",
    "face_data",
    "hnf",
    "index",
    "lattice_from_generators",
    "lattice_sum",
    "leq_sigma",
    "minimal_elements",
    "minimal_toric_divisors",
    "monomial_valuation",
    "parallelepiped_points",
    "primitive_on_ray",
    "singular_faces",
    "snf",
    "standard_lattice",
]
