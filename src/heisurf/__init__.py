"""Minimal-surface constructions in the 3D Heisenberg group.

Modules cover: the group law as array kernels (core), intrinsic graphs and
areas (graphs), graphical strips (strips), ruled deformations and second
variation (variation), kinematic line sampling (lines), scaling limits /
non-unique fillings / competitor surfaces (families), and mesh export
(meshes).  The package namespace re-exports the family constructions, the
mesh constructors and the profile spec language.
"""

from .families import (
    CompareReport,
    CompetitorSurface,
    RuledEntireGraph,
    ScalingLimitReport,
    broken_plane_area,
    broken_plane_energy,
    build_competitor,
    chord_obstruction_check,
    competitor_compare,
    scaling_limit,
    sigma_rho_area,
    sigma_rho_membership,
    sigma_rho_surface,
)
from .meshes import (
    MeshObj,
    broken_plane_mesh,
    competitor_mesh,
    mesh_from_graph,
    mesh_from_mapped_grid,
    mesh_from_ruled,
    merge_meshes,
    strip_mesh,
    write_obj,
)
from .profilespec import (
    ProfileSpec,
    ProfileSpecError,
    parse_profile,
    profile_from_string,
)

__version__ = "0.1.0"
