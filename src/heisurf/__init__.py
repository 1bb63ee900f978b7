"""Minimal-surface constructions in the 3D Heisenberg group.

Modules cover: the group law as array kernels (core), intrinsic graphs and
areas (graphs), graphical strips (strips), ruled deformations and second
variation (variation), kinematic line sampling (lines), scaling limits /
non-unique fillings / competitor surfaces (families), and mesh export
(meshes).  The package namespace exports the family constructions, the
mesh constructors and the profile spec language; each name is imported
from its module on first access, so ``import heisurf`` loads none of them.
"""
import importlib

__version__ = "0.1.0"

#: The module each exported name lives in.
_EXPORTS = {
    **dict.fromkeys((
        "CompareReport", "CompetitorSurface", "RuledEntireGraph",
        "ScalingLimitReport", "broken_plane_area", "broken_plane_energy",
        "build_competitor", "chord_obstruction_check", "competitor_compare",
        "scaling_limit", "sigma_rho_area", "sigma_rho_membership",
        "sigma_rho_surface"), "families"),
    **dict.fromkeys((
        "MeshObj", "broken_plane_mesh", "competitor_mesh", "mesh_from_graph",
        "mesh_from_mapped_grid", "mesh_from_ruled", "merge_meshes",
        "strip_mesh", "write_obj"), "meshes"),
    **dict.fromkeys((
        "ProfileSpec", "ProfileSpecError", "parse_profile",
        "profile_from_string"), "profilespec"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                   name)


def __dir__():
    return sorted([*globals(), *_EXPORTS])
