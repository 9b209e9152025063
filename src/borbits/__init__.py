"""Borel orbit combinatorics of abelian ideals.

Enumerates abelian ideals of the positive roots through minuscule elements
of the affine Weyl group, parametrizes the orbit decomposition of each
ideal by orthogonal root subsets, and computes orbit dimensions and the
closure order through the Bruhat order on the attached involutions.

The names below are loaded from their modules on first access (PEP 562),
so ``import borbits`` and each CLI command load only the modules they use.
"""

from importlib import import_module

# the verification suites in run order; `suites` dispatches on them, and the
# CLI parser reads them here without importing `suites`
SUITE_NAMES = ("minuscule", "involutions", "poset", "strong-form", "phi")

_HOMES = {
    "affine": ("AffineWeylElement", "AffineWeylGroup"),
    "involutions": (
        "AdmissiblePair", "Report", "involution_length",
        "make_admissible_pair", "make_orthogonal_set", "orthogonal_subsets", "reflection_product",
    ),
    "minuscule": (
        "MinusculeElement", "enumerate_abelian_ideals", "enumerate_minuscule", "ideal_to_element",
        "is_minuscule",
    ),
    "orbits": ("OrbitPoset", "build_orbit_poset", "export_poset"),
    "roots": ("RootSystem", "build_root_system"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
