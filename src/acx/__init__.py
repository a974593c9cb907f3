"""Exact-arithmetic workbench for invariant almost-complex geometry.

The library computes with closed invariant data only — structure constants,
invariant forms, finite Fourier sums — over the Gaussian rationals and their
one-symbol function fields, so every result is exact and reproducible.
"""

__version__ = "0.1.0"

# Each exported name is imported from its module on first access (PEP 562),
# so `import acx` loads no library module and a command-line invocation pays
# only for the modules its subcommand uses.
_EXPORTS = {
    "errors": ("InputError", "RefusalError"),
    "scalars": ("PiParam", "Scalar", "SymScalar"),
    "forms": ("Form",),
    "lie": (
        "ACStructure",
        "ComplexCoframe",
        "LieACS",
        "LieAlgebra",
        "build_coframe",
        "is_integrable",
        "nijenhuis",
    ),
    "bundles": ("CanonicalPower", "PseudoholStructure"),
    "hodge": (
        "HermitianData",
        "SectionContext",
        "invariant_harmonic_space",
        "serre_pairing_check",
    ),
    "models": ("abelian_model", "kt_model", "load_model_file"),
    "torus": (
        "IntInterval",
        "PlurigeneraProfile",
        "kodaira_dimension",
        "kt_irregularity",
        "kt_plurigenus",
        "kunneth",
        "rr_plurigenus",
        "t4_irregularity",
        "t4_obstruction",
        "t4_plurigenus",
    ),
    "g2": (
        "G2Element",
        "cross_product",
        "g2_algebra",
        "s6_hodge_report",
        "s6_model",
        "s6_plurigenus",
        "verify_bracket_table",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


__all__ = [*sorted(_MODULE_OF), "__version__"]
