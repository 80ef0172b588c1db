"""Inner and outer sum-of-squares hierarchies on the boolean and q-ary cube,
with Krawtchouk-root error bounds and explicit kernel certificates.

Submodules are imported lazily, and no module imports scipy when it loads:
the outer interior-point method and the inner Lanczos solve import
``scipy.linalg`` at their first call, and the inner gather ``scipy.sparse``.
``certify``, the constants table, brute force, the dense inner bound and the
Krawtchouk roots run on numpy alone.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "config": ["CapExceededError", "CertificationError", "SolverError"],
    "cube_fourier": [
        "CubePolynomial", "MatrixPolynomial", "brute_force_min", "evaluate",
        "harmonic_parts", "sup_norm", "fwht",
    ],
    "gamma_constants": [
        "GammaTable", "build_gamma_table", "c_d", "chebyshev_coeffs", "gamma_d",
        "rho_finite", "rho_infinity", "solve_lp",
    ],
    "inner_hierarchy": ["InnerBoundResult", "inner_cube", "inner_matrix"],
    "instances": ["maxcut_instance", "random_poly", "random_matrix_poly",
                  "stable_set_instance"],
    "kernel_certifier": [
        "KernelSpec", "SosCubeCertificate",
        "certify", "choose_kernel", "error_sweep",
    ],
    "krawtchouk": [
        "DiscreteMeasure", "kraw_step_bound_check", "least_root", "levenshtein_phi",
    ],
    "outer_hierarchy": [
        "OuterBoundResult", "outer_cube", "outer_matrix", "verify_sos_certificate",
    ],
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__ + ["__version__"]
