import importlib
import pkgutil
import re

import pytest

import cubesos
from cubesos.config import CapExceededError
from cubesos.cube_fourier import (
    CubePolynomial,
    MatrixPolynomial,
    brute_force_min,
    polynomial_from_dict,
    spectrum,
    value_table,
)
from cubesos.inner_hierarchy import inner_cube, inner_matrix
from cubesos.instances import random_matrix_poly, random_poly
from cubesos.kernel_certifier import certify, choose_kernel
from cubesos.outer_hierarchy import outer_cube, outer_matrix

F = random_poly(5, 2, seed=1)
M = random_matrix_poly(5, 2, 2, seed=1)
ZERO = MatrixPolynomial(5, 2, {})


@pytest.mark.parametrize("call", [
    lambda: value_table(F),
    lambda: brute_force_min(F),
    lambda: spectrum(F),
    lambda: polynomial_from_dict({"n": 5, "fourier": [{"a": "11001", "coef": 1.0}]}),
    lambda: inner_cube(F, 2),
    lambda: inner_matrix(M, 1),
    lambda: inner_matrix(ZERO, 1),
    lambda: outer_cube(F, 1),
    lambda: outer_matrix(M, 1),
    lambda: outer_matrix(ZERO, 1),
    lambda: certify(F, 3),
], ids=["value_table", "brute_force_min", "spectrum",
        "fourier_json", "inner_cube", "inner_matrix",
        "inner_matrix_zero", "outer_cube", "outer_matrix", "outer_matrix_zero", "certify"])
def test_entry_points_enforce_cap(monkeypatch, call):
    monkeypatch.setenv("CUBESOS_MAX_N", "4")
    with pytest.raises(CapExceededError):
        call()


def diagonal(f):
    return MatrixPolynomial.from_entries(f.n, 2, {(0, 0): f, (1, 1): f})


# each entry point's bound on min f; the matrix ones run on diag(f, f), and
# the certificate's is f_min - delta
ORDER_CALLS = {
    "inner_cube": lambda f, r: inner_cube(f, r).value,
    "inner_matrix": lambda f, r: inner_matrix(diagonal(f), r).value,
    "outer_cube": lambda f, r: outer_cube(f, r).value,
    "outer_matrix": lambda f, r: outer_matrix(diagonal(f), r).value,
    "choose_kernel": lambda f, r: choose_kernel(f.n, f.degree, r),
    "certify": lambda f, r: brute_force_min(f)[0] - certify(f, r).delta_original,
}
ORDER_TEXTS = {-1: "r=-1 out of range 0..5", 6: "r=6 out of range 0..5",
               0: "r=0 too small for degree 2"}
CONSTANT = CubePolynomial.constant(5, 1.5)


# one rule, config.check_order, with one text everywhere; the inner bound
# exists at every order 0..n, so only the range applies to it. On a constant
# every order is large enough: at r = 0 each bound is the constant, the
# lower ones (outer and certificate) from below.
@pytest.mark.parametrize("name, f, r, text", [
    pytest.param(name, F, r, ORDER_TEXTS[r], id=f"{name}-{r}")
    for name in ORDER_CALLS for r in ORDER_TEXTS
    if not (name.startswith("inner") and r == 0)
] + [
    pytest.param(name, CONSTANT, 0, None, id=f"{name}-constant")
    for name in ORDER_CALLS if name != "choose_kernel"
])
def test_entry_points_check_the_order(name, f, r, text):
    if text is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            ORDER_CALLS[name](f, r)
        return
    bound = ORDER_CALLS[name](f, r)
    assert bound == pytest.approx(1.5, abs=1e-6)
    if not name.startswith("inner"):
        assert bound <= 1.5


def test_choose_kernel_checks_the_degree():
    with pytest.raises(ValueError, match=r"^degree d=6 out of range 0\.\.5$"):
        choose_kernel(5, 6, 3)


def test_exported_names_resolve():
    # every name the package or one of its modules exports can be imported
    missing = [name for name in cubesos.__all__ if not hasattr(cubesos, name)]
    for info in pkgutil.iter_modules(cubesos.__path__):
        module = importlib.import_module(f"cubesos.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []
