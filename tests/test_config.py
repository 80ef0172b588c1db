import importlib
import pkgutil
import re

import pytest

import cubesos
from cubesos.config import CapExceededError
from cubesos.cube_fourier import (
    MatrixPolynomial,
    brute_force_min,
    polynomial_from_dict,
    spectrum,
    value_table,
)
from cubesos.inner_hierarchy import inner_cube, inner_cube_symmetrized, inner_matrix
from cubesos.instances import random_matrix_poly, random_poly
from cubesos.kernel_certifier import certify, choose_kernel
from cubesos.outer_hierarchy import outer_cube, outer_matrix
from cubesos.qary import QaryPolynomial

F = random_poly(5, 2, seed=1)
M = random_matrix_poly(5, 2, 2, seed=1)
ZERO = MatrixPolynomial(5, 2, {})


@pytest.mark.parametrize("call", [
    lambda: value_table(F),
    lambda: brute_force_min(F),
    lambda: spectrum(F),
    lambda: polynomial_from_dict({"n": 5, "fourier": [{"a": "11001", "coef": 1.0}]}),
    lambda: inner_cube(F, 2),
    lambda: inner_cube_symmetrized(F, 2),
    lambda: inner_matrix(M, 1),
    lambda: inner_matrix(ZERO, 1),
    lambda: outer_cube(F, 1),
    lambda: outer_matrix(M, 1),
    lambda: outer_matrix(ZERO, 1),
    lambda: certify(F, 3),
], ids=["value_table", "brute_force_min", "spectrum",
        "fourier_json", "inner_cube", "inner_cube_symmetrized", "inner_matrix",
        "inner_matrix_zero", "outer_cube", "outer_matrix", "outer_matrix_zero", "certify"])
def test_entry_points_enforce_cap(monkeypatch, call):
    monkeypatch.setenv("CUBESOS_MAX_N", "4")
    with pytest.raises(CapExceededError):
        call()


ORDER_CALLS = {
    "inner_cube": lambda r: inner_cube(F, r),
    "outer_cube": lambda r: outer_cube(F, r),
    "choose_kernel": lambda r: choose_kernel(F.n, F.degree, r),
    "certify": lambda r: certify(F, r),
}
ORDER_TEXTS = {-1: "r=-1 out of range 0..5", 6: "r=6 out of range 0..5",
               0: "r=0 too small for degree 2"}


# one rule, config.check_order, with one text everywhere; the inner bound
# exists at every order 0..n, so only the range applies to it
@pytest.mark.parametrize("name, r", [(name, r) for name in ORDER_CALLS for r in ORDER_TEXTS
                                     if (name, r) != ("inner_cube", 0)])
def test_entry_points_check_the_order(name, r):
    with pytest.raises(ValueError, match=f"^{re.escape(ORDER_TEXTS[r])}$"):
        ORDER_CALLS[name](r)


def test_choose_kernel_checks_the_degree():
    with pytest.raises(ValueError, match=r"^degree d=6 out of range 0\.\.5$"):
        choose_kernel(5, 6, 3)


def test_qary_enumeration_counts_points(monkeypatch):
    monkeypatch.setenv("CUBESOS_MAX_N", "4")
    assert QaryPolynomial.from_terms(2, 4, [((1, 1), 1.0)]).value_table().size == 16
    with pytest.raises(CapExceededError):
        QaryPolynomial.from_terms(3, 3, [((1, 1, 1), 1.0)]).value_table()


def test_exported_names_resolve():
    # every name the package or one of its modules exports can be imported
    missing = [name for name in cubesos.__all__ if not hasattr(cubesos, name)]
    for info in pkgutil.iter_modules(cubesos.__path__):
        module = importlib.import_module(f"cubesos.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []
