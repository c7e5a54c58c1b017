import ast
from pathlib import Path

import pytest

import lbgame

SOURCE = Path(lbgame.__file__).parent


def test_public_names_resolve_once_in_sorted_order():
    names = lbgame.__all__
    assert all(hasattr(lbgame, name) for name in names)
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from lbgame import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lbgame.__all__)


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    # Catches an import left behind once the code that needed it is gone.
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exempt = set(lbgame.__all__) if path.name == "__init__.py" else set()
    assert imported - used - exempt == set()


# numpy's names for the products it hands to BLAS.
BLAS_PRODUCTS = {"dot", "matmul", "tensordot", "inner", "vdot"}


def is_blas_product(node):
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", getattr(node.func, "id", None)) in BLAS_PRODUCTS
    return False


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_matrix_product_goes_through_blas(path):
    # Every sum of work per server goes through ``model._work`` (einsum), so
    # no output depends on how BLAS orders its sums over its threads.
    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree) if is_blas_product(node)] == []
