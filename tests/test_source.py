"""Source hygiene: every package module uses each name it imports, and
the numerical policy (tolerances, floors, streams) is not a parameter."""

import ast
import inspect
from pathlib import Path

import pytest

import ctfactor
from ctfactor.estimate import loglik_ceiling
from ctfactor.io import read_corr_json, write_data_csv
from ctfactor.numerics import as_corr_matrix, as_sym_matrix

MODULES = sorted(
    path for path in Path(ctfactor.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source):
    """Imported names that ``source`` never reads and does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported.add(alias.asname or alias.name.split(".")[0])
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_detector_flags_only_unused_names():
    source = (
        "import math\nimport os.path\nfrom json import dumps, loads as read\n"
        "from numpy import pi\n__all__ = ['pi']\n\ndef f():\n    return os.path.sep, read\n"
    )
    assert unused_imports(source) == ["dumps", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


#: Functions whose tolerances and options are module constants, with
#: their parameters.
POLICY_FREE = [
    (as_sym_matrix, ["mat", "name"]),
    (as_corr_matrix, ["mat", "name"]),
    (ctfactor.cholesky, ["mat"]),
    (ctfactor.logdet_pd, ["mat"]),
    (ctfactor.mvn_sample, ["sigma", "n", "rng"]),
    (ctfactor.rotational_uniqueness_check, ["loadings"]),
    (ctfactor.sample_covariance, ["data"]),
    (write_data_csv, ["path", "data"]),
    (read_corr_json, ["path"]),
    (ctfactor.gen_ucc_violation, ["spec"]),
    (ctfactor.fit_mle, ["s_sample", "n", "structure", "seed", "ceiling"]),
    (loglik_ceiling, ["s_sample", "n"]),
    (ctfactor.ct_run, ["corr", "n", "config"]),
]


@pytest.mark.parametrize("fn, params", POLICY_FREE, ids=[fn.__name__ for fn, _ in POLICY_FREE])
def test_policy_is_not_a_parameter(fn, params):
    assert list(inspect.signature(fn).parameters) == params
