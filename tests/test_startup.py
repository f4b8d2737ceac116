"""What ``import incred`` loads, and the names the package exports.

The package loads its names lazily: ``import incred`` imports no
submodule, each exported name imports its own submodule on first access,
and each CLI subcommand imports the analysis modules it uses. The
start-up checks run in fresh interpreters, since this process has long
since imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import incred
from incred.fixtures import fixture_path

# every name the package exported when it imported all of its submodules
EXPORTS = {
    "certify": ["Certificate", "InvarianceReport", "certify_lyapunov",
                "certify_semidefinite", "invariance_data", "matrosov_chain",
                "matrosov_constants", "matrosov_derivative_bounds",
                "matrosov_grid", "verify_combined_bound"],
    "derivative": ["baseline_interval_derivative", "bilinear_maxmax",
                   "bilinear_minmax", "generalized_derivative"],
    "errors": ["DimensionMismatchError", "DslEvalError", "DslSyntaxError",
               "EmptySetError", "IncredError", "SchemaError",
               "SimulationError"],
    "fixtures": ["available_fixtures", "fixture_path", "load_fixture"],
    "grids": ["GridSpec"],
    "intervals": ["Annulus", "Interval", "IntervalBox", "contains"],
    "reduction": ["reduce_collection"],
    "setmaps": ["CheckSpec", "GradientValidationReport", "MatrosovData",
                "Piece", "PiecewiseBoxMap", "RegularFunctionSpec", "SimSpec",
                "SystemDef", "eval_gradient", "eval_map", "load_system",
                "system_from_dict", "validate_gradient"],
    "simulate": ["SelectionStrategy", "Trajectory", "check_lyapunov_descent",
                 "check_partial_convergence", "check_reduction_membership",
                 "integrate"],
}
ALL_NAMES = {name for names in EXPORTS.values() for name in names}


def _fresh(code: str, *args: str) -> list:
    """Run ``code`` in a fresh interpreter on this incred; the JSON value
    of its last line of output."""
    src = str(Path(incred.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_loading_a_system_imports_only_the_loader():
    loaded = _fresh("import json, sys, incred\n"
                    "incred.load_system(sys.argv[1])\n"
                    "print(json.dumps(sorted(m for m in sys.modules\n"
                    "      if m.split('.')[0] == 'incred')))",
                    fixture_path("example6"))
    assert loaded == ["incred", "incred.errors", "incred.expr",
                      "incred.grids", "incred.intervals", "incred.setmaps"]


@pytest.mark.parametrize("argv, unused", [
    (["simulate", "--T", "0.5"], ["incred.certify", "incred.derivative"]),
    (["reduce", "--grid", "3"], ["incred.certify", "incred.simulate"]),
])
def test_a_subcommand_imports_only_what_it_uses(argv, unused, tmp_path):
    code, loaded = _fresh(
        "import json, sys, incred.cli\n"
        "code = incred.cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))",
        *argv, "-i", fixture_path("example3"), "-o", str(tmp_path))
    assert code == 0
    assert not set(unused) & set(loaded)


def test_every_export_is_its_submodule_object():
    assert set(incred.__all__) == ALL_NAMES | {"__version__"}
    assert len(incred.__all__) == len(set(incred.__all__))
    listed = dir(incred)
    for module, names in EXPORTS.items():
        submodule = importlib.import_module(f"incred.{module}")
        for name in names:
            assert name in listed
            assert getattr(incred, name) is getattr(submodule, name), name
    assert "__version__" in listed and incred.__version__ == "0.1.0"


def test_star_import_binds_every_export():
    namespace = {}
    exec("from incred import *", namespace)
    assert ALL_NAMES | {"__version__"} <= namespace.keys()
    assert namespace["load_system"] is incred.setmaps.load_system


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        incred.nope
    assert not hasattr(incred, "nope")


def test_a_patched_submodule_name_shows_and_unpatches(monkeypatch):
    # the package keeps no binding of its own, so nothing is left stale
    original = incred.reduction.reduce_collection
    monkeypatch.setattr(incred.reduction, "reduce_collection", len)
    assert incred.reduce_collection is len
    monkeypatch.undo()
    assert incred.reduce_collection is original
    assert "reduce_collection" not in vars(incred)
