"""Layout checks on the package source, and what its commands import."""

import ast
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy import special as sp

import realrmt
from realrmt import kernels, sopoly, specfun

PACKAGE = pathlib.Path(realrmt.__file__).parent


def _function_level_package_imports(tree):
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "realrmt"):
                yield node.lineno
            elif isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == "realrmt" for a in node.names):
                yield node.lineno


def test_no_module_imports_the_package_inside_a_function():
    found = ["%s:%d" % (path.name, line)
             for path in sorted(PACKAGE.glob("*.py"))
             for line in _function_level_package_imports(ast.parse(path.read_text()))]
    assert found == []


# Every command on every ensemble, and n-point correlations of the GOE, the
# real Ginibre (real and complex points) and the spherical kernels, in one
# process: none of it may import scipy.special, nor numpy.polynomial (unless
# numpy itself loads it, as numpy 1.x does), nor click, nor fractions, decimal
# or dataclasses (numpy loads none of the three, and each costs a fresh
# interpreter about 2 ms). No library function needs scipy (see the
# blocked-import test below); the numeric inner products take their
# Gauss-Legendre rule from numpy.polynomial.
_NO_SCIPY_SCRIPT = r"""
import contextlib, io, sys
import numpy
numpy_loads_polynomial = "numpy.polynomial" in sys.modules
import realrmt.cli
from realrmt import kernels

CONFIGS = {"goe": ["--n", "4"], "ginibre": ["--n", "5"],
           "partial": ["--n", "5", "--tau", "0.5"], "spherical": ["--n", "5"],
           "truncated": ["--n", "4", "--l", "3"]}
GRIDS = {"spherical": "0:6.283185307179586:20", "truncated": "-1:1:20"}
for name, args in CONFIGS.items():
    base = ["--ensemble", name] + args
    for cmd in (["probs"], ["compare", "--reps", "256"], ["sample", "--reps", "10"],
                ["density", "--reps", "200", "--grid", GRIDS.get(name, "-4:4:20")]):
        sys.argv = ["realrmt"] + cmd + base
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                realrmt.cli.main()
            except SystemExit as exc:
                assert exc.code in (0, None), (sys.argv, exc.code)
kernels.npoint_correlation(kernels.GOEKernel(6), [("r", 0.3), ("r", -1.1)])
gin = kernels.GinibreKernel(5)
kernels.npoint_correlation(gin, [("r", 0.3), ("r", -1.1), ("c", 0.4 + 0.9j)])
kernels.npoint_correlation(gin, [("c", -0.2 + 0.5j), ("c", 1.0 + 1.2j)])
kernels.npoint_correlation(kernels.SphericalKernel(5), [("r", 0.3), ("r", 2.0)])
assert "scipy.special._ufuncs" not in sys.modules
assert "click" not in sys.modules
for module in ("fractions", "decimal", "dataclasses"):
    assert module not in sys.modules, module
assert numpy_loads_polynomial or "numpy.polynomial" not in sys.modules
print(kernels.spherical_density_complex(5, 0.3 + 0.2j))
"""


def test_commands_and_npoint_calls_do_not_import_scipy_special():
    res = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert float(res.stdout) == pytest.approx(
        kernels.spherical_density_complex(5, 0.3 + 0.2j), rel=1e-15)


# n-point correlations of the real Ginibre and partial kernels at real and
# complex points, and their complex densities: the pair sum and erfcx take
# only math and numpy, so scipy never loads
_NPOINT_SCRIPT = r"""
import sys
from realrmt import kernels

pts = [("r", 0.3), ("c", 0.4 + 0.9j), ("r", -1.1), ("c", -0.2 + 0.5j)]
for kern in (kernels.GinibreKernel(12), kernels.PartialKernel(9, 0.5)):
    for k in (1, 2, 4):
        kernels.npoint_correlation(kern, pts[:k])
    kernels.npoint_correlation(kern, pts[1:2])
kernels.ginibre_density_complex(12, 0.4 + 0.9j)
kernels.partial_bulk_density_complex(0.5, 0.9)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_mixed_species_npoint_calls_do_not_import_scipy():
    res = subprocess.run([sys.executable, "-c", _NPOINT_SCRIPT], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# Every function that once called scipy, in a process where importing scipy
# fails: the complex densities and kernel elements of the spherical and
# truncated ensembles, the numeric inner products, and the specfun wrappers
_SCIPY_FREE_CALLS = """[
    kernels.spherical_density_complex(5, 0.3 + 0.2j),
    kernels.spherical_scc(6, 0.3 + 0.2j, -0.1 + 0.5j),
    kernels.truncated_density_complex(4, 3, 0.2 + 0.3j),
    sopoly.trunc_omega_sq_complex(4, 0.2 + 0.3j),
    sopoly.inner_product_numeric(sopoly.spherical_family(4), 0, 1, n=12),
    sopoly.inner_product_numeric(sopoly.truncated_family(4, 3), 0, 1, n=12),
    sopoly.inner_product_numeric(sopoly.ginibre_family(4), 0, 1, n=12),
    specfun.lower_gamma(2.5, 1.5),
    specfun.upper_gamma(2.5, np.array([0.5, 3.0]))[1],
    specfun.erfc_fn(0.7),
    specfun.erf_fn(np.array([0.7]))[0],
    specfun.reg_incomplete_beta(0.3, 2.5, 4.0),
]"""
_SCIPY_BLOCKED_SCRIPT = r"""
import sys
sys.modules["scipy"] = None
import numpy as np
from realrmt import kernels, sopoly, specfun

print(repr([complex(v) for v in %s]))
""" % _SCIPY_FREE_CALLS


def test_library_functions_run_with_scipy_blocked():
    res = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED_SCRIPT],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    here = eval(_SCIPY_FREE_CALLS, {"np": np, "kernels": kernels, "sopoly": sopoly,
                                    "specfun": specfun})
    assert eval(res.stdout) == [complex(v) for v in here]
    gamma = math.gamma(2.5)
    assert here[7:] == pytest.approx([sp.gammainc(2.5, 1.5) * gamma,
                                      sp.gammaincc(2.5, 3.0) * gamma, sp.erfc(0.7),
                                      sp.erf(0.7), sp.betainc(2.5, 4.0, 0.3)], rel=1e-13)
