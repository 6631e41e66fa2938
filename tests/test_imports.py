"""Every name a package module imports is used in that module.

``__init__.py`` is exempt: it imports names to re-export them."""

import ast
import os
import subprocess
import sys

import numpy as np
import pytest

from faberforms.cli import main

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "faberforms")
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == [(1, "field")]
    assert unused_imports("import numpy as np\n\nnp.zeros(3)\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_import_leaves_numpy_fft_unloaded():
    # numpy loads numpy.fft on first use; loaded at import, its pages are
    # resident through a run's first transient peak, which raised a torus
    # run's peak RSS by about 0.1 MB
    code = "import sys, faberforms.cli; print('numpy.fft' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.join(PACKAGE, ".."))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


SPHERE_MULTICAP = """[surface]
genus = 0
q = inf

[caps]
ellipse = joukowski-ellipse a=0.25 scale=1 offset=0
disk = affine scale=0.5 offset=3+0.5j
poly = polynomial-perturbation coefficients=0.6,0.08,0.02 offset=-1.2+2.8j

[target]
family = pole
cap = 0
eta = 0.55
strength = 1

[run]
M = 40
checks = convergence, uniform convergence
seed = 2
l2_tolerance = 1e-6
sup_tolerance = 1e-6
"""


def _run_loads(tmp_path, text: str, modules) -> str:
    """Exit code of a run of config ``text`` in a fresh process, then
    whether it loaded each of ``modules``."""
    config = tmp_path / "run.cfg"
    config.write_text(text)
    code = ("import sys\nfrom faberforms.cli import main\n"
            f"code = main(['run', {str(config)!r}, '--out-dir', {str(tmp_path / 'out')!r}])\n"
            f"print(code, *[name in sys.modules for name in {list(modules)!r}])")
    env = dict(os.environ, PYTHONPATH=os.path.join(PACKAGE, ".."))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.splitlines()[-1]


def test_sphere_run_leaves_numpy_random_unloaded(tmp_path):
    # importing numpy.random costs about 6 MB of RSS, most of it OpenSSL's
    # libcrypto (bit_generator -> secrets -> hmac); a sphere run with a pole
    # target and the convergence checks draws no random numbers, and its
    # polynomial cap and Gauss-Legendre grids need no numpy.polynomial
    assert _run_loads(tmp_path, SPHERE_MULTICAP,
                      ["numpy.random", "numpy.polynomial"]) == "0 False False"


TORUS_CHECKS = """[surface]
genus = 1
tau = 0.3+1.1j

[caps]
lower = affine scale=0.11 offset=0.39+0.33j
upper = joukowski-ellipse a=0.2 scale=0.1 offset=0.924+0.748j

[target]
family = basis
k = 1
m = 1

[run]
M = 1
checks = harmonicity, q-independence, r0-independence
seed = 5
"""


def test_torus_check_run_leaves_numpy_random_and_hashlib_unloaded(tmp_path):
    # the checks draw their random points from the package's own copy of
    # numpy's PCG64 stream, so a torus run with a basis target loads
    # neither numpy.random nor, through _hashlib, OpenSSL's libcrypto, and
    # its disk grids' Gauss-Legendre rules need no numpy.polynomial
    assert _run_loads(tmp_path, TORUS_CHECKS,
                      ["numpy.random", "_hashlib", "numpy.polynomial"]) == "0 False False False"


TORUS_SOLVE = """[surface]
genus = 1
tau = 0.3+1.1j

[caps]
lower = affine scale=0.11 offset=0.39+0.33j
upper = affine scale=0.11 offset=0.924+0.748j

[target]
family = combination
seed = 1234567
order = 1

[run]
M = 2
checks = convergence, uniform convergence
seed = 5
"""


def test_torus_solve_run_leaves_numpy_random_hashlib_and_polynomial_unloaded(tmp_path):
    # the combination target draws its normals from the same in-package
    # stream, and the lattice cycles carry the trapezoid rule
    assert _run_loads(tmp_path, TORUS_SOLVE,
                      ["numpy.random", "_hashlib", "numpy.polynomial"]) == "0 False False False"


TORUS_VERIFY = """[surface]
genus = 1
tau = 0.3+1.1j

[caps]
lower = affine scale=0.11 offset=0.39+0.33j
upper = joukowski-ellipse a=0.2 scale=0.1 offset=0.924+0.748j

[target]
family = basis
k = 1
m = 1

[run]
M = 1
checks = pole-structure, harmonicity, q-independence, r0-independence, convergence
seed = 5
pole_orders = 1
"""


def _eigvalsh_calls(tmp_path, monkeypatch, text: str) -> list:
    """Shapes of the matrices that a run of config ``text``, which must
    pass, hands to ``np.linalg.eigvalsh``."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    config = tmp_path / "run.cfg"
    config.write_text(text)
    assert main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 0
    return calls


def test_torus_solve_run_never_calls_the_symmetric_eigensolver(tmp_path, monkeypatch):
    # the lattice cycles carry the trapezoid rule, so a torus solve builds
    # no Gauss-Legendre rule: LAPACK's symmetric eigensolver, whose code
    # pages raised the solve's peak RSS by about 0.7 MB, never runs
    assert _eigvalsh_calls(tmp_path, monkeypatch, TORUS_SOLVE) == []


@pytest.mark.parametrize("config", ["torus-verify", "sphere_joukowski.cfg"])
def test_area_check_runs_never_call_the_symmetric_eigensolver(tmp_path, monkeypatch, config):
    # the disk grids of the r0-independence check build their
    # Gauss-Legendre rule by Newton's iteration, not by an eigen-solve
    if config == "torus-verify":
        text = TORUS_VERIFY
    else:
        with open(os.path.join(PACKAGE, "..", "..", "configs", config), encoding="utf-8") as fh:
            text = fh.read()
    assert _eigvalsh_calls(tmp_path, monkeypatch, text) == []


def test_every_export_resolves_once():
    import faberforms

    names = faberforms.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(faberforms, name)] == []
