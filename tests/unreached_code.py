"""List the functions of ``src/faberforms/*.py`` that no run enters.

Run from the repository root:

    python tests/unreached_code.py

In one process, under the tracer of ``tests/unreached_raises.py``, it
runs every config in ``configs/`` through ``cli.main``, every demo in
``demos/``, and pool inputs 0, 5 and 11 of each benchmark workload, whose
config text comes from ``perfbench/workloads.make_config`` (imported
without writing bytecode there). It then prints each function of the
package that none of them entered as ``module.py:line: qualified name``,
and the count: code that only the unit tests reach. Pytest does not
collect this file; ``tests/test_unreached_code.py`` runs it and pins the
list it prints.
"""

import ast
import contextlib
import glob
import io
import os
import runpy
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from unreached_raises import ROOT, package_files, traced  # noqa: E402

POOL_INPUTS = (0, 5, 11)


def functions(path: str) -> dict:
    """The first line of every function the file defines (its first
    decorator's, if any) -> its qualified name."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[first] = prefix + child.name
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def pool_configs() -> list:
    """(name, config text) of the chosen pool inputs of every workload."""
    sys.path.insert(0, ROOT)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        from perfbench.workloads import WORKLOADS, make_config
    finally:
        sys.dont_write_bytecode = dont_write
    return [(f"{w.name} input {j}", make_config(w, j))
            for w in WORKLOADS.values() for j in POOL_INPUTS]


def run_everything(out_dir: str) -> list:
    """Run the configs and pool inputs, then the demos, swallowing their
    output; a line per run, with the exit code of each config run."""
    from faberforms.cli import main

    configs = []
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg"))):
        with open(path, encoding="utf-8") as fh:
            configs.append((os.path.basename(path), fh.read()))
    runs = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for j, (name, text) in enumerate(configs + pool_configs()):
            path = os.path.join(out_dir, f"{j}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            code = main(["run", path, "--out-dir", os.path.join(out_dir, str(j))])
            runs.append(f"{name} (exit {code})")
        for script in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
            runpy.run_path(script, run_name="__main__")
            runs.append(os.path.basename(script))
    return runs


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    paths = package_files()
    with tempfile.TemporaryDirectory() as out_dir:
        runs, _, entered = traced(lambda: run_everything(out_dir), paths)
    print("runs: " + ", ".join(runs))
    defined = {path: functions(path) for path in paths}
    unreached = [(path, line, name) for path, funcs in defined.items()
                 for line, name in sorted(funcs.items()) if line not in entered[path]]
    for path, line, name in unreached:
        print(f"{os.path.basename(path)}:{line}: {name}")
    total = sum(len(funcs) for funcs in defined.values())
    print(f"{len(unreached)} of {total} functions entered by no run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
