"""List the ``raise`` statements of ``src/faberforms/*.py`` that no test runs.

Run from the repository root (extra arguments go to pytest):

    python tests/unreached_raises.py [-x] [-k EXPR]

It runs pytest on ``tests/`` in this process under a ``sys.settrace`` line
tracer that follows only the package's modules, then prints each
``raise`` whose line never ran as ``module.py:line: statement`` and the
count. An abstract stub, a method whose whole body (after any docstring)
is ``raise NotImplementedError``, is no guard: the stubs are listed apart
and not counted. Code the tests run in a subprocess (the CLI and demo
runs) is not traced. Pytest does not collect this file, and the tier-1
run does not use it.
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "faberforms")


def _is_stub(func: ast.AST) -> bool:
    # a method whose whole body, after any docstring, is raise NotImplementedError
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def raise_statements(path: str) -> tuple:
    """(guards, stubs) of the file: the line of every ``raise`` -> its first
    source line, the abstract stubs' apart from the others."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    tree = ast.parse(source, path)
    stubs = {func.body[-1].lineno for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for func in cls.body
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_stub(func)}
    raises = {node.lineno: lines[node.lineno - 1].strip()
              for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    return ({line: text for line, text in raises.items() if line not in stubs},
            {line: text for line, text in raises.items() if line in stubs})


def package_files() -> list:
    """The paths of ``src/faberforms/*.py``."""
    return [os.path.join(PACKAGE, name) for name in sorted(os.listdir(PACKAGE))
            if name.endswith(".py")]


def traced(run, paths) -> tuple:
    """Run ``run()`` under a ``sys.settrace`` tracer that follows only the
    files ``paths``. Returns (its result, {path: the lines that ran},
    {path: the first lines of the code objects entered}); a decorated
    function's code object starts at its first decorator."""
    ran = {path: set() for path in paths}
    entered = {path: set() for path in paths}
    by_filename = {}  # co_filename -> (lines, entered) of its path, or None

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_filename:
            path = os.path.realpath(name)
            by_filename[name] = (ran[path], entered[path]) if path in ran else None
        sets = by_filename[name]
        if sets is None:
            return None
        lines, firsts = sets
        firsts.add(frame.f_code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, ran, entered


def main(argv) -> int:
    raises, stubs = {}, {}
    for path in package_files():
        raises[path], stubs[path] = raise_statements(path)

    import pytest

    status, ran, _ = traced(
        lambda: pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"), *argv]),
        raises)

    unreached = [(path, line, text) for path, stmts in raises.items()
                 for line, text in sorted(stmts.items()) if line not in ran[path]]
    for path, line, text in unreached:
        print(f"{os.path.basename(path)}:{line}: {text}")
    total = sum(len(stmts) for stmts in raises.values())
    print(f"{len(unreached)} of {total} raise statements unreached")
    print("abstract stubs, not counted:")
    for path, stmts in stubs.items():
        for line, text in sorted(stmts.items()):
            print(f"  {os.path.basename(path)}:{line}: {text}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
