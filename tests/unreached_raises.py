"""List the ``raise`` statements of ``src/faberforms/*.py`` that no test runs.

Run from the repository root (extra arguments go to pytest):

    python tests/unreached_raises.py [-x] [-k EXPR]

It runs pytest on ``tests/`` in this process under a ``sys.settrace`` line
tracer that follows only the package's modules, then prints each
``raise`` whose line never ran as ``module.py:line: statement`` and the
count. Code the tests run in a subprocess (the CLI and demo runs) is not
traced. Pytest does not collect this file, and the tier-1 run does not
use it.
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "faberforms")


def raise_statements(path: str) -> dict:
    """Line of every ``raise`` in the file -> its first source line."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    return {node.lineno: lines[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(source, path)) if isinstance(node, ast.Raise)}


def main(argv) -> int:
    raises = {os.path.join(PACKAGE, name): raise_statements(os.path.join(PACKAGE, name))
              for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")}
    ran = {path: set() for path in raises}
    by_filename = {}  # co_filename -> the set of its lines that ran, or None

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_filename:
            by_filename[name] = ran.get(os.path.realpath(name))
        lines = by_filename[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    import pytest

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"), *argv])
    finally:
        sys.settrace(None)

    unreached = [(path, line, text) for path, stmts in raises.items()
                 for line, text in sorted(stmts.items()) if line not in ran[path]]
    for path, line, text in unreached:
        print(f"{os.path.basename(path)}:{line}: {text}")
    total = sum(len(stmts) for stmts in raises.values())
    print(f"{len(unreached)} of {total} raise statements unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
