"""The package asks the genus in three places only.

A ``SurfaceSpec`` chooses its geometry, ``Sphere`` or ``Torus``, once,
and every caller asks the geometry. ``genus_sites`` lists each
comparison, truth test or index on a name or attribute ``genus`` in
``src/faberforms/*.py``; the sites allowed to remain are pinned in
``ALLOWED`` by module and function. A new per-genus branch fails here
with its file and line.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "faberforms")
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))

ALLOWED = {
    # the parse: q = inf is the sphere's point at infinity, refused on the torus
    ("config.py", "parse_config"): 1,
    # the geometry choice: the one check of the genus and the class it picks
    ("surface.py", "SurfaceSpec.__init__"): 2,
}


def _is_genus(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "genus"
            or isinstance(node, ast.Attribute) and node.attr == "genus")


def _tested(test) -> list:
    # a truth test on the genus itself, also under `not`, `and` and `or`
    if isinstance(test, ast.BoolOp):
        return [n for value in test.values for n in _tested(value)]
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _tested(test.operand)
    return [test] if _is_genus(test) else []


class _Sites(ast.NodeVisitor):
    def __init__(self):
        self.scope, self.sites = [], []

    def _add(self, node):
        self.sites.append((".".join(self.scope) or "<module>", node.lineno))

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Compare(self, node):
        if any(_is_genus(n) for n in [node.left, *node.comparators]):
            self._add(node)
        self.generic_visit(node)

    def visit_Subscript(self, node):
        if any(_is_genus(n) for n in ast.walk(node.slice)):
            self._add(node)
        self.generic_visit(node)

    def _test(self, node):
        for test in _tested(node.test):
            self._add(test)
        self.generic_visit(node)

    visit_If = visit_IfExp = visit_While = visit_Assert = _test

    def visit_comprehension(self, node):
        for cond in node.ifs:
            for test in _tested(cond):
                self._add(test)
        self.generic_visit(node)


def genus_sites(source: str) -> list:
    """(function, line) of every comparison, truth test or index on the genus."""
    visitor = _Sites()
    visitor.visit(ast.parse(source))
    return sorted(visitor.sites, key=lambda site: site[1])


def test_the_scan_sees_every_kind_of_genus_branch():
    source = (
        "def f(s, genus):\n"
        "    if s.genus == 1:\n"
        "        pass\n"
        "    x = 'a' if genus else 'b'\n"
        "    y = TABLE[s.genus]\n"
        "    z = [k for k in range(3) if not s.genus]\n"
        "    while genus and x:\n"
        "        break\n"
        "    return s.genus, f'{genus}', np.zeros(s.genus)\n"
    )
    assert genus_sites(source) == [("f", 2), ("f", 4), ("f", 5), ("f", 6), ("f", 7)]


def test_only_the_parse_and_the_geometry_choice_ask_the_genus():
    found, where = {}, []
    for module in MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            for scope, line in genus_sites(fh.read()):
                found[module, scope] = found.get((module, scope), 0) + 1
                where.append(f"src/faberforms/{module}:{line} in {scope}")
    assert found == ALLOWED, "genus branches at:\n" + "\n".join(where)
