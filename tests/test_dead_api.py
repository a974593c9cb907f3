"""No dead public API and no dead helper: every public definition in src/acx
is used by name in src/acx, or is pinned below with the reason it stays, and
so is every private one, so that a helper a removed path leaves behind shows.

The scan is syntactic.  A module-level definition counts as used when some
module of the package names it, as a bare name or as an attribute; a class
member only when some module names it as an attribute (`obj.name`, a bound
method such as `coframe.del_op` included), so a local variable of the same
name does not hide it.  Export strings and the tests do not count.  A public
definition is a module-level def or class, or a def or class in the body of
a module-level class, whose name has no leading underscore; a private one has
a leading underscore and is no dunder.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "acx"

ALLOWED = {
    "abelian_model": "exported in acx.__all__ as a library entry point",
    "serre_pairing_check": "exported in acx.__all__ as a library entry point",
    "G2Element.from_matrix": "the tests build group elements from matrices",
    "CrossProduct.is_member": "the Scalar-matrix entry of the lifted membership "
                              "kernel, which g2-verify calls on lifted entries",
    "CrossProduct.preserves_form": "the Scalar-matrix entry of the lifted invariance "
                                   "kernel, which g2-verify calls on lifted entries",
    "PseudoholStructure.connection": "the tests check omega = theta - conj(theta)^T",
    "PseudoholStructure.dual": "the tests check the dual involution",
    "Form.bidegree": "the tests read a homogeneous form's bidegree",
    "Form.one": "the tests build the constant form 1 as the unit of the wedge",
    "TrigPoly.constant": "the tests build constant trigonometric polynomials",
}

ALLOWED_PRIVATE = {}


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_definitions(private=False, src=SRC):
    defs, names, attributes = [], set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node.name, False))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{sub.name}", sub.name, True) for sub in node.body
                         if isinstance(sub, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return sorted(q for q, name, member in defs
                  if (is_private(name) if private else not name.startswith("_"))
                  and name not in attributes and (member or name not in names))


def test_every_unused_public_definition_is_pinned_with_a_reason():
    assert unreferenced_definitions() == sorted(ALLOWED)


def test_every_unused_private_definition_is_pinned_with_a_reason():
    assert unreferenced_definitions(private=True) == sorted(ALLOWED_PRIVATE)


def test_the_private_scan_sees_a_left_behind_helper(tmp_path):
    # a private helper no module names is reported; one named as a bare
    # name or an attribute is not
    (tmp_path / "m.py").write_text(
        "def _dead():\n    pass\n\n\ndef _called():\n    pass\n\n\n"
        "class C:\n    def _method(self):\n        return _called()\n\n"
        "    def __init__(self):\n        self._method()\n")
    assert unreferenced_definitions(private=True, src=tmp_path) == ["_dead"]

