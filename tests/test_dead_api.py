"""No dead public API: every public definition in src/acx is used by name in
src/acx, or is pinned below with the reason it stays.

The scan is syntactic.  A module-level definition counts as used when some
module of the package names it, as a bare name or as an attribute; a class
member only when some module names it as an attribute (`obj.name`, a bound
method such as `coframe.del_op` included), so a local variable of the same
name does not hide it.  Export strings and the tests do not count.  A public
definition is a module-level def or class, or a def or class in the body of
a module-level class, whose name has no leading underscore.
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


def unreferenced_public_definitions():
    defs, names, attributes = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
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
    return sorted(q for q, name, member in defs if not name.startswith("_")
                  and name not in attributes and (member or name not in names))


def test_every_unused_public_definition_is_pinned_with_a_reason():
    assert unreferenced_public_definitions() == sorted(ALLOWED)

