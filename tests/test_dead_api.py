"""No dead public API and no dead helper.

A public definition is a module-level def or class of src/acx, or a def or
class in the body of a module-level class, whose name has no leading
underscore; a private one has a leading underscore and is no dunder.
ALLOWED is the one pin list: each public def that stays although no golden
case runs it, with the reason it stays.

The reachability check runs the golden cases (tests/golden) in a fresh
interpreter under sys.setprofile, on every Python.  Each function start (a
profiler `call` event) records its code object's (co_filename,
co_firstlineno), and a def's code starts at the line of its first
decorator, or at its `def` line if it has none, so the AST names every
start.  The public defs, at module level or in a class body, that no case
starts must be exactly the pinned ones.  It sees each member on its own:
a method is reported although another class's method of the same name runs.

The name scan covers what no function start can show: the private defs and
classes, and the public classes.  A module-level definition counts as used
when some module of the package names it, as a bare name or as an
attribute; a class member only when some module names it as an attribute
(`obj.name`, a bound method such as `coframe.del_op` included), so a local
variable of the same name does not hide it.  Export strings and the tests
do not count.  The scan must find nothing, so that a helper or a class a
removed path leaves behind shows.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "acx"
RECORD = Path(__file__).resolve().parent / "golden" / "record.py"

ALLOWED = {
    "abelian_model": "exported in acx.__all__ as a library entry point",
    "serre_pairing_check": "exported in acx.__all__ as a library entry point",
    "console_main": "the acx script's entry point in pyproject.toml",
    "volume_form": "dV as a Form, against which the tests check star and integration",
    "HermitianData.integral": "serre_pairing_check's wedge pairing",
    "HarmonicBlock.basis_sections": "serre_pairing_check's sources and targets",
    "PseudoholStructure.connection": "the whole connection omega = theta - conj(theta)^T, "
                                     "whose skew-Hermitian shape the tests check; the "
                                     "operators read its parts theta and theta10",
    "PseudoholStructure.dual": "the tests check the dual involution",
    "ComplexCoframe.d": "the full exterior derivative, which the tests split "
                        "into del, dbar and the (0,2) part",
    "Scalar.im": "the imaginary part, read by Scalar's repr",
    "G2Element.coordinates": "the Scalar coordinates, which G2Element's repr prints "
                             "and from which the tests rebuild an element",
    "G2Element.matrix": "the dense 7x7 view, the input of the dense commutator, "
                        "membership and invariance loops the sparse kernels are "
                        "tested against",
    "G2Element.from_matrix": "the way back from those dense loops to an element: "
                             "it runs bracket's 49-entry span check on a matrix "
                             "the tests choose",
    "CrossProduct.phi": "the three-form on three vectors, the oracle of the "
                        "invariance table that preserves_form reads",
}

# Run in a fresh interpreter, so that no cache warmed by an earlier test
# hides a function: argv[1] goes on sys.path, argv[2] is the code that
# exercises the package.  Prints the (co_filename, co_firstlineno) of each
# function that started.
_TRACE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
starts = set()
def record(frame, event, arg):
    if event == "call":
        starts.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(record)
exec(sys.argv[2])
sys.setprofile(None)
print(json.dumps(sorted(starts)))
"""

GOLDEN_RUN = (f"import runpy\nrecord = runpy.run_path({str(RECORD)!r})\n"
              "for case in record['load_cases']():\n    record['run_case'](case['argv'])\n")


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_definitions(src=SRC):
    """The private defs and classes, and the public classes, at module level
    or in a class body of src, that no module of src names."""
    defs, names, attributes = [], set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node, False))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{sub.name}", sub, True) for sub in node.body
                         if isinstance(sub, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return sorted(q for q, node, member in defs
                  if (is_private(node.name) or isinstance(node, ast.ClassDef)
                      and not node.name.startswith("_"))
                  and node.name not in attributes and (member or node.name not in names))


def start_line(node):
    """The line a def's code object starts at: its first decorator's, or its own."""
    return (node.decorator_list or [node])[0].lineno


def unreached_definitions(src=SRC, run=GOLDEN_RUN):
    """The public module functions and class members of src that no
    function started by `run` is."""
    out = subprocess.run([sys.executable, "-c", _TRACE, str(src.parent), run],
                         capture_output=True, text=True, check=True).stdout
    starts = {(Path(name).resolve(), line) for name, line in json.loads(out.splitlines()[-1])}
    unreached = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            functions = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                functions = [(f"{node.name}.{sub.name}", sub) for sub in node.body
                             if isinstance(sub, ast.FunctionDef)]
            unreached += [q for q, sub in functions if not sub.name.startswith("_")
                          and (path, start_line(sub)) not in starts]
    return sorted(unreached)


def test_every_unreached_public_definition_is_pinned_with_a_reason():
    assert unreached_definitions() == sorted(ALLOWED)


def test_no_private_definition_or_public_class_goes_unnamed():
    assert unreferenced_definitions() == []


def test_the_private_scan_sees_a_left_behind_helper(tmp_path):
    # a private helper no module names is reported; one named as a bare
    # name or an attribute is not
    (tmp_path / "m.py").write_text(
        "def _dead():\n    pass\n\n\ndef _called():\n    pass\n\n\n"
        "class C:\n    def _method(self):\n        return _called()\n\n"
        "    def __init__(self):\n        self._method()\n\n\nC()\n")
    assert unreferenced_definitions(src=tmp_path) == ["_dead"]


def test_the_reachability_check_sees_each_member(tmp_path):
    # D.zero runs and C.zero, of the same name, does not; a function that
    # never runs is reported, and a decorated property and static method
    # that run are not.  Only the name scan reports E, a class no module
    # names.
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "class C:\n    @property\n    def size(self):\n        return 1\n\n"
        "    @staticmethod\n    def zero():\n        return C()\n\n\n"
        "class D:\n    @staticmethod\n    def zero():\n        return C().size\n\n\n"
        "class E:\n    pass\n\n\n"
        "def unused():\n    return D.zero()\n")
    assert unreferenced_definitions(src=pkg) == ["E"]
    assert unreached_definitions(pkg, "from pkg.m import D\nD.zero()\n") == ["C.zero", "unused"]
