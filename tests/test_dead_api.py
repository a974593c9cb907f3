"""No dead public API and no dead helper.

A public definition is a module-level def or class of src/acx, or a def or
class in the body of a module-level class, whose name has no leading
underscore; a private one has a leading underscore and is no dunder.
ALLOWED is the one pin list: each public definition that stays although no
golden case needs it, with the reason it stays.  Two checks read it.

The reachability check (Python 3.12 and later) runs the golden cases
(tests/golden) in a fresh interpreter under sys.monitoring: every function
of src/acx that starts is recorded, and PY_START is turned off for each code
object after its first hit.  The public defs, at module level or in a class
body, that no case reaches must be exactly the pinned ones.  It sees each
member on its own: G2Element.scale is unreached although Form.scale runs.

The syntactic scan runs on every Python.  A module-level definition counts
as used when some module of the package names it, as a bare name or as an
attribute; a class member only when some module names it as an attribute
(`obj.name`, a bound method such as `coframe.del_op` included), so a local
variable of the same name does not hide it.  Export strings and the tests do
not count.  Every public definition it finds unused must be pinned in
ALLOWED (on Python 3.10 and 3.11 this is the whole public check), and the
private ones it finds must be exactly ALLOWED_PRIVATE, so that a helper a
removed path leaves behind shows.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "acx"
RECORD = Path(__file__).resolve().parent / "golden" / "record.py"

ALLOWED = {
    "abelian_model": "exported in acx.__all__ as a library entry point",
    "serre_pairing_check": "exported in acx.__all__ as a library entry point",
    "console_main": "the acx script's entry point in pyproject.toml",
    "volume_form": "dV as a Form, against which the tests check star and integration",
    "HermitianData.integral": "serre_pairing_check's wedge pairing",
    "HarmonicBlock.basis_sections": "serre_pairing_check's sources and targets",
    "PseudoholStructure.connection": "the tests check omega = theta - conj(theta)^T",
    "PseudoholStructure.dual": "the tests check the dual involution",
    "ComplexCoframe.d": "the full exterior derivative, which the tests split "
                        "into del, dbar and the (0,2) part",
    "Character.conjugate": "the tests check a character's conjugate",
    "Scalar.im": "the imaginary part, read by Scalar's repr",
    "TrigPoly.coefficient": "the tests read single Fourier coefficients",
    "G2Element.coordinates": "the Scalar coordinate view behind x and y",
    "G2Element.x": "the f-coordinates, read by G2Element's repr",
    "G2Element.y": "the h-coordinates, read by G2Element's repr",
    "G2Element.matrix": "the dense matrix view the tests feed to from_matrix "
                        "and to the cross product's matrix checks",
    "G2Element.from_matrix": "the tests build group elements from matrices",
    "G2Element.scale": "the tests check that bracket is bilinear",
    "G2Element.is_zero": "the tests check that [a, a] vanishes",
    "CrossProduct.phi": "the calibration three-form, which the tests evaluate "
                        "on basis triples",
    "CrossProduct.is_member": "the Scalar-matrix entry of the lifted membership "
                              "kernel, which g2-verify calls on lifted entries",
    "CrossProduct.preserves_form": "the Scalar-matrix entry of the lifted invariance "
                                   "kernel, which g2-verify calls on lifted entries",
}

ALLOWED_PRIVATE = {}

# Run in a fresh interpreter, so that no cache warmed by an earlier test
# hides a function: argv[1] is the package directory, argv[2] the code that
# exercises it.  Prints "module:qualname" of each function that started.
_TRACE = """\
import json, sys
from pathlib import Path
src = Path(sys.argv[1])
sys.path.insert(0, str(src.parent))
mon, tool, reached = sys.monitoring, sys.monitoring.PROFILER_ID, set()
def start(code, offset):
    path = Path(code.co_filename)
    if path.parent == src:
        reached.add(f"{path.stem}:{code.co_qualname}")
    return mon.DISABLE
mon.use_tool_id(tool, "dead-api")
mon.register_callback(tool, mon.events.PY_START, start)
mon.set_events(tool, mon.events.PY_START)
exec(sys.argv[2])
mon.set_events(tool, 0)
print(json.dumps(sorted(reached)))
"""

GOLDEN_RUN = (f"import runpy\nrecord = runpy.run_path({str(RECORD)!r})\n"
              "for case in record['load_cases']():\n    record['run_case'](case['argv'])\n")

needs_monitoring = pytest.mark.skipif(sys.version_info < (3, 12),
                                      reason="sys.monitoring needs Python 3.12")


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


def unreached_definitions(src=SRC, run=GOLDEN_RUN):
    """The public module functions and class members of src that no
    function started by `run` is."""
    out = subprocess.run([sys.executable, "-c", _TRACE, str(src), run],
                         capture_output=True, text=True, check=True).stdout
    reached = set(json.loads(out.splitlines()[-1]))
    unreached = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            functions = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                functions = [(f"{node.name}.{sub.name}", sub) for sub in node.body
                             if isinstance(sub, ast.FunctionDef)]
            unreached += [q for q, sub in functions if not sub.name.startswith("_")
                          and f"{path.stem}:{q}" not in reached]
    return sorted(unreached)


@needs_monitoring
def test_every_unreached_public_definition_is_pinned_with_a_reason():
    assert unreached_definitions() == sorted(ALLOWED)


def test_every_unused_public_definition_is_pinned_with_a_reason():
    assert set(unreferenced_definitions()) <= set(ALLOWED)


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


@needs_monitoring
def test_the_reachability_check_sees_each_member(tmp_path):
    # C.zero is named as an attribute, on D, so only the reachability check
    # reports it; a function that never runs is reported, and a property and
    # a static method that run are not
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "class C:\n    @property\n    def size(self):\n        return 1\n\n"
        "    @staticmethod\n    def zero():\n        return C()\n\n\n"
        "class D:\n    @staticmethod\n    def zero():\n        return C().size\n\n\n"
        "def unused():\n    return D.zero()\n")
    assert unreferenced_definitions(src=pkg) == ["unused"]
    assert unreached_definitions(pkg, "from pkg.m import D\nD.zero()\n") == ["C.zero", "unused"]
