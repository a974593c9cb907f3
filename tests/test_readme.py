"""The README names only public acx attributes.

Every backticked dotted name in README.md whose first part is `acx` or one
of its modules must resolve, and no part of its path may start with `_`:
a private name is an internal fact, and its owner is a module docstring.
"""

import pkgutil
import re
from pathlib import Path

import acx

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(acx.__path__)} | {"acx"}


def readme_names():
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text(encoding="utf-8"))
    return sorted({n for n in names if n.split(".")[0] in MODULES})


def test_readme_names_acx_attributes():
    assert "cli.MAX_SECTIONS" in readme_names()


def test_readme_names_are_public_and_resolve():
    private = [n for n in readme_names() if any(p.startswith("_") for p in n.split("."))]
    assert private == []
    for name in readme_names():
        pkgutil.resolve_name(name if name.startswith("acx.") else "acx." + name)
