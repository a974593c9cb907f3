"""Built-in invariant models and the JSON model-file format.

The file format:

    {
      "dim": 4,
      "brackets": [{"i": 2, "j": 3, "out": [[4, "1", "0"]]}],
      "J": [["0", "-1", "0", "0"], ...],
      "params": {"a": "4*pi"}          # optional
    }

brackets lists only i < j (antisymmetry is filled in); "out" entries are
[k, re, im] with rational-string components; J is row-major with J[r][c] the
e_{r+1} component of J(e_{c+1}), rational strings.  params.a, when present,
is 'q*pi' or 'generic'; J entries of parametric models may then also use the
symbol, as 'a', '-a', 'r*a', or 'r/a' for a rational literal r.
"""

from __future__ import annotations

import json

from .errors import InputError, echo, parsed
from .lie import ACStructure, LieACS, LieAlgebra
from .scalars import SS_ONE, SS_ZERO, PiParam, Scalar, SymScalar, parse_rational

# Largest model-file dim; building a model costs more than cubically in dim.
# The README's slowest-invocation table times dense dim-24 files.
MAX_DIM = 24

# Most bytes read from a model file, checked before decoding.  A dim-24 file
# with every bracket output filled and every literal at
# scalars.MAX_LITERAL_DIGITS digits in numerator and denominator is about
# 28 MB, or 56 MB with a digit separator between every two digits.
MAX_FILE_BYTES = 64 * 2**20


def kt_algebra() -> LieAlgebra:
    """dim 4, [e_2, e_3] = e_4, all other brackets zero."""
    return LieAlgebra(4, {(2, 3): {4: 1}}, name="kt")


def kt_J(a: PiParam) -> ACStructure:
    """J(e_1) = e_2, J(e_2) = -e_1, J(e_3) = (1/a) e_4, J(e_4) = -a e_3."""
    av = a.a_value()
    z = SS_ZERO
    return ACStructure([
        [z, -SS_ONE, z, z],
        [SS_ONE, z, z, z],
        [z, z, z, -av],
        [z, z, SS_ONE / av, z],
    ])


def kt_model(a: PiParam) -> LieACS:
    """The nilmanifold model; at a = q*pi, LieACS.characters gives its blocks
    lambda = 2 pi i l e^2 at l = +-q/4 and +-mq/4, where integral."""
    return LieACS(kt_algebra(), kt_J(a), name="kt", symbol=a.symbol_name)


def abelian_model(n: int) -> LieACS:
    """The 2n-torus with the standard constant structure J(e_{2i-1}) = e_{2i}."""
    if not isinstance(n, int) or n < 1:
        raise InputError(f"bad complex dimension {n!r}")
    dim = 2 * n
    alg = LieAlgebra(dim, {}, name=f"abelian{n}")
    rows = [[SS_ZERO] * dim for _ in range(dim)]
    for k in range(n):
        rows[2 * k][2 * k + 1] = -SS_ONE
        rows[2 * k + 1][2 * k] = SS_ONE
    return LieACS(alg, ACStructure(rows), name=f"abelian{n}", symbol="x")


def _parse_j_entry(text, param: PiParam | None, field: str) -> SymScalar:
    """A J entry: a rational string, or a rational multiple of 'a' or '1/a'."""
    if not isinstance(text, str):
        raise InputError(f"{field}: expected rational string, got {echo(text)}")
    s = text.strip().replace(" ", "")
    if "a" not in s:
        return SymScalar.const(parsed(field, parse_rational, s))
    if param is None:
        raise InputError(
            f"J entry {echo(text)} uses the symbol 'a' but params.a is missing"
        )
    negate = s.startswith("-")
    if negate:
        s = s[1:]
    av = param.a_value()
    if s == "a":
        value = av
    elif s.endswith("*a"):
        value = SymScalar.const(parsed(field, parse_rational, s[:-2])) * av
    elif s.endswith("/a"):
        value = SymScalar.const(parsed(field, parse_rational, s[:-2])) / av
    else:
        raise InputError(
            f"bad J entry {echo(text)}: want a rational string, "
            "optionally 'r*a' or 'r/a'"
        )
    return -value if negate else value


def model_from_json(obj) -> tuple[LieACS, PiParam | None]:
    if not isinstance(obj, dict):
        raise InputError("model file must be a JSON object")
    try:
        dim = obj["dim"]
        j_rows = obj["J"]
    except KeyError as exc:
        raise InputError(f"model file missing key {exc}") from exc
    if type(dim) is int and dim > MAX_DIM:
        raise InputError(f"model dim must be at most {MAX_DIM}, got {echo(dim)}")
    if type(dim) is not int or dim < 2 or dim % 2:
        raise InputError(f"model dim must be a positive even integer, got {echo(dim)}")
    entries = obj.get("brackets", [])
    if not isinstance(entries, list):
        raise InputError("brackets must be a list of {i, j, out} objects")
    brackets = {}
    for entry in entries:
        try:
            i, j = entry["i"], entry["j"]
            out = entry["out"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad bracket entry {echo(entry)}") from exc
        if not (type(i) is int and type(j) is int and 1 <= i < j <= dim):
            raise InputError("bracket indices must satisfy 1 <= i < j <= dim, "
                             f"got ({echo(i)},{echo(j)})")
        if not isinstance(out, list):
            raise InputError(f"bracket ({i},{j}): out must be a list of [k, re, im]")
        vec = {}
        for item in out:
            if not (isinstance(item, (list, tuple)) and len(item) == 3):
                raise InputError(f"bracket output entries are [k, re, im], got {echo(item)}")
            k, re, im = item
            if not (type(k) is int and 1 <= k <= dim):
                raise InputError(f"bracket output index {echo(k)} out of range")
            if k in vec:
                raise InputError(f"bracket ({i},{j}): duplicate output index {k}")
            field = f"bracket ({i},{j}) output {echo(item)}"
            re, im = (parsed(field, parse_rational, c) for c in (re, im))
            vec[k] = SymScalar.const(Scalar(re, im))
        if (i, j) in brackets:
            raise InputError(f"duplicate bracket entry ({i},{j})")
        brackets[(i, j)] = vec
    if not (isinstance(j_rows, list) and len(j_rows) == dim
            and all(isinstance(r, list) and len(r) == dim for r in j_rows)):
        raise InputError("J must be a dim x dim matrix of rational strings")
    param = None
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise InputError("params must be a JSON object, e.g. {\"a\": \"4*pi\"}")
    if "a" in params:
        if not isinstance(params["a"], str):
            raise InputError(f"params.a must be a string, got {echo(params['a'])}")
        param = parsed("params.a", PiParam.parse, params["a"])
    J = ACStructure([
        [_parse_j_entry(c, param, f"J entry ({r},{k})") for k, c in enumerate(row, start=1)]
        for r, row in enumerate(j_rows, start=1)
    ])
    alg = LieAlgebra(dim, brackets, name=str(obj.get("name", "custom")))
    model = LieACS(alg, J, name=alg.name, symbol=param.symbol_name if param else "x")
    return model, param


def load_model_file(path: str) -> tuple[LieACS, PiParam | None]:
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_FILE_BYTES + 1)
    except OSError as exc:
        raise InputError(f"cannot read model file {echo(path)}: {exc.strerror}") from exc
    if len(data) > MAX_FILE_BYTES:
        raise InputError(f"model file {echo(path)} is over {MAX_FILE_BYTES} bytes")
    try:
        obj = json.loads(data.decode("utf-8"))
    # bad JSON or UTF-8, an int over Python's digit limit, or too deep nesting
    except (ValueError, RecursionError) as exc:
        raise InputError(f"model file {echo(path)} is not valid JSON: {exc}") from exc
    return model_from_json(obj)
