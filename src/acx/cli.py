"""Deterministic command-line front end.

Every report is assembled from exact library results into plain JSON types,
emitted with sorted keys (or as an aligned table), so identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 refusal or failed
verification, 2 malformed input (including a user-sized input outside its
limits), 3 a failed internal cross-check or another internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .errors import InputError, InternalCheckError, RefusalError
from .scalars import PiParam, parse_rational

# The library modules (g2, hodge, lie, models, torus) are imported by the code
# paths that use them, so each invocation loads only what its subcommand needs.

# Upper limits on user-sized inputs, checked before any list is built.
# MAX_LEVEL bounds the plurigenus levels one invocation computes: the largest
# --m level and the number of levels in one --m spec, --length of a profile
# and s6-report --levels (the last two are at least torus.MIN_PROFILE_LENGTH).
# MAX_SAMPLES bounds g2-verify --samples and --negatives, MAX_GENUS the genus
# of rr --genus and the rr:/curve: factors (rational literals are bounded in
# scalars.parse_rational).
MAX_LEVEL = 1000
MAX_SAMPLES = 1000
MAX_GENUS = 10**6

# Most hodge section monomials C(k,p)*C(k,q) (k = n, or the size of the
# model's basic set): the column count of each operator matrix.  400 admits
# every (p,q) at dim <= 12 and (1,2) at dim 18; the README's
# slowest-invocation table times those inputs.
MAX_SECTIONS = 400

# Most --a values, counted before any is parsed; plurigenera --cross-check
# tests (2 * torus.MODE_WINDOW + 1)^2 modes per level and value.  The
# README's slowest-invocation table times sixteen values.
MAX_A_VALUES = 16

# Most kunneth --factors; the README's slowest-invocation table times eight
# s6 factors, the slowest profile to build.
MAX_FACTORS = 8

_T4_LIE_REFUSAL = (
    "the four-torus family has non-constant structure coefficients; "
    "frame-level reports cover constant-coefficient models only "
    "(use plurigenera / irregularity / kodaira for this family)"
)


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------


def _parse_a_list(text: str) -> List[PiParam]:
    chunks = text.split(",")
    if len(chunks) > MAX_A_VALUES:
        raise InputError(f"--a: at most {MAX_A_VALUES} values")
    out = []
    for chunk in chunks:
        try:
            out.append(PiParam.parse(chunk))
        except ValueError as exc:
            raise InputError(f"--a: {exc}") from exc
    return out


def _parse_m_spec(text: str) -> List[int]:
    """Level specs: '4', '1..12', or comma-separated pieces of those."""
    levels: List[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo_txt, _, hi_txt = chunk.partition("..")
            try:
                lo, hi = int(lo_txt), int(hi_txt)
            except ValueError as exc:
                raise InputError(f"--m: bad range {chunk!r}") from exc
            if lo > hi:
                raise InputError(f"--m: empty range {chunk!r}")
        else:
            try:
                lo = hi = int(chunk)
            except ValueError as exc:
                raise InputError(f"--m: bad level {chunk!r}") from exc
        if lo < 1:
            raise InputError("--m: levels must be positive integers")
        if hi > MAX_LEVEL:
            raise InputError(f"--m: levels must be at most {MAX_LEVEL}")
        if len(levels) + hi - lo + 1 > MAX_LEVEL:
            raise InputError(f"--m: at most {MAX_LEVEL} levels")
        levels.extend(range(lo, hi + 1))
    return levels


def _check_limit(option: str, value: int, limit: int, low: int = 1) -> int:
    if value > limit:
        raise InputError(f"{option}: must be at most {limit}")
    if value < low:
        raise InputError(f"{option}: must be at least {low}")
    return value


def _parse_t_member(text: Optional[str]):
    """--t 't1,t2' selects the deformation-family member; None is standard."""
    from . import torus

    if text is None:
        return torus.t4_standard_pair(), "standard"
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError("--t: want two comma-separated rationals, e.g. 0,0")
    try:
        t1, t2 = parse_rational(parts[0]), parse_rational(parts[1])
    except ValueError as exc:
        raise InputError(f"--t: {exc}") from exc
    return torus.t4_family_pair(t1, t2), f"t=({t1},{t2})"


def _family(args, frame: bool = False):
    """Resolve --model, --a and --t once, before any work: (kind, member, desc).

    kind is 'kt', 't4', 'g2' or 'file'.  member is the list of --a values
    (kt), the (alpha, beta) pair (t4), or the model itself (g2, file); desc
    holds the report's model/member/a keys.  --t applies to t4 only, --a to
    kt and model files only, and on a model file --a must be one value equal
    to its params.a; --cross-check applies to kt only.  With `frame` (the
    frame-level subcommands) kt takes one --a, generic by default; otherwise
    kt needs --a.
    """
    spec = args.model
    a_text, t_text = getattr(args, "a", None), getattr(args, "t", None)
    kind = spec if spec in ("kt", "t4", "g2") else "file"
    if t_text is not None and kind != "t4":
        raise InputError("--t applies to the t4 preset only")
    if a_text is not None and kind in ("t4", "g2"):
        raise InputError(f"--a does not apply to the {kind} preset")
    if getattr(args, "cross_check", False) and kind != "kt":
        raise InputError("--cross-check applies to the kt preset only")
    a_list = None if a_text is None else _parse_a_list(a_text)
    if kind == "kt":
        if a_list is None and not frame:
            raise InputError("the kt preset needs --a (e.g. --a 4*pi,generic)")
        a_list = a_list or [PiParam.generic()]
        if frame and len(a_list) != 1:
            raise InputError("this subcommand takes a single --a value")
        desc = {"model": "kt", "a": str(a_list[0])} if frame else {"model": "kt"}
        return kind, a_list, desc
    if kind == "t4":
        pair, member = _parse_t_member(t_text)
        return kind, pair, {"model": "t4", "member": member}
    if kind == "g2":
        from . import g2 as sphere

        return kind, sphere.s6_model(), {"model": "g2"}
    from . import models

    model, param = models.load_model_file(spec)
    desc = {"model": spec} if param is None else {"model": spec, "a": str(param)}
    if a_list is not None and param is None:
        raise InputError("--a does not apply to a model file without params.a")
    if a_list is not None and a_list != [param]:
        raise InputError(f"--a must be one value, the file's params.a ({param})")
    return kind, model, desc


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return "-inf" if value == float("-inf") else value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _flatten(value, prefix: str, rows: List[Tuple[str, str]]):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        for idx, item in enumerate(value):
            _flatten(item, f"{prefix}[{idx}]", rows)
    elif isinstance(value, list):
        rows.append((prefix, " ".join(str(v) for v in value) if value else "[]"))
    else:
        rows.append((prefix, str(value)))


def _render(report: Dict, fmt: str) -> str:
    report = _jsonable(report)
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    rows: List[Tuple[str, str]] = []
    _flatten(report, "", rows)
    width = max((len(k) for k, _ in rows), default=0)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


def _vector_str(coeffs, names, symbol: str) -> str:
    parts = []
    for c, name in zip(coeffs, names):
        if not c.is_zero():
            parts.append(f"({c.to_str(symbol)})*{name}")
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (report, exit_code)
# ---------------------------------------------------------------------------


def _lie_model_for(args):
    """The constant-coefficient model behind frame-level subcommands."""
    kind, member, desc = _family(args, frame=True)
    if kind == "t4":
        raise RefusalError(_T4_LIE_REFUSAL)
    if kind == "kt":
        from . import models

        return models.kt_model(member[0]), desc
    return member, desc


def _cmd_nijenhuis(args):
    from . import lie

    model, desc = _lie_model_for(args)
    tensor = lie.nijenhuis(model.alg, model.J)
    names = model.alg.basis_names
    entries = [
        {"i": i, "j": j, "value": _vector_str(vec, names, model.symbol)}
        for (i, j), vec in sorted(tensor.items())
    ]
    integrable = lie.is_integrable(tensor, model.coframe)
    return dict(desc, integrable=integrable, nonzero_entries=len(entries),
                entries=entries), 0


def _cmd_structure_eqs(args):
    model, desc = _lie_model_for(args)
    rows = []
    integrable = True
    for i in range(1, model.n + 1):
        d_full = model.coframe.d_phi(i)
        part_02 = d_full.project(0, 2)
        integrable = integrable and part_02.is_zero()
        rows.append(
            {
                "i": i,
                "d": d_full.to_str(model.symbol),
                "part_20": d_full.project(2, 0).to_str(model.symbol),
                "part_11": d_full.project(1, 1).to_str(model.symbol),
                "part_02": part_02.to_str(model.symbol),
            }
        )
    return dict(desc, n=model.n, integrable=integrable, coframe=rows), 0


def _values(kind, member, levels, cross_check) -> Dict[str, object]:
    """Plurigenera report fields of one --a value (kt), a t4 member, the sphere
    or a model file.  With cross_check (kt only), torus.kt_mode_cross_check
    re-derives each level by enumerating the modes of torus.MODE_WINDOW."""
    if kind == "kt":
        from . import torus

        values = [torus.kt_plurigenus(member, m) for m in levels]
        if cross_check:
            torus.kt_mode_cross_check(member, levels)
        return {"values": values, "first_nonzero": torus.kt_first_nonzero(member)}
    if kind == "t4":
        from . import torus

        alpha, beta = member
        obstruction = torus.t4_obstruction(alpha, beta)
        value = torus.t4_plurigenus(alpha, beta, 1, obstruction)  # same at every m
        return {"obstruction": obstruction.to_str("pi"), "values": [value] * len(levels)}
    if kind == "g2":
        from . import g2 as sphere

        return {"values": [sphere.s6_plurigenus(m) for m in levels]}
    from . import hodge

    return {
        "values": [
            hodge.invariant_harmonic_space(member, 0, 0, bundle_power=m).dimension
            for m in levels
        ]
    }


def _profile(kind, member, length: int):
    """Plurigenera profile of one family member: a _values member, a genus
    (rr, curve) or the torus (member None)."""
    from . import torus

    if kind == "kt":
        return torus.kt_profile(member, length)
    if kind == "t4":
        return torus.t4_profile(*member, length)
    if kind in ("rr", "curve"):
        build = torus.rr_profile if kind == "rr" else torus.curve_profile
        return build(member, length)
    if kind == "torus":
        return torus.torus_profile(length)
    levels = range(1, length + 1)
    return torus.PlurigeneraProfile(_values(kind, member, levels, False)["values"])


def _per_member(kind, member, desc, fields) -> Dict[str, object]:
    """desc plus fields(member); for kt, whose member is the list of --a
    values, desc plus one row of fields(a) per value instead."""
    if kind == "kt":
        return dict(desc, rows=[{**fields(a), "a": str(a)} for a in member])
    return {**desc, **fields(member)}


def _cmd_plurigenera(args):
    levels = _parse_m_spec(args.m)
    kind, member, desc = _family(args)
    report = _per_member(kind, member, dict(desc, levels=levels),
                         lambda m: _values(kind, m, levels, args.cross_check))
    if args.cross_check:
        from . import torus

        report["cross_check"] = {"window": torus.MODE_WINDOW, "agreed": True}
    return report, 0


def _cmd_irregularity(args):
    kind, member, desc = _family(args)

    def value(member) -> int:  # closed (1,0)-forms of one family member
        if kind in ("kt", "t4"):
            from . import torus

            return (torus.kt_irregularity(member) if kind == "kt"
                    else torus.t4_irregularity(*member))
        from . import hodge

        return hodge.invariant_harmonic_space(member, 1, 0).dimension

    return _per_member(kind, member, desc, lambda m: {"value": value(m)}), 0


def _cmd_hodge(args):
    from . import hodge

    if args.p < 0 or args.q < 0:
        raise InputError("--p and --q must be non-negative")
    model, desc = _lie_model_for(args)
    _check_limit("--p/--q section monomials", hodge.section_count(model, args.p, args.q),
                 MAX_SECTIONS, low=0)
    space = hodge.invariant_harmonic_space(
        model, args.p, args.q, bundle_power=args.power
    )
    blocks = [
        {
            "character": [v.to_str(model.symbol) for v in blk.character.values],
            "dimension": blk.dimension,
        }
        for blk in space.blocks
    ]
    return dict(desc, p=args.p, q=args.q, bundle_power=args.power,
                dimension=space.dimension, blocks=blocks), 0


def _interval_values(values) -> list:
    """Plurigenus values for a report, each torus.IntInterval as [lo, hi]."""
    from . import torus

    return [[v.lo, v.hi] if isinstance(v, torus.IntInterval) else v for v in values]


def _profile_report(profile) -> Dict[str, object]:
    return {
        "values": _interval_values(profile.values),
        "kind": profile.kind,
        "degree": profile.degree,
        "kappa": profile.kappa,
    }


def _profile_length(args) -> int:
    """--length, whose default (None) is torus.DEFAULT_PROFILE_LENGTH."""
    from . import torus

    length = torus.DEFAULT_PROFILE_LENGTH if args.length is None else args.length
    return _check_limit("--length", length, MAX_LEVEL, low=torus.MIN_PROFILE_LENGTH)


def _cmd_kodaira(args):
    length = _profile_length(args)
    kind, member, desc = _family(args)
    return _per_member(kind, member, desc,
                       lambda m: _profile_report(_profile(kind, m, length))), 0


def _parse_factor(spec: str):
    """Check one kunneth factor spec and return its (kind, member) for
    _profile.  _cmd_kunneth parses every spec before it builds any profile."""
    from . import torus

    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    arg = arg.strip()
    if name == "kt":
        if not arg:
            raise InputError(f"factor {spec!r}: want kt:<a>, e.g. kt:4*pi")
        try:
            return "kt", PiParam.parse(arg)
        except ValueError as exc:
            raise InputError(f"factor {spec!r}: {exc}") from exc
    if name == "t4":
        if arg in ("", "std", "standard"):
            return "t4", torus.t4_standard_pair()
        if arg in ("0", "zero"):
            return "t4", torus.t4_family_pair(0, 0)
        raise InputError(f"factor {spec!r}: want t4:std or t4:zero")
    if name in ("rr", "curve"):
        try:
            genus = int(arg)
        except ValueError as exc:
            raise InputError(f"factor {spec!r}: want {name}:<genus>") from exc
        if genus > MAX_GENUS:
            raise InputError(f"factor {spec!r}: genus must be at most {MAX_GENUS}")
        # the profile builders' own lower bounds, checked before any build
        if genus < 2:
            raise InputError("fiber genus must be at least 2" if name == "rr"
                             else "curve profiles require genus at least 2")
        return name, genus
    if name in ("torus", "s6") and arg:
        raise InputError(f"factor {spec!r}: {name} takes no argument")
    if name == "torus":
        return "torus", None
    if name == "s6":
        return "g2", None
    raise InputError(
        f"unknown factor {spec!r}; want kt:<a>, t4:std, t4:zero, rr:<g>, "
        "curve:<g>, torus, or s6"
    )


def _cmd_kunneth(args):
    from . import torus

    specs = [s for s in (args.factors or "").split(",") if s.strip()]
    if len(specs) < 2:
        raise InputError("--factors: want at least two comma-separated factors")
    _check_limit("--factors", len(specs), MAX_FACTORS)
    length = _profile_length(args)
    factors = [_parse_factor(s) for s in specs]
    profiles = [_profile(kind, member, length) for kind, member in factors]
    product = profiles[0]
    for prof in profiles[1:]:
        product = torus.kunneth(product, prof)
    factor_rows = [
        dict(_profile_report(prof), factor=spec.strip())
        for spec, prof in zip(specs, profiles)
    ]
    report = {
        "factors": factor_rows,
        "product": _profile_report(product),
        "kappa_additive": product.kappa == sum(prof.kappa for prof in profiles),
    }
    return report, 0 if report["kappa_additive"] else 1


def _checks(**reports):
    """The report of named checks, each summary under its name, and its exit
    code: 0 if every check is ok, else 1."""
    report = {name: r.summary() for name, r in reports.items()}
    report["ok"] = all(r.ok for r in reports.values())
    return report, 0 if report["ok"] else 1


def _cmd_g2_verify(args):
    from . import g2 as sphere

    members = _check_limit("--samples", args.samples, MAX_SAMPLES, low=0)
    nonmembers = _check_limit("--negatives", args.negatives, MAX_SAMPLES, low=0)
    table = sphere.verify_bracket_table()
    report, code = _checks(
        bracket_table=table,
        cross_product=sphere.verify_cross_identities(),
        membership=sphere.membership_sample_check(
            members=members, nonmembers=nonmembers, seed=args.seed
        ),
        projection=sphere.verify_projection(),
    )
    if table.mismatches:
        report["bracket_mismatches"] = table.mismatches
    return report, code


def _cmd_s6_report(args):
    from . import g2 as sphere, torus

    levels = _check_limit("--levels", args.levels, MAX_LEVEL, low=torus.MIN_PROFILE_LENGTH)
    return _checks(
        structure=sphere.s6_structure_package(),
        reduction_brackets=sphere.verify_reduction_brackets(),
        census=sphere.s6_hodge_report(levels=levels),
    )


def _cmd_rr(args):
    from . import torus

    levels = _parse_m_spec(args.m)
    if args.genus < 2:
        raise InputError("--genus must be at least 2")
    if args.genus > MAX_GENUS:
        raise InputError(f"--genus must be at most {MAX_GENUS}")
    prof = torus.rr_profile(args.genus, max(torus.DEFAULT_PROFILE_LENGTH, max(levels)))
    report = {
        "genus": args.genus,
        "levels": levels,
        "values": _interval_values(prof.values[m - 1] for m in levels),
        "kappa": prof.kappa,
    }
    return report, 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# Shared option groups, in the order a subcommand adds them: (flag, kwargs).
_COMMON = (
    ("--format", dict(choices=("json", "table"), default="json",
                      help="output format (default json)")),
    ("--meta", dict(action="store_true",
                    help="include tool and invocation metadata in the report")),
)
_MODEL = (("--model", dict(
    required=True, help="preset kt, t4, or g2; or a path to a model JSON file",
)),)
_A = (("--a", dict(
    default=None,
    help="structure parameter(s): 'q*pi' or 'generic', comma-separated",
)),)
_T = (("--t", dict(
    default=None, help="t4 family member as 't1,t2' (default: the standard member)",
)),)
# None stands for torus.DEFAULT_PROFILE_LENGTH (see _profile_length)
_LENGTH = ("--length", dict(type=int, default=None))

# One row per subcommand: (name, help, shared option groups, own arguments, handler).
_SUBCOMMANDS = (
    ("nijenhuis", "integrability tensor of a model", (_COMMON, _MODEL, _A), (),
     _cmd_nijenhuis),
    ("structure-eqs", "coframe differentials split by bidegree",
     (_COMMON, _MODEL, _A), (), _cmd_structure_eqs),
    ("plurigenera", "pluricanonical section counts", (_COMMON, _MODEL, _A, _T), (
        ("--m", dict(default="1..12", help="levels: '4', '1..12', or a comma list")),
        ("--cross-check", dict(
            action="store_true",
            help="kt only: re-derive each count by window enumeration",
        )),
    ), _cmd_plurigenera),
    ("irregularity", "closed (1,0)-form counts", (_COMMON, _MODEL, _A, _T), (),
     _cmd_irregularity),
    ("hodge", "invariant harmonic (p,q) dimensions", (_COMMON, _MODEL, _A), (
        ("--p", dict(type=int, required=True)),
        ("--q", dict(type=int, required=True)),
        ("--power", dict(type=int, default=0,
                         help="canonical bundle power twisting the forms (default 0)")),
    ), _cmd_hodge),
    ("kodaira", "Kodaira dimension from the plurigenera profile",
     (_COMMON, _MODEL, _A, _T), (_LENGTH,), _cmd_kodaira),
    ("kunneth", "product profiles and Kodaira dimension additivity", (_COMMON,), (
        ("--factors", dict(
            required=True,
            help="comma list of kt:<a>, t4:std, t4:zero, rr:<g>, curve:<g>, torus, s6",
        )),
        _LENGTH,
    ), _cmd_kunneth),
    ("g2-verify", "bracket catalogue, Jacobi, membership, and cross identities",
     (_COMMON,), (
         ("--samples", dict(type=int, default=100)),
         ("--negatives", dict(type=int, default=10)),
         ("--seed", dict(type=int, default=20260815)),
     ), _cmd_g2_verify),
    ("s6-report", "sphere structure displays and invariant census", (_COMMON,),
     (("--levels", dict(type=int, default=8)),), _cmd_s6_report),
    ("rr", "curve-fibration plurigenera by degree count", (_COMMON,), (
        ("--genus", dict(type=int, required=True)),
        ("--m", dict(default="1..6")),
    ), _cmd_rr),
)

# run dispatches through this dict, so a handler can be wrapped in place
_HANDLERS = {row[0]: row[-1] for row in _SUBCOMMANDS}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a failed write of its text raises, as a report's
    does, and an argument starting with - and a digit is a value (--a -4*pi)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)

    def error(self, message):
        """argparse's usage error, exit 2.  With descriptor 2 closed
        (sys.stderr is None) it writes nothing, as acx's own input errors
        then do; argparse would print its usage text to stdout."""
        if sys.stderr is None:
            self.exit(2)
        super().error(message)


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The acx parser.  When argv[0] names a subcommand, only that subparser
    is built; otherwise (no arguments, --help, --version, an unknown command)
    all of them are.  Help text, usage errors and exit codes are the same
    either way."""
    parser = _Parser(
        prog="acx",
        description=(
            "Exact invariant almost-complex geometry: structure equations, "
            "plurigenera, Hodge data, and the seven-dimensional cross "
            "product algebra."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    specs = [spec for spec in _SUBCOMMANDS if argv and spec[0] == argv[0]]
    # with one subparser, the top-level usage still lists every subcommand
    metavar = "{" + ",".join(spec[0] for spec in _SUBCOMMANDS) + "}" if specs else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, groups, own, _ in specs or _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for group in groups + (own,):
            for flag, kwargs in group:
                p.add_argument(flag, **kwargs)
    return parser


def run(argv: Sequence[str]) -> int:
    """Parse argv, dispatch, print the report; returns the exit code."""
    argv = list(argv)
    args = _build_parser(argv).parse_args(argv)
    report, code = _HANDLERS[args.command](args)
    if args.meta:
        report = dict(report)
        report["meta"] = {
            "tool": "acx",
            "version": __version__,
            "subcommand": args.command,
            "argv": argv,
        }
    sys.stdout.write(_render(report, args.format))
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """acx on argv (default sys.argv[1:]): every outcome, argparse's exits
    included, is an exit code, and acx's errors are reported on stderr.
    stdout is flushed here, so output that cannot be written is an internal
    error whatever the buffering; an error that stderr cannot take keeps its
    code.  KeyboardInterrupt, and a SystemExit whose code is not an int or
    None, pass through."""
    try:
        try:
            code = run(sys.argv[1:] if argv is None else argv)
        except SystemExit as exc:  # argparse's, after --help, --version or a usage error
            if exc.code is not None and not isinstance(exc.code, int):
                raise
            code = exc.code or 0
        # None if stdout was closed at start: argparse then wrote to stderr
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except RefusalError as exc:
        message, code = f"refused: {exc}", 1
    except InternalCheckError as exc:
        message, code = f"internal check failed: {exc}", 3
    except InputError as exc:
        message, code = f"input error: {exc}", 2
    except ValueError as exc:
        # any other ValueError comes from inside acx, not from the input
        message, code = f"internal error: {exc}", 3
    except Exception as exc:
        message, code = f"internal error: {type(exc).__name__}: {exc}", 3
    try:
        sys.stderr.write(message + "\n")
    except (AttributeError, OSError):
        pass  # stderr is closed or cannot be written: the code is the only report
    return code


def _tool_attached() -> bool:
    """A profiler or tracer (cProfile, coverage, a debugger) is attached."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    return (
        sys.getprofile() is not None
        or sys.gettrace() is not None
        or (monitoring is not None
            and any(monitoring.get_tool(i) is not None for i in range(6)))
    )


def console_main() -> None:
    """End the process with `main`'s exit code: the `acx` script and
    `python -m acx.cli`.

    `main` has flushed stdout, and stderr is line-buffered, so no output
    depends on the rest of the process: it ends with os._exit and skips
    interpreter teardown (module teardown, a final garbage collection,
    freeing every object), whose cost the README states.  It leaves through
    sys.exit when a profiler or tracer is attached, since those report at
    exit.
    """
    code = main()
    if _tool_attached():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
