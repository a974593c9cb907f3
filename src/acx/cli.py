"""Deterministic command-line front end.

argv is read from one subcommand table, which also gives the help and
usage text.  Reports are exact library results as plain JSON types with
sorted keys (or an aligned table): identical invocations, identical bytes.
Exit codes: 0 success, 1 refusal or failed verification, 2 malformed input
(a usage error or a user-sized input over its limits), 3 an internal fault.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .errors import InputError, InternalCheckError, RefusalError, echo, parsed
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

# Most hodge section monomials C(k,p)*C(k,q) (k = len(model.indices), n
# except on the sphere): the column count of each operator matrix.  400 admits
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
    return [parsed("--a", PiParam.parse, chunk) for chunk in chunks]


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
                raise InputError(f"--m: bad range {echo(chunk)}") from exc
            if lo > hi:
                raise InputError(f"--m: empty range {echo(chunk)}")
        else:
            try:
                lo = hi = int(chunk)
            except ValueError as exc:
                raise InputError(f"--m: bad level {echo(chunk)}") from exc
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
    t1, t2 = (parsed("--t", parse_rational, part) for part in parts)
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
    parts = [f"({c.to_str(symbol)})*{name}" for c, name in zip(coeffs, names) if not c.is_zero()]
    return " + ".join(parts) or "0"


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
        value = torus.t4_plurigenus(alpha, beta, 1)  # same at every m
        obstruction = torus.t4_obstruction(alpha, beta).to_str("pi")
        return {"obstruction": obstruction, "values": [value] * len(levels)}
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
    if kind == "g2":  # kunneth's s6 factor has no member
        from . import g2 as sphere

        member = sphere.s6_model()
    values = _values(kind, member, range(1, length + 1), False)["values"]
    return torus.section_level_profile(values, member.first_section_level)


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
            raise InputError(f"factor {echo(spec)}: want kt:<a>, e.g. kt:4*pi")
        return "kt", parsed(f"factor {echo(spec)}", PiParam.parse, arg)
    if name == "t4":
        if arg in ("", "std", "standard"):
            return "t4", torus.t4_standard_pair()
        if arg in ("0", "zero"):
            return "t4", torus.t4_family_pair(0, 0)
        raise InputError(f"factor {echo(spec)}: want t4:std or t4:zero")
    if name in ("rr", "curve"):
        try:
            genus = int(arg)
        except ValueError as exc:
            raise InputError(f"factor {echo(spec)}: want {name}:<genus>") from exc
        if genus > MAX_GENUS:
            raise InputError(f"factor {echo(spec)}: genus must be at most {MAX_GENUS}")
        # the profile builders' own lower bounds, checked before any build
        if genus < 2:
            raise InputError("fiber genus must be at least 2" if name == "rr"
                             else "curve profiles require genus at least 2")
        return name, genus
    if name in ("torus", "s6") and arg:
        raise InputError(f"factor {echo(spec)}: {name} takes no argument")
    if name == "torus":
        return "torus", None
    if name == "s6":
        return "g2", None
    raise InputError(
        f"unknown factor {echo(spec)}; want kt:<a>, t4:std, t4:zero, rr:<g>, "
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


# Shared option groups, in the order a subcommand adds them: (flag, kwargs),
# kwargs as argparse's add_argument takes them.
_COMMON = (
    ("--format", dict(choices=("json", "table"), default="json",
                      help="output format (default json)")),
    ("--meta", dict(action="store_true",
                    help="include tool and invocation metadata in the report")),
)
_MODEL = (("--model", dict(required=True,
                           help="preset kt, t4, or g2; or a path to a model JSON file")),)
_A = (("--a", dict(help="structure parameter(s): 'q*pi' or 'generic', comma-separated")),)
_T = (("--t", dict(help="t4 family member as 't1,t2' (default: the standard member)")),)
# its default None stands for torus.DEFAULT_PROFILE_LENGTH (see _profile_length)
_LENGTH = ("--length", dict(type=int))

# One row per subcommand: (name, help, shared option groups, own arguments, handler).
_SUBCOMMANDS = (
    ("nijenhuis", "integrability tensor of a model", (_COMMON, _MODEL, _A), (), _cmd_nijenhuis),
    ("structure-eqs", "coframe differentials split by bidegree", (_COMMON, _MODEL, _A), (),
     _cmd_structure_eqs),
    ("plurigenera", "pluricanonical section counts", (_COMMON, _MODEL, _A, _T), (
        ("--m", dict(default="1..12", help="levels: '4', '1..12', or a comma list")),
        ("--cross-check", dict(action="store_true",
                               help="kt only: re-derive each count by window enumeration")),
    ), _cmd_plurigenera),
    ("irregularity", "closed (1,0)-form counts", (_COMMON, _MODEL, _A, _T), (), _cmd_irregularity),
    ("hodge", "invariant harmonic (p,q) dimensions", (_COMMON, _MODEL, _A), (
        ("--p", dict(type=int, required=True)),
        ("--q", dict(type=int, required=True)),
        ("--power", dict(type=int, default=0,
                         help="canonical bundle power twisting the forms (default 0)")),
    ), _cmd_hodge),
    ("kodaira", "Kodaira dimension from the plurigenera profile", (_COMMON, _MODEL, _A, _T),
     (_LENGTH,), _cmd_kodaira),
    ("kunneth", "product profiles and Kodaira dimension additivity", (_COMMON,), (
        ("--factors", dict(required=True, help="comma list of kt:<a>, t4:std, t4:zero, "
                                               "rr:<g>, curve:<g>, torus, s6")),
        _LENGTH,
    ), _cmd_kunneth),
    ("g2-verify", "bracket catalogue, Jacobi, membership, and cross identities", (_COMMON,), (
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
_OPTIONS = {row[0]: {flag: kw for group in row[2] + (row[3],) for flag, kw in group}
            for row in _SUBCOMMANDS}
_DESCRIPTION = ("Exact invariant almost-complex geometry: structure equations, plurigenera,\n"
                "Hodge data, and the seven-dimensional cross product algebra.")


class _UsageError(InputError):
    """A malformed argv; main writes its message, the usage line and the error."""

    def __init__(self, name, message: str):
        super().__init__(f"{_usage(name)}\nacx{' ' + name if name else ''}: error: {message}")


def _shown(flag: str, kw: dict) -> str:
    metavar = "{" + ",".join(kw["choices"]) + "}" if "choices" in kw else flag[2:].upper()
    return flag if kw.get("action") else f"{flag} {metavar}"


def _usage(name) -> str:
    """The one usage line of the top level (name None) or of a subcommand."""
    if name is None:
        return f"usage: acx [-h] [--version] {{{','.join(_HANDLERS)}}} ..."
    return " ".join([f"usage: acx {name} [-h]"] + [
        _shown(flag, kw) if kw.get("required") else f"[{_shown(flag, kw)}]"
        for flag, kw in _OPTIONS[name].items()])


def _help(name) -> str:
    """Usage, description, and each subcommand's and flag's help aligned."""
    commands = [row[:2] for row in _SUBCOMMANDS]
    options = [("-h, --help", "show this help message and exit")] + (
        [("--version", "show the version number and exit")] if name is None else
        [(_shown(flag, kw), kw.get("help", "")) for flag, kw in _OPTIONS[name].items()])
    sections = [("commands", commands)] * (name is None) + [("options", options)]
    width = max(len(left) for _, lines in sections for left, _ in lines)
    return f"{_usage(name)}\n\n{dict(commands).get(name, _DESCRIPTION)}\n" + "".join(
        f"\n{title}:\n" + "".join(f"  {left:<{width}}  {right}".rstrip() + "\n"
                                  for left, right in lines) for title, lines in sections)


def _read_flag(token: str, flags, name):
    """None if token is a value: not '-'-led, '-', or one naming no flag that
    has a digit after its '-' (-4*pi) or a space.  Else (flag, explicit value
    or None), flag '' if unknown: the -h, --help or `flags` entry it names
    exactly, before '=', or as a unique long prefix."""
    flags, (head, eq, rest) = ("-h", "--help", *flags), token.partition("=")
    if token[:1] != "-" or token == "-":
        return None
    found = [head] if head in flags else [
        flag for flag in flags if token[:2] == "--" and flag.startswith(head)]
    if len(found) > 1:
        raise _UsageError(name, f"ambiguous option: {echo(head)} matches {', '.join(found)}")
    if found:
        return found[0], rest if eq else None
    return None if token[1:2].isdecimal() or " " in token else ("", None)


def _parse(argv: List[str]):
    """argv read in one pass over the subcommand table: a namespace of every
    flag of the subcommand (its value or default), or the help or version
    text to print; else a _UsageError.  Tokens are taken in argv order; a
    flag's value, explicit or the next token, is checked by type and choices
    and its last repeat wins.  Unknown flags, stray values and missing required
    flags are refused at the end, an ambiguous prefix before any token is
    taken.  After '--' all are values; '--' is stray, or the name if first."""
    name, options, given, extras, reads, cut, k = None, {}, {}, [], {}, len(argv), 0
    while k < len(argv):
        token, k = argv[k], k + 1
        read = reads.get(k - 1) if name or token == "--" else _read_flag(token, ["--version"], None)
        if name is None and read is None:
            if token not in _OPTIONS:
                raise _UsageError(None, f"invalid choice: {echo(token)} "
                                        f"(choose from {', '.join(_HANDLERS)})")
            name, options = token, _OPTIONS[token]
            given = {flag: False if kw.get("action") else kw.get("default")
                     for flag, kw in options.items()}
            cut = argv.index("--", k) if "--" in argv[k:] else len(argv)
            reads = {j: _read_flag(argv[j], options, name) for j in range(k, cut)}
            continue
        if read is None or not read[0]:
            extras.append(token)
            continue
        flag, value = read
        kw = options.get(flag, {"action": "store_true"})  # -h, --help, --version
        if kw.get("action") and value is not None:
            raise _UsageError(name, f"argument {flag}: ignored explicit argument {echo(value)}")
        if flag not in options:
            return __version__ + "\n" if flag == "--version" else _help(name)
        if kw.get("action"):
            given[flag] = True
            continue
        if value is None:
            if k >= len(argv) or k == cut or reads.get(k) is not None:
                raise _UsageError(name, f"argument {flag}: expected one argument")
            value, k = argv[k], k + 1
        try:
            given[flag] = kw.get("type", str)(value)
        except ValueError:
            raise _UsageError(name, f"argument {flag}: invalid int value: {echo(value)}")
        if given[flag] not in kw.get("choices", (given[flag],)):
            raise _UsageError(name, f"argument {flag}: invalid choice: {echo(value)} "
                                    f"(choose from {', '.join(kw['choices'])})")
    missing = ", ".join(f for f, kw in options.items() if kw.get("required") and given[f] is None)
    if name is None or missing:
        raise _UsageError(name, f"the following arguments are required: {missing or 'command'}")
    if extras:
        raise _UsageError(name, f"unrecognized arguments: {echo(' '.join(extras))}")
    return SimpleNamespace(command=name, **{
        flag.lstrip("-").replace("-", "_"): value for flag, value in given.items()})


def run(argv: Sequence[str]) -> int:
    """Parse argv, dispatch, print the report; returns the exit code.  Help
    and --version print their text, to stderr if stdout is closed, and
    return 0; a malformed argv raises a _UsageError."""
    argv = list(argv)
    args = _parse(argv)
    if isinstance(args, str):
        (sys.stdout or sys.stderr).write(args)
        return 0
    report, code = _HANDLERS[args.command](args)
    if args.meta:
        report = dict(report, meta={"tool": "acx", "version": __version__,
                                    "subcommand": args.command, "argv": argv})
    sys.stdout.write(_render(report, args.format))
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """acx on argv (default sys.argv[1:]): every outcome is an exit code, and
    errors are reported on stderr.  stdout is flushed here, so output that
    cannot be written is an internal error whatever the buffering; an error
    that stderr cannot take keeps its code.  KeyboardInterrupt and SystemExit pass through."""
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        # None if stdout was closed at start: help and --version went to stderr
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except _UsageError as exc:
        message, code = str(exc), 2
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
