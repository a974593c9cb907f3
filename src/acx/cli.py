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
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .errors import InputError, InternalCheckError, RefusalError
from .hodge import invariant_harmonic_space, section_count
from .lie import is_integrable, nijenhuis, structure_equations
from .models import kt_model, load_model_file
from .scalars import PiParam
from .torus import (
    DEFAULT_PROFILE_LENGTH,
    IntInterval,
    PlurigeneraProfile,
    curve_profile,
    kt_first_nonzero,
    kt_irregularity,
    kt_mode_oracle,
    kt_plurigenus,
    kt_profile,
    kt_solvable_modes,
    kunneth,
    mode_window,
    rr_plurigenus,
    rr_profile,
    t4_family_pair,
    t4_irregularity,
    t4_obstruction,
    t4_plurigenus,
    t4_profile,
    t4_standard_pair,
    torus_profile,
)
from . import g2 as sphere

# Upper limits on user-sized inputs, checked before any list is built: the
# largest --m level and the number of levels in one --m spec, --length of a
# plurigenera profile, s6-report --levels, and g2-verify --samples and
# --negatives (ACX_MODE_WINDOW is bounded in torus.mode_window).
MAX_LEVEL = 1000
MAX_LENGTH = 1000
MAX_LEVELS = 1000
MAX_SAMPLES = 1000

# Most hodge section monomials C(k,p)*C(k,q) (k = n, or the size of the
# model's basic set): the column count of each operator matrix.  400 admits
# every (p,q) at dim <= 12; (3,3) at dim 12 takes 0.7 s on an abelian file and
# 87 s on a dense 2-step nilpotent one (2-vCPU Xeon VM).
MAX_SECTIONS = 400

# Most kunneth --factors.  Eight s6 factors, the slowest profile to build, take
# 3.5 s at --length 1000 (2-vCPU Xeon VM).
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
    out = []
    for chunk in text.split(","):
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
    if text is None:
        return t4_standard_pair(), "standard"
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError("--t: want two comma-separated rationals, e.g. 0,0")
    try:
        t1, t2 = Fraction(parts[0].strip()), Fraction(parts[1].strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"--t: {exc}") from exc
    return t4_family_pair(t1, t2), f"t=({t1},{t2})"


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
        return kind, sphere.s6_model(), {"model": "g2"}
    model, param = load_model_file(spec)
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
    if isinstance(value, IntInterval):
        return [value.lo, value.hi]
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
    if kind == "g2" and getattr(args, "power", 0):
        raise RefusalError(
            "hodge --power on the sphere needs the sphere's basic star, which "
            "hodge does not use; its plurigenera are in plurigenera and s6-report"
        )
    return (kt_model(member[0]) if kind == "kt" else member), desc


def _cmd_nijenhuis(args):
    model, desc = _lie_model_for(args)
    tensor = nijenhuis(model.alg, model.J)
    names = model.alg.basis_names
    entries = [
        {"i": i, "j": j, "value": _vector_str(vec, names, model.symbol)}
        for (i, j), vec in sorted(tensor.values.items())
    ]
    integrable = is_integrable(tensor, model.coframe)
    return dict(desc, integrable=integrable, nonzero_entries=len(entries),
                entries=entries), 0


def _cmd_structure_eqs(args):
    model, desc = _lie_model_for(args)
    eqs = structure_equations(model.coframe)
    rows = []
    for i in range(1, model.n + 1):
        d_full = model.coframe.d_phi(i)
        rows.append(
            {
                "i": i,
                "d": d_full.to_str(model.symbol),
                "part_20": d_full.project(2, 0).to_str(model.symbol),
                "part_11": eqs.dbar_phi(i).to_str(model.symbol),
                "part_02": d_full.project(0, 2).to_str(model.symbol),
            }
        )
    return dict(desc, n=model.n, integrable=eqs.integrable(), coframe=rows), 0


def _kt_plurigenera_rows(a_list, levels, window):
    """Rows per a; with a window, each level is re-derived by enumeration."""
    rows = []
    for a in a_list:
        values = [kt_plurigenus(a, m) for m in levels]
        if window is not None:
            for m in levels:
                coeff = Fraction(m, 4)
                closed = {
                    mode
                    for mode in kt_solvable_modes(a, coeff)
                    if all(abs(c) <= window for c in mode)
                }
                if closed != set(kt_mode_oracle(a, coeff, window=window)):
                    raise InternalCheckError(
                        "mode oracle",
                        f"disagrees with the closed form at a={a}, m={m}",
                    )
        row = {"a": str(a), "values": values}
        first = kt_first_nonzero(a)
        row["first_nonzero"] = first
        rows.append(row)
    return rows


def _values(kind, member, levels) -> Dict[str, object]:
    """Plurigenera report fields of a t4 member, the sphere or a model file."""
    if kind == "t4":
        alpha, beta = member
        return {
            "obstruction": t4_obstruction(alpha, beta).to_str("pi"),
            "values": [t4_plurigenus(alpha, beta, 1)] * len(levels),  # same at every m
        }
    if kind == "g2":
        return {"values": [sphere.s6_plurigenus(m) for m in levels]}
    return {
        "values": [
            invariant_harmonic_space(member, 0, 0, bundle_power=m).dimension
            for m in levels
        ]
    }


def _profile(kind, member, length: int) -> PlurigeneraProfile:
    """Plurigenera profile of a t4 member, the sphere or a model file."""
    if kind == "t4":
        return t4_profile(*member, length)
    return PlurigeneraProfile(_values(kind, member, range(1, length + 1))["values"])


def _irregularity(kind, member) -> int:
    """Closed (1,0)-form count of a t4 member, the sphere or a model file."""
    if kind == "t4":
        return t4_irregularity(*member)
    return invariant_harmonic_space(member, 1, 0).dimension


def _cmd_plurigenera(args):
    levels = _parse_m_spec(args.m)
    kind, member, desc = _family(args)
    window = mode_window() if args.cross_check else None
    report = dict(desc, levels=levels)
    if kind != "kt":
        report.update(_values(kind, member, levels))
        return report, 0
    report["rows"] = _kt_plurigenera_rows(member, levels, window)
    if window is not None:
        report["cross_check"] = {"window": window, "agreed": True}
    return report, 0


def _cmd_irregularity(args):
    kind, member, desc = _family(args)
    if kind == "kt":
        rows = [{"a": str(a), "value": kt_irregularity(a)} for a in member]
        return dict(desc, rows=rows), 0
    return dict(desc, value=_irregularity(kind, member)), 0


def _cmd_hodge(args):
    if args.p < 0 or args.q < 0:
        raise InputError("--p and --q must be non-negative")
    model, desc = _lie_model_for(args)
    _check_limit("--p/--q section monomials", section_count(model, args.p, args.q),
                 MAX_SECTIONS, low=0)
    space = invariant_harmonic_space(
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


def _profile_report(profile: PlurigeneraProfile) -> Dict[str, object]:
    return {
        "values": profile.values,
        "kind": profile.kind,
        "degree": profile.degree,
        "kappa": profile.kappa,
    }


def _cmd_kodaira(args):
    length = _check_limit("--length", args.length, MAX_LENGTH)
    kind, member, desc = _family(args)
    if kind == "kt":
        rows = [dict(_profile_report(kt_profile(a, length)), a=str(a)) for a in member]
        return dict(desc, rows=rows), 0
    return dict(desc, **_profile_report(_profile(kind, member, length))), 0


def _factor_profile(spec: str, length: int) -> PlurigeneraProfile:
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    arg = arg.strip()
    if name == "kt":
        if not arg:
            raise InputError(f"factor {spec!r}: want kt:<a>, e.g. kt:4*pi")
        try:
            return kt_profile(PiParam.parse(arg), length)
        except ValueError as exc:
            raise InputError(f"factor {spec!r}: {exc}") from exc
    if name == "t4":
        if arg in ("", "std", "standard"):
            alpha, beta = t4_standard_pair()
        elif arg in ("0", "zero"):
            alpha, beta = t4_family_pair(0, 0)
        else:
            raise InputError(f"factor {spec!r}: want t4:std or t4:zero")
        return t4_profile(alpha, beta, length)
    if name in ("rr", "curve"):
        try:
            genus = int(arg)
        except ValueError as exc:
            raise InputError(f"factor {spec!r}: want {name}:<genus>") from exc
        return (rr_profile if name == "rr" else curve_profile)(genus, length)
    if name == "torus":
        return torus_profile(length)
    if name == "s6":
        return _profile("g2", sphere.s6_model(), length)
    raise InputError(
        f"unknown factor {spec!r}; want kt:<a>, t4:std, t4:zero, rr:<g>, "
        "curve:<g>, torus, or s6"
    )


def _cmd_kunneth(args):
    specs = [s for s in (args.factors or "").split(",") if s.strip()]
    if len(specs) < 2:
        raise InputError("--factors: want at least two comma-separated factors")
    _check_limit("--factors", len(specs), MAX_FACTORS)
    _check_limit("--length", args.length, MAX_LENGTH)
    profiles = [_factor_profile(s, args.length) for s in specs]
    product = profiles[0]
    for prof in profiles[1:]:
        product = kunneth(product, prof)
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


def _cmd_g2_verify(args):
    members = _check_limit("--samples", args.samples, MAX_SAMPLES, low=0)
    nonmembers = _check_limit("--negatives", args.negatives, MAX_SAMPLES, low=0)
    table = sphere.verify_bracket_table()
    crossrep = sphere.verify_cross_identities()
    membership = sphere.membership_sample_check(
        members=members, nonmembers=nonmembers, seed=args.seed
    )
    projection = sphere.verify_projection()
    ok = table.ok and crossrep.ok and membership.ok and projection.ok
    report = {
        "bracket_table": table.summary(),
        "cross_product": crossrep.summary(),
        "membership": membership.summary(),
        "projection": projection.summary(),
        "ok": ok,
    }
    if table.mismatches:
        report["bracket_mismatches"] = table.mismatches
    return report, 0 if ok else 1


def _cmd_s6_report(args):
    levels = _check_limit("--levels", args.levels, MAX_LEVELS)
    structure = sphere.s6_structure_package()
    reduction = sphere.verify_reduction_brackets()
    census = sphere.s6_hodge_report(levels=levels)
    ok = structure.ok and reduction.ok and census.ok
    report = {
        "structure": structure.summary(),
        "reduction_brackets": reduction.summary(),
        "census": census.summary(),
        "ok": ok,
    }
    return report, 0 if ok else 1


def _cmd_rr(args):
    levels = _parse_m_spec(args.m)
    if args.genus < 2:
        raise InputError("--genus must be at least 2")
    values = [rr_plurigenus(args.genus, m) for m in levels]
    prof = rr_profile(args.genus, max(DEFAULT_PROFILE_LENGTH, max(levels)))
    report = {
        "genus": args.genus,
        "levels": levels,
        "values": values,
        "kappa": prof.kappa,
    }
    return report, 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table"), default="json",
        help="output format (default json)",
    )
    common.add_argument(
        "--meta", action="store_true",
        help="include tool and invocation metadata in the report",
    )

    model_arg = argparse.ArgumentParser(add_help=False)
    model_arg.add_argument(
        "--model", required=True,
        help="preset kt, t4, or g2; or a path to a model JSON file",
    )
    a_arg = argparse.ArgumentParser(add_help=False)
    a_arg.add_argument(
        "--a", default=None,
        help="structure parameter(s): 'q*pi' or 'generic', comma-separated",
    )
    t_arg = argparse.ArgumentParser(add_help=False)
    t_arg.add_argument(
        "--t", default=None,
        help="t4 family member as 't1,t2' (default: the standard member)",
    )

    parser = argparse.ArgumentParser(
        prog="acx",
        description=(
            "Exact invariant almost-complex geometry: structure equations, "
            "plurigenera, Hodge data, and the seven-dimensional cross "
            "product algebra."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "nijenhuis", parents=[common, model_arg, a_arg],
        help="integrability tensor of a model",
    )
    sub.add_parser(
        "structure-eqs", parents=[common, model_arg, a_arg],
        help="coframe differentials split by bidegree",
    )
    p = sub.add_parser(
        "plurigenera", parents=[common, model_arg, a_arg, t_arg],
        help="pluricanonical section counts",
    )
    p.add_argument("--m", default="1..12", help="levels: '4', '1..12', or a comma list")
    p.add_argument(
        "--cross-check", action="store_true",
        help="kt only: re-derive each count by window enumeration (ACX_MODE_WINDOW)",
    )
    sub.add_parser(
        "irregularity", parents=[common, model_arg, a_arg, t_arg],
        help="closed (1,0)-form counts",
    )
    p = sub.add_parser(
        "hodge", parents=[common, model_arg, a_arg],
        help="invariant harmonic (p,q) dimensions",
    )
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument(
        "--power", type=int, default=0,
        help="canonical bundle power twisting the forms (default 0)",
    )
    p = sub.add_parser(
        "kodaira", parents=[common, model_arg, a_arg, t_arg],
        help="Kodaira dimension from the plurigenera profile",
    )
    p.add_argument("--length", type=int, default=DEFAULT_PROFILE_LENGTH)
    p = sub.add_parser(
        "kunneth", parents=[common],
        help="product profiles and Kodaira dimension additivity",
    )
    p.add_argument(
        "--factors", required=True,
        help="comma list of kt:<a>, t4:std, t4:zero, rr:<g>, curve:<g>, torus, s6",
    )
    p.add_argument("--length", type=int, default=DEFAULT_PROFILE_LENGTH)
    p = sub.add_parser(
        "g2-verify", parents=[common],
        help="bracket catalogue, Jacobi, membership, and cross identities",
    )
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--negatives", type=int, default=10)
    p.add_argument("--seed", type=int, default=20260815)
    p = sub.add_parser(
        "s6-report", parents=[common],
        help="sphere structure displays and invariant census",
    )
    p.add_argument("--levels", type=int, default=8)
    p = sub.add_parser(
        "rr", parents=[common],
        help="curve-fibration plurigenera by degree count",
    )
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--m", default="1..6")
    return parser


_HANDLERS = {
    "nijenhuis": _cmd_nijenhuis,
    "structure-eqs": _cmd_structure_eqs,
    "plurigenera": _cmd_plurigenera,
    "irregularity": _cmd_irregularity,
    "hodge": _cmd_hodge,
    "kodaira": _cmd_kodaira,
    "kunneth": _cmd_kunneth,
    "g2-verify": _cmd_g2_verify,
    "s6-report": _cmd_s6_report,
    "rr": _cmd_rr,
}


def run(argv: Sequence[str], stdout=None) -> int:
    """Parse argv, dispatch, print the report; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(list(argv))
    report, code = _HANDLERS[args.command](args)
    if args.meta:
        report = dict(report)
        report["meta"] = {
            "tool": "acx",
            "version": __version__,
            "subcommand": args.command,
            "argv": list(argv),
        }
    stdout.write(_render(report, args.format))
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # any other ValueError comes from inside acx, not from the input
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
