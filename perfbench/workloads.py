"""The benchmark's workloads and its seeded input generator.

A workload is a fixed list of acx CLI invocations (argv lists).  The seed
picks one of VARIANTS input variants; a variant only changes the signs of
the basis vectors of the generated model files and the seed passed to
``g2-verify``, so every variant does the same amount of work.  The program
under test sees only the argv and the files written here.
"""

from __future__ import annotations

import json
import random

VARIANTS = 8

# A template is a 2-step nilpotent algebra on pairs (e_{2p-1}, e_{2p}) with a
# block-diagonal J.  Every bracket lands in the last pair, which brackets with
# nothing, so [g, g] is central and Jacobi holds by construction.  Pair p
# carries J(e_{2p-1}) = x e_{2p}, J(e_{2p}) = -(1/x) e_{2p-1} with x one of
# "1", "a", "1/a"; brackets are (i, j, k, c) meaning [e_i, e_j] = c e_k.
TEMPLATES = {
    # a in the J blocks of both bracketing pairs and of the centre: the
    # operator matrices of hodge carry rational functions of a.
    "nil8_generic": {
        "pairs": ["a", "1/a", "1", "a"],
        "brackets": [(1, 3, 7, 1), (2, 4, 7, 1), (1, 4, 8, 1), (2, 3, 8, 1),
                     (1, 5, 8, 1)],
        "a": "generic",
    },
    # complex-Heisenberg-like brackets, constant J
    "nil6_heis": {
        "pairs": ["1", "1", "1"],
        "brackets": [(1, 3, 5, 1), (2, 4, 5, -1), (1, 4, 6, 1), (2, 3, 6, 1)],
        "a": None,
    },
    # brackets inside a J-plane and across planes, constant J
    "nil6_mixed": {
        "pairs": ["1", "1", "1"],
        "brackets": [(1, 2, 5, 1), (1, 3, 6, 1), (2, 4, 6, -1)],
        "a": None,
    },
}

_INVERSE = {"1": "1", "a": "1/a", "1/a": "a"}


def _signed(text, sign):
    return text if sign > 0 else "-" + text


def model_file(template: str, variant: int) -> dict:
    """The model-file object of `template` under input variant `variant`.

    The variant flips the sign of basis vectors, an isomorphism of the
    almost complex model that leaves the number of operations of every
    computation as it is.  The basis order is kept: reordering it changes
    the pivots of elimination, and with them the work, by up to 15%.
    """
    spec = TEMPLATES[template]
    rng = random.Random(f"{template}:{variant}")
    dim = 2 * len(spec["pairs"])
    flip = {k: rng.choice((1, -1)) for k in range(1, dim + 1)}

    J = [["0"] * dim for _ in range(dim)]
    for p, x in enumerate(spec["pairs"]):
        u, v = 2 * p + 1, 2 * p + 2
        sign = flip[u] * flip[v]
        J[v - 1][u - 1] = _signed(x, sign)
        J[u - 1][v - 1] = _signed(_INVERSE[x], -sign)
    brackets = {}
    for i, j, k, c in spec["brackets"]:
        c *= flip[i] * flip[j] * flip[k]
        brackets.setdefault((i, j), []).append([k, str(c), "0"])
    obj = {
        "dim": dim,
        "name": template,
        "brackets": [
            {"i": a, "j": b, "out": sorted(out)}
            for (a, b), out in sorted(brackets.items())
        ],
        "J": J,
    }
    if spec["a"] is not None:
        obj["params"] = {"a": spec["a"]}
    return obj


def g2_cold(variant, files):
    return [
        ["g2-verify", "--seed", str(1 + variant)],
        ["s6-report"],
        ["nijenhuis", "--model", "g2"],
    ]


def hodge_symbolic(variant, files):
    m = files["nil8_generic"]
    return [
        ["hodge", "--model", m, "--p", "2", "--q", "2"],
        ["hodge", "--model", m, "--p", "2", "--q", "1", "--power", "1"],
        ["hodge", "--model", m, "--p", "1", "--q", "2"],
    ]


def small_cli(variant, files):
    h, x = files["nil6_heis"], files["nil6_mixed"]
    missing = h[: -len(".json")] + "-missing.json"
    return [
        # kt preset
        ["nijenhuis", "--model", "kt"],
        ["nijenhuis", "--model", "kt", "--a", "4*pi", "--format", "table"],
        ["structure-eqs", "--model", "kt", "--a", "2*pi"],
        ["plurigenera", "--model", "kt", "--a", "4*pi,generic"],
        ["plurigenera", "--model", "kt", "--a", "1/2*pi,4*pi", "--m", "1..8",
         "--cross-check"],
        ["irregularity", "--model", "kt", "--a", "4*pi,2*pi,generic"],
        ["hodge", "--model", "kt", "--a", "4*pi", "--p", "1", "--q", "1"],
        ["hodge", "--model", "kt", "--a", "4*pi", "--p", "0", "--q", "0",
         "--power", "1", "--meta"],
        ["kodaira", "--model", "kt", "--a", "4*pi,generic"],
        # t4 preset
        ["plurigenera", "--model", "t4", "--m", "1..6"],
        ["plurigenera", "--model", "t4", "--t", "0,0", "--format", "table"],
        ["irregularity", "--model", "t4"],
        ["irregularity", "--model", "t4", "--t", "0,0"],
        ["kodaira", "--model", "t4"],
        ["kodaira", "--model", "t4", "--t", "0,0", "--length", "8"],
        # products and curve fibrations
        ["kunneth", "--factors", "kt:4*pi,t4:std"],
        ["kunneth", "--factors", "rr:2,curve:3,torus", "--length", "8"],
        ["kunneth", "--factors", "kt:generic,t4:zero", "--format", "table"],
        ["rr", "--genus", "2"],
        ["rr", "--genus", "3", "--m", "1..10", "--format", "table"],
        # seeded 6-dim model files with constant J
        ["nijenhuis", "--model", h],
        ["nijenhuis", "--model", x, "--format", "table"],
        ["structure-eqs", "--model", h],
        ["structure-eqs", "--model", x],
        ["plurigenera", "--model", h, "--m", "1..3"],
        ["irregularity", "--model", x],
        ["hodge", "--model", h, "--p", "1", "--q", "0"],
        ["hodge", "--model", x, "--p", "1", "--q", "1"],
        ["kodaira", "--model", x, "--length", "4"],
        # refusals (exit 1)
        ["nijenhuis", "--model", "t4"],
        ["structure-eqs", "--model", "t4"],
        ["hodge", "--model", "t4", "--p", "1", "--q", "0"],
        # input errors (exit 2)
        ["plurigenera", "--model", "kt"],
        ["irregularity", "--model", "kt"],
        ["kodaira", "--model", "kt", "--a", "sqrt2"],
        ["plurigenera", "--model", "kt", "--a", "4*pi", "--m", "0"],
        ["rr", "--genus", "1"],
        ["kunneth", "--factors", "kt:4*pi"],
        ["nijenhuis", "--model", "g2", "--a", "pi"],
        ["structure-eqs", "--model", missing],
        ["hodge", "--model", "kt"],
    ]


WORKLOADS = {
    "g2-cold": (g2_cold, ()),
    "small-cli": (small_cli, ("nil6_heis", "nil6_mixed")),
    "hodge-symbolic": (hodge_symbolic, ("nil8_generic",)),
}


def write_inputs(workload: str, variant: int, out_dir, rel_dir: str):
    """Write the workload's model files; returns (argv lists, file paths).

    Paths in argv are relative (`rel_dir`), so stdout, which echoes the
    model path, does not depend on where the checkout lives.
    """
    build, templates = WORKLOADS[workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    written = []
    for template in templates:
        path = out_dir / f"{template}.json"
        path.write_text(json.dumps(model_file(template, variant), indent=1) + "\n")
        files[template] = f"{rel_dir}/{template}.json"
        written.append(path)
    return build(variant, files), written
