"""Shared fixtures.

The seven-dimensional verification suites are the only expensive objects in
the codebase, so they are computed once per session and shared between the
unit tests and the acceptance gate; every assertion still runs against the
freshly computed reports.
"""

import pytest

from acx import g2
from acx.models import model_from_json

# An 8-dim 2-step nilpotent model whose J carries the generic parameter a in
# the blocks that touch the brackets, so its frames are rational in a.
NIL8_GENERIC = {
    "dim": 8,
    "brackets": [
        {"i": 1, "j": 3, "out": [[7, "1", "0"]]},
        {"i": 2, "j": 4, "out": [[7, "1", "0"]]},
        {"i": 1, "j": 4, "out": [[8, "1", "0"]]},
        {"i": 2, "j": 3, "out": [[8, "1", "0"]]},
        {"i": 1, "j": 5, "out": [[8, "1", "0"]]},
    ],
    "J": [
        ["0", "-1/a", "0", "0", "0", "0", "0", "0"],
        ["a", "0", "0", "0", "0", "0", "0", "0"],
        ["0", "0", "0", "-a", "0", "0", "0", "0"],
        ["0", "0", "1/a", "0", "0", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "-1", "0", "0"],
        ["0", "0", "0", "0", "1", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "0", "-1/a"],
        ["0", "0", "0", "0", "0", "0", "a", "0"],
    ],
    "params": {"a": "generic"},
}


@pytest.fixture(scope="session")
def nil8_generic():
    model, _ = model_from_json(NIL8_GENERIC)
    return model


@pytest.fixture(scope="session")
def bracket_report():
    return g2.verify_bracket_table()


@pytest.fixture(scope="session")
def cross_report():
    return g2.verify_cross_identities()


@pytest.fixture(scope="session")
def membership_report():
    return g2.membership_sample_check(members=100, nonmembers=10, seed=20260815)


@pytest.fixture(scope="session")
def projection_report():
    return g2.verify_projection()


@pytest.fixture(scope="session")
def structure_report():
    return g2.s6_structure_package()


@pytest.fixture(scope="session")
def reduction_report():
    return g2.verify_reduction_brackets()


@pytest.fixture(scope="session")
def sphere_census():
    return g2.s6_hodge_report(levels=8)
