"""Shared fixtures: the four small groups used across the test matrix."""

import pytest

from hurwitz import PermGroup, generate_group, make_branching_type, parse_perm


@pytest.fixture(scope="session")
def c2() -> PermGroup:
    return generate_group([parse_perm("(1 2)", 2)])


@pytest.fixture(scope="session")
def s3() -> PermGroup:
    return generate_group([parse_perm("(1 2)", 3), parse_perm("(1 2 3)", 3)])


@pytest.fixture(scope="session")
def c3() -> PermGroup:
    return generate_group([parse_perm("(1 2 3)", 3)])


@pytest.fixture(scope="session")
def v4() -> PermGroup:
    # regular representation of the Klein four-group
    return generate_group(
        [parse_perm("(1 2)(3 4)", 4), parse_perm("(1 3)(2 4)", 4)]
    )


# (group fixture name, base genus, branch points) for every configuration
# in the desk-scale matrix.
MATRIX = [
    ("c2", 0, 2),
    ("c2", 0, 4),
    ("c2", 0, 6),
    ("c2", 1, 2),
    ("s3", 0, 3),
    ("s3", 0, 4),
    ("c3", 0, 2),
    ("c3", 0, 3),
    ("v4", 0, 3),
    ("v4", 0, 4),
]


@pytest.fixture(scope="session")
def matrix(c2, s3, c3, v4):
    groups = {"c2": c2, "s3": s3, "c3": c3, "v4": v4}
    return [(groups[name], g, n) for name, g, n in MATRIX]


@pytest.fixture(scope="session")
def twisted(c3):
    """(group, base genus, branch points, type) with a type filter that
    N(lam0) moves to another type.

    Under 3*[(1 3 2)] the canonical representative lies outside the
    filtered set; under C5 g1 [r, r^-1] the class-level orbits are not
    met in the order of their minimal classes.
    """
    c5 = generate_group([parse_perm("(1 2 3 4 5)", 5)])
    cases = [
        (c3, 0, 3, make_branching_type(c3, [(parse_perm(r, 3), 3)]))
        for r in ("(1 2 3)", "(1 3 2)")
    ]
    rotations = [(parse_perm(r, 5), 1) for r in ("(1 2 3 4 5)", "(1 5 4 3 2)")]
    cases.append((c5, 1, 2, make_branching_type(c5, rotations)))
    return cases

