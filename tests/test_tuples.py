"""Tuple validity, branching types, and the exhaustive enumerator."""

import dataclasses
import random

import pytest

import oracles as o
from hurwitz import (
    DegreeMismatch,
    HurwitzTuple,
    WorkCapExceeded,
    branching_type_of,
    conjugate_branching_type,
    enumerate_tuples,
    generate_group,
    identity,
    make_branching_type,
    parse_perm,
    tuple_from_entries,
    validate_tuple,
)


def as_pair(t: HurwitzTuple):
    """Production tuple -> the oracle's (handles, branches) representation."""
    return (t.handles, t.branches)


def from_pair(pair, d: int) -> HurwitzTuple:
    handles, branches = pair
    flat = [x for ab in handles for x in ab] + list(branches)
    return tuple_from_entries(d, len(handles), flat)


# ---------------------------------------------------------------------------
# construction and validation


def test_tuple_structure(s3):
    a, b = parse_perm("(1 2)", 3), parse_perm("(1 3)", 3)
    t = tuple_from_entries(3, 1, [a, b, a, a])
    assert t.base_genus == 1 and t.branch_count == 2
    assert t.handles == ((a, b),)
    assert t.branches == (a, a)
    assert t.entries == (a, b, a, a)


def test_tuple_fields_are_flat_entries_and_genus():
    assert [f.name for f in dataclasses.fields(HurwitzTuple)] == ["entries", "base_genus"]


def test_entries_round_trip(matrix, twisted):
    for G, g, n, bt in [(G, g, n, None) for G, g, n in matrix] + twisted:
        for t in enumerate_tuples(G, g, n, bt):
            assert tuple_from_entries(G.degree, g, t.entries) == t
            assert from_pair(as_pair(t), G.degree) == t
            assert tuple(x for ab in t.handles for x in ab) + t.branches == t.entries
            assert len(t.handles) == t.base_genus == g and t.branch_count == n


def test_tuple_entry_count_checked():
    a = parse_perm("(1 2)", 3)
    # at least one branch entry is required (n >= 1)
    with pytest.raises(DegreeMismatch):
        tuple_from_entries(3, 1, [a, a])
    with pytest.raises(DegreeMismatch):
        tuple_from_entries(3, 0, [])


def test_validate_good_tuple(s3):
    a = parse_perm("(1 2)", 3)
    b = parse_perm("(1 3)", 3)
    c = parse_perm("(1 2 3)", 3)
    # (1 2)(1 3) = (1 2 3) acts first-to-last, so product with c^-1 closes
    t = tuple_from_entries(3, 0, [a, b, parse_perm("(1 3 2)", 3)])
    r = validate_tuple(t, s3)
    assert r.relation_holds and r.no_trivial_branch
    assert r.generates_G and r.g_transitive
    assert r.is_valid


def test_validate_rejects_broken_relation(s3):
    a = parse_perm("(1 2)", 3)
    t = tuple_from_entries(3, 0, [a, a, a])
    r = validate_tuple(t, s3)
    assert not r.relation_holds and not r.is_valid


def test_validate_rejects_identity_branch(s3):
    a = parse_perm("(1 2)", 3)
    t = tuple_from_entries(3, 0, [a, a, identity(3), identity(3)])
    r = validate_tuple(t, s3)
    assert r.relation_holds and not r.no_trivial_branch and not r.is_valid


def test_validate_rejects_proper_subgroup(s3):
    a = parse_perm("(1 2)", 3)
    t = tuple_from_entries(3, 0, [a, a])
    r = validate_tuple(t, s3)
    assert r.relation_holds and r.no_trivial_branch
    assert not r.generates_G and not r.is_valid


def test_tuple_ordering(s3):
    ts = enumerate_tuples(s3, 0, 3)
    assert ts == sorted(ts)
    assert all(ts[i] < ts[i + 1] for i in range(len(ts) - 1))


def test_order_is_lexicographic_on_concatenated_entries(matrix, twisted):
    rng = random.Random(3)
    for G, g, n, bt in [(G, g, n, None) for G, g, n in matrix] + twisted:
        ts = enumerate_tuples(G, g, n, bt)
        rng.shuffle(ts)
        assert sorted(ts) == sorted(ts, key=lambda t: sum(t.entries, ()))


# ---------------------------------------------------------------------------
# enumeration against the brute-force oracle


CASES = [
    ("c2", o.C2_ON_2, 2, 0, 2),
    ("c2", o.C2_ON_2, 2, 0, 4),
    ("c2", o.C2_ON_2, 2, 1, 2),
    ("s3", o.S3_ON_3, 3, 0, 3),
    ("s3", o.S3_ON_3, 3, 0, 4),
    ("c3", o.C3_ON_3, 3, 0, 2),
    ("c3", o.C3_ON_3, 3, 0, 3),
    ("v4", o.V4_REGULAR, 4, 0, 3),
    ("v4", o.V4_REGULAR, 4, 0, 4),
]


@pytest.mark.parametrize("name,elems,d,g,n", CASES)
def test_enumeration_matches_oracle(name, elems, d, g, n, request):
    G = request.getfixturevalue(name)
    got = [as_pair(t) for t in enumerate_tuples(G, g, n)]
    expected = o.brute_force_tuples(elems, d, g, n)
    assert got == expected


def test_enumeration_matches_oracle_under_relabelling(matrix, twisted, s3):
    # relabelled points give other class minima and frames; the enumerator
    # must still list exactly the oracle's tuples, in its order
    rng = random.Random(5)
    swap, rot = parse_perm("(1 2)", 3), parse_perm("(1 2 3)", 3)
    s4 = generate_group([parse_perm("(1 2 3 4)", 4), parse_perm("(1 2)", 4)])
    cases = [(G, g, n, None) for G, g, n in matrix] + twisted + [
        (s3, 1, 2, None),
        (s3, 1, 2, make_branching_type(s3, [(swap, 2)])),
        (s3, 0, 4, make_branching_type(s3, [(swap, 2), (rot, 2)])),
        # 24 tuples of type [(1 2 3), (1 2 3 4), (1 2 3 4)] exist, so a solved last
        # entry in the class of the entry before it must fit the budget left after both
        (s4, 0, 3, make_branching_type(s4, [(parse_perm(e, 4), 1)
                                            for e in ("(1 2)", "(1 2 3)", "(1 2 3 4)")])),
    ]
    for G, g, n, bt in cases:
        phi = list(range(G.degree))
        rng.shuffle(phi)
        G2 = generate_group([o.o_conjugate(x, tuple(phi)) for x in G.generators])
        bt2 = None if bt is None else make_branching_type(
            G2, [(o.o_conjugate(rep, tuple(phi)), m) for rep, m in bt.entries])
        got = [as_pair(t) for t in enumerate_tuples(G2, g, n, bt2)]
        expected = [pair for pair in o.brute_force_tuples(G2.elements, G2.degree, g, n)
                    if bt2 is None or branching_type_of(from_pair(pair, G2.degree), G2) == bt2]
        assert got == expected and got


def test_enumeration_node_and_leaf_counts_are_pinned():
    a5 = generate_group([parse_perm("(1 2 3 4 5)", 5), parse_perm("(1 2 3)", 5)])
    s3 = generate_group([parse_perm("(1 2 3)", 3), parse_perm("(1 2)", 3)])
    s4 = generate_group([parse_perm("(1 2 3 4)", 4), parse_perm("(1 2)", 4)])
    def bt(*pairs):
        return make_branching_type(s4, [(parse_perm(e, 4), m) for e, m in pairs])
    # g0 n2 decides its one free slot at the root, by class minima; the last two
    # spend a class's budget before the last free slot.  Under the last type the
    # per-mask table also joins members whose solved last entry breaks the budget,
    # 113 joins where a candidate-by-candidate test made 57
    for G, g, n, f, counts in [(a5, 0, 3, None, (3540, 3481, 284)),
                               (s3, 1, 4, None, (5622, 4500, 20)),
                               (s4, 0, 4, None, (12719, 12167, 264)),
                               (s4, 0, 2, None, (23, 23, 6)),
                               (s4, 1, 2, bt(("(1 2 3)", 2)), (5208, 4608, 250)),
                               (s4, 0, 4, bt(("(1 2)", 2), ("(1 2 3)", 2)), (2226, 2016, 71)),
                               (s4, 0, 4, bt(("(1 2)", 1), ("(1 2 3)", 2), ("(1 2)(3 4)", 1)),
                                (2853, 2592, 113))]:
        stats = {}
        enumerate_tuples(generate_group(G.generators), g, n, f, stats=stats)
        assert (stats["nodes"], stats["leaves"], stats["join_memo"]) == counts


def test_enumeration_counts_nodes(s3):
    stats = {}
    enumerate_tuples(s3, 0, 3, stats=stats)
    # two free branch entries, each one of the five non-identity elements
    assert (stats["nodes"], stats["leaves"]) == (5 + 5 * 5, 5 * 5)
    assert stats["join_memo"] == len(s3.table.joins) > 0


def test_work_cap_trips(s3):
    with pytest.raises(WorkCapExceeded):
        enumerate_tuples(s3, 0, 4, work_cap=10)


def test_work_cap_bounds_visited_nodes(s3, c2):
    # the cap is exact: the visited node count itself passes, one less trips.
    # With handles the count exceeds the up-front bound |G|^(2g+n-1), so
    # the count alone decides.
    for G, g, n in [(s3, 1, 2), (c2, 1, 2)]:
        stats = {}
        expected = enumerate_tuples(G, g, n, stats=stats)
        nodes = stats["nodes"]
        assert enumerate_tuples(G, g, n, work_cap=nodes) == expected
        with pytest.raises(WorkCapExceeded):
            enumerate_tuples(G, g, n, work_cap=nodes - 1)


def test_work_cap_bounds_visited_nodes_under_a_type_filter(s3, c3):
    # the last free slot adds its candidates to the count at once; past the cap
    # it must still stop at the same candidate, with the tuples kept before it.
    # These types leave almost no class out, so the count exceeds the up-front
    # bound |G|^(2g+n-1).  On S4 g1 n2 under [(1 2 3), 2] (5,208 nodes against 24^3)
    # or on the ``twisted`` spaces the bound trips first, at the node count too
    for G, pairs, nodes, kept, trips in [
        (c3, [("(1 2 3)", 1), ("(1 3 2)", 1)], 30, 18, [(29, 17), (28, 16)]),
        (s3, [("(1 2)", 1), ("(1 2 3)", 1)], 222, 0, [(221, 0)]),
    ]:
        bt = make_branching_type(G, [(parse_perm(e, 3), m) for e, m in pairs])
        stats = {}
        expected = enumerate_tuples(G, 1, 2, bt, stats=stats)
        assert (len(expected), stats["nodes"]) == (kept, nodes)
        assert enumerate_tuples(G, 1, 2, bt, work_cap=nodes) == expected
        for cap, so_far in trips:
            with pytest.raises(WorkCapExceeded, match=rf"^enumeration: {cap + 1} visited nodes "
                                                      rf"exceed work cap {cap}; {so_far} tuples "
                                                      rf"kept so far$"):
                enumerate_tuples(G, 1, 2, bt, work_cap=cap)


def test_work_cap_errors_name_phase_and_progress(s3):
    # the up-front bound trips before any node; the node count trips mid-search
    with pytest.raises(WorkCapExceeded, match=r"^enumeration: the bound \|G\|\^\(2g\+n-1\) = "
                                              r"6\^3 exceeds work cap 10; no node visited$"):
        enumerate_tuples(s3, 0, 4, work_cap=10)
    stats = {}
    assert len(enumerate_tuples(s3, 1, 2, stats=stats)) == 132 and stats["nodes"] == 222
    with pytest.raises(WorkCapExceeded, match=r"^enumeration: 222 visited nodes exceed work cap "
                                              r"221; 132 tuples kept so far$"):
        enumerate_tuples(s3, 1, 2, work_cap=221)


def test_bad_arguments(s3):
    with pytest.raises(ValueError):
        enumerate_tuples(s3, -1, 3)
    with pytest.raises(ValueError):
        enumerate_tuples(s3, 0, 0)


def test_intransitive_group_yields_nothing():
    from hurwitz import generate_group

    G = generate_group([parse_perm("(1 2)", 4)])
    assert enumerate_tuples(G, 0, 2) == []


# ---------------------------------------------------------------------------
# branching types


def test_branching_type_of(s3):
    a = parse_perm("(1 2)", 3)
    t = tuple_from_entries(3, 0, [a, a, parse_perm("(1 3)", 3), parse_perm("(1 3)", 3)])
    bt = branching_type_of(t, s3)
    assert bt.size == 4
    ((rep, mult),) = bt.entries
    assert mult == 4 and rep == s3.class_of(a)


def test_make_branching_type_counts(s3):
    a = parse_perm("(1 2)", 3)
    c = parse_perm("(1 2 3)", 3)
    bt = make_branching_type(s3, [(a, 2), (c, 1)])
    assert bt.size == 3
    assert len(bt.entries) == 2


def test_make_branching_type_merges_same_class(s3):
    a = parse_perm("(1 2)", 3)
    b = parse_perm("(2 3)", 3)
    bt = make_branching_type(s3, [(a, 1), (b, 2)])
    ((rep, mult),) = bt.entries
    assert mult == 3


def test_type_filter_restricts_enumeration(s3):
    a = parse_perm("(1 2)", 3)
    bt = make_branching_type(s3, [(a, 4)])
    sub = enumerate_tuples(s3, 0, 4, bt)
    full = enumerate_tuples(s3, 0, 4)
    assert len(sub) == 24
    assert set(sub) <= set(full)
    assert all(branching_type_of(t, s3) == bt for t in sub)
    # types of several classes: no class may be used past its multiplicity
    s4 = generate_group([parse_perm("(1 2 3 4)", 4), parse_perm("(1 2)", 4)])
    for G, g, n, pairs in [
        (s3, 0, 4, [("(1 2)", 2), ("(1 2 3)", 2)]),
        (s3, 1, 3, [("(1 2)", 2), ("(1 2 3)", 1)]),
        (s4, 0, 4, [("(1 2)", 2), ("(1 2 3)", 1), ("(1 2)(3 4)", 1)]),
    ]:
        bt = make_branching_type(G, [(parse_perm(e, G.degree), m) for e, m in pairs])
        sub = enumerate_tuples(G, g, n, bt)
        assert sub
        assert sub == [t for t in enumerate_tuples(G, g, n) if branching_type_of(t, G) == bt]


def test_type_filter_of_wrong_size_is_empty(s3):
    # a type whose multiplicities do not sum to n matches no tuple; the
    # strict multiplicity check lives in job parsing
    a = parse_perm("(1 2)", 3)
    bt = make_branching_type(s3, [(a, 3)])
    assert enumerate_tuples(s3, 0, 4, bt) == []


def test_conjugate_branching_type(c3, s3):
    r = parse_perm("(1 2 3)", 3)
    bt = make_branching_type(c3, [(r, 3)])
    sigma = parse_perm("(2 3)", 3)  # normalizes C3, swaps the two rotation classes
    bt2 = conjugate_branching_type(bt, sigma, c3)
    ((rep2, mult2),) = bt2.entries
    assert mult2 == 3 and rep2 == parse_perm("(1 3 2)", 3)
    # conjugating by a group element fixes every class
    bt3 = conjugate_branching_type(bt, r, c3)
    assert bt3 == bt


def test_type_rejects_foreign_element(c3):
    with pytest.raises(DegreeMismatch):
        make_branching_type(c3, [(parse_perm("(1 2)", 3), 2)])
