"""Action models, ramification, Riemann-Hurwitz genus, cover reports."""

import dataclasses

import pytest

import oracles as o
from oracles import nu_fiber, regular_model
from hurwitz import (
    CoverReport,
    DegreeMismatch,
    DisconnectedCover,
    DomainSizeMismatch,
    HurwitzTuple,
    InternalInvariantViolation,
    NotASubgroup,
    ParityViolation,
    actions_isomorphic,
    classify_space,
    conjugate_tuple,
    coset_model,
    cover_report,
    cycle_type,
    cycle_type_multiset,
    enumerate_tuples,
    fiber_genus,
    identity,
    inverse,
    natural_model,
    normalizer_in_sym,
    parse_perm,
    perm_order,
    ramification_profile,
    subgroup_from_elements,
    tuple_from_entries,
    universal_fiber_report,
)
from hurwitz.classify import _row_action


# ---------------------------------------------------------------------------
# ramification profiles


def test_profile_examples(c2, s3, v4):
    t = enumerate_tuples(c2, 0, 2)[0]
    assert ramification_profile(t) == ((2,), (2,))
    a = parse_perm("(1 2)", 3)
    b = parse_perm("(2 3)", 3)
    t = tuple_from_entries(3, 0, [a, b, parse_perm("(1 2 3)", 3)])
    assert ramification_profile(t) == ((2, 1), (2, 1), (3,))
    t = enumerate_tuples(v4, 0, 3)[0]
    assert ramification_profile(t) == ((2, 2), (2, 2), (2, 2))


def test_profiles_sum_to_degree(matrix):
    for G, g, n in matrix:
        for t in enumerate_tuples(G, g, n)[:8]:
            profiles = ramification_profile(t)
            assert len(profiles) == n
            assert all(sum(p) == G.degree for p in profiles)
            assert all(tuple(p) == tuple(sorted(p, reverse=True)) for p in profiles)
            # all branch entries really ramify (no trivial local monodromy)
            assert all(max(p) > 1 for p in profiles)


def test_profile_matches_oracle(s3, v4):
    for G in (s3, v4):
        for t in enumerate_tuples(G, 0, 3)[:6]:
            got = ramification_profile(t)
            assert [list(p) for p in got] == [
                o.o_ram_partition(g) for g in t.branches
            ]


# ---------------------------------------------------------------------------
# genus


GENUS = {
    # (fixture, g, n, type restriction) -> (induced, galois)
    ("c2", 0, 2): (0, 0),
    ("c2", 0, 4): (1, 1),
    ("c2", 0, 6): (2, 2),
    ("c2", 1, 2): (2, 2),
    ("s3", 0, 3): (0, 0),
    ("c3", 0, 2): (0, 0),
    ("c3", 0, 3): (1, 1),
    ("v4", 0, 3): (0, 0),
    ("v4", 0, 4): (1, 1),
}


@pytest.mark.parametrize("name,g,n", sorted(GENUS))
def test_genus_frozen(name, g, n, request):
    G = request.getfixturevalue(name)
    for c in classify_space(G, g, n).pointed:
        t = c.canonical
        assert fiber_genus(t, G, "induced") == GENUS[(name, g, n)][0]
        assert fiber_genus(t, G, "galois") == GENUS[(name, g, n)][1]


def test_genus_s3_transpositions(s3):
    from hurwitz import make_branching_type

    bt = make_branching_type(s3, [(parse_perm("(1 2)", 3), 4)])
    for c in classify_space(s3, 0, 4, bt).pointed:
        assert fiber_genus(c.canonical, s3, "induced") == 0
        assert fiber_genus(c.canonical, s3, "galois") == 1


def test_genus_matches_oracle(matrix, twisted):
    # every tuple: the galois genus comes from element orders, the oracle
    # walks the full regular action
    spaces = [(G, g, n, None) for G, g, n in matrix] + twisted
    for G, g, n, bt in spaces:
        for t in enumerate_tuples(G, g, n, bt):
            nat = natural_model(t)
            expected = o.o_genus(nat.branch_actions, nat.domain_size, g)
            assert fiber_genus(t, G, "induced") == expected
            reg = regular_model(t, G)
            expected = o.o_genus(reg.branch_actions, reg.domain_size, g)
            assert fiber_genus(t, G, "galois") == expected


def test_galois_refused_when_entries_generate_a_proper_subgroup(s3):
    # three 3-cycles: transitive on the points (induced genus 1), but they
    # generate only C3, so the regular action of S3 has two orbits
    r = parse_perm("(1 2 3)", 3)
    t = tuple_from_entries(3, 0, [r, r, r])
    assert fiber_genus(t, s3, "induced") == 1
    assert not regular_model(t, s3).is_connected()
    with pytest.raises(DisconnectedCover):
        fiber_genus(t, s3, "galois")
    with pytest.raises(DisconnectedCover):
        cover_report(t, s3)


def test_galois_refused_when_an_entry_lies_outside_the_group(c3):
    # (1 2) is not in C3; the refusal must not depend on closing S3 under C3's cap
    t = tuple_from_entries(3, 0, [parse_perm(s, 3) for s in ("(1 2)", "(1 2 3)", "(1 3)")])
    with pytest.raises(DisconnectedCover):
        fiber_genus(t, c3, "galois")
    with pytest.raises(DisconnectedCover):
        cover_report(t, c3)


def test_disconnected_refused():
    G = subgroup_from_elements(4, [identity(4), parse_perm("(1 2)", 4)])
    a = parse_perm("(1 2)", 4)
    t = tuple_from_entries(4, 0, [a, a])
    with pytest.raises(DisconnectedCover):
        fiber_genus(t, G, "induced")
    with pytest.raises(DisconnectedCover):
        cover_report(t, G)


def test_parity_violation():
    # a single 3-cycle is transitive on 3 points but breaks the relation;
    # Riemann-Hurwitz leaves a negative genus, which is refused
    from hurwitz import generate_group

    C3 = generate_group([parse_perm("(1 2 3)", 3)])
    t = tuple_from_entries(3, 0, [parse_perm("(1 2 3)", 3)])
    with pytest.raises(ParityViolation):
        fiber_genus(t, C3, "induced")
    with pytest.raises(ParityViolation):
        cover_report(t, C3)


def test_cover_report_refuses_in_fiber_genus_order(s3):
    # one 3-cycle generates only C3 < S3, but the induced model's parity
    # refusal comes before the Galois model's disconnection
    t = tuple_from_entries(3, 0, [parse_perm("(1 2 3)", 3)])
    with pytest.raises(ParityViolation):
        fiber_genus(t, s3, "induced")
    with pytest.raises(ParityViolation):
        cover_report(t, s3)


# ---------------------------------------------------------------------------
# action models


def test_natural_model(s3):
    t = enumerate_tuples(s3, 0, 3)[0]
    m = natural_model(t)
    assert m.domain_size == 3
    assert m.actions == t.entries
    assert m.is_connected()


def test_regular_model_properties(s3, v4):
    for G in (s3, v4):
        t = enumerate_tuples(G, 0, 3)[0]
        reg = regular_model(t, G)
        assert reg.domain_size == G.order
        assert reg.is_connected()
        # galois consistency: the profile over branch j is [e, e, ..., e]
        for g_entry, act in zip(t.branches, reg.branch_actions):
            e = perm_order(g_entry)
            assert o.o_ram_partition(act) == [e] * (G.order // e)


def test_regular_model_deck_action_free_transitive(s3, c3, v4):
    # the centralizer of the image of the regular action is the deck
    # group: it acts freely and transitively on the fiber (the domain)
    for G in (c3, v4, s3):
        t = enumerate_tuples(G, 0, 3)[0]
        reg = regular_model(t, G)
        deck = o.o_centralizer(list(set(reg.actions)), reg.domain_size)
        assert len(deck) == G.order
        ident = tuple(range(reg.domain_size))
        for s in deck:
            if s != ident:
                assert all(s[x] != x for x in range(reg.domain_size))
        assert {s[0] for s in deck} == set(range(reg.domain_size))


def test_coset_model_extremes(s3):
    t = enumerate_tuples(s3, 0, 3)[0]
    # H = G: one-point domain, all entries trivial
    full = coset_model(t, s3, s3)
    assert full.domain_size == 1
    assert all(a == (0,) for a in full.actions)
    # H = {1}: the regular model
    triv = subgroup_from_elements(3, [identity(3)])
    reg_via_cosets = coset_model(t, s3, triv)
    reg = regular_model(t, s3)
    assert reg_via_cosets.domain_size == reg.domain_size == 6
    assert actions_isomorphic(reg_via_cosets, reg) is not None


def test_coset_model_rejects_non_subgroup(c3):
    t = enumerate_tuples(c3, 0, 2)[0]
    H = subgroup_from_elements(3, [identity(3), parse_perm("(1 2)", 3)])
    with pytest.raises(NotASubgroup):
        coset_model(t, c3, H)


def test_coset_model_rejects_a_subset_that_is_not_closed(s3):
    # {(), (1 2), (1 3)} lies in S3 but (1 2)(1 3) does not lie in it
    t = enumerate_tuples(s3, 0, 3)[0]
    H = subgroup_from_elements(3, [identity(3), parse_perm("(1 2)", 3), parse_perm("(1 3)", 3)])
    with pytest.raises(NotASubgroup):
        coset_model(t, s3, H)
    with pytest.raises(NotASubgroup):
        fiber_genus(t, s3, "coset", H)


def test_coset_vs_natural_isomorphism(matrix):
    for G, g, n in matrix:
        H = subgroup_from_elements(G.degree, G.point_stabilizer(0))
        for t in enumerate_tuples(G, g, n)[:6]:
            A = natural_model(t)
            B = coset_model(t, G, H)
            w = actions_isomorphic(A, B)
            assert w is not None
            # the witness really intertwines every pair of actions
            for pa, pb in zip(A.actions, B.actions):
                for x in range(A.domain_size):
                    assert w[pa[x]] == pb[w[x]]


def test_actions_isomorphic_identity(s3):
    t = enumerate_tuples(s3, 0, 3)[0]
    A = natural_model(t)
    assert actions_isomorphic(A, A) == tuple(range(3))


def test_actions_isomorphic_negative(s3):
    ts = enumerate_tuples(s3, 0, 4)
    # pick two tuples with different cycle structures: no intertwiner
    a = next(t for t in ts if ramification_profile(t)[0] == (2, 1))
    b = next(t for t in ts if ramification_profile(t)[0] == (3,))
    assert actions_isomorphic(natural_model(a), natural_model(b)) is None


def test_actions_isomorphic_errors(s3, c2):
    t3 = enumerate_tuples(s3, 0, 3)[0]
    t2 = enumerate_tuples(c2, 0, 2)[0]
    with pytest.raises(DomainSizeMismatch):
        actions_isomorphic(natural_model(t3), regular_model(t3, s3))
    with pytest.raises(DegreeMismatch):
        actions_isomorphic(natural_model(t3), natural_model(t2))


# ---------------------------------------------------------------------------
# consolidated reports


def test_cover_report_fields(s3):
    from hurwitz import make_branching_type

    bt = make_branching_type(s3, [(parse_perm("(1 2)", 3), 4)])
    t = classify_space(s3, 0, 4, bt).pointed[0].canonical
    rep = cover_report(t, s3)
    assert rep.degree == 3
    assert rep.base_genus == 0
    assert rep.profiles == ((2, 1),) * 4
    assert rep.ramification_point_counts == (2, 2, 2, 2)
    assert rep.branching_type == (((2, 1), 4),)
    assert rep.genus == 0
    assert rep.galois_genus == 1


def test_cover_report_equals_perm_level_report(matrix, twisted, s3, c2):
    # cover_report reads the group's element tables; the reference below
    # walks the cycles of every entry
    spaces = [(G, g, n, None) for G, g, n in matrix] + twisted
    spaces += [(s3, 1, 2, None), (c2, 1, 2, None)]
    for G, g, n, bt in spaces:
        for t in enumerate_tuples(G, g, n, bt):
            profiles = ramification_profile(t)
            assert cover_report(t, G) == CoverReport(
                degree=t.degree,
                base_genus=g,
                profiles=profiles,
                ramification_point_counts=tuple(len(p) for p in profiles),
                branching_type=cycle_type_multiset(t),
                genus=fiber_genus(t, G, "induced"),
                galois_genus=fiber_genus(t, G, "galois"),
            ), (G, g, n, t)


def test_cycle_type_multiset_invariant_under_normalizer(matrix):
    for G, g, n in matrix:
        N = normalizer_in_sym(G)
        for t in enumerate_tuples(G, g, n)[:4]:
            base = cycle_type_multiset(t)
            for s in N.elements:
                assert cycle_type_multiset(conjugate_tuple(t, s)) == base


def test_universal_report_well_defined_on_full_fiber(matrix):
    # stronger than the production spot check: every fiber member agrees
    for G, g, n in matrix:
        cls = classify_space(G, g, n)
        for k, c in enumerate(cls.pointed):
            rep = universal_fiber_report(cls, k)
            for member in nu_fiber(c, G):
                assert cover_report(member, G) == rep


def test_universal_report_checks_a_second_member(s3, monkeypatch):
    # the second member is checked as an index row through the per-row report
    import hurwitz.covers as covers

    cls = classify_space(s3, 0, 4)
    c = cls.pointed[0]
    elems = s3.table.elements
    honest = covers._row_report
    calls = []

    def lying(G, g, row):
        calls.append(HurwitzTuple(tuple(elems[j] for j in row), g))
        rep = honest(G, g, row)
        return rep if calls[-1] == c.canonical else dataclasses.replace(rep, genus=rep.genus + 1)

    monkeypatch.setattr(covers, "_row_report", lying)
    with pytest.raises(InternalInvariantViolation):
        universal_fiber_report(cls, 0)
    assert len(calls) == 2 and calls[0] == c.canonical and calls[1] in nu_fiber(c, s3)


def test_universal_report_checks_that_the_second_member_generates(s3, monkeypatch):
    # a map that sends each element to the least one of its cycle type keeps
    # every profile, but four copies of one transposition do not generate S3;
    # nor may the canonical row itself fail to generate
    cls = classify_space(s3, 0, 4)
    k = next(k for k, c in enumerate(cls.pointed)
             if all(cycle_type(e) == (2, 1) for e in c.canonical.entries))
    table = s3.table
    universal_fiber_report(cls, k)
    fake = [table.index[min(p for p in table.elements if cycle_type(p) == ct)]
            for ct in table.cycle_types]
    bad = dataclasses.replace(cls, canonicals=(tuple(fake[j] for j in cls.canonicals[k]),))
    with pytest.raises(DisconnectedCover):
        universal_fiber_report(bad, 0)
    # the second member is read from column 1 of the row action's images
    action = _row_action(s3, s3.marked_point)
    monkeypatch.setattr(action, "images", [(col[0], fake[e], *col[2:])
                                           for e, col in enumerate(action.images)])
    with pytest.raises(InternalInvariantViolation):
        universal_fiber_report(cls, k)


def test_report_memo_keeps_refusals_and_genera(s3, c3):
    # one report per (base genus, branch cycle types); the memo is read only
    # after the refusal path
    a, b = parse_perm("(1 2)", 3), parse_perm("(1 3)", 3)
    assert cover_report(tuple_from_entries(3, 0, [a, a, b, b]), s3).genus == 0
    with pytest.raises(DisconnectedCover):
        cover_report(tuple_from_entries(3, 0, [a, a, a, a]), s3)
    r, e = parse_perm("(1 2 3)", 3), identity(3)
    g0 = cover_report(tuple_from_entries(3, 0, [r, inverse(r)]), c3)
    g1 = cover_report(tuple_from_entries(3, 1, [e, e, r, inverse(r)]), c3)
    assert g0.profiles == g1.profiles
    assert (g0.base_genus, g0.genus) == (0, 0)
    assert (g1.base_genus, g1.genus) == (1, 3)


def test_universal_report_c3_twisted_type(c3):
    # the class whose two tuples have swapped rotation classes: the report
    # must still agree because it records cycle types, not class labels
    cls = classify_space(c3, 0, 3)
    assert len(cls.pointed) == 1
    rep = universal_fiber_report(cls, 0)
    assert rep.genus == 1 and rep.galois_genus == 1
    assert rep.branching_type == (((3,), 3),)
