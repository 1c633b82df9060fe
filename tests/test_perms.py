"""Permutation core: parsing, algebra, group generation, normalizer search."""

import math
import random

import pytest

import oracles as o
from hurwitz import perms
from hurwitz import (
    CycleSyntaxError,
    DegreeMismatch,
    HurwitzTuple,
    OrderCapExceeded,
    PermGroup,
    PointOutOfRange,
    RepeatedPoint,
    centralizer_in_sym,
    commutator,
    compose,
    compose_all,
    conjugate,
    cycle_type,
    cyclic_orbits,
    enumerate_tuples,
    format_perm,
    generate_group,
    generates,
    identity,
    inverse,
    normalizer_fixing_point,
    normalizer_in_sym,
    parse_perm,
    perm_order,
    relabel,
    subgroup_from_elements,
)


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_examples():
    assert parse_perm("(1 2 3)(4 5)", 5) == (1, 2, 0, 4, 3)
    assert parse_perm("id", 4) == (0, 1, 2, 3)
    assert parse_perm("()", 4) == (0, 1, 2, 3)
    assert parse_perm("(2 3)", 3) == (0, 2, 1)
    # separators: spaces or commas inside a cycle
    assert parse_perm("(1,2,3)", 3) == parse_perm("(1 2 3)", 3)


def test_format_examples():
    assert format_perm((1, 2, 0, 4, 3)) == "(1 2 3)(4 5)"
    assert format_perm((0, 1, 2)) == "()"
    # cycles emitted from their minimal point, in increasing order
    assert format_perm((0, 2, 1, 4, 3)) == "(2 3)(4 5)"


def test_parse_rejects_garbage():
    for bad in ["(1 2", "1 2)", "(a b)", "((1 2))", "(1 2)x", "", "( )"]:
        with pytest.raises(CycleSyntaxError):
            parse_perm(bad, 4)


def test_parse_rejects_out_of_range():
    with pytest.raises(PointOutOfRange):
        parse_perm("(1 5)", 4)
    with pytest.raises(PointOutOfRange):
        parse_perm("(0 1)", 4)


def test_parse_rejects_repeats():
    with pytest.raises(RepeatedPoint):
        parse_perm("(1 2 1)", 4)
    with pytest.raises(RepeatedPoint):
        parse_perm("(1 2)(2 3)", 4)


def test_parse_format_round_trip_random():
    rng = random.Random(7)
    for d in range(1, 8):
        for _ in range(40):
            img = list(range(d))
            rng.shuffle(img)
            p = tuple(img)
            assert parse_perm(format_perm(p), d) == p


# ---------------------------------------------------------------------------
# algebra against the oracle


def test_compose_is_left_to_right():
    p = parse_perm("(1 2)", 3)
    q = parse_perm("(2 3)", 3)
    # apply p first, then q
    assert format_perm(compose(p, q)) == "(1 3 2)"


def test_algebra_matches_oracle():
    rng = random.Random(11)
    for d in (2, 3, 5):
        pool = o.symmetric_elements(d)
        for _ in range(60):
            p, q, s = (rng.choice(pool) for _ in range(3))
            assert compose(p, q) == o.o_compose(p, q)
            assert inverse(p) == o.o_inverse(p)
            assert conjugate(p, s) == o.o_conjugate(p, s)
            assert commutator(p, q) == o.o_commutator(p, q)
            assert compose(p, inverse(p)) == identity(d)


def test_conjugation_worked_examples():
    s = parse_perm("(1 2)", 3)
    assert format_perm(conjugate(parse_perm("(1 3)", 3), s)) == "(2 3)"
    assert format_perm(conjugate(parse_perm("(1 2 3)", 3), s)) == "(1 3 2)"


def test_compose_all_order():
    ps = [parse_perm(t, 4) for t in ["(1 2)", "(2 3)", "(3 4)"]]
    acc = identity(4)
    for p in ps:
        acc = compose(acc, p)
    assert compose_all(ps, 4) == acc
    assert compose_all([], 3) == identity(3)


def test_compose_rejects_mixed_degrees():
    with pytest.raises(DegreeMismatch):
        compose((1, 0), (0, 1, 2))


def test_order_and_cycles():
    p = parse_perm("(1 2 3)(4 5)", 5)
    assert perm_order(p) == 6
    assert cycle_type(p) == (3, 2)
    assert cyclic_orbits(p) == ((0, 1, 2), (3, 4))
    assert cyclic_orbits(identity(3)) == ((0,), (1,), (2,))
    assert perm_order(identity(4)) == 1


# ---------------------------------------------------------------------------
# group generation


def test_generate_group_matches_oracle_closure(c2, s3, c3, v4):
    for G, elems in [
        (c2, o.C2_ON_2),
        (s3, o.S3_ON_3),
        (c3, o.C3_ON_3),
        (v4, o.V4_REGULAR),
    ]:
        assert set(G.elements) == set(elems)
        assert G.elements == tuple(sorted(elems))
        assert G.order == len(elems)


def test_generate_group_cap():
    gens = [parse_perm("(1 2)", 5), parse_perm("(1 2 3 4 5)", 5)]
    with pytest.raises(OrderCapExceeded):
        generate_group(gens, cap=10)
    assert generate_group(gens).order == 120


def test_generate_group_cap_error_names_phase_and_progress():
    gens = [parse_perm("(1 2)", 5), parse_perm("(1 2 3 4 5)", 5)]
    with pytest.raises(OrderCapExceeded,
                       match=r"^group closure: order exceeds cap 10; 10 elements found$"):
        generate_group(gens, cap=10)


def test_generates(s3, c3):
    r, t = parse_perm("(1 2 3)", 3), parse_perm("(1 2)", 3)
    assert generates(s3, [r, t]) and generates(s3, (t, r, t)) and generates(c3, [r])
    assert not generates(s3, [r]) and not generates(s3, [])
    # an entry outside the group is a plain False, not a cap error
    assert not generates(c3, [t, r])


def test_generation_memo_stays_small_on_a_large_group():
    # full product rows would hold |S7|^2 = 25,401,600 products
    r, t = parse_perm("(1 2 3 4 5 6 7)", 7), parse_perm("(1 2)", 7)
    s7 = generate_group([r, t])
    # nor would every Cayley row, which the enumerator reads apart from the memo
    assert enumerate_tuples(s7, 0, 2) == []
    assert len(s7.table.products) < 20 * s7.order
    assert generates(s7, [r, t])
    assert len(s7.table.products) < 20 * s7.order
    assert sum(map(len, s7.table.rows.values())) < 20 * s7.order


A5_GENS = ("(1 2 3 4 5)", "(1 2 3)")
S5_GENS = ("(1 2 3 4 5)", "(1 2)")
S4_GENS = ("(1 2 3 4)", "(1 2)")
S3_GENS = ("(1 2)", "(1 2 3)")


def _group(gens, degree):
    return generate_group([parse_perm(g, degree) for g in gens])


def _mask(table, members):
    return sum(1 << table.index[p] for p in members)


def _spanning(members):
    """A few of the members that generate the subgroup they form, chosen greedily."""
    gens, span = [], {members[0]}
    for p in members:
        if p not in span:
            gens.append(p)
            span = o.o_closure(gens)
    return gens


def test_join_memo_matches_closure_oracle():
    # every memoized join, closed or read from the memo of its pair of
    # subgroups, is the closure of the mask's members (a generating set of
    # them) and j; S3 g1 n4 joins along a walk with handle slots
    for G, g, n in ((_group(A5_GENS, 5), 0, 3), (_group(S4_GENS, 4), 0, 4),
                    (_group(S5_GENS, 5), 0, 3), (_group(S3_GENS, 3), 1, 4)):
        enumerate_tuples(G, g, n)
        table, spans = G.table, {}
        assert any(mask != 1 for mask, _ in table.joins)  # pair closures met
        for (mask, j), out in table.joins.items():
            if mask not in spans:
                spans[mask] = _spanning([p for k, p in enumerate(table.elements) if mask >> k & 1])
            assert out == _mask(table, o.o_closure(spans[mask] + [table.elements[j]])), (mask, j)


@pytest.fixture
def close_calls(monkeypatch):
    calls = []
    close = perms.ElementTable._close
    monkeypatch.setattr(perms.ElementTable, "_close",
                        lambda self, mask, j: calls.append(j) or close(self, mask, j))
    return calls


def test_join_of_two_cyclic_subgroups_closes_once(close_calls):
    table = _group(S4_GENS, 4).table
    r, t = table.index[parse_perm("(1 2 3 4)", 4)], table.index[parse_perm("(1 3)", 4)]
    cr, ct = table.join(1, r), table.join(1, t)
    assert len(close_calls) == 2
    # <(1 2 3 4), (1 3)> is the dihedral group of order 8, from either side
    d8 = _mask(table, o.o_closure([table.elements[r], table.elements[t]]))
    assert table.join(cr, t) == d8 and len(close_calls) == 3
    assert table.join(ct, r) == d8 and len(close_calls) == 3
    # another generator of <(1 2 3 4)> reaches the same pair
    assert table.join(ct, table.inverses[r]) == d8 and len(close_calls) == 3


def test_join_closures_per_enumeration(close_calls):
    # one closure per unordered pair of subgroups, reached through <j>, with
    # the first entry joined as its class minimum; closing per (subgroup,
    # element) pair took 1,801 and 7,756, and in the first entry's own
    # frame 496 and 2,211
    for gens, count, bound in ((A5_GENS, 2280, 160), (S5_GENS, 6840, 480)):
        close_calls.clear()
        assert len(enumerate_tuples(_group(gens, 5), 0, 3)) == count
        assert 0 < len(close_calls) <= bound


def test_element_table_indices(s3):
    table = s3.table
    assert table is s3.table
    assert table.elements[0] == identity(3)
    assert all(table.index[p] == j for j, p in enumerate(s3.elements))
    r = table.index[parse_perm("(1 2 3)", 3)]
    c3_mask = table.join(1, r)
    assert [j for j in range(6) if c3_mask >> j & 1] == sorted(
        table.index[p] for p in o.o_closure([parse_perm("(1 2 3)", 3)]))
    assert table.join(c3_mask, table.index[parse_perm("(1 2)", 3)]) == table.full


def test_element_table_per_element_data(c2, s3, c3, v4):
    a5 = generate_group([parse_perm("(1 2 3 4 5)", 5), parse_perm("(1 2 3)", 5)])
    for G in (c2, s3, c3, v4, a5):
        table = G.table
        elems = table.elements
        for j, p in enumerate(elems):
            assert table.cycle_types[j] == tuple(o.o_ram_partition(p))
            assert table.orders[j] == perm_order(p)
            assert elems[table.inverses[j]] == o.o_inverse(p)
            assert table.strings[j] == format_perm(p)
            assert parse_perm(table.strings[j], G.degree) == p
            # class index: the index of the minimal conjugate
            assert elems[table.classes[j]] == min(o.o_conjugate(p, h) for h in elems)
        for s in o.o_normalizer(elems, G.degree):
            assert [elems[y] for y in table.conjugation(s)] == [
                o.o_conjugate(p, s) for p in elems]
        for x, s in [(x, s) for x in range(len(elems)) for s in range(len(elems))][::7]:
            assert elems[table.mul(x, s)] == o.o_compose(elems[x], elems[s])
            # one memo: the product is stored under the key that _close reads
            assert table.products[x * len(elems) + s] == table.mul(x, s)
        assert table.cycle_types is table.cycle_types  # built once
        assert table.classes is table.classes
        assert len(table.products) <= len(elems) ** 2


def test_cayley_rows_and_frames(c2, s3, c3, v4):
    a5 = _group(A5_GENS, 5)
    # a group whose generators are all its members: every row is composed
    d8 = subgroup_from_elements(
        4, o.o_closure([parse_perm("(1 2 3 4)", 4), parse_perm("(1 3)", 4)]))
    for G in (c2, s3, c3, v4, a5, d8):
        table = G.table
        elems, n = table.elements, len(table.elements)
        for x in range(n):
            assert table.row(x) == [table.mul(x, s) for s in range(n)]
            assert table.row(x) is table.row(x)  # built once
        for a in range(n):
            assert conjugate(elems[table.classes[a]], elems[table.frames[a]]) == elems[a]
            if table.classes[a] == a:
                assert table.frames[a] == 0  # a class minimum's frame is the identity


def rebuilt_table_groups():
    """Groups beyond the fixtures: S5, the regular C2^3 of degree 8, C9 (one
    generator, so its breadth-first tree is one cycle), S4 relabelled by a
    seeded point shuffle, and S4 from a generator list that holds the
    identity and a repeated element."""
    s4 = [parse_perm(g, 4) for g in S4_GENS]
    phi = list(range(4))
    random.Random(4).shuffle(phi)
    return [_group(S5_GENS, 5),
            generate_group([tuple(x ^ bit for x in range(8)) for bit in (1, 2, 4)]),
            _group(["(1 2 3 4 5 6 7 8 9)"], 9),
            generate_group([o.o_conjugate(g, tuple(phi)) for g in s4]),
            generate_group([identity(4), s4[0], s4[1], s4[0]])]


def test_classes_frames_and_conjugation_maps_match_oracles():
    for G in rebuilt_table_groups():
        table = G.table
        elems, lam = table.elements, G.marked_point
        for a, p in enumerate(elems):
            a0 = table.classes[a]
            assert elems[a0] == min(o.o_conjugate(p, h) for h in elems)
            # the frame conjugates the class minimum to a; a minimum's is the identity
            assert o.o_conjugate(elems[a0], elems[table.frames[a]]) == p
            assert table.frames[a] == 0 or a0 != a
        # N(lam0) and T, the minimal element of G moving lam0 to each point
        T = [min(h for h in elems if h[lam] == mu) for mu in range(G.degree)]
        for s in list(normalizer_fixing_point(G)) + T:
            assert [elems[y] for y in table.conjugation(s)] == [
                o.o_conjugate(p, s) for p in elems]


def test_conjugation_by_a_non_normalizing_element_raises():
    # no partial map: the KeyError comes from a generator's conjugate
    c4 = _group(["(1 2 3 4)"], 4)
    with pytest.raises(KeyError):
        c4.table.conjugation(parse_perm("(1 2)", 4))
    # (3 5) keeps the first generator (1 2) in G and moves (3 4) out of it
    G = _group(["(1 2)", "(3 4)"], 5)
    assert o.o_conjugate(G.generators[0], parse_perm("(3 5)", 5)) in G
    with pytest.raises(KeyError):
        G.table.conjugation(parse_perm("(3 5)", 5))


def test_group_membership_and_iteration(s3):
    assert parse_perm("(1 3)", 3) in s3
    assert (0, 1) not in s3
    assert len(list(iter(s3))) == 6
    assert len(s3) == 6


def test_trivial_group():
    G = generate_group([], degree=3)
    assert G.order == 1 and G.elements == (identity(3),)


def test_conjugacy_classes(s3, c3, v4):
    sizes = sorted(len(c.members) for c in s3.conjugacy_classes())
    assert sizes == [1, 2, 3]
    # abelian: singleton classes
    assert all(len(c.members) == 1 for c in c3.conjugacy_classes())
    assert len(v4.conjugacy_classes()) == 4
    # representative is the minimal member
    for c in s3.conjugacy_classes():
        assert c.representative == min(c.members)


def test_class_of(s3):
    # canonical representative = minimal member of the class
    transpositions = [parse_perm(t, 3) for t in ["(1 2)", "(1 3)", "(2 3)"]]
    rep = min(transpositions)
    assert all(s3.class_of(p) == rep for p in transpositions)
    with pytest.raises(DegreeMismatch):
        s3.class_of(parse_perm("(1 2)", 4))


def test_point_stabilizer_matches_oracle(s3, v4):
    for G, elems in [(s3, o.S3_ON_3), (v4, o.V4_REGULAR)]:
        for lam in range(G.degree):
            assert set(G.point_stabilizer(lam)) == set(
                o.o_point_stabilizer(elems, lam)
            )


def test_transitivity(s3):
    assert s3.is_transitive()
    H = subgroup_from_elements(3, [identity(3), parse_perm("(1 2)", 3)])
    assert not H.is_transitive()


# ---------------------------------------------------------------------------
# normalizer and centralizer in the ambient symmetric group


def _oracle_cases(c2, s3, c3, v4):
    extra = [
        # fixed points and descents g[j] < j, where the search checks s[j]
        # only after s[g[j]]: an intransitive group and a transitive C4
        generate_group([parse_perm("(1 4 3)", 4)]),
        generate_group([parse_perm("(1 3 2 4)", 4)]),
        generate_group([parse_perm("(1 2 3 4 5)", 5), parse_perm("(1 2 3)", 5)]),
        generate_group([], degree=3),
    ]
    return [
        (c2, o.C2_ON_2),
        (s3, o.S3_ON_3),
        (c3, o.C3_ON_3),
        (v4, o.V4_REGULAR),
    ] + [(G, o.o_closure(G.generators)) for G in extra]


def test_normalizer_matches_oracle(c2, s3, c3, v4):
    for G, elems in _oracle_cases(c2, s3, c3, v4):
        expected = sorted(o.o_normalizer(elems, G.degree))
        assert normalizer_in_sym(G).elements == tuple(expected)
        for lam in range(G.degree):
            assert normalizer_fixing_point(G, lam).elements == tuple(
                o.o_point_stabilizer(expected, lam)
            )


def test_centralizer_matches_oracle(c2, s3, c3, v4):
    for G, elems in _oracle_cases(c2, s3, c3, v4):
        expected = sorted(o.o_centralizer(elems, G.degree))
        assert centralizer_in_sym(G).elements == tuple(expected)


def test_sym_scan_orders(c2, s3, c3, v4):
    # |N|, |N(lam0)|, |Z| for the four groups, long since hand-checked
    table = {
        2: (c2, 2, 1, 2),
        3: (s3, 6, 2, 1),
        None: (c3, 6, 2, 3),
        4: (v4, 24, 6, 4),
    }
    for G, n_full, n_fixed, z in [table[2], table[3], table[None], table[4]]:
        assert normalizer_in_sym(G).order == n_full
        assert normalizer_fixing_point(G).order == n_fixed
        assert centralizer_in_sym(G).order == z


def test_normalizer_fixing_point_fixes(s3):
    N = normalizer_fixing_point(s3, 1)
    assert all(p[1] == 1 for p in N.elements)


@pytest.mark.parametrize("n", [11, 12])
def test_cyclic_normalizer_above_degree_ten(n):
    # N_Sym(C_n) is the holomorph C_n : Aut(C_n), of order n * phi(n)
    G = generate_group([tuple((i + 1) % n for i in range(n))])
    N = normalizer_in_sym(G)
    phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    assert N.order == n * phi
    assert all(conjugate(g, s) in G for s in N for g in G.generators)
    assert centralizer_in_sym(G).elements == G.elements


def test_normalizer_order_cap(monkeypatch):
    # N = S_2 x S_10 has 7,257,600 elements
    monkeypatch.setattr(perms, "DEFAULT_ORDER_CAP", 1000)
    G = subgroup_from_elements(12, [identity(12), parse_perm("(1 2)", 12)])
    with pytest.raises(OrderCapExceeded):
        normalizer_in_sym(G)
    with pytest.raises(OrderCapExceeded):
        centralizer_in_sym(G)


def test_normalizer_cap_error_names_phase_and_progress(monkeypatch):
    # N(0) = S_10 comes first and |N| >= 2 |N(0)|, so element 501 trips cap 1000
    monkeypatch.setattr(perms, "DEFAULT_ORDER_CAP", 1000)
    G = subgroup_from_elements(12, [identity(12), parse_perm("(1 2)", 12)])
    with pytest.raises(OrderCapExceeded,
                       match=r"^normalizer search: order exceeds cap 1000; 501 elements found$"):
        normalizer_in_sym(G)


def _relabel_cases(c2, s3, c3, v4):
    def gen(d, *cycles):
        return generate_group([parse_perm(c, d) for c in cycles])
    return [
        c2, s3, c3, v4,
        gen(9, "(1 2 3 4 5 6 7 8 9)"),
        gen(5, "(1 2 3 4 5)", "(1 2 3)"),
        gen(4, "(1 2 3 4)", "(1 2)"),
        # D4 on 4 points and PGL(2,5) on 6, drawn at random: a search that skips
        # a generator's fixed points, or the check s[g[p]] when s[g^-1[p]] is set, keeps
        # extra leaves here
        gen(4, "(1 2)", "(1 3)(2 4)"),
        gen(6, "(1 5 3 4)", "(1 6)(2 5)"),
        # intransitive: the search runs orbit after orbit, and N(lam) is not N(0) moved by G
        gen(4, "(1 2)"),
        gen(5, "(1 2)"),
        gen(4, "(1 2)", "(3 4)"),
        gen(5, "(1 2)", "(3 4)"),
        gen(6, "(2 5)(4 6)", "(1 3)(2 5)(4 6)"),
    ]


def test_normalizer_searches_commute_with_relabelling(c2, s3, c3, v4):
    # phi relabels G as phi G phi^-1 and the point lam as lam . phi^-1: the
    # searches must give phi N phi^-1 and phi N(lam) phi^-1, whatever order
    # the new labels give the points
    rng = random.Random(2026)
    for G in _relabel_cases(c2, s3, c3, v4):
        d = G.degree
        full = normalizer_in_sym(G)
        fixed = [normalizer_fixing_point(G, lam) for lam in range(d)]
        for _ in range(4):
            phi = tuple(rng.sample(range(d), d))
            _, H = relabel(HurwitzTuple(G.generators, 0), phi, G)

            def moved(K):
                return tuple(sorted(conjugate(s, phi) for s in K))

            assert normalizer_in_sym(H).elements == moved(full)
            for lam in range(d):
                assert normalizer_fixing_point(H, inverse(phi)[lam]).elements == moved(fixed[lam])
            if d <= 6:
                expected = sorted(o.o_normalizer(H.elements, d))
                assert normalizer_in_sym(H).elements == tuple(expected)
                for lam in range(d):
                    assert normalizer_fixing_point(H, lam).elements == tuple(
                        o.o_point_stabilizer(expected, lam))


def test_fixed_normalizer_search_cap(monkeypatch):
    # regular C2^3: |N(0)| = 168 and |0^G| = 8, so the cap bounds 168 * 8 = |N_Sym(G)| = 1344
    gens = [parse_perm(c, 8) for c in
            ("(1 2)(3 4)(5 6)(7 8)", "(1 3)(2 4)(5 7)(6 8)", "(1 5)(2 6)(3 7)(4 8)")]
    monkeypatch.setattr(perms, "DEFAULT_ORDER_CAP", 1343)
    with pytest.raises(OrderCapExceeded,
                       match=r"^normalizer search: order exceeds cap 1343; 168 elements found$"):
        normalizer_fixing_point(generate_group(gens))
    monkeypatch.setattr(perms, "DEFAULT_ORDER_CAP", 1344)
    assert normalizer_fixing_point(generate_group(gens)).order == 168
    # intransitive <(1 2)> on 12 points: |0^G| = 2 but |5^G| = 1, so N(5) = S_2 x S_9
    # runs to element 1001 under cap 1000, N(0) = S_10 only to element 501
    monkeypatch.setattr(perms, "DEFAULT_ORDER_CAP", 1000)
    G = subgroup_from_elements(12, [identity(12), parse_perm("(1 2)", 12)])
    for lam, found in [(0, 501), (5, 1001)]:
        with pytest.raises(OrderCapExceeded,
                           match=rf"^normalizer search: order exceeds cap 1000; {found} elements found$"):
            normalizer_fixing_point(G, lam)


def test_with_marked_point(s3):
    G1 = s3.with_marked_point(2)
    assert G1.marked_point == 2
    assert G1.elements == s3.elements
    assert s3.marked_point == 0
    # the memo is shared: the table is built once, and N(2) is searched once
    assert G1.table is s3.table
    assert normalizer_fixing_point(G1) is normalizer_fixing_point(s3, 2)
