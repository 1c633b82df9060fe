"""Property-based invariants over random permutations, tuples and moves."""

from hypothesis import given, settings, strategies as st

import oracles as o

from hurwitz import (
    are_pointed_equivalent,
    branching_type_of,
    compose,
    conjugate,
    conjugate_branching_type,
    conjugate_tuple,
    cycle_type,
    enumerate_tuples,
    format_perm,
    generate_group,
    generates,
    hurwitz_move,
    identity,
    inverse,
    normalizer_fixing_point,
    normalizer_in_sym,
    parse_perm,
    perm_order,
    pointed_class,
    relabel,
    unpointed_class,
    validate_tuple,
)

# prebuilt groups and tuple pools so the strategies stay cheap
C2 = generate_group([parse_perm("(1 2)", 2)])
S3 = generate_group([parse_perm("(1 2)", 3), parse_perm("(1 2 3)", 3)])
C3 = generate_group([parse_perm("(1 2 3)", 3)])
V4 = generate_group([parse_perm("(1 2)(3 4)", 4), parse_perm("(1 3)(2 4)", 4)])
S4 = generate_group([parse_perm("(1 2)", 4), parse_perm("(1 2 3 4)", 4)])
A5 = generate_group([parse_perm("(1 2 3)", 5), parse_perm("(1 2 3 4 5)", 5)])

POOLS = [
    (G, g, n, enumerate_tuples(G, g, n))
    for G, g, n in [
        (C2, 0, 4), (C2, 1, 2),
        (S3, 0, 3), (S3, 0, 4),
        (C3, 0, 3),
        (V4, 0, 3), (V4, 0, 4),
    ]
]

SPACES = st.sampled_from(POOLS)


def perms(d: int):
    return st.permutations(range(d)).map(tuple)


@st.composite
def perm_triples(draw):
    d = draw(st.integers(min_value=1, max_value=6))
    return tuple(draw(perms(d)) for _ in range(3))


@st.composite
def space_tuples(draw):
    G, g, n, pool = draw(SPACES)
    t = draw(st.sampled_from(pool))
    return G, t


# ---------------------------------------------------------------------------
# permutation algebra


@given(perm_triples())
def test_compose_associative(ps):
    p, q, r = ps
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perm_triples())
def test_inverse_round_trip(ps):
    p, _, _ = ps
    d = len(p)
    assert compose(p, inverse(p)) == identity(d)
    assert compose(inverse(p), p) == identity(d)
    assert inverse(inverse(p)) == p


@given(perm_triples())
def test_parse_format_identity(ps):
    p, _, _ = ps
    assert parse_perm(format_perm(p), len(p)) == p


@given(perm_triples())
def test_conjugation_is_homomorphism(ps):
    p, q, s = ps
    assert conjugate(compose(p, q), s) == compose(conjugate(p, s), conjugate(q, s))
    assert conjugate(inverse(p), s) == inverse(conjugate(p, s))


@given(perm_triples())
def test_conjugation_preserves_structure(ps):
    p, _, s = ps
    assert cycle_type(conjugate(p, s)) == cycle_type(p)
    assert perm_order(conjugate(p, s)) == perm_order(p)


@given(perm_triples())
def test_order_divides_group_of_element(ps):
    p, _, _ = ps
    k = perm_order(p)
    run = p
    for _ in range(k - 1):
        run = compose(run, p)
    assert run == identity(len(p))


# ---------------------------------------------------------------------------
# group structure


@given(st.sampled_from([C2, S3, C3, V4]))
def test_class_sizes(G):
    classes = G.conjugacy_classes()
    assert sum(len(c.members) for c in classes) == G.order
    assert all(G.order % len(c.members) == 0 for c in classes)


@given(st.sampled_from([C2, S3, C3, V4]), st.data())
def test_orbit_stabilizer(G, data):
    lam = data.draw(st.integers(min_value=0, max_value=G.degree - 1))
    orbit = {g[lam] for g in G.elements}
    stab = G.point_stabilizer(lam)
    assert len(orbit) * len(stab) == G.order


# ---------------------------------------------------------------------------
# tuples and moves


@given(space_tuples(), st.data())
def test_random_move_words_preserve_invariants(Gt, data):
    G, t = Gt
    bt = branching_type_of(t, G)
    word = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=t.branch_count - 1),
                st.booleans(),
            ),
            max_size=6,
        )
    )
    cur = t
    for i, inv in word:
        cur = hurwitz_move(cur, i, inverse_move=inv)
    assert validate_tuple(cur, G).is_valid
    assert branching_type_of(cur, G) == bt
    assert cur.handles == t.handles
    # walk the word backwards to recover the start
    for i, inv in reversed(word):
        cur = hurwitz_move(cur, i, inverse_move=not inv)
    assert cur == t


@given(space_tuples(), st.data())
def test_move_commutes_with_conjugation(Gt, data):
    G, t = Gt
    N = normalizer_in_sym(G)
    s = data.draw(st.sampled_from(N.elements))
    i = data.draw(st.integers(min_value=1, max_value=t.branch_count - 1))
    assert hurwitz_move(conjugate_tuple(t, s), i) == conjugate_tuple(
        hurwitz_move(t, i), s
    )


@given(space_tuples())
def test_free_action_no_fixed_points(Gt):
    G, t = Gt
    N = normalizer_fixing_point(G)
    for s in N.elements:
        if s != identity(G.degree):
            assert conjugate_tuple(t, s) != t


@given(space_tuples(), st.data())
def test_pointed_class_constant_on_fiber(Gt, data):
    G, t = Gt
    N = normalizer_fixing_point(G)
    s = data.draw(st.sampled_from(N.elements))
    assert pointed_class(conjugate_tuple(t, s), G) == pointed_class(t, G)


@given(space_tuples(), st.data())
def test_inner_conjugation_preserves_unpointed_class(Gt, data):
    G, t = Gt
    g = data.draw(st.sampled_from(G.elements))
    assert unpointed_class(conjugate_tuple(t, g), G) == unpointed_class(t, G)


@given(space_tuples(), st.data())
def test_pointed_witness_is_unique_and_correct(Gt, data):
    G, t = Gt
    N = normalizer_fixing_point(G)
    s = data.draw(st.sampled_from(N.elements))
    other = conjugate_tuple(t, s)
    w = are_pointed_equivalent(t, other, G)
    assert w == s


# ---------------------------------------------------------------------------
# relabeling and type covariance


@given(space_tuples(), st.data())
def test_relabel_covariance(Gt, data):
    G, t = Gt
    phi = tuple(data.draw(st.permutations(range(G.degree))))
    t2, G2 = relabel(t, phi, G)
    assert validate_tuple(t2, G2).is_valid
    assert set(G2.elements) == {conjugate(g, phi) for g in G.elements}
    # profiles survive relabeling untouched
    from hurwitz import ramification_profile

    assert ramification_profile(t2) == ramification_profile(t)


@settings(max_examples=25)
@given(st.sampled_from([(S3, 0, 3), (C3, 0, 3), (V4, 0, 3)]), st.data())
def test_typed_subset_transforms_covariantly(cfg, data):
    # conjugating a whole typed subset gives the subset of the twisted type
    G, g, n = cfg
    pool = enumerate_tuples(G, g, n)
    t = data.draw(st.sampled_from(pool))
    tau = branching_type_of(t, G)
    sigma = data.draw(st.sampled_from(normalizer_in_sym(G).elements))
    subset = [x for x in pool if branching_type_of(x, G) == tau]
    twisted_tau = conjugate_branching_type(tau, sigma, G)
    twisted = sorted(conjugate_tuple(x, sigma) for x in subset)
    expected = [x for x in pool if branching_type_of(x, G) == twisted_tau]
    assert twisted == expected


@settings(max_examples=20)
@given(st.data())
def test_census_counts_multiply_along_fibers(data):
    # tuples = pointed x |stabilizer of the type in N(lam0)|
    G, g, n, pool = data.draw(SPACES)
    t = data.draw(st.sampled_from(pool))
    tau = branching_type_of(t, G)
    from hurwitz import count_space

    c = count_space(G, g, n, tau)
    N = normalizer_fixing_point(G)
    stab = sum(1 for s in N.elements if conjugate_branching_type(tau, s, G) == tau)
    assert c.tuple_count == c.pointed_count * stab


@given(st.sampled_from([C2, S3, C3, V4, S4, A5]), st.data())
def test_generates_matches_oracle_closure(G, data):
    # lists of any length, order and repetition, the empty one included
    gens = data.draw(st.lists(st.sampled_from(G.elements), max_size=4))
    expected = bool(gens) and len(o.o_closure(gens)) == G.order
    # the groups live for the whole module, so later calls hit the join memo
    assert generates(G, gens) is expected
    assert generates(G, gens) is expected
    stranger = data.draw(
        st.one_of(perms(G.degree), perms(G.degree + 1)).filter(lambda p: p not in G))
    at = data.draw(st.integers(min_value=0, max_value=len(gens)))
    assert generates(G, gens[:at] + [stranger] + gens[at:]) is False
