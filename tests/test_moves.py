"""Elementary moves, braid relations, orbits and component partitions."""

import random

import pytest

import oracles as o
from hurwitz import (
    IndexOutOfRange,
    OrbitCapExceeded,
    braid_orbit,
    branching_type_of,
    classify_space,
    components,
    enumerate_tuples,
    generate_group,
    hurwitz_move,
    normalizer_fixing_point,
    parse_perm,
    pointed_class,
    relabel,
    tuple_from_entries,
    unpointed_class,
    validate_tuple,
)
from hurwitz.moves import _class_orbits


def as_pair(t):
    return (t.handles, t.branches)


# ---------------------------------------------------------------------------
# single moves


def test_move_formula(s3):
    a = parse_perm("(1 2)", 3)
    b = parse_perm("(2 3)", 3)
    t = tuple_from_entries(3, 0, [a, b, parse_perm("(1 2 3)", 3)])
    m = hurwitz_move(t, 1)
    # (g1, g2) -> (g1 g2 g1^-1, g1)
    assert m.branches[0] == parse_perm("(1 3)", 3)
    assert m.branches[1] == a
    assert m.branches[2] == t.branches[2]


def test_move_matches_oracle(s3, v4, c2):
    # in genus >= 1 the moved slots sit after the 2g handle entries
    for G, g, n in [(s3, 0, 4), (v4, 0, 4), (s3, 1, 3), (c2, 1, 2)]:
        for t in enumerate_tuples(G, g, n)[:10]:
            for i in range(1, n):
                for inv in (False, True):
                    m = hurwitz_move(t, i, inverse_move=inv)
                    assert m.base_genus == g
                    assert as_pair(m) == o.o_move(as_pair(t), i, not inv)


def test_move_round_trip(s3):
    for t in enumerate_tuples(s3, 0, 4)[:20]:
        for i in range(1, 4):
            assert hurwitz_move(hurwitz_move(t, i), i, inverse_move=True) == t
            assert hurwitz_move(hurwitz_move(t, i, inverse_move=True), i) == t


def test_move_preserves_validity_and_type(s3):
    for t in enumerate_tuples(s3, 0, 4)[:20]:
        bt = branching_type_of(t, s3)
        for i in range(1, 4):
            m = hurwitz_move(t, i)
            assert validate_tuple(m, s3).is_valid
            assert branching_type_of(m, s3) == bt
            assert m.handles == t.handles


def test_move_index_checked(s3):
    t = enumerate_tuples(s3, 0, 3)[0]
    for bad in (0, 3, -1, 7):
        with pytest.raises(IndexOutOfRange):
            hurwitz_move(t, bad)


def test_braid_relations(s3, v4):
    rng = random.Random(5)
    for G, n in [(s3, 4), (v4, 4)]:
        pool = enumerate_tuples(G, 0, n)
        for t in rng.sample(pool, min(10, len(pool))):
            # inverse pairs
            for i in range(1, n):
                assert hurwitz_move(hurwitz_move(t, i), i, inverse_move=True) == t
            # commutation for |i - j| >= 2
            a = hurwitz_move(hurwitz_move(t, 1), 3)
            b = hurwitz_move(hurwitz_move(t, 3), 1)
            assert a == b
            # Yang-Baxter: s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}
            for i in range(1, n - 1):
                left = hurwitz_move(hurwitz_move(hurwitz_move(t, i), i + 1), i)
                right = hurwitz_move(hurwitz_move(hurwitz_move(t, i + 1), i), i + 1)
                assert left == right


def test_mirrored_moves_are_inverse_of_standard(s3):
    t = enumerate_tuples(s3, 0, 4)[0]
    for i in range(1, 4):
        assert hurwitz_move(t, i, convention="mirrored") == hurwitz_move(
            t, i, inverse_move=True
        )


def test_move_convention_checked(s3):
    # an unknown convention is refused, not read as the standard one
    t = enumerate_tuples(s3, 0, 4)[0]
    with pytest.raises(ValueError, match="unknown convention 'bogus'"):
        hurwitz_move(t, 1, convention="bogus")


# ---------------------------------------------------------------------------
# orbits


def test_braid_orbit_matches_oracle(s3, v4, c3):
    for G, n in [(s3, 3), (s3, 4), (v4, 3), (c3, 3)]:
        ts = enumerate_tuples(G, 0, n)
        for t in ts[:5]:
            got = braid_orbit(t)
            expected = sorted(o.move_closure(as_pair(t)))
            assert [as_pair(x) for x in got] == expected


def test_braid_orbit_sorted_and_contains_seed(s3):
    t = enumerate_tuples(s3, 0, 4)[5]
    orb = braid_orbit(t)
    assert t in orb
    assert list(orb) == sorted(orb)


def test_orbit_cap(s3):
    t = enumerate_tuples(s3, 0, 4)[0]
    with pytest.raises(OrbitCapExceeded):
        braid_orbit(t, orbit_cap=3)


def test_braid_orbit_cap_error_names_phase_and_progress(s3):
    t = enumerate_tuples(s3, 0, 4)[0]
    with pytest.raises(OrbitCapExceeded,
                       match=r"^braid orbit: size exceeds cap 3; 3 tuples reached$"):
        braid_orbit(t, orbit_cap=3)


def test_orbit_caps_bound_the_tuples_reached(s3):
    # braid_orbit admits at most orbit_cap tuples, the seed included;
    # components admits orbit_cap tuples reached by a move, seeds excluded
    t = enumerate_tuples(s3, 0, 4)[0]
    size = len(braid_orbit(t))
    assert len(braid_orbit(t, orbit_cap=size)) == size
    with pytest.raises(OrbitCapExceeded):
        braid_orbit(t, orbit_cap=size - 1)
    cls = classify_space(s3, 0, 4)
    part = components(cls)
    reached = sum(part.orbit_sizes) - len(part.orbit_sizes)
    assert components(cls, orbit_cap=reached) == part
    with pytest.raises(OrbitCapExceeded):
        components(cls, orbit_cap=reached - 1)


# ---------------------------------------------------------------------------
# component partitions


FROZEN_TUPLE_ORBITS = {
    ("c2", 0, 2): [1],
    ("c2", 0, 4): [1],
    ("c2", 0, 6): [1],
    ("c2", 1, 2): [1, 1, 1, 1],
    ("s3", 0, 3): [18],
    ("s3", 0, 4): [24, 72],
    ("c3", 0, 2): [2],
    ("c3", 0, 3): [1, 1],
    ("v4", 0, 3): [6],
    ("v4", 0, 4): [6, 6, 6],
}


@pytest.mark.parametrize("name,g,n", sorted(FROZEN_TUPLE_ORBITS))
def test_components_frozen_and_oracle(name, g, n, request):
    G = request.getfixturevalue(name)
    part = components(classify_space(G, g, n))
    assert list(part.orbit_sizes) == FROZEN_TUPLE_ORBITS[(name, g, n)]
    oracle_parts = o.move_partition(
        o.brute_force_tuples(list(G.elements), G.degree, g, n)
    )
    assert [len(p) for p in oracle_parts] == list(part.orbit_sizes)
    assert part.exact == (g == 0)


def test_component_sizes_sum_to_census(matrix):
    for G, g, n in matrix:
        cls = classify_space(G, g, n)
        c = cls.census
        for level, total in [
            ("tuples", c.tuple_count),
            ("pointed", c.pointed_count),
            ("unpointed", c.unpointed_count),
        ]:
            part = components(cls, level=level)
            assert sum(part.orbit_sizes) == total
            assert part.level == level


def test_component_orbits_are_disjoint_cover(s3):
    part = components(classify_space(s3, 0, 4))
    seen = set()
    for orb in part.orbits:
        assert not (set(orb) & seen)
        seen.update(orb)
    assert len(seen) == 96


def test_pointed_components_project_tuple_components(s3):
    # each tuple-level orbit projects onto a union of pointed-level orbits
    cls = classify_space(s3, 0, 4)
    tpart = components(cls)
    ppart = components(cls, level="pointed")
    pointed_orbit_of = {}
    for k, orb in enumerate(ppart.orbits):
        for c in orb:
            pointed_orbit_of[c] = k
    for orb in tpart.orbits:
        image = {pointed_orbit_of[pointed_class(t, s3).canonical] for t in orb}
        covered = set()
        for k in image:
            covered.update(ppart.orbits[k])
        assert {pointed_class(t, s3).canonical for t in orb} == set(covered)


def test_typed_space_components(s3):
    from hurwitz import make_branching_type

    bt = make_branching_type(s3, [(parse_perm("(1 2)", 3), 4)])
    cls = classify_space(s3, 0, 4, bt)
    part = components(cls)
    assert list(part.orbit_sizes) == [24]
    ppart = components(cls, level="pointed")
    assert sum(ppart.orbit_sizes) == 12


def test_class_components_match_oracle(matrix, twisted):
    for G, g, n, bt in [(G, g, n, None) for G, g, n in matrix] + twisted:
        elems, d = list(G.elements), G.degree
        norm = o.o_normalizer(elems, d)
        fixed = [s for s in norm if s[G.marked_point] == G.marked_point]
        tuples = [as_pair(t) for t in enumerate_tuples(G, g, n, bt)]
        cls = classify_space(G, g, n, bt)
        for level, conj in (("pointed", fixed), ("unpointed", norm)):
            part = components(cls, level=level)
            got = [[as_pair(t) for t in orb] for orb in part.orbits]
            assert got == o.class_move_partition(tuples, conj), (G, g, n, bt, level)


def test_components_match_oracle_on_twisted_and_genus_one(matrix, twisted, s3):
    # the handle slots come first in every row, so the moved slots are offset
    spaces = twisted + [(G, g, n, None) for G, g, n in matrix if g >= 1]
    spaces += [(s3, 1, 2, None), (s3, 1, 3, None)]
    for G, g, n, bt in spaces:
        tuples = o.brute_force_tuples(list(G.elements), G.degree, g, n)
        if bt is not None:
            # the twisted groups are abelian: a class is one element
            branches = sorted(rep for rep, m in bt.entries for _ in range(m))
            tuples = [t for t in tuples if sorted(t[1]) == branches]
        part = components(classify_space(G, g, n, bt))
        got = [[as_pair(t) for t in orb] for orb in part.orbits]
        assert got == o.move_partition(tuples), (G, g, n, bt)


def test_components_accepts_tuple_partition(s3):
    cls = classify_space(s3, 0, 4)
    tpart = components(cls)
    for level in ("tuples", "pointed", "unpointed"):
        assert components(cls, level=level, tuple_partition=tpart) == components(cls, level=level)
    with pytest.raises(ValueError, match="tuple-level partition"):
        components(cls, tuple_partition=components(cls, level="pointed"))
    # a partition of another space: one orbit id per row of S3 g0 n3, not n4
    with pytest.raises(ValueError, match="of this classification"):
        components(cls, level="pointed", tuple_partition=components(classify_space(s3, 0, 3)))


def test_components_rejects_a_partition_of_another_classification(s3):
    # S3 g0 n4 has 96 rows at either marked point, but the pointed classes
    # differ; the partition at 0 would number the classes at 2 wrongly
    at_0 = components(classify_space(s3, 0, 4))
    cls = classify_space(s3.with_marked_point(2), 0, 4)
    assert len(at_0.orbit_of) == len(cls.rows) == 96
    assert at_0.class_orbit != components(cls, level="pointed").orbit_of
    for level in ("tuples", "pointed", "unpointed"):
        with pytest.raises(ValueError, match="of this classification"):
            components(cls, level=level, tuple_partition=at_0)



# ---------------------------------------------------------------------------
# the class-level search and its lift to tuple orbits


def _group(degree, *gens):
    return generate_group([parse_perm(g, degree) for g in gens])


@pytest.fixture(scope="module")
def a5():
    return _group(5, "(1 2 3 4 5)", "(1 2 3)")


@pytest.fixture(scope="module")
def lift_spaces(matrix, twisted, s3, a5):
    # A5 g0 n3 and C9 g0 n3 lift class orbits to several tuple orbits each
    c9 = _group(9, "(1 2 3 4 5 6 7 8 9)")
    s4 = _group(4, "(1 2 3 4)", "(1 2)")
    return ([(G, g, n, None) for G, g, n in matrix] + twisted
            + [(s3, 1, 2, None), (s3, 1, 3, None), (a5, 0, 3, None), (c9, 0, 3, None),
               (s4, 0, 4, None)])


def test_lifted_tuple_orbits_match_move_closure(lift_spaces):
    # the reference is a move closure of every listed tuple, one tuple at a time
    for G, g, n, bt in lift_spaces:
        tuples = enumerate_tuples(G, g, n, bt)
        expected = o.move_partition([as_pair(t) for t in tuples])
        part = components(classify_space(G, g, n, bt))
        got = [[as_pair(t) for t in orb] for orb in part.orbits]
        assert got == expected, (G, g, n, bt)
        assert list(part.orbit_sizes) == list(map(len, expected))
        first = {}
        assert list(part.orbit_of) == [first.setdefault(k, len(first)) for k in part.orbit_of]


def test_tuple_orbits_do_not_depend_on_the_marked_point(a5):
    # each marked point gives its own N(lam0), classes, voltages and
    # stabilizers; the tuple orbits they lift to are the same
    c9 = _group(9, "(1 2 3 4 5 6 7 8 9)")
    for G, n in [(a5, 3), (c9, 3), (_group(4, "(1 2 3 4)", "(1 2)"), 4)]:
        part = components(classify_space(G, 0, n))
        for lam in range(1, G.degree):
            cls = classify_space(G.with_marked_point(lam), 0, n)
            assert components(cls).orbit_of == part.orbit_of


def test_conjugation_maps_compose_as_the_normalizer_table(a5):
    # conjugating by n_a after n_b is conjugating by n_a n_b = N.table.mul(a, b),
    # and the row that row_index gives c |N| + k is the conjugate by n_k of
    # class c's first listed row, rows[first_row[c]]
    N = normalizer_fixing_point(a5)
    maps = [a5.table.conjugation(s) for s in N.elements]
    for a in range(N.order):
        for b in range(N.order):
            assert maps[N.table.mul(a, b)] == tuple(maps[a][j] for j in maps[b])
    cls = classify_space(a5, 0, 3)
    assert list(cls.row_index) == list(cls.rows)
    first = {}
    for i, (row, v) in enumerate(cls.row_index.items()):
        c, k = divmod(v, N.order)
        first.setdefault(c, i)
        assert row == tuple(maps[k][j] for j in cls.rows[cls.first_row[c]])
    assert tuple(map(first.__getitem__, range(len(cls.canonicals)))) == cls.first_row


def test_unpointed_quotient_is_the_image_of_the_tuple_orbits(matrix, twisted, s3, a5):
    # the unpointed partition comes from the pointed orbits through the
    # pointed -> unpointed class map; the reference maps every row's orbit
    for G, g, n, bt in [(G, g, n, None) for G, g, n in matrix] + twisted + [
            (s3, 1, 4, None), (a5, 0, 3, None)]:
        cls = classify_space(G, g, n, bt)
        part = components(cls)
        per_row = [cls.unpointed_of[c] for c in cls.pointed_of]
        expected = _class_orbits(part.orbit_of, per_row, len(cls.unpointed))
        got = components(cls, level="unpointed", tuple_partition=part)
        assert (got.orbit_of, got.orbit_sizes) == expected, (G, g, n, bt)


def test_pointed_partition_is_the_class_orbits(matrix, twisted, s3, a5):
    # the pointed partition is read off the class search; the reference maps
    # every row's tuple orbit to its pointed class
    phi = list(range(5))
    random.Random(3).shuffle(phi)
    _, a5_3 = relabel(enumerate_tuples(a5, 0, 3)[0], tuple(phi), a5)
    assert a5_3.generators != a5.generators
    for G, g, n, bt in [(G, g, n, None) for G, g, n in matrix] + twisted + [
            (s3, 1, 4, None), (a5_3, 0, 3, None)]:
        cls = classify_space(G, g, n, bt)
        part = components(cls)
        expected = _class_orbits(part.orbit_of, cls.pointed_of, len(cls.canonicals))
        got = components(cls, level="pointed", tuple_partition=part)
        assert (got.orbit_of, got.orbit_sizes) == expected, (G, g, n, bt)


def test_components_cap_error_names_phase_and_progress(a5):
    # on A5 g0 n3 a cap one short of the 2270 tuples reached trips in the
    # last of the 6 class orbits; the 5 before it reached 2152
    cls = classify_space(a5, 0, 3)
    with pytest.raises(OrbitCapExceeded, match=r"^move orbits: tuples reached exceed cap 2269; "
                                               r"2152 reached in 5 finished class orbit\(s\)$"):
        components(cls, orbit_cap=2269)
    with pytest.raises(OrbitCapExceeded, match=r"; 0 reached in 0 finished class orbit\(s\)$"):
        components(cls, orbit_cap=30)


def test_components_orbit_cap_is_exact_on_split_orbits(a5):
    # the cap charges |C| |H| - 1 per tuple orbit, so it raises exactly
    # when the tuples reached by a move exceed it; on A5 g0 n3 the 6 class
    # orbits lift to 10 tuple orbits
    cls = classify_space(a5, 0, 3)
    part = components(cls)
    pointed = components(cls, level="pointed", tuple_partition=part)
    assert len(pointed.orbit_sizes) == 6 and len(part.orbit_sizes) == 10
    reached = len(cls.rows) - len(part.orbit_sizes)
    assert components(cls, orbit_cap=reached) == part
    with pytest.raises(OrbitCapExceeded):
        components(cls, orbit_cap=reached - 1)


def test_components_moves_the_pointed_classes_only(a5, monkeypatch):
    # each pointed class is moved once: n - 1 forward moves of two products
    # each, where a search over rows would move every one of |N(lam0)| rows
    cls = classify_space(a5, 0, 3)
    expected = components(cls)
    calls = []
    mul = a5.table.mul

    def counting(x, s):
        calls.append(1)
        return mul(x, s)

    monkeypatch.setattr(a5.table, "mul", counting)
    assert components(cls) == expected
    assert len(calls) <= 2 * (3 - 1) * len(cls.pointed) < len(cls.rows)
