"""Pointed and unpointed classification, fibers, witnesses, relabeling."""

import dataclasses
import random

import pytest

import oracles as o
from oracles import nu_fiber
from hurwitz import (
    BranchingType,
    DegreeMismatch,
    FreeActionViolated,
    HurwitzTuple,
    IntransitiveGroup,
    InputError,
    InternalInvariantViolation,
    PointOutOfRange,
    RepeatedPoint,
    are_cover_equivalent,
    are_pointed_equivalent,
    branching_type_of,
    centralizer_in_sym,
    change_marked_point,
    classify_space,
    conjugate_tuple,
    count_space,
    enumerate_tuples,
    generate_group,
    make_branching_type,
    normalizer_fixing_point,
    normalizer_in_sym,
    parse_perm,
    pointed_class,
    relabel,
    unpointed_class,
    validate_tuple,
)


def oracle_census(G, g, n):
    elems = list(G.elements)
    d = G.degree
    norm = o.o_normalizer(elems, d)
    fixed = [s for s in norm if s[0] == 0]
    return o.census(elems, d, g, n, fixed, norm)


# ---------------------------------------------------------------------------
# censuses


FROZEN = {
    ("c2", 0, 2): (1, 1, 1),
    ("c2", 0, 4): (1, 1, 1),
    ("c2", 0, 6): (1, 1, 1),
    ("c2", 1, 2): (4, 4, 4),
    ("s3", 0, 3): (18, 9, 3),
    ("s3", 0, 4): (96, 48, 16),
    ("c3", 0, 2): (2, 1, 1),
    ("c3", 0, 3): (2, 1, 1),
    ("v4", 0, 3): (6, 1, 1),
    ("v4", 0, 4): (18, 3, 3),
}


@pytest.mark.parametrize("name,g,n", sorted(FROZEN))
def test_census_frozen_and_oracle(name, g, n, request):
    G = request.getfixturevalue(name)
    c = count_space(G, g, n)
    got = (c.tuple_count, c.pointed_count, c.unpointed_count)
    assert got == FROZEN[(name, g, n)]
    assert got == oracle_census(G, g, n)


def test_count_equals_classify(s3):
    c = count_space(s3, 0, 4)
    cls = classify_space(s3, 0, 4)
    assert (c.tuple_count, c.pointed_count, c.unpointed_count) == (
        cls.census.tuple_count,
        cls.census.pointed_count,
        cls.census.unpointed_count,
    )
    assert len(cls.tuples) == c.tuple_count
    assert len(cls.pointed) == c.pointed_count
    assert len(cls.unpointed) == c.unpointed_count


def test_fiber_cardinality_law(matrix):
    for G, g, n in matrix:
        c = count_space(G, g, n)
        fiber = normalizer_fixing_point(G).order
        assert c.tuple_count == c.pointed_count * fiber


def test_typed_censuses(s3, c3, v4):
    bt = make_branching_type(s3, [(parse_perm("(1 2)", 3), 4)])
    c = count_space(s3, 0, 4, bt)
    assert (c.tuple_count, c.pointed_count, c.unpointed_count) == (24, 12, 4)

    bt3 = make_branching_type(c3, [(parse_perm("(1 2 3)", 3), 3)])
    c = count_space(c3, 0, 3, bt3)
    # the type 3*[r] is moved by half of N(lam0): the fiber halves
    assert (c.tuple_count, c.pointed_count, c.unpointed_count) == (1, 1, 1)

    a, b, cc = (parse_perm(t, 4) for t in ["(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"])
    btv = make_branching_type(v4, [(a, 1), (b, 1), (cc, 1)])
    c = count_space(v4, 0, 3, btv)
    assert (c.tuple_count, c.pointed_count, c.unpointed_count) == (6, 1, 1)


def test_type_filter_names_a_class_by_any_member(s3):
    # (1 2) is a transposition but not the minimal one, (2 3)
    raw = BranchingType(((parse_perm("(1 2)", 3), 4),))
    bt = make_branching_type(s3, [(parse_perm("(1 2)", 3), 4)])
    assert raw != bt
    assert enumerate_tuples(s3, 0, 4, raw) == enumerate_tuples(s3, 0, 4, bt)
    a, b = classify_space(s3, 0, 4, raw), classify_space(s3, 0, 4, bt)
    assert (a.census.tuple_count, a.census.pointed_count, a.census.unpointed_count) == (24, 12, 4)
    assert (a.rows, a.pointed, a.unpointed, a.census) == (b.rows, b.pointed, b.unpointed, b.census)


def test_type_filter_outside_the_group_raises(c3):
    raw = BranchingType(((parse_perm("(1 2)", 3), 3),))
    with pytest.raises(DegreeMismatch, match="not an element of the group"):
        enumerate_tuples(c3, 0, 3, raw)
    with pytest.raises(DegreeMismatch, match="not an element of the group"):
        classify_space(c3, 0, 3, raw)


def test_rows_of_another_type_raise(s3, twisted):
    # each filtered space fed the rows of its unfiltered space
    transpositions = make_branching_type(s3, [(parse_perm("(1 2)", 3), 4)])
    for G, g, n, bt in [(s3, 0, 4, transpositions)] + twisted:
        with pytest.raises(InternalInvariantViolation, match="branching type"):
            classify_space(G, g, n, bt, rows=classify_space(G, g, n).rows)
        cls = classify_space(G, g, n, bt)
        assert classify_space(G, g, n, bt, rows=cls.rows) == cls


def class_moving_spaces():
    """Spaces whose N(lam0) permutes the conjugacy classes: A5 g0 n3, also under
    3*[(1 2 3 4 5)], which N(lam0) = S4 moves to the other class of 5-cycles,
    and under 3*[(1 2)(3 4)], which is empty (two involutions generate a
    dihedral group), C9 g0 n3 and the regular C2^3 g0 n5."""
    a5 = generate_group([parse_perm("(1 2 3 4 5)", 5), parse_perm("(1 2 3)", 5)])
    c9 = generate_group([parse_perm("(1 2 3 4 5 6 7 8 9)", 9)])
    five = make_branching_type(a5, [(parse_perm("(1 2 3 4 5)", 5), 3)])
    involutions = make_branching_type(a5, [(parse_perm("(1 2)(3 4)", 5), 3)])
    return [(a5, 0, 3, None), (a5, 0, 3, five), (a5, 0, 3, involutions), (c9, 0, 3, None),
            (regular_c2_cubed(), 0, 5, None)]


def test_by_type_rows_partition_classes(matrix, twisted):
    moving = class_moving_spaces()
    for G, g, n, bt in [(G, g, n, None) for G, g, n in matrix] + twisted + moving:
        cls = classify_space(G, g, n, bt)
        rows = cls.census.by_type
        assert sum(r.tuples for r in rows) == cls.census.tuple_count
        assert sum(r.pointed for r in rows) == cls.census.pointed_count
        assert sum(r.unpointed for r in rows) == cls.census.unpointed_count
        # each row counts the tuples and canonicals of exactly its type
        counts = {}
        for col, ts in enumerate((cls.tuples, [c.canonical for c in cls.pointed],
                                  [u.canonical for u in cls.unpointed])):
            for t in ts:
                counts.setdefault(branching_type_of(t, G), [0, 0, 0])[col] += 1
        assert [(r.branching_type, r.tuples, r.pointed, r.unpointed) for r in rows] == sorted(
            ((key, *c) for key, c in counts.items()), key=lambda row: row[0].entries)
    # 60 tuples in 5 classes: the filter's type stabilizer is A4, of order 12
    a5, g, n, five = moving[1]
    census = classify_space(a5, g, n, five).census
    assert (census.tuple_count, census.pointed_count, normalizer_fixing_point(a5).order) == (60, 5, 24)
    assert classify_space(*moving[2]).census.by_type == ()
    c2_cubed, g, n, _ = moving[4]
    assert [r.tuples for r in count_space(c2_cubed, g, n).by_type] == [60] * 28


class _LengthOnly:
    """Stands in for the rows of a space where only their number may be read."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


def test_census_reads_only_the_number_of_rows(matrix, twisted):
    for G, g, n, bt in [(G, g, n, None) for G, g, n in matrix] + twisted + class_moving_spaces():
        cls = classify_space(G, g, n, bt)
        blind = dataclasses.replace(cls, rows=_LengthOnly(len(cls.rows)))
        assert blind.census == cls.census


def test_by_type_twisting_rows(c3):
    # the two one-class types 3*[r], 3*[r^2] are swapped by N(lam0):
    # both tuples exist but a single canonical class carries them
    cls = classify_space(c3, 0, 3)
    rows = {str(r.branching_type): (r.tuples, r.pointed, r.unpointed)
            for r in cls.census.by_type}
    assert rows == {
        "3*[(1 2 3)]": (1, 1, 1),
        "3*[(1 3 2)]": (1, 0, 0),
    }


def regular_c2_cubed():
    """C2^3 acting on itself (degree 8): |N_Sym| = |AGL(3, 2)| = 1344, |Z| = 8."""
    return generate_group([tuple(x ^ bit for x in range(8)) for bit in (1, 2, 4)])


def test_sweep_index_matches_class_functions(matrix, twisted):
    c2_cubed = regular_c2_cubed()
    spaces = [(G, g, n, None) for G, g, n in matrix] + twisted + [(c2_cubed, 0, 5, None)]
    for G, g, n, bt in spaces:
        cls = classify_space(G, g, n, bt)
        # rows[k] is tuples[k] in element indices
        assert len(cls.rows) == len(cls.pointed_of) == len(cls.tuples)
        assert len(cls.unpointed_of) == len(cls.pointed)
        # pointed_class(t) == c exactly when t lies in the N(lam0)-orbit of
        # c's canonical, and unpointed_class is constant on that orbit
        orbits, unpointed = {}, {}
        for k, t in enumerate(cls.tuples):
            assert cls.rows[k] == tuple(G.table.index[e] for e in t.entries)
            c = cls.pointed[cls.pointed_of[k]]
            if c not in orbits:
                assert pointed_class(c.canonical, G) == c
                orbits[c] = {conjugate_tuple(c.canonical, s) for s in normalizer_fixing_point(G)}
                unpointed[c] = unpointed_class(c.canonical, G)
            assert t in orbits[c]
            assert cls.unpointed[cls.unpointed_of[cls.pointed_of[k]]] == unpointed[c]
    census = cls.census
    assert (census.tuple_count, census.pointed_count, census.unpointed_count) == (1680, 10, 10)
    # the centralizer C2^3 fixes every tuple, so each orbit has |N_Sym|/|Z| members
    assert (normalizer_in_sym(c2_cubed).order, centralizer_in_sym(c2_cubed).order) == (1344, 8)
    assert all(u.orbit_size == 1344 // 8 for u in cls.unpointed)


def test_unpointed_of_maps_each_pointed_class(matrix, twisted, s3):
    # unpointed_of has one entry per pointed class: the position of the
    # Perm-level N_Sym(G) class of the pointed class's canonical
    for G, g, n, bt in [(G, g, n, None) for G, g, n in matrix] + twisted + [(s3, 1, 4, None)]:
        cls = classify_space(G, g, n, bt)
        assert len(cls.unpointed_of) == len(cls.pointed)
        position = {u: k for k, u in enumerate(cls.unpointed)}
        for c, u in zip(cls.pointed, cls.unpointed_of):
            assert u == position[unpointed_class(c.canonical, G)], (G, g, n, bt, c)


def test_rows_input_takes_the_same_sweep(matrix, twisted):
    # rows= classifies the index rows directly; tuples is a view of them
    for G, g, n, bt in [(G, g, n, None) for G, g, n in matrix] + twisted:
        cls = classify_space(G, g, n, bt)
        again = classify_space(G, g, n, bt, rows=cls.rows)
        assert again == cls and again.tuples == cls.tuples == tuple(enumerate_tuples(G, g, n, bt))
        assert (again.pointed_of, again.unpointed_of) == (cls.pointed_of, cls.unpointed_of)
        assert again.census == cls.census


def test_classify_rejects_a_list_missing_conjugates_by_g(s3):
    # one pointed class of S3 g0 n4 passes the fiber check (2 = 1 * |N(lam0)|),
    # but its conjugates by the elements of G moving the marked point are missing
    cls = classify_space(s3, 0, 4)
    one = tuple(row for row, c in zip(cls.rows, cls.pointed_of) if c == 0)
    assert len(one) == 2
    with pytest.raises(InternalInvariantViolation, match="not listed") as exc:
        classify_space(s3, 0, 4, rows=one)
    assert not isinstance(exc.value, FreeActionViolated)


# ---------------------------------------------------------------------------
# classes, fibers and witnesses


def test_pointed_class_minimal_and_idempotent(s3):
    for t in enumerate_tuples(s3, 0, 3):
        c = pointed_class(t, s3)
        fiber = nu_fiber(c, s3)
        assert c.canonical == min(fiber)
        assert t in fiber
        assert pointed_class(c.canonical, s3) == c


def test_nu_fiber_size(matrix):
    for G, g, n in matrix:
        size = normalizer_fixing_point(G).order
        ts = enumerate_tuples(G, g, n)
        seen = set()
        for t in ts[:6]:
            c = pointed_class(t, G)
            if c in seen:
                continue
            seen.add(c)
            assert len(nu_fiber(c, G)) == size


def test_unpointed_class_orbit_size(s3):
    for t in enumerate_tuples(s3, 0, 3)[:4]:
        u = unpointed_class(t, s3)
        N = normalizer_in_sym(s3)
        orbit = {conjugate_tuple(t, s) for s in N.elements}
        assert u.orbit_size == len(orbit)
        assert u.canonical == min(orbit)


def test_pointed_witness_unique(s3, c3):
    # the witness for pointed equivalence is unique: N(lam0) acts freely
    for G in (s3, c3):
        ts = enumerate_tuples(G, 0, 3)
        for t in ts[:3]:
            c = pointed_class(t, G)
            for other in nu_fiber(c, G):
                w = are_pointed_equivalent(t, other, G)
                assert w is not None
                assert conjugate_tuple(t, w) == other
                assert w[0] == 0  # fixes the marked point


def test_pointed_inequivalent_gives_none(s3):
    ts = enumerate_tuples(s3, 0, 3)
    reps = sorted({pointed_class(t, s3).canonical for t in ts})
    assert are_pointed_equivalent(reps[0], reps[1], s3) is None


def test_cover_witness_multiplicity(s3, c3, v4, c2):
    # number of witnesses equals the centralizer order; uniqueness iff trivial
    for G in (s3, c3, v4, c2):
        z = centralizer_in_sym(G).order
        t = enumerate_tuples(G, 0, 3 if G.degree != 2 else 4)[0]
        sigma = normalizer_in_sym(G).elements[-1]
        other = conjugate_tuple(t, sigma)
        ew = are_cover_equivalent(t, other, G)
        assert ew is not None
        assert ew.witness_count == z
        assert ew.unique == (z == 1)
        assert conjugate_tuple(t, ew.witness) == other


def test_cover_inequivalent_gives_none(s3):
    cls = classify_space(s3, 0, 3)
    u0, u1 = cls.unpointed[0], cls.unpointed[1]
    assert are_cover_equivalent(u0.canonical, u1.canonical, s3) is None


def test_class_functions_reject_an_entry_outside_the_group(c3):
    # a tuple's row of element indices is only defined for entries of G
    t = HurwitzTuple((parse_perm("(1 2)", 3), parse_perm("(1 2)", 3)), 0)
    ok = enumerate_tuples(c3, 0, 2)[0]
    for call in (lambda: pointed_class(t, c3), lambda: unpointed_class(t, c3),
                 lambda: are_pointed_equivalent(ok, t, c3), lambda: are_cover_equivalent(t, ok, c3)):
        with pytest.raises(DegreeMismatch, match=r"\(1 2\) is not an element of the group"):
            call()


def test_unpointed_functions_need_a_transitive_group():
    # N_Sym(G) = N(lam0) T holds for a transitive G only; the pointed class does not need it
    G = generate_group([parse_perm("(1 2)", 4), parse_perm("(3 4)", 4)])
    t = HurwitzTuple(tuple(parse_perm(e, 4) for e in ("(1 2)", "(1 2)", "(3 4)", "(3 4)")), 0)
    for call in (lambda: unpointed_class(t, G), lambda: are_cover_equivalent(t, t, G)):
        with pytest.raises(IntransitiveGroup):
            call()
    H = generate_group([parse_perm("(1 2 3)", 4)])
    r, r2 = parse_perm("(1 2 3)", 4), parse_perm("(1 3 2)", 4)
    assert pointed_class(HurwitzTuple((r2, r), 0), H).canonical == HurwitzTuple((r, r2), 0)


def test_conjugate_tuple_keeps_genus_and_handle_slots(matrix, twisted, s3):
    spaces = [(G, g, n, None) for G, g, n in matrix] + twisted + [(s3, 1, 2, None)]
    for G, g, n, bt in spaces:
        for t in enumerate_tuples(G, g, n, bt)[:8]:
            for s in normalizer_in_sym(G):
                c = conjugate_tuple(t, s)
                assert c.base_genus == g
                assert (c.handles, c.branches) == o.o_conjugate_tuple((t.handles, t.branches), s)


def test_classes_sort_by_canonical(matrix, twisted):
    for G, g, n, bt in [(G, g, n, None) for G, g, n in matrix] + twisted:
        cls = classify_space(G, g, n, bt)
        for classes in (cls.pointed, cls.unpointed):
            shuffled = list(reversed(classes))
            assert sorted(shuffled) == sorted(shuffled, key=lambda c: c.canonical)
            assert sorted(shuffled) == list(classes)


def test_conjugate_tuple_degree_checked(s3):
    t = enumerate_tuples(s3, 0, 3)[0]
    with pytest.raises(DegreeMismatch):
        conjugate_tuple(t, parse_perm("(1 2)", 4))


# ---------------------------------------------------------------------------
# marked-point change and relabeling


def test_change_marked_point_bijection(s3):
    bt = make_branching_type(s3, [(parse_perm("(1 2)", 3), 4)])
    cls = classify_space(s3, 0, 4, bt)
    assert len(cls.pointed) == 12
    moved = [change_marked_point(c, 1, s3) for c in cls.pointed]
    assert len(set(moved)) == 12
    assert all(m.marked_point == 1 for m in moved)
    back = [change_marked_point(m, 0, s3.with_marked_point(1)) for m in moved]
    assert sorted(back) == sorted(cls.pointed)


def test_change_marked_point_identity(s3):
    c = classify_space(s3, 0, 3).pointed[0]
    assert change_marked_point(c, 0, s3) == c


def test_change_marked_point_rejects_a_point_out_of_range(s3):
    # the same error as point_stabilizer, not the intransitivity one
    c = classify_space(s3, 0, 3).pointed[0]
    for lam1 in (7, -1):
        with pytest.raises(PointOutOfRange, match="out of range"):
            change_marked_point(c, lam1, s3)


def oracle_groups():
    """S4, A5, the regular C2^3 (|Z| = 8) and two transitive groups of degree 6
    drawn at random, with the branch count of the spaces they are tested on."""
    def grp(d, *gens):
        return generate_group([parse_perm(g, d) for g in gens])

    return [(grp(4, "(1 2)", "(1 2 3 4)"), 3), (grp(5, "(1 2 3 4 5)", "(1 2 3)"), 3),
            (regular_c2_cubed(), 5), (grp(6, "(1 4 2 3 5 6)", "(1 6 2 4 5 3)"), 3),
            (grp(6, "(1 2 5 4 3 6)", "(2 6)"), 3)]


def test_class_functions_against_scans_at_every_marked_point():
    # brute-force N_Sym(G) by an S_d scan, N(lam) as its members fixing lam,
    # against the four class functions, change_marked_point and the centralizer
    for G, n in oracle_groups():
        d, elements = G.degree, list(G.elements)
        norm = sorted(o.o_normalizer(elements, d))
        stab = [[s for s in norm if s[lam] == lam] for lam in range(d)]
        assert centralizer_in_sym(G).elements == tuple(sorted(o.o_centralizer(elements, d)))
        ts = enumerate_tuples(G, 0, n)
        ts = ts[::-(-len(ts) // 30)]  # at most 30, spread over the space
        conj = []  # per tuple t: each s in N_Sym(G) -> s t s^-1, as (handles, branches)
        for t in ts:
            conj.append({s: o.o_conjugate_tuple((t.handles, t.branches), s) for s in norm})
        for lam in range(d):
            H, fixed = G.with_marked_point(lam), stab[lam]
            for i, t in enumerate(ts):
                c = pointed_class(t, H)
                assert (c.canonical.handles, c.canonical.branches) == min(conj[i][s] for s in fixed)
                u = unpointed_class(t, H)
                assert (u.canonical.handles, u.canonical.branches) == min(conj[i].values())
                assert u.orbit_size == len(set(conj[i].values()))
                for lam1 in range(d):
                    # any g in G with lam1 . g = lam carries the class; take the largest
                    g = max(e for e in elements if e[lam1] == lam)
                    moved = change_marked_point(c, lam1, H)
                    assert moved.marked_point == lam1
                    assert (moved.canonical.handles, moved.canonical.branches) == min(
                        conj[i][o.o_compose(s, g)] for s in stab[lam1])
                for other in {conjugate_tuple(t, norm[k]) for k in (0, len(norm) // 3, -1)} | {
                        ts[(i + 1) % len(ts)], ts[(i + 7) % len(ts)]}:
                    key = (other.handles, other.branches)
                    pointed = [s for s in fixed if conj[i][s] == key]
                    assert are_pointed_equivalent(t, other, H) == (pointed[0] if pointed else None)
                    cover = [s for s in norm if conj[i][s] == key]
                    ew = are_cover_equivalent(t, other, H)
                    if not cover:
                        assert ew is None
                    else:
                        assert (ew.witness, ew.witness_count, ew.unique) == (
                            cover[0], len(cover), len(cover) == 1)


def test_relabel_preserves_structure(matrix):
    rng = random.Random(23)
    for G, g, n in matrix:
        base = count_space(G, g, n)
        t = enumerate_tuples(G, g, n)[0]
        for _ in range(3):
            img = list(range(G.degree))
            rng.shuffle(img)
            phi = tuple(img)
            t2, G2 = relabel(t, phi, G)
            assert validate_tuple(t2, G2).is_valid
            c2 = count_space(G2, g, n)
            assert (base.tuple_count, base.pointed_count, base.unpointed_count) == (
                c2.tuple_count,
                c2.pointed_count,
                c2.unpointed_count,
            )


def test_relabel_transports_marked_point(s3):
    t = enumerate_tuples(s3, 0, 3)[0]
    phi = parse_perm("(1 3 2)", 3)
    t2, G2 = relabel(t, phi, s3)
    # lam0 = 0 is carried to its position under the inverse relabeling
    from hurwitz import inverse

    assert G2.marked_point == inverse(phi)[0]


def test_relabel_rejects_a_map_that_is_not_a_bijection(s3):
    # (0, 0, 1) sends two points to 0 and none to 2; (0, 1, 3) leaves the points
    t = enumerate_tuples(s3, 0, 3)[0]
    with pytest.raises(RepeatedPoint):
        relabel(t, (0, 0, 1), s3)
    with pytest.raises(PointOutOfRange):
        relabel(t, (0, 1, 3), s3)
    assert issubclass(RepeatedPoint, InputError) and issubclass(PointOutOfRange, InputError)


# ---------------------------------------------------------------------------
# precomputed-tuple path


def test_classify_accepts_precomputed_tuples(s3):
    rows = tuple(tuple(map(s3.table.index.__getitem__, t.entries))
                 for t in enumerate_tuples(s3, 0, 3))
    a = classify_space(s3, 0, 3)
    b = classify_space(s3, 0, 3, rows=rows)
    assert a.pointed == b.pointed and a.unpointed == b.unpointed


def test_classify_rejects_wrong_fiber(s3):
    rows = classify_space(s3, 0, 3).rows
    with pytest.raises(FreeActionViolated):
        classify_space(s3, 0, 3, rows=rows[:-1])
