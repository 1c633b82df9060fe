"""Acceptance gate: one test per criterion, exact tolerances, oracle-backed.

Each test prints a single "criterion N PASS" line on success; a failing
criterion fails its test. Frozen expected values were computed once with
the brute-force oracle in oracles.py and are asserted exactly.
"""

import dataclasses
import json
import random
import time

import pytest

import oracles as o
from hurwitz import (
    actions_isomorphic,
    are_pointed_equivalent,
    branching_type_of,
    change_marked_point,
    classify_space,
    components,
    comparison_payload,
    conjugate_tuple,
    coset_model,
    count_space,
    cover_report,
    enumerate_tuples,
    fiber_genus,
    hurwitz_move,
    identity,
    make_branching_type,
    natural_model,
    normalizer_fixing_point,
    parse_job,
    parse_perm,
    relabel,
    run_job,
    subgroup_from_elements,
    validate_tuple,
)

# the configuration matrix every gate criterion runs over
MATRIX_DOCS = [
    ("C2 g0 n2", 2, ["(1 2)"], 0, 2),
    ("C2 g0 n4", 2, ["(1 2)"], 0, 4),
    ("C2 g0 n6", 2, ["(1 2)"], 0, 6),
    ("C2 g1 n2", 2, ["(1 2)"], 1, 2),
    ("S3 g0 n3", 3, ["(1 2)", "(1 2 3)"], 0, 3),
    ("S3 g0 n4", 3, ["(1 2)", "(1 2 3)"], 0, 4),
    ("C3 g0 n2", 3, ["(1 2 3)"], 0, 2),
    ("C3 g0 n3", 3, ["(1 2 3)"], 0, 3),
    ("V4 g0 n3", 4, ["(1 2)(3 4)", "(1 3)(2 4)"], 0, 3),
    ("V4 g0 n4", 4, ["(1 2)(3 4)", "(1 3)(2 4)"], 0, 4),
]


@pytest.fixture(scope="module")
def spaces(matrix):
    return [(G, g, n, enumerate_tuples(G, g, n)) for G, g, n in matrix]


def _report(k: int, text: str) -> None:
    print(f"criterion {k} PASS: {text}")


def test_criterion_01_fiber_cardinality_law(matrix):
    started = time.monotonic()
    for G, g, n in matrix:
        c = count_space(G, g, n)
        fiber = normalizer_fixing_point(G).order
        assert c.tuple_count == c.pointed_count * fiber, (G, g, n)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(1, f"tuples = pointed x |N(lam0)| on all 10 configurations "
               f"({elapsed:.2f}s < 10s)")


def test_criterion_02_free_action(spaces):
    checked = 0
    for G, g, n, ts in spaces:
        N = normalizer_fixing_point(G)
        nontrivial = [s for s in N.elements if s != identity(G.degree)]
        for t in ts:
            for s in nontrivial:
                assert conjugate_tuple(t, s) != t
                checked += 1
        # the equivalence witness is unique wherever it exists
        for t in ts:
            for u in ts:
                witnesses = [
                    s for s in N.elements if conjugate_tuple(t, s) == u
                ]
                assert len(witnesses) <= 1
                if witnesses:
                    assert are_pointed_equivalent(t, u, G) == witnesses[0]
    _report(2, f"zero fixed points in {checked} (tuple, element) pairs; "
               "witnesses unique")


def test_criterion_03_derived_censuses(c2, s3, v4):
    cases = []

    c = count_space(c2, 0, 4)
    cases.append(((c.tuple_count, c.pointed_count, c.unpointed_count), (1, 1, 1)))

    bt = make_branching_type(s3, [(parse_perm("(1 2)", 3), 4)])
    c = count_space(s3, 0, 4, bt)
    cases.append(((c.tuple_count, c.pointed_count, c.unpointed_count), (24, 12, 4)))

    a, b, cc = (parse_perm(t, 4) for t in ["(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"])
    btv = make_branching_type(v4, [(a, 1), (b, 1), (cc, 1)])
    c = count_space(v4, 0, 3, btv)
    cases.append(((c.tuple_count, c.pointed_count, c.unpointed_count), (6, 1, 1)))

    c = count_space(c2, 1, 2)
    cases.append(((c.tuple_count, c.pointed_count, c.unpointed_count), (4, 4, 4)))

    for got, expected in cases:
        assert got == expected

    # live re-derivation of the same numbers by exhaustive search
    for G, g, n, expected in [
        (c2, 0, 4, (1, 1, 1)),
        (c2, 1, 2, (4, 4, 4)),
    ]:
        elems = list(G.elements)
        norm = o.o_normalizer(elems, G.degree)
        fixed = [s for s in norm if s[0] == 0]
        assert o.census(elems, G.degree, g, n, fixed, norm) == expected

    _report(3, "censuses (1,1,1), (24,12,4), (6,1,1), (4,4,4) exact")


def test_criterion_04_model_equivalence(spaces):
    total = 0
    for G, g, n, ts in spaces:
        H = subgroup_from_elements(G.degree, G.point_stabilizer(0))
        for t in ts:
            w = actions_isomorphic(natural_model(t), coset_model(t, G, H))
            assert w is not None, (G, t)
            total += 1
    _report(4, f"coset/natural witness found for all {total} tuples")


def test_criterion_05_riemann_hurwitz(matrix, c2, s3):
    for G, g, n in matrix:
        for t in enumerate_tuples(G, g, n):
            for model in ("induced", "galois"):
                gx = fiber_genus(t, G, model)
                assert isinstance(gx, int) and gx >= 0

    assert fiber_genus(enumerate_tuples(c2, 0, 4)[0], c2, "induced") == 1
    assert fiber_genus(enumerate_tuples(c2, 0, 6)[0], c2, "induced") == 2
    for t in enumerate_tuples(c2, 1, 2):
        assert fiber_genus(t, c2, "induced") == 2
    bt = make_branching_type(s3, [(parse_perm("(1 2)", 3), 4)])
    for t in enumerate_tuples(s3, 0, 4, bt):
        assert fiber_genus(t, s3, "induced") == 0
        assert fiber_genus(t, s3, "galois") == 1
    _report(5, "all genera non-negative integers; pinned values exact")


def test_criterion_06_braid_move_invariants(spaces):
    rng = random.Random(20260814)
    pool = [(G, t) for G, _, _, ts in spaces for t in ts if t.branch_count >= 2]
    violations = 0
    samples = 10_000
    for _ in range(samples):
        G, t = pool[rng.randrange(len(pool))]
        i = rng.randrange(1, t.branch_count)
        inv = rng.random() < 0.5
        m = hurwitz_move(t, i, inverse_move=inv)
        r = validate_tuple(m, G)
        ok = (
            r.is_valid
            and branching_type_of(m, G) == branching_type_of(t, G)
            and hurwitz_move(m, i, inverse_move=not inv) == t
        )
        violations += 0 if ok else 1
    # braid relations as maps, on every tuple of the two n=4 spaces
    for G, g, n, ts in spaces:
        if n < 3:
            continue
        for t in ts:
            for i in range(1, n - 1):
                left = hurwitz_move(hurwitz_move(hurwitz_move(t, i), i + 1), i)
                right = hurwitz_move(hurwitz_move(hurwitz_move(t, i + 1), i), i + 1)
                if left != right:
                    violations += 1
            if n >= 4:
                if hurwitz_move(hurwitz_move(t, 1), 3) != hurwitz_move(
                    hurwitz_move(t, 3), 1
                ):
                    violations += 1
    assert violations == 0
    _report(6, f"{samples} sampled moves + braid relations, zero violations")


def test_criterion_07_partition_consistency(matrix, v4):
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
        # the mirrored moves, either way, keep every tuple orbit
        for orb in components(cls).orbits:
            members = set(orb)
            for t in orb:
                for i in range(1, n):
                    for inv in (False, True):
                        m = hurwitz_move(t, i, inverse_move=inv, convention="mirrored")
                        assert m in members, (G, g, n, t, i, inv)

    part = components(classify_space(v4, 0, 3))
    assert part.orbit_sizes == (6,)
    oracle_orbits = o.move_partition(
        o.brute_force_tuples(list(v4.elements), 4, 0, 3)
    )
    assert [len(p) for p in oracle_orbits] == [6]
    _report(7, "orbit sizes sum to censuses at all levels; every tuple "
               "orbit closed under mirrored moves; V4 n3 single orbit of 6")


def test_criterion_08_marked_point_change(s3):
    bt = make_branching_type(s3, [(parse_perm("(1 2)", 3), 4)])
    cls = classify_space(s3, 0, 4, bt)
    assert len(cls.pointed) == 12
    forward = {c: change_marked_point(c, 1, s3) for c in cls.pointed}
    assert len(set(forward.values())) == 12
    assert all(m.marked_point == 1 for m in forward.values())
    s3_at_1 = s3.with_marked_point(1)
    for c, m in forward.items():
        assert change_marked_point(m, 0, s3_at_1) == c
    _report(8, "lam0 1->2 is a bijection on the 12 pointed classes with "
               "two-sided inverse")


def test_criterion_09_relabel_covariance(matrix):
    rng = random.Random(97)
    for G, g, n in matrix:
        base = count_space(G, g, n)
        ts = enumerate_tuples(G, g, n)
        reports = {t: cover_report(t, G) for t in ts[:5]}
        for _ in range(20):
            img = list(range(G.degree))
            rng.shuffle(img)
            phi = tuple(img)
            t2, G2 = relabel(ts[0], phi, G)
            c2 = count_space(G2, g, n)
            assert (c2.tuple_count, c2.pointed_count, c2.unpointed_count) == (
                base.tuple_count, base.pointed_count, base.unpointed_count,
            )
            for t, rep in reports.items():
                relabeled, _ = relabel(t, phi, G)
                assert cover_report(relabeled, G2) == rep
    _report(9, "censuses and cover reports invariant under 20 random "
               "relabelings per configuration")


def test_criterion_10_determinism(tmp_path):
    for k, (label, d, gens, g, n) in enumerate(MATRIX_DOCS):
        doc = {"format_version": 1, "degree": d, "generators": gens,
               "base_genus": g, "branch_points": n}
        s1 = parse_job(json.dumps(doc))
        cached = dataclasses.replace(s1, cache_dir=str(tmp_path / str(k)))
        first = comparison_payload(run_job(s1))
        again = comparison_payload(run_job(s1))
        cold = run_job(cached)
        warm = run_job(cached)
        assert warm["meta"]["cache"] == {"hits": 1, "misses": 0}, label
        assert first == again, label
        assert first == comparison_payload(cold) == comparison_payload(warm), label
    _report(10, "byte-identical payloads across reruns and cold vs warm cache")
