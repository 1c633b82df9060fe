"""Job documents, reports, result cache, and the command-line surface."""

import dataclasses
import gc
import hashlib
import itertools
import json
import struct
import subprocess
import sys
import weakref
from array import array
from pathlib import Path

import pytest
from click.testing import CliRunner

from hurwitz import (
    CacheCorrupt,
    HurwitzTuple,
    InputError,
    InternalInvariantViolation,
    IntransitiveGroup,
    ResultCache,
    SchemaError,
    TypeMultiplicityMismatch,
    WorkCapExceeded,
    cache_key,
    classify_space,
    comparison_payload,
    cover_report,
    enumerate_tuples,
    format_perm,
    normalizer_fixing_point,
    parse_job,
    parse_perm,
    report_to_json,
    run_job,
    universal_fiber_report,
)
from hurwitz.cache import _encode
import hurwitz
import hurwitz.classify as classify
import hurwitz.jobs as jobs
import hurwitz.moves as moves
import hurwitz.perms as perms
from hurwitz.jobs import build_group
from hurwitz.cli import main


GOOD = {
    "format_version": 1,
    "degree": 3,
    "generators": ["(1 2)", "(1 2 3)"],
    "base_genus": 0,
    "branch_points": 4,
}


def spec_of(overrides=None, drop=None):
    doc = dict(GOOD)
    doc.update(overrides or {})
    for k in drop or []:
        doc.pop(k)
    return doc


# ---------------------------------------------------------------------------
# parsing and defaults


def test_parse_defaults():
    s = parse_job(json.dumps(GOOD))
    assert s.marked_point == 1
    assert s.branching_type is None
    assert (s.caps.work, s.caps.orbit, s.caps.order) == (10**8, 10**7, 10**6)


def test_parse_accepts_dict():
    assert parse_job(dict(GOOD)) == parse_job(json.dumps(GOOD))


def test_generator_normalization():
    a = parse_job(spec_of({"generators": ["(1 2)", "(1 2 3)"]}))
    b = parse_job(spec_of({"generators": ["(1 2 3)", "(1 2)", "(1 2)"]}))
    assert a.generators == b.generators


def test_type_normalized_to_canonical_rep():
    s = parse_job(spec_of({"branching_type": [["(1 2)", 4]]}))
    # the canonical representative of the transposition class is (2 3)
    assert s.branching_type == (("(2 3)", 4),)


def test_schema_errors():
    bad_docs = [
        "{not json",
        json.dumps([1, 2]),
        json.dumps(spec_of({"format_version": 2})),
        json.dumps(spec_of(drop=["degree"])),
        json.dumps(spec_of({"extra": 1})),
        json.dumps(spec_of({"degree": 0})),
        json.dumps(spec_of({"degree": "3"})),
        json.dumps(spec_of({"generators": []})),
        json.dumps(spec_of({"generators": "not a list"})),
        json.dumps(spec_of({"base_genus": -1})),
        json.dumps(spec_of({"branch_points": 0})),
        json.dumps(spec_of({"marked_point": 4})),
        json.dumps(spec_of({"marked_point": 0})),
        json.dumps(spec_of({"caps": {"bogus": 3}})),
        json.dumps(spec_of({"caps": {"work": 0}})),
        json.dumps(spec_of({"generators": ["(1 9)"]})),
        json.dumps(spec_of({"branching_type": []})),
        json.dumps(spec_of({"branching_type": [["(1 2)", 0]]})),
        json.dumps(spec_of({"branching_type": [["()", 4]]})),
        json.dumps(spec_of({"branching_type": [["(1 2 3 4)", 4]]})),
        # JSON booleans are not integers
        json.dumps(spec_of({"marked_point": True})),
        json.dumps(spec_of({"base_genus": False})),
        json.dumps(spec_of({"format_version": True})),
        json.dumps(spec_of({"caps": {"work": True}})),
        json.dumps(spec_of({"branching_type": [["(1 2)", True], ["(1 2)", 3]]})),
        json.dumps(spec_of({"degree": True, "generators": ["()"]})),
        json.dumps(spec_of({"branch_points": True})),
    ]
    for doc in bad_docs:
        with pytest.raises(SchemaError):
            parse_job(doc)


def test_intransitive_rejected():
    doc = spec_of({"degree": 4, "generators": ["(1 2)"], "branch_points": 2})
    with pytest.raises(IntransitiveGroup):
        parse_job(json.dumps(doc))


def test_type_multiplicity_mismatch():
    doc = spec_of({"branching_type": [["(1 2)", 3]]})
    with pytest.raises(TypeMultiplicityMismatch):
        parse_job(json.dumps(doc))


def test_type_element_outside_group():
    doc = spec_of({"degree": 3, "generators": ["(1 2 3)"],
                   "branch_points": 3, "branching_type": [["(1 2)", 3]]})
    with pytest.raises(SchemaError):
        parse_job(json.dumps(doc))


# ---------------------------------------------------------------------------
# cache keys


def test_cache_key_ignores_generator_order():
    a = parse_job(spec_of({"generators": ["(1 2)", "(1 2 3)"]}))
    b = parse_job(spec_of({"generators": ["(1 2 3)", "(1 2)"]}))
    assert cache_key(a) == cache_key(b)


def test_cache_key_sensitive_to_fields():
    base = parse_job(json.dumps(GOOD))
    keys = {cache_key(base)}
    for change in [
        {"branch_points": 5},
        {"base_genus": 1},
        {"marked_point": 2},
        {"branching_type": [["(1 2)", 4]]},
    ]:
        keys.add(cache_key(parse_job(json.dumps(spec_of(change)))))
    assert len(keys) == 5


def test_cache_key_ignores_run_options():
    s = parse_job(json.dumps(GOOD))
    s2 = dataclasses.replace(s, cache_dir="/tmp/x", use_cache=False)
    assert cache_key(s) == cache_key(s2)


# ---------------------------------------------------------------------------
# running jobs


def test_report_document_shape():
    doc = run_job(parse_job(json.dumps(GOOD)))
    assert list(doc) == ["format_version", "spec", "census", "components", "classes", "meta"]
    assert doc["format_version"] == 1
    c = doc["census"]
    assert (c["tuples"], c["pointed"], c["unpointed"]) == (96, 48, 16)
    assert sum(r["tuples"] for r in c["by_type"]) == 96
    assert doc["components"]["exact"] is True
    assert sum(doc["components"]["orbit_sizes"]) == 96
    assert sum(doc["components"]["orbit_sizes_pointed"]) == 48
    assert sum(doc["components"]["orbit_sizes_unpointed"]) == 16
    assert len(doc["classes"]) == 48
    row = doc["classes"][0]
    assert set(row) == {"canonical", "type", "profiles", "genus_induced", "genus_galois"}
    assert doc["meta"]["cache"] == {"hits": 0, "misses": 0}


def test_report_typed_space():
    doc = run_job(parse_job(json.dumps(spec_of({"branching_type": [["(1 2)", 4]]}))))
    c = doc["census"]
    assert (c["tuples"], c["pointed"], c["unpointed"]) == (24, 12, 4)
    assert all(cls["genus_induced"] == 0 and cls["genus_galois"] == 1
               for cls in doc["classes"])


def test_work_cap_propagates():
    doc = spec_of({"caps": {"work": 10}})
    with pytest.raises(WorkCapExceeded):
        run_job(parse_job(json.dumps(doc)))


def test_report_to_json_is_stable():
    doc = run_job(parse_job(json.dumps(GOOD)))
    text = report_to_json(doc)
    assert text.endswith("\n")
    assert json.loads(text) == doc


def test_cache_round_trip(tmp_path):
    s = dataclasses.replace(parse_job(json.dumps(GOOD)), cache_dir=str(tmp_path))
    first = run_job(s)
    assert first["meta"]["cache"] == {"hits": 0, "misses": 1}
    second = run_job(s)
    assert second["meta"]["cache"] == {"hits": 1, "misses": 0}
    assert comparison_payload(first) == comparison_payload(second)
    # enumeration counters exist only on a cold run; S3 g0 n4 has 5^3 leaves
    assert first["meta"]["leaves"] == 125 and first["meta"]["join_memo"] > 0
    assert second["meta"]["leaves"] is None and second["meta"]["join_memo"] is None


def test_cache_disabled(tmp_path):
    s = dataclasses.replace(
        parse_job(json.dumps(GOOD)), cache_dir=str(tmp_path), use_cache=False
    )
    run_job(s)
    assert list(tmp_path.iterdir()) == []


def test_cache_corruption_recovers(tmp_path):
    s = dataclasses.replace(parse_job(json.dumps(GOOD)), cache_dir=str(tmp_path))
    first = run_job(s)
    (victim,) = tmp_path.iterdir()
    victim.write_bytes(victim.read_bytes()[:40])
    with pytest.warns(CacheCorrupt):
        second = run_job(s)
    assert comparison_payload(first) == comparison_payload(second)


def test_cache_rejects_foreign_key(tmp_path):
    # same directory, different spec: entries must not collide
    s1 = dataclasses.replace(parse_job(json.dumps(GOOD)), cache_dir=str(tmp_path))
    s2 = dataclasses.replace(
        parse_job(json.dumps(spec_of({"branch_points": 3}))), cache_dir=str(tmp_path)
    )
    r1 = run_job(s1)
    r2 = run_job(s2)
    assert r2["meta"]["cache"]["hits"] == 0
    assert r1["census"]["tuples"] != r2["census"]["tuples"]


def test_result_cache_low_level(tmp_path):
    cache = ResultCache(str(tmp_path), enabled=True)
    cache.store("k1", {"rows": 2}, [1, 2, 3, 4])
    meta, data = cache.load("k1")
    assert meta["rows"] == 2
    assert list(data) == [1, 2, 3, 4]
    assert cache.load("nope") is None
    assert [p.name for p in tmp_path.iterdir()] == ["k1.bin"]


def test_result_cache_unusable_directory(tmp_path):
    (tmp_path / "afile").write_text("")
    cache = ResultCache(str(tmp_path / "afile" / "sub"))
    with pytest.raises(InputError, match="cannot use cache directory"):
        cache.load("k1")
    with pytest.raises(InputError, match="cannot use cache directory"):
        cache.store("k1", {}, [1])
    assert ResultCache(str(tmp_path)).load("k1") is None


def test_result_cache_failed_store_leaves_no_temporary_file(tmp_path):
    # a directory at the entry's path makes the rename fail
    (tmp_path / "k1.bin").mkdir()
    with pytest.raises(InputError, match="cannot use cache directory"):
        ResultCache(str(tmp_path)).store("k1", {}, [1])
    assert [p.name for p in tmp_path.iterdir()] == ["k1.bin"]


def test_cache_rejects_non_object_header(tmp_path):
    path = tmp_path / "k1.bin"
    path.write_bytes(_encode(["k1"], [1, 2]))
    cache = ResultCache(str(tmp_path))
    with pytest.warns(CacheCorrupt, match="not an object"):
        assert cache.load("k1") is None
    assert cache.misses == 1 and not path.exists()


def test_cache_leaves_only_entries(tmp_path):
    # one entry per job: the rows; the move orbits are recomputed
    s = dataclasses.replace(parse_job(json.dumps(GOOD)), cache_dir=str(tmp_path))
    run_job(s)
    run_job(s)
    assert [p.name for p in tmp_path.iterdir()] == [f"{cache_key(s)}.bin"]


def test_cache_store_removes_the_two_file_layout(tmp_path):
    # the earlier layout kept <key>.tuples.bin and <key>.components.bin;
    # storing the key's one entry removes them and no file of another key
    s = dataclasses.replace(parse_job(json.dumps(GOOD)), cache_dir=str(tmp_path))
    key, other = cache_key(s), "0" * 64
    for name in (f"{key}.tuples.bin", f"{key}.components.bin", f"{other}.tuples.bin"):
        (tmp_path / name).write_bytes(b"old")
    assert run_job(s)["meta"]["cache"] == {"hits": 0, "misses": 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{other}.tuples.bin", f"{key}.bin"]


def test_warm_run_recomputes_the_partition(tmp_path, monkeypatch):
    # S4 g0 n4 has 11 tuple orbits, one pair of them of one branching type.
    # A partition entry with that pair merged, in the format earlier
    # versions stored and trusted, gave 10 orbits; it is never read now
    s = dataclasses.replace(parse_job({
        "format_version": 1, "degree": 4, "generators": ["(1 2)", "(1 2 3 4)"],
        "base_genus": 0, "branch_points": 4}), cache_dir=str(tmp_path))
    key, part = cache_key(s), moves.components(hurwitz.classify_space(build_group(s)[0], 0, 4))
    classes = part.classification.group.table.classes
    types = {}
    for row, orbit in zip(part.classification.rows, part.orbit_of):
        types.setdefault(orbit, sorted(classes[j] for j in row))
    a, b = next((a, b) for a in types for b in types if a < b and types[a] == types[b])
    number = {}
    merged = [number.setdefault(a if orbit == b else orbit, len(number))
              for orbit in part.orbit_of]
    calls = []
    tuple_partition = moves._tuple_partition

    def counting(*args):
        calls.append(1)
        return tuple_partition(*args)

    monkeypatch.setattr(moves, "_tuple_partition", counting)
    cold = run_job(s)
    assert len(calls) == 1 and len(cold["components"]["orbit_sizes"]) == 11
    header = {"key": key, "kind": "components", "meta": {"orbits": 10}}
    (tmp_path / f"{key}.components.bin").write_bytes(_encode(header, merged))
    warm = run_job(s)
    assert len(calls) == 2 and warm["meta"]["cache"] == {"hits": 1, "misses": 0}
    assert comparison_payload(warm) == comparison_payload(cold)
    assert len(warm["components"]["orbit_sizes"]) == 11


# element indices of (1 2), (1 3), (1 2 3), (1 3 2) and the identity
# among the sorted elements of S3; a GOOD row is four indices.
_A, _B, _C, _CI, _E = [2], [5], [3], [4], [0]


def _conjugates(row, by):
    """The distinct conjugates of an index row of GOOD's S3 by the elements
    of ``by(S3)``, sorted and flattened."""
    group = build_group(parse_job(json.dumps(GOOD)))[0]
    maps = [group.table.conjugation(s) for s in by(group).elements]
    return [j for r in sorted({tuple(m[i] for i in row) for m in maps}) for j in r]


def _merged(data, extra):
    """The rows of ``data`` and ``extra`` in one sorted entry."""
    rows = sorted({tuple(d[k:k + 4]) for d in (data, extra) for k in range(0, len(d), 4)})
    return {"count": len(rows)}, [j for r in rows for j in r]


# (C, C, C^-1, C^-1) and its conjugate by (2 3) keep the relation but
# generate only A3: one pointed class, and so one unpointed class, that
# classifies and fails its check
_A3_CLASS = _C + _C + _CI + _CI + _CI + _CI + _C + _C
BAD_ENTRIES = {
    "row count": ("header says",
                  lambda meta, data: ({"count": meta["count"] + 1}, data)),
    "row order": ("strictly increasing",
                  lambda meta, data: (meta, data[4:8] + data[:4] + data[8:])),
    "outside group": ("outside the group",
                      lambda meta, data: ({"count": 1}, _A + _A + _A + [6])),
    "negative index": ("outside the group",
                       lambda meta, data: ({"count": 1}, [-1] + _A + _A + _A)),
    "identity branch": ("identity",
                        lambda meta, data: ({"count": 1}, _A + _A + _E + _E)),
    "relation": ("relation",
                 lambda meta, data: ({"count": 1}, _A + _A + _A + _B)),
    "not generating": ("does not generate",
                       lambda meta, data: ({"count": 1}, _A * 4)),
    "meta not an object": ("not an object",
                           lambda meta, data: ([meta["count"]], data)),
    # classification fails; the rows themselves are valid
    "partial space": ("type-stabilizer",
                      lambda meta, data: ({"count": 1}, data[:4])),
    "missing conjugates": ("not listed",
                           lambda meta, data: ({"count": 2}, _conjugates(
                               data[:4], normalizer_fixing_point))),
    # classification passes; the check once per unpointed class, on its
    # first canonical row, fails ("class relation": 3 pointed classes, 1 unpointed)
    "class not generating": ("does not generate",
                             lambda meta, data: ({"count": 2}, _A3_CLASS)),
    "class not generating among valid": ("does not generate",
                                         lambda meta, data: _merged(data, _A3_CLASS)),
    "class relation": ("relation",
                       lambda meta, data: ({"count": 6}, _conjugates(
                           _A + _A + _A + _B, lambda group: group))),
}


@pytest.mark.parametrize("defect", sorted(BAD_ENTRIES))
def test_cache_rejects_digest_valid_bad_entry(tmp_path, defect):
    reason, spoil = BAD_ENTRIES[defect]
    s = dataclasses.replace(parse_job(json.dumps(GOOD)), cache_dir=str(tmp_path))
    first = run_job(s)
    cache = ResultCache(str(tmp_path))
    key = cache_key(s)
    cache.store(key, *spoil(*cache.load(key)))
    with pytest.warns(CacheCorrupt, match=reason):
        second = run_job(s)
    assert second["meta"]["cache"]["misses"] >= 1
    assert comparison_payload(first) == comparison_payload(second)
    assert run_job(s)["meta"]["cache"] == {"hits": 1, "misses": 0}


@pytest.mark.parametrize("overrides", [{}, {"base_genus": 1, "branch_points": 2}])
def test_run_job_hashes_no_tuple(tmp_path, monkeypatch, overrides):
    # rows and per-row ids carry the space from classify_space to the
    # report and both cache entries; no dict is keyed by HurwitzTuple
    s = dataclasses.replace(parse_job(json.dumps(spec_of(overrides))), cache_dir=str(tmp_path))
    expected = comparison_payload(run_job(dataclasses.replace(s, use_cache=False)))

    def refuse(self):
        raise AssertionError("HurwitzTuple hashed")

    monkeypatch.setattr(HurwitzTuple, "__hash__", refuse)
    cold, warm = run_job(s), run_job(s)
    assert warm["meta"]["cache"] == {"hits": 1, "misses": 0}
    assert comparison_payload(cold) == comparison_payload(warm) == expected


@pytest.mark.parametrize("doc", [
    {"degree": 5, "generators": ["(1 2 3 4 5)", "(1 2 3)"], "base_genus": 0, "branch_points": 3},
    {"degree": 3, "generators": ["(1 2)", "(1 2 3)"], "base_genus": 1, "branch_points": 4},
], ids=["a5-g0-n3", "s3-g1-n4"])
def test_run_job_never_builds_the_full_normalizer(tmp_path, monkeypatch, doc):
    # the pipeline quotients by N(lam0) and reaches the unpointed classes through G
    s = dataclasses.replace(parse_job(json.dumps(dict(doc, format_version=1))),
                            cache_dir=str(tmp_path))
    expected = comparison_payload(run_job(dataclasses.replace(s, use_cache=False)))
    search = perms._normalizer_search

    def refuse(*args):
        raise AssertionError("N_Sym(G) built")

    def fixed_only(G, lam):
        return refuse() if lam is None else search(G, lam)

    for module in (perms, hurwitz):
        monkeypatch.setattr(module, "normalizer_in_sym", refuse)
    monkeypatch.setattr(perms, "_normalizer_search", fixed_only)
    cold, warm = run_job(s), run_job(s)
    assert cold["meta"]["cache"] == {"hits": 0, "misses": 1}
    assert warm["meta"]["cache"] == {"hits": 1, "misses": 0}
    assert comparison_payload(cold) == comparison_payload(warm) == expected


def _count_tuples_built(monkeypatch) -> list[bool]:
    """Record, per HurwitzTuple built from now on, whether jobs.enumerate_tuples was running."""
    built, inside = [], []
    init, enumerate_tuples = HurwitzTuple.__init__, jobs.enumerate_tuples

    def counting(self, *args, **kwargs):
        built.append(bool(inside))
        init(self, *args, **kwargs)

    def enumerating(*args, **kwargs):
        inside.append(1)
        try:
            return enumerate_tuples(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(HurwitzTuple, "__init__", counting)
    monkeypatch.setattr(jobs, "enumerate_tuples", enumerating)
    return built


@pytest.mark.parametrize("overrides", [{}, {"base_genus": 1, "branch_points": 2}])
def test_warm_run_builds_no_tuple(tmp_path, monkeypatch, overrides):
    # the decoder classifies the cached rows themselves, and the classes
    # are canonical rows: no HurwitzTuple is built
    s = dataclasses.replace(parse_job(json.dumps(spec_of(overrides))), cache_dir=str(tmp_path))
    cold = run_job(s)
    built = _count_tuples_built(monkeypatch)
    warm = run_job(s)
    assert warm["meta"]["cache"] == {"hits": 1, "misses": 0}
    assert built == [] and warm["census"]["pointed"] > 0
    assert comparison_payload(cold) == comparison_payload(warm)


@pytest.mark.parametrize("overrides", [{}, {"base_genus": 1, "branch_points": 2}])
def test_cold_run_builds_only_the_enumerated_tuples(tmp_path, monkeypatch, overrides):
    # one HurwitzTuple per enumerated tuple, each inside enumerate_tuples
    s = dataclasses.replace(parse_job(json.dumps(spec_of(overrides))), cache_dir=str(tmp_path))
    built = _count_tuples_built(monkeypatch)
    cold = run_job(s)
    assert cold["meta"]["cache"] == {"hits": 0, "misses": 1}
    assert built == [True] * cold["census"]["tuples"] and cold["census"]["pointed"] > 0


def test_cold_run_drops_the_enumerated_tuples_before_the_reports(tmp_path, monkeypatch):
    # after enumeration the space lives only as index rows: none of the
    # enumerated HurwitzTuples is alive when the fiber reports start
    refs, alive = [], []
    enumerate_tuples, report = jobs.enumerate_tuples, jobs.universal_fiber_report

    def keeping(*args, **kwargs):
        out = enumerate_tuples(*args, **kwargs)
        refs.extend(map(weakref.ref, out))
        return out

    def first_report(*args):
        if not alive:
            gc.collect()
            alive.append(sum(r() is not None for r in refs))
        return report(*args)

    monkeypatch.setattr(jobs, "enumerate_tuples", keeping)
    monkeypatch.setattr(jobs, "universal_fiber_report", first_report)
    doc = {"format_version": 1, "degree": 5, "generators": ["(1 2 3 4 5)", "(1 2 3)"],
           "base_genus": 0, "branch_points": 3}
    out = run_job(dataclasses.replace(parse_job(doc), cache_dir=str(tmp_path)))
    assert out["meta"]["cache"]["misses"] == 1
    assert len(refs) == out["census"]["tuples"] == 2280 and alive == [0]


JOBS = Path(__file__).resolve().parent.parent / "jobs"


def _job_doc(G, g, n, bt=None):
    doc = {"format_version": 1, "degree": G.degree,
           "generators": [format_perm(p) for p in G.generators],
           "base_genus": g, "branch_points": n}
    if bt is not None:
        doc["branching_type"] = [[format_perm(rep), m] for rep, m in bt.entries]
    return doc


def test_class_entries_equal_their_own_reports(matrix, twisted):
    # an entry carries its unpointed class's report; it must equal the pointed
    # class's own report and that of its canonical tuple, in fresh lists
    docs = [_job_doc(G, g, n) for G, g, n in matrix] + [_job_doc(*case) for case in twisted]
    docs += [json.loads((JOBS / name).read_text()) for name in
             ("s3_transpositions.json", "v4_regular.json", "c5_g1_n2_twisted.json")]
    for doc in docs:
        spec = parse_job(doc)
        G, bt = build_group(spec)
        cls = classify_space(G, spec.base_genus, spec.branch_points, bt)
        entries = run_job(spec)["classes"]
        assert len(entries) == len(cls.canonicals)
        for c, entry in enumerate(entries):
            t = HurwitzTuple(tuple(parse_perm(s, G.degree) for s in entry["canonical"]),
                             spec.base_genus)
            got = (tuple(map(tuple, entry["profiles"])), entry["genus_induced"],
                   entry["genus_galois"])
            for report in (universal_fiber_report(cls, c), cover_report(t, G)):
                assert got == (report.profiles, report.genus, report.galois_genus), (doc, c)
        lists = [x for e in entries for x in (e["canonical"], e["type"], *e["type"],
                                              e["profiles"], *e["profiles"])]
        assert len(set(map(id, lists))) == len(lists)


@pytest.mark.parametrize("workload, unpointed", [
    ({"degree": 3, "generators": ["(1 2)", "(1 2 3)"], "base_genus": 1, "branch_points": 4}, 616),
    ({"degree": 5, "generators": ["(1 2 3 4 5)", "(1 2 3)"], "base_genus": 0, "branch_points": 3},
     19),
])
def test_one_fiber_report_per_unpointed_class(tmp_path, monkeypatch, workload, unpointed):
    calls, report = [], jobs.universal_fiber_report
    monkeypatch.setattr(jobs, "universal_fiber_report",
                        lambda cls, c: calls.append(c) or report(cls, c))
    s = dataclasses.replace(parse_job({"format_version": 1, **workload}), cache_dir=str(tmp_path))
    for hits in (0, 1):
        calls.clear()
        out = run_job(s)
        assert out["meta"]["cache"]["hits"] == hits
        assert len(calls) == out["census"]["unpointed"] == unpointed


def _merge_two_profiles(cls):
    """``cls`` with two unpointed classes merged whose first canonicals have
    one multiset of branch cycle types, so one move orbit on S3 g0 n4, but
    not the same cycle types in slot order."""
    cycle_types, first = cls.group.table.cycle_types, 2 * cls.base_genus
    profile = [tuple(cycle_types[j] for j in cls.canonicals[c][first:])
               for c in cls.unpointed_first]
    u1, u2 = next((a, b) for a, b in itertools.combinations(range(len(profile)), 2)
                  if profile[a] != profile[b] and sorted(profile[a]) == sorted(profile[b]))
    return dataclasses.replace(
        cls, unpointed_of=tuple(u1 if u == u2 else u - (u > u2) for u in cls.unpointed_of),
        unpointed_first=cls.unpointed_first[:u2] + cls.unpointed_first[u2 + 1:])


def test_warm_equals_cold_under_twisted_types(tmp_path, twisted):
    # a twisted type filter can put a class canonical outside the cached
    # rows; its check still stands for the listed conjugates
    for k, case in enumerate(twisted):
        s = dataclasses.replace(parse_job(_job_doc(*case)), cache_dir=str(tmp_path / str(k)))
        cold, warm = run_job(s), run_job(s)
        assert warm["meta"]["cache"] == {"hits": 1, "misses": 0}
        assert comparison_payload(cold) == comparison_payload(warm)


def test_cache_relation_check_covers_the_handles(tmp_path):
    # S3 g1 n2: every stored row passes, and (1 2), (1 3), (1 2), (1 2)
    # fails only through its commutator [(1 2), (1 3)], a 3-cycle
    s = dataclasses.replace(parse_job(json.dumps(spec_of({"base_genus": 1, "branch_points": 2}))),
                            cache_dir=str(tmp_path))
    first = run_job(s)
    warm = run_job(s)
    assert warm["meta"]["cache"] == {"hits": 1, "misses": 0}
    assert comparison_payload(first) == comparison_payload(warm)
    cache = ResultCache(str(tmp_path))
    cache.store(cache_key(s), {"count": 1}, _A + _B + _A + _A)
    with pytest.warns(CacheCorrupt, match="relation"):
        again = run_job(s)
    assert comparison_payload(first) == comparison_payload(again)


def test_cache_recomputes_a_first_format_entry(tmp_path):
    # HWZCACH1 stored the d images of every entry, not its element index
    s = dataclasses.replace(parse_job(json.dumps(GOOD)), cache_dir=str(tmp_path))
    key = cache_key(s)
    ts = enumerate_tuples(build_group(s)[0], 0, 4)
    head = json.dumps({"key": key, "kind": "tuples", "meta": {"count": len(ts)}},
                      sort_keys=True, separators=(",", ":")).encode()
    images = array("q", [x for t in ts for e in t.entries for x in e]).tobytes()
    body = b"HWZCACH1" + struct.pack(">I", len(head)) + head + images
    path = tmp_path / f"{key}.bin"
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.warns(CacheCorrupt, match="bad magic"):
        doc = run_job(s)
    assert doc["meta"]["cache"] == {"hits": 0, "misses": 1}
    assert doc["census"]["tuples"] == len(ts) == 96
    assert path.read_bytes().startswith(b"HWZCACH2")
    assert comparison_payload(doc) == comparison_payload(run_job(s))


def test_cache_rejects_rows_of_another_type(tmp_path):
    # the unfiltered space stored under the key of its transpositions-only
    # subspace passes every other row check
    full = dataclasses.replace(parse_job(json.dumps(GOOD)), cache_dir=str(tmp_path))
    filtered = dataclasses.replace(
        parse_job(json.dumps(spec_of({"branching_type": [["(1 2)", 4]]}))),
        cache_dir=str(tmp_path),
    )
    run_job(full)
    cache = ResultCache(str(tmp_path))
    cache.store(cache_key(filtered), *cache.load(cache_key(full)))
    with pytest.warns(CacheCorrupt, match="branching type"):
        doc = run_job(filtered)
    assert (doc["census"]["tuples"], doc["census"]["pointed"]) == (24, 12)
    fresh = run_job(dataclasses.replace(filtered, use_cache=False))
    assert comparison_payload(doc) == comparison_payload(fresh)


# ---------------------------------------------------------------------------
# command line


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def job_file(tmp_path):
    p = tmp_path / "job.json"
    p.write_text(json.dumps(GOOD))
    return str(p)


def test_cli_census(runner, job_file):
    res = runner.invoke(main, ["census", job_file])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["census"]["tuples"] == 96


def test_cli_census_above_degree_ten(runner, tmp_path):
    p = tmp_path / "c11.json"
    p.write_text(json.dumps({
        "format_version": 1,
        "degree": 11,
        "generators": ["(1 2 3 4 5 6 7 8 9 10 11)"],
        "base_genus": 0,
        "branch_points": 3,
    }))
    res = runner.invoke(main, ["census", str(p)])
    assert res.exit_code == 0
    # 10 * 10 - 10 tuples; |N(lambda0)| = 10 and |N| / |Z| = 110 / 11
    census = json.loads(res.output)["census"]
    assert (census["tuples"], census["pointed"], census["unpointed"]) == (90, 9, 9)


def test_cli_output_file(runner, job_file, tmp_path):
    out = tmp_path / "r.json"
    res = runner.invoke(main, ["census", job_file, "--output", str(out)])
    assert res.exit_code == 0
    assert json.loads(out.read_text())["census"]["pointed"] == 48


CLASSIFY_TUPLES = ["--tuple", "(1 2), (1 2), (1 3), (1 3)",
                   "--tuple", "(1 3), (1 3), (1 2), (1 2)"]


@pytest.mark.parametrize("command", ["census", "validate", "classify"])
def test_cli_unwritable_output(runner, job_file, tmp_path, command):
    out = str(tmp_path / "missing" / "r.json")
    extra = CLASSIFY_TUPLES if command == "classify" else []
    res = runner.invoke(main, [command, job_file, "--output", out, *extra])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "error: cannot write" in res.output
    assert "Traceback" not in res.output


def test_cli_unusable_cache_dir(runner, job_file, tmp_path):
    (tmp_path / "afile").write_text("")
    cdir = str(tmp_path / "afile" / "sub")
    res = runner.invoke(main, ["census", job_file, "--cache-dir", cdir])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "error: cannot use cache directory" in res.output
    assert "Traceback" not in res.output


def test_cli_validate_exit_code_internal(runner, job_file, monkeypatch):
    import hurwitz.cli as cli

    def broken(text):
        raise InternalInvariantViolation("broken")

    monkeypatch.setattr(cli, "parse_job", broken)
    res = runner.invoke(main, ["validate", job_file])
    assert res.exit_code == 4
    assert "error: broken" in res.output


def test_a_merge_of_two_profiles_raises(runner, job_file, monkeypatch):
    # each pointed class is checked against its unpointed class's report
    honest = jobs.classify_space
    monkeypatch.setattr(jobs, "classify_space",
                        lambda *args, **kwargs: _merge_two_profiles(honest(*args, **kwargs)))
    with pytest.raises(InternalInvariantViolation, match="branch cycle types"):
        run_job(parse_job(json.dumps(GOOD)))
    res = runner.invoke(main, ["fibers", job_file, "--no-cache"])
    assert res.exit_code == 4
    assert "branch cycle types" in res.output


def test_cli_components_and_fibers(runner, job_file):
    for sub in ("components", "fibers"):
        res = runner.invoke(main, [sub, job_file])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["components"]["orbit_sizes"] == [24, 72]
        assert len(doc["classes"]) == 48


def test_cli_validate(runner, job_file):
    res = runner.invoke(main, ["validate", job_file])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["valid"] is True
    assert doc["spec"]["degree"] == 3


def test_cli_classify(runner, job_file):
    res = runner.invoke(main, ["classify", job_file, *CLASSIFY_TUPLES])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["pointed"]["equivalent"] is True
    assert doc["pointed"]["witness"] == "(2 3)"
    assert doc["unpointed"]["equivalent"] is True
    assert doc["unpointed"]["witness_unique"] is True


C2_CUBED_TUPLES = [
    "--tuple", "(1 2)(3 4)(5 6)(7 8), (1 3)(2 4)(5 7)(6 8), (1 5)(2 6)(3 7)(4 8), "
               "(1 2)(3 4)(5 6)(7 8), (1 7)(2 8)(3 5)(4 6)",
    "--tuple", "(1 3)(2 4)(5 7)(6 8), (1 2)(3 4)(5 6)(7 8), (1 5)(2 6)(3 7)(4 8), "
               "(1 3)(2 4)(5 7)(6 8), (1 6)(2 5)(3 8)(4 7)"]


def test_classify_never_runs_the_unfixed_normalizer_search(runner, job_file, monkeypatch):
    # a cover witness is n r over N(lam0) and G's transversal, and |Z| comes from
    # the search seeded for the centralizer; no search runs unfixed and unseeded
    c2_cubed = str(Path(__file__).resolve().parents[1] / "jobs" / "c2cubed_regular_g0_n5.json")
    calls = [["classify", job_file, *CLASSIFY_TUPLES],
             ["classify", c2_cubed, "--no-cache", *C2_CUBED_TUPLES]]

    def answers():
        outputs = [runner.invoke(main, args).output for args in calls]
        G = build_group(parse_job(Path(c2_cubed).read_text()))[0]
        t1, t2 = (HurwitzTuple(tuple(parse_perm(e, 8) for e in arg.split(", ")), 0)
                  for arg in C2_CUBED_TUPLES[1::2])
        return outputs, (classify.pointed_class(t1, G), classify.unpointed_class(t1, G),
                         classify.are_pointed_equivalent(t1, t2, G),
                         classify.are_cover_equivalent(t1, t2, G))

    expected = answers()
    assert [json.loads(out)["unpointed"]["witness_unique"] for out in expected[0]] == [True, False]
    search = perms._normalizer_search

    def refuse(*args):
        raise AssertionError("N_Sym(G) built")

    def fixed_or_centralizing(G, lam, *, centralizing=False):
        if lam is None and not centralizing:
            refuse()
        return search(G, lam, centralizing=centralizing)

    for module in (perms, hurwitz):
        monkeypatch.setattr(module, "normalizer_in_sym", refuse)
    monkeypatch.setattr(perms, "_normalizer_search", fixed_or_centralizing)
    assert answers() == expected


def test_cli_classify_inequivalent(runner, tmp_path):
    p = tmp_path / "j.json"
    p.write_text(json.dumps(spec_of({"branch_points": 3})))
    res = runner.invoke(
        main,
        ["classify", str(p),
         "--tuple", "(2 3), (1 2), (1 3 2)",
         "--tuple", "(2 3), (1 2 3), (1 2)"],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["pointed"]["equivalent"] is False
    assert doc["pointed"]["witness"] is None


def test_cli_classify_rejects_invalid_tuple(runner, job_file):
    res = runner.invoke(
        main,
        ["classify", job_file,
         "--tuple", "(1 2), (1 2), (1 2), (1 2)",  # does not generate S3
         "--tuple", "(1 2), (1 2), (1 3), (1 3)"],
    )
    assert res.exit_code == 2


def test_cli_classify_rejects_a_tuple_of_another_type(runner, tmp_path):
    # both tuples are points of S3 g0 n4, but not of the job's type 4*[(1 2)]
    p = tmp_path / "j.json"
    p.write_text(json.dumps(spec_of({"branching_type": [["(1 2)", 4]]})))
    res = runner.invoke(
        main,
        ["classify", str(p),
         "--tuple", "(1 2 3), (1 3 2), (1 2), (1 2)",
         "--tuple", "(1 3 2), (1 2 3), (1 2), (1 2)"],
    )
    assert res.exit_code == 2
    assert "is not a valid point of the space" in res.output
    assert "type=False" in res.output


def test_cli_exit_code_schema(runner, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(spec_of({"generators": ["(1 9)"]})))
    res = runner.invoke(main, ["census", str(p)])
    assert res.exit_code == 2
    res = runner.invoke(main, ["census", str(tmp_path / "missing.json")])
    assert res.exit_code == 2


def test_cli_exit_code_cap(runner, tmp_path):
    p = tmp_path / "cap.json"
    p.write_text(json.dumps(spec_of({"caps": {"work": 10}})))
    res = runner.invoke(main, ["census", str(p)])
    assert res.exit_code == 3


def test_cli_exit_code_normalizer_cap(runner, monkeypatch):
    # the regular C2^3 has |N(1)| * |1^G| = 168 * 8 = 1344 > 1000
    monkeypatch.setattr(perms, "DEFAULT_ORDER_CAP", 1000)
    job = Path(__file__).resolve().parents[1] / "jobs" / "c2cubed_regular_g0_n5.json"
    res = runner.invoke(main, ["census", str(job), "--no-cache"])
    assert res.exit_code == 3
    assert "normalizer search: order exceeds cap 1000; 126 elements found" in res.output


def test_cli_cache_flags(runner, job_file, tmp_path):
    cdir = tmp_path / "cache"
    res = runner.invoke(main, ["census", job_file, "--cache-dir", str(cdir)])
    assert res.exit_code == 0
    assert any(p.name.endswith(".bin") for p in cdir.iterdir())
    res = runner.invoke(
        main, ["census", job_file, "--cache-dir", str(cdir), "--no-cache"]
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["meta"]["cache"] == {"hits": 0, "misses": 0}


def test_installed_entry_point(job_file):
    res = subprocess.run(
        [sys.executable, "-m", "hurwitz.cli", "census", job_file],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["census"]["tuples"] == 96
