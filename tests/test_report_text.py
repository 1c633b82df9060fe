"""The report text: ``report_chunks`` pieces against ``json.dumps``, the CLI's
streamed output, and what ``run_job`` keeps alive while it builds the class
section."""

import dataclasses
import json
import weakref
from array import array

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from hurwitz import ResultCache, parse_job, report_chunks, report_to_json, run_job
from hurwitz.cache import _encode
from hurwitz.cli import main
import hurwitz.jobs as jobs
from test_jobs_cli import GOOD, JOBS, _job_doc

# the jobs that run in well under a second
QUICK_JOBS = ("s3_transpositions.json", "v4_regular.json", "c5_g1_n2_twisted.json",
              "c2cubed_regular_g0_n5.json", "s5_g0_n3.json")


def _dumped(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def _assert_same_text(doc) -> list[str]:
    chunks = list(report_chunks(doc))
    assert report_to_json(doc) == _dumped(doc)
    assert "".join(chunks) == report_to_json(doc)
    return chunks


def test_report_text_equals_json_dumps(matrix, twisted):
    # every run_job document goes through the fragments: one piece per entry
    docs = [_job_doc(G, g, n) for G, g, n in matrix] + [_job_doc(*case) for case in twisted]
    docs += [json.loads((JOBS / name).read_text()) for name in QUICK_JOBS]
    for job in docs:
        doc = run_job(parse_job(job))
        trimmed = {k: v for k, v in doc.items() if k != "meta"}
        for d in (doc, trimmed):
            assert len(_assert_same_text(d)) == len(d["classes"]) + 2


# int and str leaves take the fragments; 1.0, True and None send the
# document through json.dumps whole
EXACT = st.sampled_from([0, 1, 2, 7, "a", "(1 2)", "é", "☃"])
LEAVES = EXACT | st.sampled_from([1.0, 0.0, True, False, None])
TEXT = st.text(max_size=5)
VALUES = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
                      lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(TEXT, inner, max_size=3), max_leaves=4)


def tails(leaves):
    # built in run_job's key order, which fixed_dictionaries does not keep
    return st.tuples(st.lists(st.lists(leaves, max_size=2), max_size=3),
                     st.lists(st.lists(leaves, max_size=3), max_size=4), leaves, leaves).map(
        lambda t: dict(zip(("type", "profiles", "genus_induced", "genus_galois"), t)))


@st.composite
def entries(draw, pool):
    """An entry: a canonical (possibly empty, possibly non-ASCII) plus a
    fresh copy of a tail from ``pool``; now and then with a key added,
    dropped or moved, or replaced by some other value."""
    entry = {"canonical": draw(st.lists(TEXT, max_size=6)),
             **json.loads(json.dumps(draw(st.sampled_from(pool))))}
    change = draw(st.sampled_from(["none"] * 36 + ["extra", "missing", "moved", "other"]))
    if change == "extra":
        entry[draw(TEXT)] = draw(VALUES)
    elif change == "missing":
        del entry[draw(st.sampled_from(sorted(entry)))]
    elif change == "moved":
        entry["canonical"] = entry.pop("canonical")
    elif change == "other":
        entry = draw(VALUES)
    return entry


@st.composite
def documents(draw):
    leaves = draw(st.sampled_from([EXACT, EXACT, EXACT, LEAVES]))
    pool = draw(st.lists(tails(leaves), min_size=1, max_size=3))
    classes = draw(st.lists(entries(pool), max_size=6))
    head = draw(st.dictionaries(TEXT.filter(lambda k: k != "classes"), VALUES, max_size=3))
    rest = draw(st.dictionaries(TEXT.filter(lambda k: k != "classes"), VALUES, max_size=3))
    where = draw(st.sampled_from(["absent", "first", "middle", "last"]))
    if where == "absent":
        return {**head, **rest}
    if where == "first":
        return {"classes": classes, **head, **rest}
    if where == "last":
        return {**head, **rest, "classes": classes}
    return {**head, "classes": classes, **rest}


def test_drawn_report_text_equals_json_dumps():
    fragmented = []

    @settings(max_examples=150, deadline=None)
    @given(documents())
    def check(doc):
        fragmented.append(len(_assert_same_text(doc)) > 1)

    check()
    # both the fragments and json.dumps of the whole document were drawn
    assert 0 < sum(fragmented) < len(fragmented)


def test_equal_tails_of_other_types_are_not_merged():
    # 1, 1.0 and True hash equal; each entry must keep its own encoding
    doc = {"classes": [{"canonical": ["()"], "type": [["(1 2)", v]], "profiles": [[v]],
                       "genus_induced": v, "genus_galois": 0} for v in (1, 1.0, True, 1)]}
    text = "".join(_assert_same_text(doc))
    assert text.count("1.0") == 3 and text.count("true") == 3


@pytest.mark.parametrize("command", ["census", "components", "fibers"])
def test_cli_writes_the_report_text(tmp_path, command):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(GOOD))
    out = tmp_path / "r.json"
    runner = CliRunner()
    printed = runner.invoke(main, [command, str(job), "--no-cache"])
    written = runner.invoke(main, [command, str(job), "--no-cache", "--output", str(out)])
    assert printed.exit_code == written.exit_code == 0 and written.output == ""
    for text in (printed.output, out.read_text()):
        doc = json.loads(text)
        assert len(doc["classes"]) == 48 and report_to_json(doc) == text


def test_a_failed_run_writes_no_output(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({**GOOD, "caps": {"work": 10}}))
    out = tmp_path / "r.json"
    res = CliRunner().invoke(main, ["census", str(job), "--output", str(out)])
    assert res.exit_code == 3 and not out.exists()


@pytest.mark.parametrize("runs", [1, 2])
def test_the_classification_is_released_before_the_class_section(tmp_path, monkeypatch, runs):
    # cold, then warm (the cached rows are classified by the same name): when
    # the class entries are built, nothing holds the classification, its row
    # index or the partitions, without waiting for the cycle collector
    refs, alive = [], []
    classify_space, class_entries = jobs.classify_space, jobs._class_entries

    def keeping(*args, **kwargs):
        cls = classify_space(*args, **kwargs)
        refs.append(weakref.ref(cls))
        return cls

    def entries(*args):
        alive.append([r() is not None for r in refs])
        return class_entries(*args)

    monkeypatch.setattr(jobs, "classify_space", keeping)
    monkeypatch.setattr(jobs, "_class_entries", entries)
    spec = dataclasses.replace(parse_job({**GOOD, "base_genus": 1, "branch_points": 2}),
                               cache_dir=str(tmp_path))
    for _ in range(runs):
        doc = run_job(spec)
    assert doc["meta"]["cache"]["hits"] == runs - 1
    assert alive == [[False] * k for k in range(1, runs + 1)]


def test_store_reads_its_data_only_when_enabled(tmp_path):
    # a lazy payload is never consumed by a disabled cache, and an enabled
    # one writes the same bytes from it as from a list
    data = [3, 1, 4, 1, 5, 9]
    lazy = iter(data)
    ResultCache(tmp_path / "off", enabled=False).store("k", {"count": 1}, lazy)
    assert list(lazy) == data
    ResultCache(tmp_path).store("k", {"count": 1}, iter(data))
    assert (tmp_path / "k.bin").read_bytes() == _encode({"key": "k", "meta": {"count": 1}}, data)
    assert array("q", data).tobytes() in (tmp_path / "k.bin").read_bytes()
