"""Job documents, orchestration, and structured report emission.

A job is a single JSON document:

    {"format_version": 1, "degree": 3, "generators": ["(1 2)", "(1 2 3)"],
     "base_genus": 0, "branch_points": 4, "marked_point": 1,
     "branching_type": [["(1 2)", 4]], "caps": {"work": ..., "orbit": ..., "order": ...}}

``marked_point`` defaults to 1 (1-based); ``branching_type`` and ``caps``
are optional.  A run produces one report document whose payload is
byte-identical across runs and between cold and warm cache; only the
``meta`` section (timing, work and cache statistics) may vary.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import chain

from . import __version__
from .cache import ResultCache
from .classify import SpaceClassification, classify_space
from .covers import universal_fiber_report
from .errors import (
    InputError,
    InternalInvariantViolation,
    IntransitiveGroup,
    SchemaError,
    TypeMultiplicityMismatch,
)
from .moves import components
from .perms import PermGroup, format_perm, generate_group, identity, parse_perm
from .tuples import BranchingType, enumerate_tuples, make_branching_type, pop_rows

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Caps:
    work: int = 10**8
    orbit: int = 10**7
    order: int = 10**6


@dataclass(frozen=True)
class JobSpec:
    """Validated, normalized description of one computation.

    ``requested`` names the subcommand that asked for the report; it does
    not change what is computed, since ``run_job`` always computes every
    section.
    """

    degree: int
    generators: tuple[str, ...]
    base_genus: int
    branch_points: int
    marked_point: int = 1  # 1-based, like all text I/O
    branching_type: tuple[tuple[str, int], ...] | None = None
    caps: Caps = field(default_factory=Caps)
    # run options, not part of the document schema
    requested: str = "reports"
    cache_dir: str | None = None
    use_cache: bool = True


_TOP_KEYS = {
    "format_version",
    "degree",
    "generators",
    "base_genus",
    "branch_points",
    "marked_point",
    "branching_type",
    "caps",
}
_CAP_KEYS = {"work", "orbit", "order"}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def parse_job(doc: str | dict) -> JobSpec:
    """Validate a job document and apply defaults.

    Raises SchemaError for structural problems, IntransitiveGroup when the
    generated group does not act transitively, and
    TypeMultiplicityMismatch when type multiplicities do not sum to the
    branch count.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "job document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"unknown fields: {sorted(unknown)}")
    _require(type(doc.get("format_version")) is int and doc["format_version"] == FORMAT_VERSION,
             f"format_version must be {FORMAT_VERSION}")
    for name in ("degree", "generators", "base_genus", "branch_points"):
        _require(name in doc, f"missing required field {name!r}")

    degree = doc["degree"]
    _require(type(degree) is int and degree >= 1, "degree must be a positive integer")
    gens_raw = doc["generators"]
    _require(
        isinstance(gens_raw, list) and gens_raw
        and all(isinstance(s, str) for s in gens_raw),
        "generators must be a non-empty list of cycle strings",
    )
    base_genus = doc["base_genus"]
    _require(type(base_genus) is int and base_genus >= 0,
             "base_genus must be a non-negative integer")
    branch_points = doc["branch_points"]
    _require(type(branch_points) is int and branch_points >= 1,
             "branch_points must be a positive integer")
    marked_point = doc.get("marked_point", 1)
    _require(type(marked_point) is int and 1 <= marked_point <= degree,
             f"marked_point must be in 1..{degree}")

    caps_raw = doc.get("caps", {})
    _require(isinstance(caps_raw, dict) and set(caps_raw) <= _CAP_KEYS,
             f"caps may only contain {sorted(_CAP_KEYS)}")
    for k, v in caps_raw.items():
        _require(type(v) is int and v >= 1, f"cap {k!r} must be a positive integer")
    caps = Caps(**caps_raw)

    try:
        gens = [parse_perm(s, degree) for s in gens_raw]
    except InputError as exc:
        raise SchemaError(f"bad generator: {exc}") from exc
    group = generate_group(gens, degree, cap=caps.order, marked_point=marked_point - 1)
    if not group.is_transitive():
        raise IntransitiveGroup(
            "the generated group does not act transitively on the points"
        )

    bt_raw = doc.get("branching_type")
    branching_type: tuple[tuple[str, int], ...] | None = None
    if bt_raw is not None:
        _require(isinstance(bt_raw, list) and bt_raw, "branching_type must be a non-empty list")
        pairs = []
        for item in bt_raw:
            _require(
                isinstance(item, list) and len(item) == 2
                and isinstance(item[0], str) and type(item[1]) is int,
                "each branching_type entry must be [cycle-string, multiplicity]",
            )
            s, mult = item
            _require(mult >= 1, "type multiplicities must be positive")
            try:
                p = parse_perm(s, degree)
            except InputError as exc:
                raise SchemaError(f"bad branching_type element: {exc}") from exc
            _require(p in group, f"type element {s!r} is not in the group")
            _require(p != identity(degree), "the identity cannot be a branch class")
            pairs.append((p, mult))
        if sum(m for _, m in pairs) != branch_points:
            raise TypeMultiplicityMismatch(
                "type multiplicities must sum to branch_points"
            )
        bt = make_branching_type(group, pairs)
        branching_type = tuple((format_perm(rep), m) for rep, m in bt.entries)

    return JobSpec(
        degree=degree,
        generators=tuple(format_perm(g) for g in sorted(set(gens))),
        base_genus=base_genus,
        branch_points=branch_points,
        marked_point=marked_point,
        branching_type=branching_type,
        caps=caps,
    )


def build_group(spec: JobSpec) -> tuple[PermGroup, BranchingType | None]:
    gens = [parse_perm(s, spec.degree) for s in spec.generators]
    group = generate_group(
        gens, spec.degree, cap=spec.caps.order, marked_point=spec.marked_point - 1
    )
    bt = None
    if spec.branching_type is not None:
        bt = make_branching_type(
            group,
            [(parse_perm(s, spec.degree), m) for s, m in spec.branching_type],
        )
    return group, bt


def cache_key(spec: JobSpec) -> str:
    """Stable content address of everything the enumeration depends on:
    the document as ``parse_job`` normalized it, without its caps."""
    fragment = {k: v for k, v in _spec_to_json(spec).items() if k != "caps"}
    blob = json.dumps(fragment, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Report assembly


def _spec_to_json(spec: JobSpec) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "degree": spec.degree,
        "generators": list(spec.generators),
        "base_genus": spec.base_genus,
        "branch_points": spec.branch_points,
        "marked_point": spec.marked_point,
        "branching_type": None
        if spec.branching_type is None
        else [[s, m] for s, m in spec.branching_type],
        "caps": {"work": spec.caps.work, "orbit": spec.caps.orbit, "order": spec.caps.order},
    }


def _check_relation_and_generation(table, first: int, rows) -> None:
    """Raise ValueError unless every index row (handle slots before
    ``first``) satisfies the surface relation and generates the group."""
    inv = table.inverses
    for row in rows:
        word = [s for a, b in zip(row[0:first:2], row[1:first:2])
                for s in (a, b, inv[a], inv[b])] + list(row[first:])  # [a, b] = a b a^-1 b^-1
        if reduce(table.mul, word, 0) != 0:
            raise ValueError("a row violates the relation")
        if not table.generates(row):
            raise ValueError("a row does not generate the group")


def _classify_cached_rows(group: PermGroup, base_genus: int, branch_points: int,
                          type_filter: BranchingType | None,
                          meta: dict, data: list[int]) -> SpaceClassification:
    """Classify the rows of a cached entry, checking that they could be the space.

    Raises ValueError unless there are ``meta["count"]`` rows of element
    indices in strictly increasing order, every index lies in the group
    and no branch entry is the identity; unless ``classify_space`` accepts
    the rows, which under a type filter checks every row's branching type
    (if not, each row's relation and generation are checked first, so a
    defective row names its defect); and unless the first canonical row of
    each unpointed class satisfies the relation and generates G.  That one
    row x stands for the class: ``classify_space`` has verified every
    listed row of it to be (n r) x (n r)^-1 with n r in N(lam0) T =
    N_Sym(G), and conjugation by an element normalizing G is an
    automorphism of G, so it keeps both properties.
    """
    width, first = 2 * base_genus + branch_points, 2 * base_genus
    if len(data) % width != 0:
        raise ValueError("cached payload has the wrong shape")
    rows = tuple(zip(*[iter(data)] * width))
    if len(rows) != meta.get("count"):
        raise ValueError(f"{len(rows)} rows, header says {meta.get('count')}")
    table = group.table
    if data and not 0 <= min(data) <= max(data) < table.size:
        raise ValueError("an entry lies outside the group")
    if any(a >= b for a, b in zip(rows, rows[1:])):  # index order is element order
        raise ValueError("rows are not strictly increasing")
    if any(0 in data[j::width] for j in range(first, width)):  # index 0 is the identity
        raise ValueError("a branch entry is the identity")
    try:
        cls = classify_space(group, base_genus, branch_points, type_filter, rows=rows)
    except InternalInvariantViolation as exc:
        _check_relation_and_generation(table, first, rows)
        raise ValueError(f"the rows do not classify: {exc}") from None
    _check_relation_and_generation(table, first, map(cls.canonicals.__getitem__,
                                                     cls.unpointed_first))
    return cls


def run_job(spec: JobSpec) -> dict:
    """Execute one job and assemble the full report document.

    The census, components and classes sections are always all computed;
    the subcommand only selects how the caller consumes the document.
    The fiber report is computed once per unpointed class, from its first
    pointed class, and reused for each of its pointed classes: they are
    conjugates by N(lam0) T = N_Sym(G), which keeps generation and each
    branch entry's cycle type.  Each pointed class's canonical is checked
    to have the report's profiles, so a wrong unpointed merge raises
    InternalInvariantViolation.
    """
    t_start = time.perf_counter()
    group, type_filter = build_group(spec)
    cache = ResultCache(spec.cache_dir, spec.use_cache)
    key = cache_key(spec)
    stats: dict = {}

    space = (group, spec.base_genus, spec.branch_points, type_filter)
    cls = cache.load(key, partial(_classify_cached_rows, *space))
    index, strings = group.table.index, group.table.strings
    if cls is None:  # no HurwitzTuple outlives the making of its row
        cls = classify_space(*space, rows=pop_rows(
            enumerate_tuples(*space, work_cap=spec.caps.work, stats=stats), index))
        cache.store(key, {"count": len(cls.rows)}, list(chain.from_iterable(cls.rows)))

    # the move orbits are always recomputed: no check of a stored partition
    # costs less than the move search that finds it
    tuples = components(cls, level="tuples", orbit_cap=spec.caps.orbit)
    pointed, unpointed = (components(cls, level=level, tuple_partition=tuples)
                          for level in ("pointed", "unpointed"))

    census = cls.census
    reports = [universal_fiber_report(cls, c) for c in cls.unpointed_first]
    cycle_types, first = group.table.cycle_types, 2 * spec.base_genus
    type_pairs = {key: [(strings[k], key.count(k)) for k in sorted(set(key))]
                  for key in set(cls.types)}
    classes_json = []
    for c, (row, branch) in enumerate(zip(cls.canonicals, cls.types)):
        report = reports[cls.unpointed_of[c]]
        if tuple(map(cycle_types.__getitem__, row[first:])) != report.profiles:
            raise InternalInvariantViolation(
                f"pointed class {c} and its unpointed class differ in branch cycle types")
        classes_json.append(
            {
                "canonical": [strings[j] for j in row],
                "type": [list(p) for p in type_pairs[branch]],
                "profiles": [list(p) for p in report.profiles],
                "genus_induced": report.genus,
                "genus_galois": report.galois_genus,
            }
        )

    doc = {
        "format_version": FORMAT_VERSION,
        "spec": _spec_to_json(spec),
        "census": {
            "tuples": census.tuple_count,
            "pointed": census.pointed_count,
            "unpointed": census.unpointed_count,
            "by_type": [
                {
                    "type": [[strings[index[rep]], m] for rep, m in row.branching_type.entries],
                    "tuples": row.tuples,
                    "pointed": row.pointed,
                    "unpointed": row.unpointed,
                }
                for row in census.by_type
            ],
        },
        "components": {
            "exact": tuples.exact,
            "orbit_sizes": list(tuples.orbit_sizes),
            "orbit_sizes_pointed": list(pointed.orbit_sizes),
            "orbit_sizes_unpointed": list(unpointed.orbit_sizes),
        },
        "classes": classes_json,
        "meta": {
            "version": __version__,
            "elapsed_s": round(time.perf_counter() - t_start, 6),
            "work_nodes": stats.get("nodes"),
            "leaves": stats.get("leaves"),
            "join_memo": stats.get("join_memo"),
            "cache": {"hits": cache.hits, "misses": cache.misses},
        },
    }
    return doc


def report_to_json(doc: dict) -> str:
    """Canonical serialization: fixed key order, two-space indent, newline."""
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def comparison_payload(doc: dict) -> str:
    """The deterministic portion of a report (everything except meta)."""
    trimmed = {k: v for k, v in doc.items() if k != "meta"}
    return report_to_json(trimmed)
