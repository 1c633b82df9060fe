"""Benchmark workloads, seeded relabelling and the frozen answers.

Each workload is one job document.  The seed relabels the points by a
seeded permutation of S_d, so every seed does the same amount of work on
an isomorphic space; seed 0 is the identity.  The answers in
``frozen.json`` were recorded from the seed-0 reports; the counts and
histograms in it are invariant under relabelling, the payload digest is
checked on seed 0 only.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from pathlib import Path

FROZEN_PATH = Path(__file__).with_name("frozen.json")

# Job documents; BENCHMARK.json says why each gated one is there.
# s4-g0-n4, the broad genus-0 case, is not gated: one cold/warm/census
# round takes 13-20 s on a 2-core machine, too long to repeat within the
# run length that the gated workloads allow.  It runs by name or in "all".
WORKLOADS = {
    "s4-g0-n4": {"degree": 4, "generators": ["(1 2 3 4)", "(1 2)"],
                 "base_genus": 0, "branch_points": 4},
    "a5-g0-n3": {"degree": 5, "generators": ["(1 2 3 4 5)", "(1 2 3)"],
                 "base_genus": 0, "branch_points": 3},
    "s3-g1-n4": {"degree": 3, "generators": ["(1 2)", "(1 2 3)"],
                 "base_genus": 1, "branch_points": 4},
    "c9-g0-n3": {"degree": 9, "generators": ["(1 2 3 4 5 6 7 8 9)"],
                 "base_genus": 0, "branch_points": 3},
}

_POINT = re.compile(r"\d+")


def relabelling(degree: int, seed: int) -> list[int]:
    """1-based point map: identity for seed 0, else a seeded shuffle."""
    points = list(range(1, degree + 1))
    if seed != 0:
        random.Random(seed).shuffle(points)
    return [0] + points


def job_document(name: str, seed: int) -> dict:
    """The relabelled job document the program is given."""
    job = WORKLOADS[name]
    f = relabelling(job["degree"], seed)
    return {
        "format_version": 1,
        **job,
        "generators": [
            _POINT.sub(lambda m: str(f[int(m.group())]), g) for g in job["generators"]
        ],
        "marked_point": f[1],
    }


def load_frozen() -> dict:
    with open(FROZEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def answer_of(doc: dict, payload: str) -> dict:
    """The checked facts of one report document.

    ``payload`` is ``comparison_payload(doc)``.  Orbit sizes are kept in
    report order; the histograms are relabel-invariant.
    """
    census = doc["census"]
    comps = doc["components"]
    return {
        "tuples": census["tuples"],
        "pointed": census["pointed"],
        "unpointed": census["unpointed"],
        "orbit_sizes": comps["orbit_sizes"],
        "orbit_sizes_pointed": comps["orbit_sizes_pointed"],
        "orbit_sizes_unpointed": comps["orbit_sizes_unpointed"],
        "type_tuples": sorted(r["tuples"] for r in census["by_type"]),
        "genera": sorted(
            [g, gg, k] for (g, gg), k in Counter(
                (c["genus_induced"], c["genus_galois"]) for c in doc["classes"]
            ).items()
        ),
        "payload_sha256": hashlib.sha256(payload.encode()).hexdigest(),
    }


_ORBIT_KEYS = ("orbit_sizes", "orbit_sizes_pointed", "orbit_sizes_unpointed")


def check_answer(got: dict, frozen: dict, seed: int) -> list[str]:
    """Mismatches between one report's facts and the frozen answer."""
    problems = []
    for key in ("tuples", "pointed", "unpointed", "type_tuples", "genera"):
        if got[key] != frozen[key]:
            problems.append(f"{key}: {got[key]!r} != frozen {frozen[key]!r}")
    for key in _ORBIT_KEYS:
        a, b = got[key], frozen[key]
        if seed != 0:
            # relabelling reorders orbits by their new minimal members
            a, b = sorted(a), sorted(b)
        if a != b:
            problems.append(f"{key} differ from the frozen sizes")
    for key, total in zip(_ORBIT_KEYS, ("tuples", "pointed", "unpointed")):
        if sum(got[key]) != got[total]:
            problems.append(f"{key} sum to {sum(got[key])}, not {got[total]}")
    if got["tuples"] != got["pointed"] * frozen["n_lambda0_order"]:
        problems.append("tuples != pointed * |N(lambda0)|")
    if seed == 0 and got["payload_sha256"] != frozen["payload_sha256"]:
        problems.append("comparison_payload digest differs from the frozen one")
    return problems
