#!/usr/bin/env python3
"""Run the desk-scale configuration matrix and print a summary table.

Usage:
    python scripts/run_matrix.py                 # all configurations
    python scripts/run_matrix.py --only S3       # substring filter
    python scripts/run_matrix.py --cache-dir .cache
"""

import argparse
import dataclasses
import json
import time

from hurwitz import comparison_payload, parse_job, run_job

CONFIGS = [
    ("C2 g=0 n=2", {"degree": 2, "generators": ["(1 2)"], "base_genus": 0, "branch_points": 2}),
    ("C2 g=0 n=4", {"degree": 2, "generators": ["(1 2)"], "base_genus": 0, "branch_points": 4}),
    ("C2 g=0 n=6", {"degree": 2, "generators": ["(1 2)"], "base_genus": 0, "branch_points": 6}),
    ("C2 g=1 n=2", {"degree": 2, "generators": ["(1 2)"], "base_genus": 1, "branch_points": 2}),
    ("S3 g=0 n=3", {"degree": 3, "generators": ["(1 2)", "(1 2 3)"], "base_genus": 0, "branch_points": 3}),
    ("S3 g=0 n=4", {"degree": 3, "generators": ["(1 2)", "(1 2 3)"], "base_genus": 0, "branch_points": 4}),
    ("S3 transpositions", {"degree": 3, "generators": ["(1 2)", "(1 2 3)"], "base_genus": 0,
                           "branch_points": 4, "branching_type": [["(1 2)", 4]]}),
    ("C3 g=0 n=2", {"degree": 3, "generators": ["(1 2 3)"], "base_genus": 0, "branch_points": 2}),
    ("C3 g=0 n=3", {"degree": 3, "generators": ["(1 2 3)"], "base_genus": 0, "branch_points": 3}),
    ("V4 g=0 n=3", {"degree": 4, "generators": ["(1 2)(3 4)", "(1 3)(2 4)"], "base_genus": 0, "branch_points": 3}),
    ("V4 g=0 n=4", {"degree": 4, "generators": ["(1 2)(3 4)", "(1 3)(2 4)"], "base_genus": 0, "branch_points": 4}),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--only", default="", help="run configurations whose label contains this")
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--check-determinism", action="store_true",
                    help="run everything twice and compare payloads")
    ap.add_argument("--json", dest="json_out", default=None,
                    help="write all reports to one JSON file")
    args = ap.parse_args()

    rows = []
    documents = {}
    header = f"{'configuration':22} {'tuples':>7} {'pointed':>8} {'unpointed':>10} {'orbits':>14} {'time':>8}"
    print(header)
    print("-" * len(header))
    for label, doc in CONFIGS:
        if args.only and args.only.lower() not in label.lower():
            continue
        body = dict(doc, format_version=1)
        spec = parse_job(json.dumps(body))
        spec = dataclasses.replace(spec, cache_dir=args.cache_dir)
        started = time.monotonic()
        report = run_job(spec)
        elapsed = time.monotonic() - started
        if args.check_determinism:
            again = run_job(spec)
            assert comparison_payload(report) == comparison_payload(again), label
        c = report["census"]
        orbits = ",".join(str(s) for s in report["components"]["orbit_sizes"])
        flag = "" if report["components"]["exact"] else "*"
        rows.append(label)
        documents[label] = report
        print(f"{label:22} {c['tuples']:>7} {c['pointed']:>8} {c['unpointed']:>10} "
              f"{orbits + flag:>14} {elapsed:>7.2f}s")
    if not rows:
        print("no configuration matched the filter")
        return
    print("\n(* orbit partition is partial: positive base genus)")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(documents, fh, indent=2, sort_keys=True)
        print(f"wrote {len(documents)} reports to {args.json_out}")


if __name__ == "__main__":
    main()
