"""Command-line interface.

    hurwitz census <spec.json>        counts at all three levels
    hurwitz components <spec.json>    orbit partition of the space
    hurwitz fibers <spec.json>        per-class cover reports
    hurwitz classify --tuple T1 --tuple T2 <spec.json>
                                      pointed/unpointed equivalence with witness
    hurwitz validate <spec.json>      schema/semantic validation only

All report-producing commands emit the same full JSON document; the exit
code is 0 on success, 2 for schema/input errors, 3 when a resource cap is
hit, and 4 for internal invariant violations.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import replace

import click

from .classify import are_cover_equivalent, are_pointed_equivalent
from .errors import CapExceeded, InputError, InternalInvariantViolation, SchemaError
from .jobs import (FORMAT_VERSION, JobSpec, _spec_to_json, build_group, parse_job,
                   report_to_json, run_job)
from .perms import format_perm, parse_perm
from .tuples import branching_type_of, tuple_from_entries, validate_tuple

EXIT_SCHEMA = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_spec(path: str, cache_dir: str | None,
               no_cache: bool, requested: str) -> JobSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    spec = parse_job(text)
    return replace(
        spec,
        requested=requested,
        cache_dir=cache_dir,
        use_cache=not no_cache,
    )


def _emit(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=False)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {output}: {exc}") from exc


@contextmanager
def _exit_codes():
    """Turn the package's errors into an ``error:`` line and exit code 2, 3 or 4."""
    try:
        yield
    except InputError as exc:
        _fail(str(exc), EXIT_SCHEMA)
    except CapExceeded as exc:
        _fail(str(exc), EXIT_CAP)
    except InternalInvariantViolation as exc:
        _fail(str(exc), EXIT_INTERNAL)


def _run_and_emit(path: str, requested: str, cache_dir: str | None,
                  no_cache: bool, output: str | None) -> None:
    with _exit_codes():
        spec = _load_spec(path, cache_dir, no_cache, requested)
        _emit(report_to_json(run_job(spec)), output)


def common_options(fn):
    fn = click.option("--cache-dir", type=click.Path(file_okay=False),
                      default=None, help="Directory for the result cache.")(fn)
    fn = click.option("--no-cache", is_flag=True, default=False,
                      help="Do not read or write the cache.")(fn)
    fn = click.option("--output", type=click.Path(dir_okay=False), default=None,
                      help="Write the JSON document here instead of stdout.")(fn)
    return fn


@click.group()
def main() -> None:
    """Exact censuses, components and cover reports for spaces of
    branched-cover monodromy data."""


@main.command()
@common_options
@click.argument("spec_json", type=click.Path(dir_okay=False))
def census(spec_json, cache_dir, no_cache, output):
    """Count tuples, pointed classes and unpointed classes."""
    _run_and_emit(spec_json, "census", cache_dir, no_cache, output)


@main.command()
@common_options
@click.argument("spec_json", type=click.Path(dir_okay=False))
def components(spec_json, cache_dir, no_cache, output):
    """Orbit partition of the space under the elementary moves."""
    _run_and_emit(spec_json, "components", cache_dir, no_cache, output)


@main.command()
@common_options
@click.argument("spec_json", type=click.Path(dir_okay=False))
def fibers(spec_json, cache_dir, no_cache, output):
    """Ramification profiles and genera for every pointed class."""
    _run_and_emit(spec_json, "fibers", cache_dir, no_cache, output)


@main.command()
@common_options
@click.argument("spec_json", type=click.Path(dir_okay=False))
def validate(spec_json, cache_dir, no_cache, output):
    """Validate a job document without running it."""
    with _exit_codes():
        spec = _load_spec(spec_json, cache_dir, no_cache, "validate")
        doc = {"format_version": FORMAT_VERSION, "valid": True,
               "spec": _spec_to_json(spec)}
        _emit(json.dumps(doc, indent=2) + "\n", output)


def split_tuple_argument(text: str) -> list[str]:
    """Split a comma-separated list of cycle expressions at paren depth 0."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SchemaError(f"unbalanced parentheses in tuple {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise SchemaError(f"unbalanced parentheses in tuple {text!r}")
    parts.append("".join(cur))
    return [p.strip() for p in parts]


@main.command()
@common_options
@click.option("--tuple", "tuples_raw", multiple=True,
              help="Full tuple as comma-separated cycle expressions "
                   "(handles first, then branches). Give exactly twice.")
@click.argument("spec_json", type=click.Path(dir_okay=False))
def classify(spec_json, cache_dir, no_cache, output, tuples_raw):
    """Decide pointed and unpointed equivalence of two tuples."""
    with _exit_codes():
        spec = _load_spec(spec_json, cache_dir, no_cache, "classify")
        if len(tuples_raw) != 2:
            raise SchemaError("classify needs exactly two --tuple arguments")
        group, type_filter = build_group(spec)
        want = 2 * spec.base_genus + spec.branch_points
        parsed = []
        for raw in tuples_raw:
            entry_strs = split_tuple_argument(raw)
            if len(entry_strs) != want:
                raise SchemaError(
                    f"tuple {raw!r} has {len(entry_strs)} entries, expected {want}"
                )
            entries = [parse_perm(s, spec.degree) for s in entry_strs]
            t = tuple_from_entries(spec.degree, spec.base_genus, entries)
            report = validate_tuple(t, group)
            # entries that generate G lie in it, so their classes are defined
            of_type = type_filter is None or (
                report.generates_G and branching_type_of(t, group) == type_filter)
            if not (report.is_valid and of_type):
                raise SchemaError(
                    f"tuple {raw!r} is not a valid point of the space "
                    f"(relation={report.relation_holds}, "
                    f"nontrivial={report.no_trivial_branch}, "
                    f"generates={report.generates_G}, "
                    f"transitive={report.g_transitive}, "
                    f"type={of_type})"
                )
            parsed.append(t)
        t1, t2 = parsed
        pointed_witness = are_pointed_equivalent(t1, t2, group)
        cover_witness = are_cover_equivalent(t1, t2, group)
        doc = {
            "format_version": FORMAT_VERSION,
            "pointed": {
                "equivalent": pointed_witness is not None,
                "witness": None if pointed_witness is None else format_perm(pointed_witness),
            },
            "unpointed": {
                "equivalent": cover_witness is not None,
                "witness": None if cover_witness is None else format_perm(cover_witness.witness),
                "witness_unique": None if cover_witness is None else cover_witness.unique,
            },
        }
        _emit(json.dumps(doc, indent=2) + "\n", output)


if __name__ == "__main__":
    main()
