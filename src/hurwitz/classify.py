"""Equivalence relations on monodromy tuples and the quotient spaces.

Two levels of identification:

  * pointed: conjugation by N(lam0), the subgroup of the normalizer of G
    in the full symmetric group whose elements fix the marked point.  The
    action is free, so every class has exactly |N(lam0)| members.
  * unpointed (cover equivalence): conjugation by the full normalizer
    N_Sym(G); the equivalence witness is unique exactly when the
    centralizer of G in the symmetric group is trivial.

Canonical class representatives are orbit minima in the global total
order.  ``classify_space`` finds every class of a space with one sweep
over its sorted tuples, expanding one orbit per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DegreeMismatch, FreeActionViolated
from .perms import (
    Perm,
    PermGroup,
    centralizer_in_sym,
    conjugate,
    inverse,
    normalizer_fixing_point,
    normalizer_in_sym,
)
from .tuples import (
    BranchingType,
    HurwitzTuple,
    branching_type_of,
    enumerate_tuples,
    conjugate_branching_type,
)


def conjugate_tuple(t: HurwitzTuple, s: Perm) -> HurwitzTuple:
    """Replace every entry e by s * e * s^-1; validity is preserved."""
    if t.degree != len(s):
        raise DegreeMismatch(f"tuple degree {t.degree} vs conjugator degree {len(s)}")
    sinv = inverse(s)
    return HurwitzTuple(
        tuple([tuple([sinv[e[j]] for j in s]) for e in t.entries]), t.base_genus
    )


@dataclass(frozen=True, order=True)
class PointedClass:
    """One point of the pointed quotient space at a fixed marked point."""

    canonical: HurwitzTuple
    marked_point: int


@dataclass(frozen=True, order=True)
class UnpointedClass:
    """One cover-equivalence class: canonical representative and orbit size."""

    canonical: HurwitzTuple
    orbit_size: int


def _orbit(t: HurwitzTuple, conjugators) -> set[HurwitzTuple]:
    return {conjugate_tuple(t, s) for s in conjugators}


def pointed_class(t: HurwitzTuple, G: PermGroup,
                  marked_point: int | None = None) -> PointedClass:
    """The N(lam0)-conjugation class of t, canonicalized to the orbit minimum.

    The orbit must have exactly |N(lam0)| members (the action is free on
    valid tuples); a smaller orbit signals an upstream bug.
    """
    if marked_point is None:
        marked_point = G.marked_point
    N = normalizer_fixing_point(G, marked_point)
    orbit = _orbit(t, N)
    if len(orbit) != N.order:
        raise FreeActionViolated(
            f"orbit of size {len(orbit)} under N(lam0) of order {N.order}"
        )
    return PointedClass(min(orbit), marked_point)


def are_pointed_equivalent(t1: HurwitzTuple, t2: HurwitzTuple,
                           G: PermGroup,
                           marked_point: int | None = None) -> Perm | None:
    """The unique witness s in N(lam0) with s t1 s^-1 == t2, if any."""
    N = normalizer_fixing_point(G, marked_point)
    witnesses = [s for s in N if conjugate_tuple(t1, s) == t2]
    if len(witnesses) > 1:
        raise FreeActionViolated(
            f"{len(witnesses)} pointed witnesses found; the action must be free"
        )
    return witnesses[0] if witnesses else None


@dataclass(frozen=True)
class EquivalenceWitness:
    """A normalizer element conjugating one tuple onto another.

    ``unique`` is true exactly when the centralizer of G in the symmetric
    group is trivial; otherwise every witness comes in |Z| copies.
    """

    witness: Perm
    unique: bool
    witness_count: int


def are_cover_equivalent(t1: HurwitzTuple, t2: HurwitzTuple,
                         G: PermGroup) -> EquivalenceWitness | None:
    """First witness s in N_Sym(G) with s t1 s^-1 == t2, with uniqueness flag."""
    N = normalizer_in_sym(G)
    witnesses = [s for s in N if conjugate_tuple(t1, s) == t2]
    if not witnesses:
        return None
    z = centralizer_in_sym(G).order
    if len(witnesses) != z:
        raise FreeActionViolated(
            f"{len(witnesses)} cover witnesses but |Z| = {z}"
        )
    return EquivalenceWitness(witnesses[0], z == 1, len(witnesses))


def unpointed_class(t: HurwitzTuple, G: PermGroup) -> UnpointedClass:
    """The N_Sym(G)-conjugation class of t."""
    orbit = _orbit(t, normalizer_in_sym(G))
    return UnpointedClass(min(orbit), len(orbit))


def relabel(t: HurwitzTuple, phi: Perm, G: PermGroup) -> tuple[HurwitzTuple, PermGroup]:
    """Simultaneously relabel the points of the tuple and the group.

    Returns (phi t phi^-1, phi G phi^-1); the marked point moves to
    lam0 . phi^-1 so that the pointed classification is transported
    bijectively.
    """
    if len(phi) != G.degree:
        raise DegreeMismatch(f"relabeling degree {len(phi)} vs group degree {G.degree}")
    new_gens = tuple(conjugate(g, phi) for g in G.generators)
    new_elements = tuple(sorted(conjugate(g, phi) for g in G.elements))
    new_marked = inverse(phi)[G.marked_point]
    new_group = PermGroup(G.degree, new_gens, new_elements, marked_point=new_marked)
    return conjugate_tuple(t, phi), new_group


def change_marked_point(c: PointedClass, lam1: int, G: PermGroup) -> PointedClass:
    """Transport a pointed class at lam0 to the marked point lam1.

    Uses the minimal g in G with lam0 . g = lam1 and conjugates by g^-1;
    the class map does not depend on that choice and is a bijection
    between the two quotient sets.
    """
    lam0 = c.marked_point
    if lam1 == lam0:
        return c
    movers = [g for g in G.elements if g[lam0] == lam1]
    if not movers:
        raise DegreeMismatch(
            f"no group element moves point {lam0} to {lam1}; the group is not transitive"
        )
    g = min(movers)
    moved = conjugate_tuple(c.canonical, inverse(g))
    return pointed_class(moved, G, marked_point=lam1)


# ---------------------------------------------------------------------------
# Space-level classification and counting


@dataclass(frozen=True)
class TypeCensus:
    """Counts attached to one branching type.

    ``tuples`` counts tuples whose type equals the key exactly; the
    pointed/unpointed counts are of classes whose canonical representative
    has that type, so the rows partition the class sets even when
    conjugation twists one type into another.
    """

    branching_type: BranchingType
    tuples: int
    pointed: int
    unpointed: int


@dataclass(frozen=True)
class SpaceCensus:
    tuple_count: int
    pointed_count: int
    unpointed_count: int
    by_type: tuple[TypeCensus, ...]


@dataclass(frozen=True)
class SpaceClassification:
    """Everything the census and the reports need about one space.

    ``pointed_index`` and ``unpointed_index`` map every tuple to the
    position of its class in ``pointed`` and ``unpointed``.
    """

    group: PermGroup
    base_genus: int
    branch_count: int
    type_filter: BranchingType | None
    tuples: tuple[HurwitzTuple, ...]
    pointed: tuple[PointedClass, ...]
    unpointed: tuple[UnpointedClass, ...]
    pointed_index: dict[HurwitzTuple, int] = field(compare=False, repr=False)
    unpointed_index: dict[HurwitzTuple, int] = field(compare=False, repr=False)

    @property
    def census(self) -> SpaceCensus:
        by_type: dict[BranchingType, list[int]] = {}

        def row(bt: BranchingType) -> list[int]:
            return by_type.setdefault(bt, [0, 0, 0])

        G = self.group
        for t in self.tuples:
            row(branching_type_of(t, G))[0] += 1
        for c in self.pointed:
            row(branching_type_of(c.canonical, G))[1] += 1
        for u in self.unpointed:
            row(branching_type_of(u.canonical, G))[2] += 1
        rows = tuple(
            TypeCensus(bt, a, b, c)
            for bt, (a, b, c) in sorted(by_type.items(), key=lambda kv: kv[0].entries)
        )
        return SpaceCensus(
            len(self.tuples), len(self.pointed), len(self.unpointed), rows
        )


def _sweep(tuples, conjugators) -> tuple[list[tuple[HurwitzTuple, int]],
                                         dict[HurwitzTuple, int]]:
    """The conjugation orbits met by a tuple list, one expansion per orbit.

    Returns (orbit minimum, orbit size) per orbit, sorted by minimum, and
    the position in that list of every tuple's orbit.  The minimum is
    taken over the whole orbit, which a twisted type filter can carry
    outside the list.
    """
    index = dict.fromkeys(tuples, -1)
    found: list[tuple[HurwitzTuple, int]] = []
    for t in tuples:
        if index[t] >= 0:
            continue
        orbit = _orbit(t, conjugators)
        for member in orbit:
            if member in index:
                index[member] = len(found)
        found.append((min(orbit), len(orbit)))
    order = sorted(range(len(found)), key=lambda k: found[k][0])
    rank = [0] * len(found)
    for r, k in enumerate(order):
        rank[k] = r
    return [found[k] for k in order], {t: rank[k] for t, k in index.items()}


def classify_space(
    G: PermGroup,
    base_genus: int,
    branch_count: int,
    type_filter: BranchingType | None = None,
    *,
    work_cap: int | None = None,
    tuples: tuple[HurwitzTuple, ...] | None = None,
) -> SpaceClassification:
    """Enumerate a space and classify it at both quotient levels.

    ``tuples`` short-circuits the enumeration (used by the cache layer);
    like the output of ``enumerate_tuples`` it must be sorted.  Each
    pointed orbit must have |N(lam0)| members (the action is free).  The
    fiber identity  #tuples = #pointed * |Stab_N(lam0)(type)|  is
    enforced: conjugation twists a branching type classwise, so the
    stabilizer of the type filter (all of N(lam0) when there is no
    filter, or when the filter is conjugation-stable) is what acts freely
    on the filtered tuple set.
    """
    from .tuples import DEFAULT_WORK_CAP

    if tuples is None:
        tuples = tuple(
            enumerate_tuples(
                G,
                base_genus,
                branch_count,
                type_filter,
                work_cap=DEFAULT_WORK_CAP if work_cap is None else work_cap,
            )
        )
    N = normalizer_fixing_point(G)
    pointed_orbits, pointed_index = _sweep(tuples, N)
    for _, size in pointed_orbits:
        if size != N.order:
            raise FreeActionViolated(
                f"orbit of size {size} under N(lam0) of order {N.order}"
            )
    unpointed_orbits, unpointed_index = _sweep(tuples, normalizer_in_sym(G))
    pointed = tuple(PointedClass(c, G.marked_point) for c, _ in pointed_orbits)
    unpointed = tuple(UnpointedClass(c, size) for c, size in unpointed_orbits)

    if type_filter is None:
        stab_order = N.order
    else:
        stab_order = sum(
            1 for s in N if conjugate_branching_type(type_filter, s, G) == type_filter
        )
    if len(tuples) != len(pointed) * stab_order:
        raise FreeActionViolated(
            f"{len(tuples)} tuples vs {len(pointed)} pointed classes "
            f"with type-stabilizer order {stab_order}"
        )
    return SpaceClassification(
        G, base_genus, branch_count, type_filter, tuples, pointed, unpointed,
        pointed_index, unpointed_index,
    )


def count_space(
    G: PermGroup,
    base_genus: int,
    branch_count: int,
    type_filter: BranchingType | None = None,
    *,
    work_cap: int | None = None,
) -> SpaceCensus:
    """Census of one space: totals and the per-branching-type breakdown."""
    return classify_space(
        G,
        base_genus,
        branch_count,
        type_filter,
        work_cap=work_cap,
    ).census
