"""Equivalence relations on monodromy tuples and the quotient spaces.

Two levels of identification:

  * pointed: conjugation by N(lam0), the elements of the normalizer of G
    in the full symmetric group that fix the marked point, found by the
    normalizer search with lam0 fixed.  The action is free, so every class
    has exactly |N(lam0)| members.
  * unpointed (cover equivalence): conjugation by the full normalizer
    N_Sym(G); the witness is unique exactly when the centralizer of G in
    the symmetric group is trivial.

Canonical class representatives are orbit minima in the global total
order.  Every class computation maps tuples to rows of element indices and
reads one memoized action per group and point: the conjugation maps of
N(lam0) and of T, the minimal element of G moving lam0 to each point, and
the N(lam0)-orbit of a row, checked to be free.  N_Sym(G) is never built: G
is transitive and normal in N_Sym(G), so by the Frattini argument N_Sym(G) =
N(lam0) T, and the N_Sym(G)-orbit of t is the union of the pointed classes
of r t r^-1 over r in T.  Beside its rows a space keeps one per-row dict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (DegreeMismatch, FreeActionViolated, IntransitiveGroup,
                     InternalInvariantViolation, PointOutOfRange, RepeatedPoint)
from .perms import (
    Perm,
    PermGroup,
    centralizer_in_sym,
    compose,
    conjugate,
    format_perm,
    inverse,
    normalizer_fixing_point,
)
from .tuples import (
    DEFAULT_WORK_CAP,
    BranchingType,
    HurwitzTuple,
    enumerate_tuples,
    pop_rows,
    type_key,
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


class _RowAction:
    """How N(lam) and T, the minimal element of G moving lam to each point (keyed
    by it in ``transversal``), act on rows of ``G.table`` indices: ``images[e][k]``
    is element e conjugated by N(lam)'s k-th element, ``moved[e][i]`` by T's i-th."""

    def __init__(self, G: PermGroup, lam: int):
        self.N = normalizer_fixing_point(G, lam)
        self.classes = G.table.classes
        self.images = list(zip(*map(G.table.conjugation, self.N.elements)))
        self.transversal = {g[lam]: g for g in reversed(G.elements)}  # the last write wins
        self.moved = list(zip(*map(G.table.conjugation, self.transversal.values())))

    def orbit(self, row: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The conjugates of the row by N(lam), in its order; the action must be free."""
        orbit = list(zip(*map(self.images.__getitem__, row)))
        size = len(set(orbit))
        if size != self.N.order:
            raise FreeActionViolated(f"orbit of size {size} under N(lam0) of order {self.N.order}")
        return orbit

    def conjugates(self, row: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
        """Per r in T, the N(lam)-orbit of r t r^-1 for the row t; their
        union is the N_Sym(G)-orbit of t, which needs G transitive."""
        if len(self.transversal) != self.N.degree:
            raise IntransitiveGroup("N_Sym(G) = N(lam0) T needs a transitive group")
        return [self.orbit(member) for member in zip(*map(self.moved.__getitem__, row))]

    def twists(self, key: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Entry k is the type key to which N(lam)'s k-th element moves the type key ``key``."""
        return [type_key(self.classes, col) for col in zip(*map(self.images.__getitem__, key))]


def _row_action(G: PermGroup, lam: int) -> _RowAction:
    key = f"row_action:{lam}"
    if key not in G._cache:
        G._cache[key] = _RowAction(G, lam)
    return G._cache[key]  # type: ignore[return-value]


def _row(t: HurwitzTuple, G: PermGroup) -> tuple[int, ...]:
    """The entries of t as ``G.table`` indices; one outside G raises DegreeMismatch."""
    try:
        return tuple(map(G.table.index.__getitem__, t.entries))
    except KeyError as exc:
        raise DegreeMismatch(f"{format_perm(exc.args[0])} is not an element of the group") from None


def _tuple(row: tuple[int, ...], G: PermGroup, base_genus: int) -> HurwitzTuple:
    return HurwitzTuple(tuple(map(G.table.elements.__getitem__, row)), base_genus)


def pointed_class(t: HurwitzTuple, G: PermGroup,
                  marked_point: int | None = None) -> PointedClass:
    """The N(lam0)-conjugation class of t, canonicalized to the orbit minimum.

    The orbit must have exactly |N(lam0)| members (the action is free on
    valid tuples); a smaller orbit signals an upstream bug.
    """
    lam = G.marked_point if marked_point is None else marked_point
    orbit = _row_action(G, lam).orbit(_row(t, G))
    return PointedClass(_tuple(min(orbit), G, t.base_genus), lam)


def are_pointed_equivalent(t1: HurwitzTuple, t2: HurwitzTuple,
                           G: PermGroup,
                           marked_point: int | None = None) -> Perm | None:
    """The unique witness s in N(lam0) with s t1 s^-1 == t2, if any."""
    action = _row_action(G, G.marked_point if marked_point is None else marked_point)
    orbit, row = action.orbit(_row(t1, G)), _row(t2, G)
    return action.N.elements[orbit.index(row)] if row in orbit else None


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
    """Least witness s in N_Sym(G) with s t1 s^-1 == t2, with uniqueness flag:
    the n r with r in T and n in N(lam0) conjugating r t1 r^-1 onto t2.  An
    intransitive G raises IntransitiveGroup."""
    action = _row_action(G, G.marked_point)
    row, N = _row(t2, G), action.N.elements
    witnesses = [compose(N[orbit.index(row)], r) for r, orbit in
                 zip(action.transversal.values(), action.conjugates(_row(t1, G))) if row in orbit]
    if not witnesses:
        return None
    z = centralizer_in_sym(G).order
    if len(witnesses) != z:
        raise FreeActionViolated(f"{len(witnesses)} cover witnesses but |Z| = {z}")
    return EquivalenceWitness(min(witnesses), z == 1, len(witnesses))


def unpointed_class(t: HurwitzTuple, G: PermGroup) -> UnpointedClass:
    """The N_Sym(G)-conjugation class of t: the pointed classes of r t r^-1
    over r in T; an intransitive G raises IntransitiveGroup."""
    action = _row_action(G, G.marked_point)
    minima = {min(orbit) for orbit in action.conjugates(_row(t, G))}
    return UnpointedClass(_tuple(min(minima), G, t.base_genus), len(minima) * action.N.order)


def relabel(t: HurwitzTuple, phi: Perm, G: PermGroup) -> tuple[HurwitzTuple, PermGroup]:
    """Simultaneously relabel the points of the tuple and the group.

    Returns (phi t phi^-1, phi G phi^-1); the marked point moves to
    lam0 . phi^-1 so that the pointed classification is transported
    bijectively.
    """
    if len(phi) != G.degree:
        raise DegreeMismatch(f"relabeling degree {len(phi)} vs group degree {G.degree}")
    if not set(phi) <= set(range(G.degree)):
        raise PointOutOfRange(f"relabeling {phi} sends a point out of range")
    if len(set(phi)) != G.degree:
        raise RepeatedPoint(f"relabeling {phi} sends two points to one")
    new_gens = tuple(conjugate(g, phi) for g in G.generators)
    new_elements = tuple(sorted(conjugate(g, phi) for g in G.elements))
    new_marked = inverse(phi)[G.marked_point]
    new_group = PermGroup(G.degree, new_gens, new_elements, marked_point=new_marked)
    return conjugate_tuple(t, phi), new_group


def change_marked_point(c: PointedClass, lam1: int, G: PermGroup) -> PointedClass:
    """Transport a pointed class at lam0 to the marked point lam1.

    Conjugates by the minimal g in G with lam1 . g = lam0; the class map
    does not depend on that choice and is a bijection between the two
    quotient sets.
    """
    lam0 = c.marked_point
    if lam1 == lam0:
        return c
    g = _row_action(G, lam1).transversal.get(lam0)  # raises PointOutOfRange for a bad lam1
    if g is None:
        raise DegreeMismatch(f"no element of G moves {lam1} to {lam0}; G is not transitive")
    return pointed_class(conjugate_tuple(c.canonical, g), G, marked_point=lam1)


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

    ``rows`` holds the tuples and ``canonicals`` the pointed classes' orbit
    minima, each sorted, as rows of ``group.table`` element indices.  The one
    per-row structure beside them, ``row_index`` in row order, maps a row to
    c |N(lam0)| + k when it is class c's first listed row ``rows[first_row[c]]``
    conjugated by N(lam0)'s k-th element.  Class c lies in unpointed class
    u = ``unpointed_of[c]``, whose first class is ``unpointed_first[u]``.  Built
    when read: ``tuples``, ``pointed``, ``unpointed``, ``types`` (each
    canonical's ``type_key``) and ``pointed_of`` (each row's class).  The census
    counts the tuples from the classes: N(lam0) acts freely, so every tuple
    is n c for exactly one canonical c and one n in N(lam0), and has type
    n type(c); under a type filter the listed tuples are those of its type.
    """

    group: PermGroup
    base_genus: int
    branch_count: int
    type_filter: BranchingType | None
    rows: tuple[tuple[int, ...], ...] = field(repr=False)
    canonicals: tuple[tuple[int, ...], ...] = field(repr=False)
    row_index: dict[tuple[int, ...], int] = field(compare=False, repr=False)
    first_row: tuple[int, ...] = field(compare=False, repr=False)
    unpointed_of: tuple[int, ...] = field(compare=False, repr=False)
    unpointed_first: tuple[int, ...] = field(compare=False, repr=False)

    @cached_property
    def tuples(self) -> tuple[HurwitzTuple, ...]:
        return tuple([_tuple(row, self.group, self.base_genus) for row in self.rows])

    @cached_property
    def pointed(self) -> tuple[PointedClass, ...]:
        return tuple([PointedClass(_tuple(row, self.group, self.base_genus),
                                   self.group.marked_point) for row in self.canonicals])

    @cached_property
    def unpointed(self) -> tuple[UnpointedClass, ...]:
        size, n = Counter(self.unpointed_of), normalizer_fixing_point(self.group).order
        return tuple([UnpointedClass(self.pointed[c].canonical, size[u] * n)
                      for u, c in enumerate(self.unpointed_first)])

    @cached_property
    def pointed_of(self) -> tuple[int, ...]:
        n = normalizer_fixing_point(self.group).order
        return tuple([v // n for v in self.row_index.values()])

    @cached_property
    def types(self) -> tuple[tuple[int, ...], ...]:
        classes, first = self.group.table.classes, 2 * self.base_genus
        return tuple([type_key(classes, row[first:]) for row in self.canonicals])

    @property
    def census(self) -> SpaceCensus:
        table, types = self.group.table, self.types
        action = _row_action(self.group, self.group.marked_point)
        fil = None if self.type_filter is None else self.type_filter.key(table)
        by_key: dict[tuple[int, ...], list[int]] = {}
        for key, m in Counter(types).items():
            for image, n in Counter(action.twists(key)).items():
                if fil is None or image == fil:
                    by_key.setdefault(image, [0, 0, 0])[0] += m * n
        # a twisted type filter can carry a canonical outside the listed rows
        for col, members in enumerate((types, map(types.__getitem__, self.unpointed_first)), 1):
            for key in members:
                by_key.setdefault(key, [0, 0, 0])[col] += 1
        rows = []
        for key, counts in by_key.items():
            pairs = tuple((table.elements[c], key.count(c)) for c in sorted(set(key)))
            rows.append(TypeCensus(BranchingType(pairs), *counts))
        rows.sort(key=lambda r: r.branching_type.entries)
        return SpaceCensus(len(self.rows), len(self.canonicals), len(self.unpointed_first),
                           tuple(rows))


def classify_space(
    G: PermGroup,
    base_genus: int,
    branch_count: int,
    type_filter: BranchingType | None = None,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
    rows: tuple[tuple[int, ...], ...] | None = None,
) -> SpaceClassification:
    """Enumerate a space and classify it at both quotient levels: ``row_index``
    gives each row its pointed class, kept as its canonical row, and its conjugator
    from the class's first listed row; each pointed class gets its unpointed class.

    ``rows`` short-circuits the enumeration, which ``work_cap`` bounds: the
    tuples as rows of ``G.table`` element indices (the cache decoder passes
    its rows); without it each enumerated tuple is freed as its row is made.
    Like the output of ``enumerate_tuples`` the rows must be sorted and
    hold every conjugate of a listed tuple by G; their relation and
    generation are not checked here.  Under a type filter every row must
    have the filter's ``key`` as its ``type_key`` (checked per pointed
    class); a representative outside G raises DegreeMismatch.  Each pointed orbit
    must have |N(lam0)| members (the action is free).  The fiber
    identity  #tuples = #pointed * |Stab_N(lam0)(type)|  is enforced:
    conjugation twists a branching type classwise, so the stabilizer of
    the type filter (all of N(lam0) when there is no filter, or when the
    filter is conjugation-stable) is what acts freely on the filtered
    tuple set.  A broken condition raises InternalInvariantViolation.
    """
    table = G.table
    fil = None if type_filter is None else type_filter.key(table)
    if rows is None:
        rows = pop_rows(enumerate_tuples(G, base_genus, branch_count, type_filter,
                                         work_cap=work_cap), table.index)
    action = _row_action(G, G.marked_point)
    n = action.N.order

    # pointed: one orbit expansion per class, whose minimum a twisted type filter
    # can carry outside the list.  A row gets f n + k here, f counting classes in
    # order of first row: canonical order unless a class's minimum is unlisted
    row_index = dict.fromkeys(rows, -1)
    found: list[tuple[tuple[int, ...], int]] = []  # (orbit minimum, first listed member)
    for i, row in enumerate(rows):
        if row_index[row] >= 0:
            continue
        orbit, base = action.orbit(row), len(found) * n
        row_index.update(zip(orbit, range(base, base + n)))
        found.append((min(orbit), i))
    # the unlisted conjugates a twisted type filter lets in were inserted after every row
    for _ in range(len(row_index) - len(rows)):
        row_index.popitem()
    # under a type filter every listed row has its type exactly when each class's
    # first listed row has it and every conjugator lies in the type's stabilizer
    stab = range(n) if fil is None else {k for k, t in enumerate(action.twists(fil)) if t == fil}
    if fil is not None and (any(v % n not in stab for v in row_index.values()) or any(
            type_key(table.classes, rows[i][2 * base_genus:]) != fil for _, i in found)):
        raise InternalInvariantViolation("a row breaks the branching type")
    if len(rows) != len(found) * len(stab):
        raise FreeActionViolated(f"{len(rows)} tuples vs {len(found)} pointed classes "
                                 f"with type-stabilizer order {len(stab)}")
    order = sorted(range(len(found)), key=lambda f: found[f][0])
    shift = [0] * len(found)  # renumbers the classes in canonical order
    for c, f in enumerate(order):
        shift[f] = (c - f) * n
    if any(shift):
        for row, v in row_index.items():
            row_index[row] = v + shift[v // n]
    canonicals, first_row = (tuple([found[f][j] for f in order]) for j in (0, 1))

    # unpointed: N_Sym(G) = N(lam0) T; a class is the union of the pointed
    # classes of r t r^-1 over r in T, and its first pointed class is its minimum
    unpointed_of = [-1] * len(canonicals)
    unpointed_first: list[int] = []
    for c in range(len(canonicals)):
        if unpointed_of[c] >= 0:
            continue
        for member in zip(*map(action.moved.__getitem__, rows[first_row[c]])):
            if member not in row_index:
                raise InternalInvariantViolation("a conjugate by G of a listed tuple is not listed")
            unpointed_of[row_index[member] // n] = len(unpointed_first)
        unpointed_first.append(c)

    return SpaceClassification(
        G, base_genus, branch_count, type_filter, rows, canonicals,
        row_index, first_row, tuple(unpointed_of), tuple(unpointed_first),
    )


def count_space(
    G: PermGroup,
    base_genus: int,
    branch_count: int,
    type_filter: BranchingType | None = None,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
) -> SpaceCensus:
    """Census of one space: totals and the per-branching-type breakdown."""
    return classify_space(G, base_genus, branch_count, type_filter, work_cap=work_cap).census
