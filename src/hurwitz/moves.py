"""Elementary moves on the branch segment of a tuple, and their orbits.

The forward move at position i replaces (g_i, g_i+1) by
(g_i g_i+1 g_i^-1, g_i); the inverse move replaces it by
(g_i+1, g_i+1^-1 g_i g_i+1).  Handle entries are never touched and the
relation product is preserved, so moves map valid tuples to valid tuples
of the same branching type.

Orbits of the move closure are the combinatorial connected components of
the space.  Over a genus-0 base the n-1 elementary moves generate the
full monodromy of the configuration space, so components are exact; for
genus >= 1 no tuple-level action of the full mapping class group is
implemented and the partition is only a refinement (the component count
is an upper bound).  Results carry an ``exact`` flag accordingly.

The searches apply only the forward moves.  Each move permutes the
finite set of tuples of one group, so its inverse is one of its powers:
the forward closure of a tuple is its orbit, and an inverse move is a
forward move read backwards, so a search in both directions walks the
same edges.

Moves touch only branch slots, so in every genus they commute with
conjugation by N(lam0), and ``components`` searches the pointed classes
of one ``SpaceClassification``, each class orbit from its least class.
Class c gets a row rep_c = w_c base_c (base_c its first listed row) in
the root's tuple orbit O.  A move from rep_c onto the row n_k base_c' of
a class met before gives the Schreier generator n_k w_c'^-1 of
H = Stab_N(lam0)(O); these generate H (Seress, *Permutation Group
Algorithms*, 2003, 4.2).  Over a class orbit C each tuple orbit has
|C| |H| rows; n_k base_c lies in the one of the coset n_k w_c^-1 H.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal

from .errors import IndexOutOfRange, InternalInvariantViolation, OrbitCapExceeded
from .perms import ElementTable, compose, generate_group, inverse, normalizer_fixing_point
from .tuples import HurwitzTuple
from .classify import SpaceClassification

DEFAULT_ORBIT_CAP = 10**7

Convention = Literal["standard", "mirrored"]


def hurwitz_move(t: HurwitzTuple, i: int, *, inverse_move: bool = False,
                 convention: Convention = "standard") -> HurwitzTuple:
    """Apply the elementary move at 1-based branch position i.

    The mirrored convention swaps the roles of the two standard twists;
    both conventions generate identical orbit closures.
    """
    if convention not in ("standard", "mirrored"):
        raise ValueError(f"unknown convention {convention!r}")
    n = t.branch_count
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"move index {i} outside 1..{n - 1}")
    if convention == "mirrored":
        inverse_move = not inverse_move
    e = list(t.entries)
    k = 2 * t.base_genus + i  # the flat slots of g_i and g_i+1 are k - 1 and k
    gi, gj = e[k - 1], e[k]
    if inverse_move:
        e[k - 1], e[k] = gj, compose(compose(inverse(gj), gi), gj)
    else:
        e[k - 1], e[k] = compose(compose(gi, gj), inverse(gi)), gi
    return HurwitzTuple(tuple(e), t.base_genus)


def braid_orbit(t: HurwitzTuple, *, orbit_cap: int = DEFAULT_ORBIT_CAP) -> tuple[HurwitzTuple, ...]:
    """Closure of one tuple under all elementary moves, both directions.

    A BFS by forward moves on index rows of the group the entries
    generate, which moves never leave, so either convention gives it.
    At most ``orbit_cap`` tuples, the seed included; sorted in the global
    total order.
    """
    table = generate_group(t.entries).table
    seed = tuple(map(table.index.__getitem__, t.entries))
    orbit, seen = [seed], {seed}
    for row in orbit:  # grows while it is walked
        for nxt in _moved(table, row, 2 * t.base_genus):
            if nxt not in seen:
                if len(orbit) >= orbit_cap:
                    raise OrbitCapExceeded(f"braid orbit: size exceeds cap {orbit_cap}; "
                                           f"{len(orbit)} tuples reached")
                seen.add(nxt)
                orbit.append(nxt)
    # index order is element order, so sorted rows are sorted tuples
    return tuple(HurwitzTuple(tuple(map(table.elements.__getitem__, row)), t.base_genus)
                 for row in sorted(orbit))


Level = Literal["tuples", "pointed", "unpointed"]


@dataclass(frozen=True)
class ComponentPartition:
    """Orbit partition of one space under the move closure.

    ``orbit_sizes`` lists one size per orbit, ordered by each orbit's
    minimal member; ``exact`` is false for genus >= 1 where the partition
    is only a refinement of the true components.  ``class_orbit[c]`` is the
    orbit of the level's c-th class (pointed at the tuples level, where
    ``lift[c][k]`` is the tuple orbit of the row ``row_index`` maps to
    c |N(lam0)| + k).  Built when read: ``orbit_of``, per member (per row at
    the tuples level), and ``orbits``, each orbit's tuples or canonicals.
    """

    level: Level
    exact: bool
    orbit_sizes: tuple[int, ...]
    class_orbit: tuple[int, ...] = field(repr=False)
    classification: SpaceClassification = field(compare=False, repr=False)
    lift: tuple[list, ...] = field(default=(), compare=False, repr=False)

    @cached_property
    def orbit_of(self) -> tuple[int, ...]:
        if self.level != "tuples":
            return self.class_orbit
        n, lift = normalizer_fixing_point(self.classification.group).order, self.lift
        return tuple([lift[v // n][v % n] for v in self.classification.row_index.values()])

    @cached_property
    def orbits(self) -> tuple[tuple[HurwitzTuple, ...], ...]:
        cls = self.classification
        members = (cls.tuples if self.level == "tuples"
                   else [c.canonical for c in getattr(cls, self.level)])
        orbits: list[list[HurwitzTuple]] = [[] for _ in self.orbit_sizes]
        for t, k in zip(members, self.orbit_of):  # sorted, so each orbit is sorted
            orbits[k].append(t)
        return tuple(map(tuple, orbits))


def _moved(table: ElementTable, row: tuple[int, ...], first: int):
    """The rows one forward move from an index row with branch slots from ``first``."""
    mul, inv = table.mul, table.inverses
    for k in range(first, len(row) - 1):
        a = row[k]  # (a, b) -> (a b a^-1, a)
        yield row[:k] + (mul(mul(a, row[k + 1]), inv[a]), a) + row[k + 2:]


def _class_orbits(orbit_of, class_of, count: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each of the ``count`` classes' move orbit, numbered by least class, and the
    sizes: the members' orbits' images, equal or disjoint as moves commute with conjugation."""
    images: dict[int, set[int]] = {}  # member orbit -> its classes
    for k, c in zip(orbit_of, class_of):
        images.setdefault(k, set()).add(c)
    parts = sorted({tuple(sorted(image)) for image in images.values()})
    label = [-1] * count
    for k, part in enumerate(parts):
        for c in part:
            if label[c] >= 0:
                raise InternalInvariantViolation("class images of two move orbits overlap")
            label[c] = k
    return tuple(label), tuple(map(len, parts))


def _tuple_partition(cls: SpaceClassification, orbit_cap: int) -> ComponentPartition:
    """The tuple partition by a BFS over the pointed classes (see ``components``)."""
    table, rows, row_index = cls.group.table, cls.rows, cls.row_index
    nt = normalizer_fixing_point(cls.group).table
    n, count = nt.size, len(cls.canonicals)
    first, listed = 2 * cls.base_genus, len(rows) // max(count, 1)
    owner = [-1] * count  # each class's class orbit, numbered by least class
    voltage = [0] * count  # w_c, with rep_c = w_c base_c in the root's tuple orbit
    lift: list = [None] * count  # per class c and each k, the orbit label of n_k base_c
    sizes: list[int] = []  # per class orbit, the size |C| |H| of each tuple orbit over it
    reached = 0
    for root in range(count):  # seeded at the root's first listed row, so w_root = 1
        if owner[root] >= 0:
            continue
        orbit, stab, reps = len(sizes), 1, [(root, rows[cls.first_row[root]])]
        owner[root] = orbit
        for _, rep in reps:  # grows while it is walked
            for y in _moved(table, rep, first):
                d, k = divmod(row_index.get(y, -1), n)  # an unlisted row gives d = -1
                if d < 0 or owner[d] not in (-1, orbit):
                    raise InternalInvariantViolation("orbit escaped the enumerated space")
                if owner[d] < 0:
                    owner[d], voltage[d] = orbit, k
                    reps.append((d, y))
                elif k != voltage[d] and stab != nt.full:  # a Schreier generator of H
                    stab = nt.join(stab, nt.mul(k, nt.inverses[voltage[d]]))
            # the tuple orbits over C reach |C| listed - listed / |H| rows by a move
            if reached + len(reps) * listed - listed // stab.bit_count() > orbit_cap:
                raise OrbitCapExceeded(f"move orbits: tuples reached exceed cap {orbit_cap}; "
                                       f"{reached} reached in {len(sizes)} finished class orbit(s)")
        reached += len(reps) * listed - listed // stab.bit_count()
        sizes.append(len(reps) * stab.bit_count())
        members = [h for h in range(n) if stab >> h & 1]
        least = [-1] * n  # the least element of each left coset g H
        for g in range(n):
            if least[g] < 0:
                for h in members:
                    least[nt.mul(g, h)] = g
        tables: dict[int, list[int]] = {}  # per w_c^-1, or one when H is all of N(lam0)
        for c, _ in reps:
            u = nt.inverses[voltage[c]] if stab != nt.full else 0
            lift[c] = tables.get(u) or tables.setdefault(
                u, [orbit * n + least[nt.mul(k, u)] for k in range(n)])
    # tuple orbits numbered by first row, as a row-level BFS seeded in row order would
    number = {x: m for m, x in enumerate(dict.fromkeys(
        lift[v // n][v % n] for v in row_index.values()))}
    for labels in {id(t): t for t in lift}.values():  # None outside a type filter's rows
        labels[:] = map(number.get, labels)
    return ComponentPartition("tuples", cls.base_genus == 0, tuple(
        [sizes[x // n] for x in number]), tuple(owner), cls, tuple(lift))


def components(
    classification: SpaceClassification,
    *,
    level: Level = "tuples",
    orbit_cap: int = DEFAULT_ORBIT_CAP,
    tuple_partition: ComponentPartition | None = None,
) -> ComponentPartition:
    """Orbit partition of a classified space at the requested quotient level.

    A BFS over the pointed classes, rooted in class order, finds the class
    orbits, numbered by least class and so the pointed partition, and the
    stabilizer H of a tuple orbit over each (see the module docstring); one
    pass over the row index numbers the tuple orbits by first row.  The
    unpointed partition is the image of the pointed one under ``unpointed_of``.
    ``orbit_cap`` bounds the tuples reached by a move, |C| |H| - 1 per tuple
    orbit, checked while C grows.  ``tuple_partition``, a tuple-level
    partition of this very ``classification``, supplies the tuple partition.
    """
    if level not in ("tuples", "pointed", "unpointed"):
        raise ValueError(f"unknown level {level!r}")
    if tuple_partition is None:
        tuple_partition = _tuple_partition(classification, orbit_cap)
    elif tuple_partition.level != "tuples" or tuple_partition.classification is not classification:
        raise ValueError("tuple_partition must be a tuple-level partition of this classification")
    if level == "tuples":
        return tuple_partition
    owner, cls = tuple_partition.class_orbit, classification
    # numbered by least class, so the pointed orbits are first met in their order
    orbit_of, orbit_sizes = ((owner, tuple(Counter(owner).values())) if level == "pointed" else
                             _class_orbits(owner, cls.unpointed_of, len(cls.unpointed_first)))
    return ComponentPartition(level, cls.base_genus == 0, orbit_sizes, orbit_of, cls)
