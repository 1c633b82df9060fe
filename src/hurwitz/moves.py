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
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal

from .errors import IndexOutOfRange, InternalInvariantViolation, OrbitCapExceeded
from .perms import ElementTable, PermGroup, compose, generate_group, inverse
from .tuples import BranchingType, HurwitzTuple
from .classify import SpaceClassification, classify_space

DEFAULT_ORBIT_CAP = 10**7

Convention = Literal["standard", "mirrored"]


def hurwitz_move(t: HurwitzTuple, i: int, *, inverse_move: bool = False,
                 convention: Convention = "standard") -> HurwitzTuple:
    """Apply the elementary move at 1-based branch position i.

    The mirrored convention swaps the roles of the two standard twists;
    both conventions generate identical orbit closures.
    """
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


def braid_orbit(t: HurwitzTuple, *, orbit_cap: int = DEFAULT_ORBIT_CAP,
                convention: Convention = "standard") -> tuple[HurwitzTuple, ...]:
    """Closure of one tuple under all elementary moves, both directions.

    A one-seed run of the index-row BFS over the group the entries
    generate, which moves never leave.  At most ``orbit_cap`` tuples,
    the seed included; the result is sorted in the global total order.
    """
    table = generate_group(t.entries).table
    seed = tuple(map(table.index.__getitem__, t.entries))
    orbit_of, _ = _row_orbits(table, [seed], 2 * t.base_genus, convention,
                              orbit_cap - 1, closed=False)
    # index order is element order, so sorted rows are sorted tuples
    return tuple(HurwitzTuple(tuple(map(table.elements.__getitem__, row)), t.base_genus)
                 for row in sorted(orbit_of))


Level = Literal["tuples", "pointed", "unpointed"]


@dataclass(frozen=True)
class ComponentPartition:
    """Orbit partition of one space under the move closure.

    ``orbit_sizes`` lists one size per orbit, ordered by each orbit's
    minimal member; ``exact`` is false for genus >= 1 where the partition
    is only a refinement of the true components.  ``orbit_of[k]`` is the
    orbit of the k-th member of the level in ``classification``: its
    ``rows[k]`` at the tuples level, else its k-th class.  ``orbits``
    lists each orbit's members (tuples, or the classes' canonical
    representatives), built when first read.
    """

    level: Level
    exact: bool
    orbit_sizes: tuple[int, ...]
    orbit_of: tuple[int, ...] = field(repr=False)
    classification: SpaceClassification = field(compare=False, repr=False)

    @cached_property
    def orbits(self) -> tuple[tuple[HurwitzTuple, ...], ...]:
        cls = self.classification
        members = (cls.tuples if self.level == "tuples"
                   else [c.canonical for c in getattr(cls, self.level)])
        orbits: list[list[HurwitzTuple]] = [[] for _ in self.orbit_sizes]
        for t, k in zip(members, self.orbit_of):  # sorted, so each orbit is sorted
            orbits[k].append(t)
        return tuple(map(tuple, orbits))


def _row_orbits(table: ElementTable, rows, first: int, convention: Convention,
                orbit_cap: int, *, closed: bool = True) -> tuple[dict, int]:
    """Move orbits of index rows (branch slots from ``first``), seeded in
    list order: each reached row's orbit number, and the orbit count.

    ``orbit_cap`` bounds the rows reached by a move from all seeds.  When
    ``closed`` the rows are a whole space and a move out of it is an
    error; otherwise the row it reaches joins the orbit.
    """
    mul, inv = table.mul, table.inverses
    orbit_of = dict.fromkeys(rows, -1)
    outside = None if closed else -1
    count = 0
    reached = 0
    for seed in rows:
        if orbit_of[seed] >= 0:
            continue
        orbit_of[seed] = count
        frontier = deque([seed])
        while frontier:
            cur = frontier.popleft()
            for k in range(first, len(cur) - 1):
                a, b = cur[k], cur[k + 1]
                # (a, b) -> (a b a^-1, a) and (b, b^-1 a b)
                forward = cur[:k] + (mul(mul(a, b), inv[a]), a) + cur[k + 2:]
                backward = cur[:k] + (b, mul(mul(inv[b], a), b)) + cur[k + 2:]
                for nxt in ((forward, backward) if convention == "standard"
                            else (backward, forward)):
                    label = orbit_of.get(nxt, outside)
                    if label == -1:
                        reached += 1
                        if reached > orbit_cap:
                            raise OrbitCapExceeded(f"orbit closure exceeds cap {orbit_cap}")
                        orbit_of[nxt] = count
                        frontier.append(nxt)
                    elif label != count:
                        # moves must not leave the enumerated space
                        raise InternalInvariantViolation("orbit escaped the enumerated space")
        count += 1
    return orbit_of, count


def _class_orbits(orbit_of, class_of, count: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Move orbits of the ``count`` classes: the images of the tuple orbits,
    read from the orbit and the class of each row.  Returns each class's
    orbit and the orbit sizes, orbits numbered by minimal class.

    Moves commute with conjugation, so two tuple orbits have equal or
    disjoint class images.
    """
    images: dict[int, set[int]] = {}  # tuple orbit -> its classes
    for k, c in zip(orbit_of, class_of):
        images.setdefault(k, set()).add(c)
    label = [-1] * count
    parts: list[list[int]] = []
    for image in map(sorted, images.values()):
        k = label[image[0]]
        if k < 0 and all(label[c] < 0 for c in image):
            for c in image:
                label[c] = len(parts)
            parts.append(image)
        elif k < 0 or parts[k] != image:
            raise InternalInvariantViolation("class images of two move orbits overlap")
    parts.sort()
    for k, part in enumerate(parts):
        for c in part:
            label[c] = k
    return tuple(label), tuple(map(len, parts))


def components(
    G: PermGroup,
    base_genus: int,
    branch_count: int,
    type_filter: BranchingType | None = None,
    *,
    level: Level = "tuples",
    convention: Convention = "standard",
    orbit_cap: int = DEFAULT_ORBIT_CAP,
    work_cap: int | None = None,
    classification: SpaceClassification | None = None,
    tuple_partition: ComponentPartition | None = None,
) -> ComponentPartition:
    """Orbit partition of a whole space at the requested quotient level.

    The BFS runs on the classification's rows only; ``tuple_partition``
    supplies its result precomputed, one orbit id per row.  Moves commute
    with conjugation, so the pointed and unpointed partitions are the
    images of the tuple orbits under the class maps of ``classification``.
    """
    if level not in ("tuples", "pointed", "unpointed"):
        raise ValueError(f"unknown level {level!r}")
    if tuple_partition is not None and tuple_partition.level != "tuples":
        raise ValueError("tuple_partition must be a tuple-level partition")
    if classification is None:
        classification = classify_space(
            G, base_genus, branch_count, type_filter, work_cap=work_cap,
        )
    cls = classification
    if tuple_partition is None:
        labels, count = _row_orbits(G.table, cls.rows, 2 * base_genus, convention, orbit_cap)
        orbit_of = tuple(labels.values())  # a closed search adds no row, so in row order
        orbit_sizes = tuple(map(Counter(orbit_of).__getitem__, range(count)))
    else:
        orbit_of, orbit_sizes = tuple_partition.orbit_of, tuple_partition.orbit_sizes
        if len(orbit_of) != len(cls.rows):
            raise ValueError("tuple_partition must have one orbit id per row of the space")
    if level != "tuples":
        class_of = cls.pointed_of if level == "pointed" else cls.unpointed_of
        orbit_of, orbit_sizes = _class_orbits(orbit_of, class_of, len(getattr(cls, level)))
    return ComponentPartition(level, base_genus == 0, orbit_sizes, orbit_of, cls)
