"""Monodromy tuples over a genus-g base and their exhaustive enumeration.

A tuple (a_1, b_1, ..., a_g, b_g; g_1, ..., g_n) of permutations is the
combinatorial datum of a branched cover: the a_i, b_i are the images of
the handle loops of the base curve, the g_j the local monodromies around
the n branch points.  It is a valid point of the space when

  * the surface relation [a_1,b_1]...[a_g,b_g] g_1...g_n = 1 holds,
  * no g_j is the identity,
  * the entries generate the whole group G, and
  * G acts transitively (the cover is connected).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .errors import DegreeMismatch, WorkCapExceeded
from .perms import (
    Perm,
    PermGroup,
    commutator,
    compose,
    conjugate,
    format_perm,
    generates,
    identity,
)

DEFAULT_WORK_CAP = 10**8


@dataclass(frozen=True, order=True)
class HurwitzTuple:
    """Immutable monodromy tuple stored as its flat entries, handles first
    (a_1, b_1, ..., a_g, b_g, g_1, ..., g_n); ordering is lexicographic on
    the entries, i.e. on their concatenated one-line notations.  Slotted, as
    an enumeration holds one per tuple of the space."""

    __slots__ = ("entries", "base_genus", "__weakref__")
    entries: tuple[Perm, ...]
    base_genus: int

    @property
    def degree(self) -> int:
        return len(self.entries[0])

    @property
    def handles(self) -> tuple[tuple[Perm, Perm], ...]:
        e = self.entries
        return tuple((e[2 * i], e[2 * i + 1]) for i in range(self.base_genus))

    @property
    def branches(self) -> tuple[Perm, ...]:
        return self.entries[2 * self.base_genus:]

    @property
    def branch_count(self) -> int:
        return len(self.entries) - 2 * self.base_genus

    def __str__(self) -> str:
        return ", ".join(format_perm(e) for e in self.entries)

    def total_product(self) -> Perm:
        run = identity(self.degree)
        for a, b in self.handles:
            run = compose(run, commutator(a, b))
        for g in self.branches:
            run = compose(run, g)
        return run


def tuple_from_entries(degree: int, base_genus: int, entries) -> HurwitzTuple:
    entries = tuple(entries)
    if len(entries) < 2 * base_genus + 1:
        raise DegreeMismatch(
            f"need at least {2 * base_genus + 1} entries for genus {base_genus}, got {len(entries)}"
        )
    for e in entries:
        if len(e) != degree:
            raise DegreeMismatch(f"entry of degree {len(e)}, expected {degree}")
    return HurwitzTuple(entries, base_genus)


@dataclass(frozen=True)
class ValidationReport:
    relation_holds: bool
    no_trivial_branch: bool
    generates_G: bool
    g_transitive: bool

    @property
    def is_valid(self) -> bool:
        return (
            self.relation_holds
            and self.no_trivial_branch
            and self.generates_G
            and self.g_transitive
        )


def validate_tuple(t: HurwitzTuple, G: PermGroup) -> ValidationReport:
    """Check every membership condition of the space, one flag per condition."""
    if t.degree != G.degree:
        raise DegreeMismatch(f"tuple degree {t.degree} vs group degree {G.degree}")
    ident = identity(t.degree)
    relation = t.total_product() == ident
    no_trivial = all(g != ident for g in t.branches)
    return ValidationReport(relation, no_trivial, generates(G, t.entries), G.is_transitive())


def type_key(classes, ids) -> tuple[int, ...]:
    """The index form of a branching type: the sorted ``classes`` of element indices ``ids``."""
    return tuple(sorted([classes[j] for j in ids]))


def pop_rows(tuples: list[HurwitzTuple], index: dict) -> tuple[tuple[int, ...], ...]:
    """The tuples as rows of element indices (``index`` is a ``G.table.index``),
    in order, emptying the list: each tuple is freed as its row is made, so the
    rows come off the end and are reversed once the list is empty."""
    rows = []
    while tuples:
        rows.append(tuple(map(index.__getitem__, tuples.pop().entries)))
    rows.reverse()
    return tuple(rows)


@dataclass(frozen=True)
class BranchingType:
    """Multiset of conjugacy classes of the branch entries.

    ``entries`` pairs each canonical class representative with its
    multiplicity, sorted by representative; multiplicities sum to n.
    """

    entries: tuple[tuple[Perm, int], ...]

    @property
    def size(self) -> int:
        return sum(m for _, m in self.entries)

    def __str__(self) -> str:
        return " + ".join(f"{m}*[{format_perm(r)}]" for r, m in self.entries)

    def key(self, table) -> tuple[int, ...]:
        """The ``type_key`` of the type in the indices of ``table``, a
        ``G.table``: one class index per branch entry.  Any member of a class
        names that class; a representative outside G raises DegreeMismatch."""
        ids = []
        for rep, m in self.entries:
            if rep not in table.index:
                raise DegreeMismatch(f"{format_perm(rep)} is not an element of the group")
            ids += [table.index[rep]] * m
        return type_key(table.classes, ids)


def make_branching_type(G: PermGroup, pairs) -> BranchingType:
    """Normalize (element, multiplicity) pairs to canonical class reps."""
    counts: dict[Perm, int] = {}
    for p, mult in pairs:
        rep = G.class_of(p)
        counts[rep] = counts.get(rep, 0) + mult
    return BranchingType(tuple(sorted(counts.items())))


def branching_type_of(t: HurwitzTuple, G: PermGroup) -> BranchingType:
    return make_branching_type(G, [(g, 1) for g in t.branches])


def conjugate_branching_type(bt: BranchingType, s: Perm, G: PermGroup) -> BranchingType:
    """The type with every class O replaced by s O s^-1."""
    return make_branching_type(G, [(conjugate(rep, s), m) for rep, m in bt.entries])


def enumerate_tuples(
    G: PermGroup,
    base_genus: int,
    branch_count: int,
    type_filter: BranchingType | None = None,
    *,
    work_cap: int = DEFAULT_WORK_CAP,
    stats: dict | None = None,
) -> list[HurwitzTuple]:
    """Every valid tuple exactly once, in lexicographic order.

    The search assigns the 2g + n - 1 free entries depth first in sorted
    element order and solves the last branch entry from the relation, so
    the output order is the global total order.  Entries are ``G.table``
    element indices until a leaf is kept.  Each node carries the index of
    its relation product and the mask of the subgroup its free entries
    generate, extended by one memoized ``join``.  The mask lives in the
    frame of the first entry a: with a0 = ``classes[a]`` and h =
    ``frames[a]`` (h * a0 * h^-1 = a), the walk joins a0, then h^-1 * j * h
    for every later entry j, through one conjugation map per first entry.
    Conjugation by h is an automorphism of G, so a leaf generates G exactly
    when its mask is ``G.table.full``, and the pair closures start from one
    cyclic subgroup per conjugacy class.  At a branch slot the product is
    read off the Cayley row of the node's product (``row``); handle slots
    extend it by ``mul``.  When the last free slot is a branch slot, every
    candidate is a leaf, decided in one step per node: a table local to the
    call holds, per mask, ``good[x] = join(mask, x) == full``, filled once
    per (mask, class with entries left), and the node keeps the candidates
    whose frame image is good, less those whose solved last entry is the
    identity or breaks the filter's budget.  The last entry is a word in the
    free ones, so it never changes the mask.  A type filter is a budget of
    branch entries per class index, read from its ``key``: any member names
    its class, and a representative outside G raises DegreeMismatch.  The
    work cap counts visited search-tree nodes (candidate entry assignments)
    and is checked at every visit; the last free slot's node adds its
    candidate count, kept up to date where the branch slots change the
    budget, and past the cap stops at the same candidate a one-by-one count
    would.  The a-priori bound |G|^(2g+n-1) is checked up front.
    ``stats`` receives the visited node count (``"nodes"``), the number
    of leaves reached (``"leaves"``) and the number of memoized joins of
    the group's table (``"join_memo"``).
    """
    if branch_count < 1:
        raise ValueError("branch count must be at least 1")
    if base_genus < 0:
        raise ValueError("base genus must be non-negative")
    free = 2 * base_genus + branch_count - 1
    if G.order**free > work_cap:
        raise WorkCapExceeded(f"enumeration: the bound |G|^(2g+n-1) = {G.order}^{free} "
                              f"exceeds work cap {work_cap}; no node visited")
    table = G.table
    key = None if type_filter is None else type_filter.key(table)
    if not G.is_transitive():
        return []

    if key is not None and len(key) != branch_count:
        return []
    if free == 0:
        # n = 1, g = 0: the single branch entry would have to be the identity.
        return []

    mul, inv, join, classes, frames, row, elements, full = (
        table.mul, table.inverses, table.join, table.classes, table.frames, table.row,
        table.elements, table.full)
    members: dict[int, list[int]] = {}  # class index -> its non-identity members
    for j in range(1, table.size):
        members.setdefault(classes[j], []).append(j)
    # branch entries still allowed, by class index; a class absent from
    # the filter gets none, and without a filter no class runs out
    left = ([branch_count] * table.size if key is None
            else [key.count(c) for c in range(table.size)])
    # the classes with entries left, as a bitmask, and the number of elements they
    # hold, a branch slot's candidates; both change only where ``left`` reaches 0
    allowed = sum(1 << c for c in members if left[c])
    width = sum(len(members[c]) for c in members if left[c])
    # the depth of the last free slot when it is a branch slot, else none
    inline = free - 1 if branch_count > 1 else -1
    # per mask met at that slot: good[x] is join(mask, x) == full, filled per
    # class with entries left (the identity stays False), and the classes filled
    goods: dict[int, list] = {}
    out: list[HurwitzTuple] = []
    chosen: list[int] = []
    nodes = 0
    leaves = 0

    def cap_error(visited: int) -> WorkCapExceeded:
        return WorkCapExceeded(f"enumeration: {visited} visited nodes exceed work cap "
                               f"{work_cap}; {len(out)} tuples kept so far")

    def frame(h: int) -> list[int]:
        # entry j is the index of h^-1 * j * h: with r the row of h^-1,
        # r[j] = h^-1 * j, and (h^-1 * j) * h = (h^-1 * (h^-1 * j)^-1)^-1
        r = row(inv[h])
        return list(map(inv.__getitem__, map(r.__getitem__, map(inv.__getitem__, r))))

    def walk(depth: int, run: int, mask: int, conj) -> None:
        # ``depth`` counts fully assigned free slots; ``run`` is the index
        # of the relation product of everything committed so far, ``mask``
        # the subgroup the committed entries generate in the first entry's
        # frame and ``conj`` maps an entry into that frame (``classes`` at
        # the root, where each first entry is joined as its class minimum)
        nonlocal nodes, leaves, allowed, width
        if depth == free:  # the last free slot was a handle slot
            leaves += 1
            last = inv[run]
            if mask == full and last != 0 and left[classes[last]]:
                out.append(HurwitzTuple(
                    tuple([elements[j] for j in chosen]) + (elements[last],), base_genus))
            return
        is_branch = depth >= 2 * base_genus
        if is_branch:
            r = row(run)
        elif depth % 2 == 1:  # b_i: run * [a_i, b_i]
            a = chosen[-1]
            run_a, a_inv = mul(run, a), inv[a]
        if depth == inline:
            # every candidate is a leaf: keep the j whose frame image completes the
            # mask, then test the solved last entry; conjugation keeps classes
            entry = goods.get(mask) or goods.setdefault(mask, [[False] * table.size, 0])
            good, filled = entry
            missing = allowed & ~filled
            if missing:
                for c, xs in members.items():
                    if missing >> c & 1:
                        for y in map(conj.__getitem__, xs):
                            good[y] = join(mask, y) == full
                entry[1] = filled | missing
            stop = table.size
            if nodes + width > work_cap:  # the candidate past the cap, in order
                stop = [j for j in range(1, table.size) if left[classes[j]]][work_cap - nodes]
            head = tuple([elements[k] for k in chosen])
            for j in compress(range(stop), map(good.__getitem__, conj)):
                last = inv[r[j]]
                c, k = classes[j], classes[last]
                if last and left[c] and left[k] > (k == c):
                    out.append(HurwitzTuple(head + (elements[j], elements[last]), base_genus))
            if stop < table.size:
                raise cap_error(work_cap + 1)
            nodes += width
            leaves += width
            return
        for j in range(1 if is_branch else 0, table.size):  # index 0 is the identity
            if is_branch and not left[classes[j]]:
                continue
            nodes += 1
            if nodes > work_cap:
                raise cap_error(nodes)
            chosen.append(j)
            sub = join(mask, conj[j])
            below = conj if depth else frame(frames[j])
            if is_branch:
                c = classes[j]
                left[c] -= 1
                if not left[c]:
                    allowed ^= 1 << c
                    width -= len(members[c])
                walk(depth + 1, r[j], sub, below)
                if not left[c]:
                    allowed ^= 1 << c
                    width += len(members[c])
                left[c] += 1
            elif depth % 2 == 1:
                walk(depth + 1, mul(mul(mul(run_a, j), a_inv), inv[j]), sub, below)
            else:
                walk(depth + 1, run, sub, below)
            chosen.pop()

    walk(0, 0, 1, classes)
    if stats is not None:
        stats["nodes"] = nodes
        stats["leaves"] = leaves
        stats["join_memo"] = len(table.joins)
    return out
