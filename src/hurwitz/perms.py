"""Exact permutation and finite permutation-group arithmetic.

A permutation of degree d is a plain tuple of images on the points
{0, ..., d-1}: ``p[lam]`` is the image of ``lam``.  Permutations act on
the right and words compose left to right, so

    lam . (p * q) == (lam . p) . q        i.e.  compose(p, q)[lam] == q[p[lam]].

All text I/O is 1-based disjoint-cycle notation; everything internal is
0-based.  The total order on permutations is lexicographic on the image
tuple (one-line notation); every canonical representative and sorted
listing in the package uses it.

The normalizer in Sym(d), its point stabilizers N(lam) and the centralizer
come from one search that can fix a point at its root; the pipeline builds N(lam0).
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    CycleSyntaxError,
    DegreeMismatch,
    OrderCapExceeded,
    PointOutOfRange,
    RepeatedPoint,
)

Perm = tuple[int, ...]

DEFAULT_ORDER_CAP = 10**6


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def _check_degrees(p: Perm, q: Perm) -> None:
    if len(p) != len(q):
        raise DegreeMismatch(f"degree {len(p)} vs {len(q)}")


def compose(p: Perm, q: Perm) -> Perm:
    """Left-to-right product: apply p first, then q."""
    _check_degrees(p, q)
    return tuple(q[i] for i in p)


def compose_all(perms, degree: int) -> Perm:
    run = identity(degree)
    for p in perms:
        run = compose(run, p)
    return run


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def conjugate(p: Perm, s: Perm) -> Perm:
    """The product s * p * s^-1 (left-to-right), i.e. p with points relabeled."""
    _check_degrees(p, s)
    sinv = inverse(s)
    return tuple(sinv[p[j]] for j in s)


def commutator(a: Perm, b: Perm) -> Perm:
    """[a, b] = a * b * a^-1 * b^-1."""
    return compose(compose(a, b), compose(inverse(a), inverse(b)))


def perm_order(p: Perm) -> int:
    order = 1
    for c in cyclic_orbits(p):
        order = math.lcm(order, len(c))
    return order


def cyclic_orbits(p: Perm) -> tuple[tuple[int, ...], ...]:
    """Orbits of <p> on the points: the cycles of p, fixed points included.

    Each orbit lists its points in traversal order starting from its
    minimal point; orbits are sorted by that minimal point.
    """
    seen = [False] * len(p)
    orbits = []
    for start in range(len(p)):
        if seen[start]:
            continue
        orbit = []
        j = start
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = p[j]
        orbits.append(tuple(orbit))
    return tuple(orbits)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths including fixed points, sorted descending."""
    return tuple(sorted((len(c) for c in cyclic_orbits(p)), reverse=True))


_TOKEN_RE = re.compile(r"\(|\)|\d+|[,\s]+")


def parse_perm(text: str, degree: int) -> Perm:
    """Parse 1-based disjoint-cycle notation.

    Grammar: ``perm := "id" | "()" | cycle+ ; cycle := "(" int (sep int)* ")" ;
    sep := "," | whitespace``.  Points not mentioned are fixed.
    """
    stripped = text.strip()
    if stripped == "id" or stripped == "()":
        return identity(degree)
    pos = 0
    images = list(range(degree))
    used: set[int] = set()
    cycles_found = 0
    cur: list[int] | None = None
    while pos < len(stripped):
        m = _TOKEN_RE.match(stripped, pos)
        if m is None:
            raise CycleSyntaxError(f"unexpected character at position {pos}: {stripped[pos:]!r}")
        tok = m.group()
        pos = m.end()
        if tok == "(":
            if cur is not None:
                raise CycleSyntaxError("nested '(' in cycle notation")
            cur = []
        elif tok == ")":
            if cur is None:
                raise CycleSyntaxError("')' without matching '('")
            if not cur:
                raise CycleSyntaxError("empty cycle in multi-cycle expression")
            for a, b in zip(cur, cur[1:] + cur[:1]):
                images[a] = b
            cycles_found += 1
            cur = None
        elif tok[0].isdigit():
            if cur is None:
                raise CycleSyntaxError(f"point {tok} outside any cycle")
            val = int(tok)
            if val < 1 or val > degree:
                raise PointOutOfRange(f"point {val} out of range 1..{degree}")
            if val - 1 in used:
                raise RepeatedPoint(f"point {val} occurs twice")
            used.add(val - 1)
            cur.append(val - 1)
        # separators are skipped
    if cur is not None:
        raise CycleSyntaxError("unbalanced parentheses: missing ')'")
    if cycles_found == 0:
        raise CycleSyntaxError(f"no cycles found in {text!r}")
    return tuple(images)


def format_perm(p: Perm) -> str:
    """Canonical 1-based cycle string; identity renders as "()"."""
    parts = [c for c in cyclic_orbits(p) if len(c) > 1]
    if not parts:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in parts)


@dataclass(frozen=True)
class ConjClass:
    """One conjugacy class: canonical (minimal) representative and all members."""

    representative: Perm
    members: tuple[Perm, ...]

    def __contains__(self, p: Perm) -> bool:
        return p in self.members


class PermGroup:
    """A finite permutation group with its elements fully materialized.

    Immutable after construction; derived data (transitivity, conjugacy
    classes, distinguished subgroups) is computed lazily and cached.
    ``marked_point`` is the 0-based distinguished point lambda_0 used by
    the pointed classification.
    """

    def __init__(self, degree: int, generators: tuple[Perm, ...],
                 elements: tuple[Perm, ...], marked_point: int = 0):
        if not 0 <= marked_point < degree:
            raise PointOutOfRange(f"marked point {marked_point} out of range for degree {degree}")
        self.degree = degree
        self.generators = generators
        self.elements = elements  # sorted, deduplicated, closed
        self.marked_point = marked_point
        self._cache: dict[str, object] = {}

    # -- basic protocol ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self.table.index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self.elements == other.elements
            and self.marked_point == other.marked_point
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.elements, self.marked_point))

    def __repr__(self) -> str:
        gens = ", ".join(format_perm(g) for g in self.generators)
        return f"PermGroup(degree={self.degree}, order={self.order}, <{gens}>)"

    # -- structure -----------------------------------------------------------

    def is_transitive(self) -> bool:
        if "transitive" not in self._cache:
            self._cache["transitive"] = len({g[0] for g in self.elements}) == self.degree
        return self._cache["transitive"]  # type: ignore[return-value]

    def point_stabilizer(self, lam: int) -> "PermGroup":
        if not 0 <= lam < self.degree:
            raise PointOutOfRange(f"point {lam} out of range for degree {self.degree}")
        key = f"stab:{lam}"
        if key in self._cache:
            return self._cache[key]  # type: ignore[return-value]
        members = tuple(g for g in self.elements if g[lam] == lam)
        sub = PermGroup(self.degree, members, members, marked_point=lam)
        self._cache[key] = sub
        return sub

    def conjugacy_classes(self) -> tuple[ConjClass, ...]:
        if "classes" not in self._cache:
            members: dict[int, list[Perm]] = {}  # first met in order of the minimal member
            for p, c in zip(self.elements, self.table.classes):
                members.setdefault(c, []).append(p)
            self._cache["classes"] = tuple(
                ConjClass(self.elements[c], tuple(ms)) for c, ms in members.items())
        return self._cache["classes"]  # type: ignore[return-value]

    def class_of(self, p: Perm) -> Perm:
        """Canonical representative of the conjugacy class of p."""
        try:
            return self.elements[self.table.classes[self.table.index[p]]]
        except KeyError:
            raise DegreeMismatch(f"{format_perm(p)} is not an element of the group") from None

    def with_marked_point(self, lam: int) -> "PermGroup":
        """The same group marked at lam; it shares this group's memo, whose
        entries that depend on a point name it in their key."""
        if lam == self.marked_point:
            return self
        moved = PermGroup(self.degree, self.generators, self.elements, marked_point=lam)
        moved._cache = self._cache
        return moved

    @property
    def table(self) -> "ElementTable":
        """Element indices, per-element data and subgroup joins, built on first use."""
        if "table" not in self._cache:
            self._cache["table"] = ElementTable(self.elements, self.generators)
        return self._cache["table"]  # type: ignore[return-value]


class ElementTable:
    """Indices of a group's sorted elements, per-element data, Cayley rows,
    memoized products and a memoized subgroup join.

    Element j is ``elements[j]``; the identity sorts first, so it is index
    0.  ``mul(x, s)`` is the index of x * s.  ``cycle_types``, ``orders``,
    ``inverses`` (indices), ``classes`` (the index of each element's
    minimal conjugate a0) and ``strings`` (cycle notation) are built on first
    use; the loop that builds ``classes`` also records ``frames`` (for each
    a, an index h with h * a0 * h^-1 = a; the identity for a0 itself).
    ``conjugation(s)`` maps indices through conjugation by s.

    ``row(x)`` is the Cayley row of x, the indices of x * s over all s,
    memoized per x.  A generator's row is composed; any other x is g * y
    along a breadth-first tree from the identity, with g a generator, and
    its row is ``row(g)[row(y)[s]]``, pure list indexing.  The enumerator,
    the pair closures, ``conjugation`` and the classes read rows.  They are
    dense, so ``mul`` keeps a sparse ``products`` memo for the cyclic
    closures, the move search, the relation checks and the handle slots:
    rows for every cyclic subgroup of S7 would fill all 5,040 of them.

    A subgroup is an int bitmask over element indices: the trivial group is
    1 and the whole group is ``full``.  ``join(mask, j)``
    is the mask of the subgroup generated by the subgroup ``mask`` and
    element j, and ``generates(ids)`` folds it.  A miss goes through
    <j> = ``join(1, j)``: <H, j> = <H, <j>> is the join of two subgroups,
    closed once per unordered pair of them, whichever side and whichever
    generator of <j> reaches it.  A closure starts from the subgroup's own
    members only, so it costs O(|<H, j>|) products, never O(|G|).
    """

    def __init__(self, elements: tuple[Perm, ...], generators: tuple[Perm, ...]):
        self.elements = elements
        self.generators = generators
        self.index = {p: i for i, p in enumerate(elements)}
        self.size = len(elements)
        self.full = (1 << self.size) - 1
        self.joins: dict[tuple[int, int], int] = {}
        self.products: dict[int, int] = {}  # x * |G| + s -> index of x * s
        self.rows: dict[int, list[int]] = {}  # x -> row(x)
        self._pairs: dict[tuple[int, ...], int] = {}  # (smaller, larger) mask -> their join
        # mask -> (generator indices, member indices) of each subgroup met,
        # except G itself, whose joins never miss
        self._subgroups: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {1: ((), (0,))}

    def mul(self, x: int, s: int) -> int:
        """Index of the product x * s (x first), memoized."""
        key = x * self.size + s
        try:
            return self.products[key]
        except KeyError:  # compose(p, q) without the degree check
            p, q = self.elements[x], self.elements[s]
            y = self.products[key] = self.index[tuple(map(q.__getitem__, p))]
            return y

    @cached_property
    def cycle_types(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(cycle_type, self.elements))

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return tuple(math.lcm(*ct) for ct in self.cycle_types)

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        return tuple(self.index[inverse(p)] for p in self.elements)

    @cached_property
    def classes(self) -> tuple[int, ...]:
        return self._classes_and_frames[0]

    @cached_property
    def frames(self) -> tuple[int, ...]:
        return self._classes_and_frames[1]

    @cached_property
    def _classes_and_frames(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # a class is the orbit of its minimum a0 under the generators'
        # conjugation maps; y = h * a0 * h^-1 gives g * y * g^-1 the frame g * h
        maps = [(self.conjugation(g), self.row(self.index[g])) for g in self.generators]
        out, frames = [-1] * self.size, [0] * self.size
        for j in range(self.size):
            if out[j] < 0:  # sorted, so the first member met is the minimum
                out[j], orbit = j, [j]
                for y in orbit:  # grows while it is walked
                    for image, row in maps:
                        k = image[y]
                        if out[k] < 0:
                            out[k], frames[k] = j, row[frames[y]]
                            orbit.append(k)
        return tuple(out), tuple(frames)

    def row(self, x: int) -> list[int]:
        """Entry s is the index of x * s; memoized per x."""
        rows = self.rows
        chain = []  # x = g * y: row(x) needs row(y) first
        z = x
        while z not in rows:
            g, y = self._steps.get(z, (z, 0))
            if y == 0:  # a generator, the identity or an element no generator reaches
                p, index = self.elements[z], self.index
                rows[z] = [index[tuple(map(q.__getitem__, p))] for q in self.elements]
            else:
                chain.append(z)
                z = y
        for z in reversed(chain):
            g, y = self._steps[z]
            rows[z] = list(map(self.row(g).__getitem__, rows[y]))
        return rows[x]

    @cached_property
    def _steps(self) -> dict[int, tuple[int, int]]:
        """x -> (g, y) with x = g * y, g a generator, along a breadth-first
        tree of the Cayley graph from the identity, whose step is (0, 0)."""
        index, elements = self.index, self.elements
        gens = [index[g] for g in self.generators]
        steps = {0: (0, 0)}
        frontier = [0]
        for y in frontier:  # grows while it is walked
            if len(steps) == self.size:
                break
            q = elements[y]
            for g in gens:
                x = index[tuple(map(q.__getitem__, elements[g]))]
                if x not in steps:
                    steps[x] = (g, y)
                    frontier.append(x)
        return steps

    def conjugation(self, s: Perm) -> tuple[int, ...]:
        """Entry j is the index of s * elements[j] * s^-1.  Only the generators are conjugated
        (an s not normalizing G raises KeyError there); x = g * y maps to image(g) * image(y)."""
        image, rows = [0] * self.size, {}
        for x, (g, y) in self._steps.items():  # g and y come before x
            if y:
                image[x] = rows[g][image[y]]
            elif x:  # a generator; the identity maps to itself
                image[x] = self.index[conjugate(self.elements[x], s)]
                rows[x] = self.row(image[x])
        return tuple(image)

    @cached_property
    def strings(self) -> tuple[str, ...]:
        return tuple(map(format_perm, self.elements))

    def generates(self, ids) -> bool:
        """True when the elements with indices ids generate the whole group."""
        mask = 1
        for j in ids:
            mask = self.join(mask, j)
        return mask == self.full

    def join(self, mask: int, j: int) -> int:
        """Mask of the subgroup generated by the subgroup ``mask`` and element j."""
        if mask >> j & 1:
            return mask
        key = (mask, j)
        if key not in self.joins:
            if mask == 1:
                self.joins[key] = self._close(1, j)
            else:  # <H, j> = <H, <j>>, a join of two subgroups
                pair = tuple(sorted((mask, self.join(1, j))))
                if pair not in self._pairs:
                    self._pairs[pair] = self._close(mask, j)
                self.joins[key] = self._pairs[pair]
        return self.joins[key]

    def _close(self, mask: int, j: int) -> int:
        gens, members = self._subgroups[mask]
        gens += (j,)
        half, seen = self.size // 2, set(members)
        if len(members) == 1:  # <j>: the powers of j, through the sparse memo
            new = [j]
            while (y := self.mul(new[-1], j)) != 0:
                new.append(y)
            seen.update(new)
        else:  # left products by the generators' rows, from the coset j * H outside H
            rows = list(map(self.row, gens))
            new = list(map(rows[-1].__getitem__, members))
            seen.update(new)
            for y in new:  # grows while it is walked
                # Lagrange: a subgroup with more than |G|/2 elements is G
                if len(seen) > half:
                    return self.full
                for row in rows:
                    z = row[y]
                    if z not in seen:
                        seen.add(z)
                        new.append(z)
        if len(seen) > half:
            return self.full
        for y in new:
            mask |= 1 << y
        if len(members) == 1:
            # <j> is cyclic with new[k-1] = j^k, and j^k generates it
            # whenever k is prime to its order
            for k, y in enumerate(new, 1):
                if math.gcd(k, len(seen)) == 1:
                    self.joins[1, y] = mask
        self._subgroups.setdefault(mask, (gens, members + tuple(new)))
        return mask


def generate_group(gens, degree: int | None = None, *,
                   cap: int = DEFAULT_ORDER_CAP, marked_point: int = 0) -> PermGroup:
    """Breadth-first closure of the generators under composition.

    Inverses and the identity come for free in a finite group; the closure
    is cut off with OrderCapExceeded when it grows past ``cap``.
    """
    gens = tuple(gens)
    if not gens:
        if degree is None:
            raise DegreeMismatch("empty generator list and no degree given")
        ident = identity(degree)
        return PermGroup(degree, (ident,), (ident,), marked_point=marked_point)
    d = len(gens[0])
    if degree is not None and degree != d:
        raise DegreeMismatch(f"generators of degree {d}, expected {degree}")
    for g in gens:
        _check_degrees(gens[0], g)
    ident = identity(d)
    seen = {ident}
    frontier = deque([ident])
    while frontier:
        x = frontier.popleft()
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                if len(seen) >= cap:
                    raise OrderCapExceeded(f"group closure: order exceeds cap {cap}; "
                                           f"{len(seen)} elements found")
                seen.add(y)
                frontier.append(y)
    return PermGroup(d, gens, tuple(sorted(seen)), marked_point=marked_point)


def generates(G: PermGroup, gens) -> bool:
    """True when the permutations gens lie in G and generate all of it.

    Folds the memoized join of ``G.table`` over the entries, starting
    from the trivial subgroup.
    """
    ids = [G.table.index.get(g) for g in gens]
    return None not in ids and G.table.generates(ids)


def subgroup_from_elements(degree: int, members, marked_point: int = 0) -> PermGroup:
    members = tuple(sorted(set(members)))
    return PermGroup(degree, members, members, marked_point=marked_point)


def _normalizer_search(G: PermGroup, lam: int | None, *, centralizing: bool = False) -> PermGroup:
    """The s in Sym(d) with s^-1 G s = G, and s[lam] = lam if lam is given; memoized.

    Depth-first search giving the points images in breadth-first order along
    the generators: the root (lam, or point 0) and its orbit, then each orbit
    not yet reached from its least point.  For each generator g a node keeps
    the h in G with h[s[j]] = s[g[j]] where s is defined; a branch dies once
    one list is empty.  A point g[q] after the first of its orbit has q
    earlier, so its image is some h[s[q]].  Every leaf normalizes G, as
    s^-1 G s <= G forces equality.  The leaves fixing the root come first
    and |N| >= |N(root)| * |root^G|, so the order cap is checked on that.
    ``centralizing`` seeds each generator's list with g alone, which leaves the
    centralizer; its members fixing the root lie in N(root), so its cap trips no earlier.
    The result is marked at the root, so it does not depend on G's marked point.
    """
    key = f"{'centralizer' if centralizing else 'normalizer'}:{lam}"
    if key in G._cache:
        return G._cache[key]  # type: ignore[return-value]
    d, root = G.degree, 0 if lam is None else lam
    gens = [(g, inverse(g)) for g in G.generators]
    order = [root]
    for p in order:  # grows while it is walked
        order += [q for q in dict.fromkeys(g[p] for g, _ in gens) if q not in order]
        if p == order[-1] and len(order) < d:  # an orbit is closed
            order.append(min(set(range(d)).difference(order)))
    pos = inverse(order)
    # per level and generator: the positions of g^-1[p] and g[p] if they have images by then
    checks = [[(pos[ginv[p]] if pos[ginv[p]] < k else -1, pos[g[p]] if pos[g[p]] <= k else -1)
               for g, ginv in gens] for k, p in enumerate(order)]
    orbit = len({h[root] for h in G.elements})
    members: list[Perm] = []
    stack = [((), [[g] if centralizing else G.elements for g, _ in gens])]
    while stack:
        t, agreeing = stack.pop()  # t[k] is the image of order[k]
        k = len(t)
        if k == d:
            members.append(tuple(map(t.__getitem__, pos)))
            if len(members) * (orbit if t[0] == root else 1) > DEFAULT_ORDER_CAP:
                raise OrderCapExceeded(f"normalizer search: order exceeds cap "
                                       f"{DEFAULT_ORDER_CAP}; {len(members)} elements found")
            continue
        images = {root} if k == 0 and lam is not None else set(range(d)).difference(t)
        for (i, _), hs in zip(checks[k], agreeing):
            if i >= 0:
                c = t[i]
                images.intersection_update(h[c] for h in hs)
        for a in sorted(images, reverse=True):
            u = t + (a,)
            kept = []
            for (i, j), hs in zip(checks[k], agreeing):
                if i >= 0:
                    c = u[i]
                    hs = [h for h in hs if h[c] == a]
                if j >= 0:
                    b = u[j]
                    hs = [h for h in hs if h[a] == b]
                if not hs:
                    break
                kept.append(hs)
            else:
                stack.append((u, kept))
    G._cache[key] = subgroup_from_elements(d, members, marked_point=root)
    return G._cache[key]  # type: ignore[return-value]


def normalizer_in_sym(G: PermGroup) -> PermGroup:
    """Normalizer of G in the full symmetric group: the search with no point fixed."""
    return _normalizer_search(G, None)


def centralizer_in_sym(G: PermGroup) -> PermGroup:
    """Centralizer of G in Sym(d): the normalizer search with each generator's list seeded."""
    return _normalizer_search(G, None, centralizing=True)


def normalizer_fixing_point(G: PermGroup, lam: int | None = None) -> PermGroup:
    """N(lam): the elements of the normalizer of G in S_d that fix the point lam.

    With lam omitted, uses the group's marked point.  The normalizer search
    with s[lam] = lam set at its root, exact for intransitive G too; its order
    cap bounds |N(lam)| * |lam^G|, which is |N_Sym(G)| for a transitive G.
    """
    if lam is None:
        lam = G.marked_point
    if not 0 <= lam < G.degree:
        raise PointOutOfRange(f"point {lam} out of range for degree {G.degree}")
    return _normalizer_search(G, lam)
