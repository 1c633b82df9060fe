"""Independent brute-force oracles for the test suite.

Everything in this module is deliberately self-contained: it has its own
permutation arithmetic and uses only exhaustive loops (full cartesian
products with post-hoc filtering, plain BFS closures).  Nothing here
imports the package under test, so agreement between the two is evidence
rather than tautology.  ``regular_model`` and ``nu_fiber`` take the
package's tuples, groups and classes as input and read only their fields.

Conventions match the library: a permutation of degree d is a tuple of
images on {0, ..., d-1}, acting on the right, with words composed left to
right (lam . (p*q) == (lam . p) . q).
"""

from collections import deque
from dataclasses import dataclass, replace
from itertools import product


def o_compose(p, q):
    return tuple(q[p[i]] for i in range(len(p)))


def o_inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def o_conjugate(e, s):
    # s * e * s^-1 under left-to-right composition
    sinv = o_inverse(s)
    return tuple(sinv[e[s[i]]] for i in range(len(e)))


def o_closure(gens):
    """All elements of the subgroup generated by gens, as a frozenset."""
    d = len(gens[0])
    ident = tuple(range(d))
    seen = {ident}
    frontier = deque([ident])
    while frontier:
        x = frontier.popleft()
        for g in gens:
            y = o_compose(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def o_is_transitive(elements, d):
    reach = {0}
    frontier = deque([0])
    while frontier:
        lam = frontier.popleft()
        for g in elements:
            mu = g[lam]
            if mu not in reach:
                reach.add(mu)
                frontier.append(mu)
    return len(reach) == d


def o_commutator(a, b):
    return o_compose(o_compose(a, b), o_compose(o_inverse(a), o_inverse(b)))


def o_word_product(handles, branches):
    d = len(branches[0]) if branches else len(handles[0][0])
    run = tuple(range(d))
    for a, b in handles:
        run = o_compose(run, o_commutator(a, b))
    for g in branches:
        run = o_compose(run, g)
    return run


def brute_force_tuples(elements, d, genus, n):
    """All valid monodromy tuples, by filtering the full product G^(2g+n).

    A tuple is a pair (handles, branches) with handles a tuple of g pairs
    and branches a tuple of n permutations; it is valid when the surface
    relation holds, no branch entry is the identity, the entries generate
    the whole element set, and that set acts transitively.
    """
    elements = sorted(elements)
    ident = tuple(range(d))
    group = frozenset(elements)
    if not o_is_transitive(elements, d):
        return []
    out = []
    for word in product(elements, repeat=2 * genus + n):
        handles = tuple((word[2 * i], word[2 * i + 1]) for i in range(genus))
        branches = word[2 * genus:]
        if any(g == ident for g in branches):
            continue
        if o_word_product(handles, branches) != ident:
            continue
        if o_closure(list(word)) != group:
            continue
        out.append((handles, branches))
    out.sort()
    return out


def o_conjugate_tuple(t, s):
    handles, branches = t
    return (
        tuple((o_conjugate(a, s), o_conjugate(b, s)) for a, b in handles),
        tuple(o_conjugate(g, s) for g in branches),
    )


def orbit_partition(tuples, conjugators):
    """Partition tuples into orbits under entrywise conjugation."""
    pool = set(tuples)
    classes = []
    while pool:
        seed = min(pool)
        orb = {o_conjugate_tuple(seed, s) for s in conjugators}
        orb &= pool  # tolerate conjugators leaving the set (they should not)
        pool -= orb
        classes.append(sorted(orb))
    classes.sort(key=lambda c: c[0])
    return classes


def o_move(t, i, forward=True):
    """Elementary move at 1-based branch position i (swap of g_i, g_i+1)."""
    handles, branches = t
    b = list(branches)
    gi, gj = b[i - 1], b[i]
    if forward:
        b[i - 1], b[i] = o_compose(o_compose(gi, gj), o_inverse(gi)), gi
    else:
        b[i - 1], b[i] = gj, o_compose(o_compose(o_inverse(gj), gi), gj)
    return (handles, tuple(b))


def move_closure(t):
    """BFS closure of one tuple under all elementary moves, both directions."""
    n = len(t[1])
    seen = {t}
    frontier = deque([t])
    while frontier:
        cur = frontier.popleft()
        for i in range(1, n):
            for fwd in (True, False):
                nxt = o_move(cur, i, fwd)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return frozenset(seen)


def move_partition(tuples):
    """Orbit partition of a tuple set under the move closure."""
    pool = set(tuples)
    parts = []
    while pool:
        seed = min(pool)
        orb = move_closure(seed)
        pool -= orb
        parts.append(sorted(orb))
    parts.sort(key=lambda c: c[0])
    return parts


def class_move_partition(tuples, conjugators):
    """Move-orbit partition of the conjugation classes of a tuple set.

    A class is named by the minimum of its full conjugation orbit, which
    need not lie in the set.  BFS runs on those names: a move applied to
    a name is renamed to the minimum of its own orbit.
    """
    def name(t):
        return min(o_conjugate_tuple(t, s) for s in conjugators)

    pool = {name(t) for t in tuples}
    parts = []
    while pool:
        seed = min(pool)
        seen = {seed}
        frontier = deque([seed])
        while frontier:
            cur = frontier.popleft()
            for i in range(1, len(cur[1])):
                for fwd in (True, False):
                    nxt = name(o_move(cur, i, fwd))
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        pool -= seen
        parts.append(sorted(seen))
    parts.sort(key=lambda c: c[0])
    return parts


def symmetric_elements(d):
    from itertools import permutations

    return [tuple(p) for p in permutations(range(d))]


def o_normalizer(elements, d):
    group = frozenset(elements)
    gens = sorted(group)
    return [
        s
        for s in symmetric_elements(d)
        if all(o_conjugate(g, s) in group for g in gens)
        and all(o_conjugate(g, o_inverse(s)) in group for g in gens)
    ]


def o_centralizer(elements, d):
    gens = sorted(frozenset(elements))
    return [
        s
        for s in symmetric_elements(d)
        if all(o_compose(s, g) == o_compose(g, s) for g in gens)
    ]


def o_point_stabilizer(elements, lam):
    return [g for g in elements if g[lam] == lam]


def o_ram_partition(g):
    """Cycle lengths of one permutation, fixed points included, sorted desc."""
    d = len(g)
    seen = [False] * d
    out = []
    for i in range(d):
        if seen[i]:
            continue
        k, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = g[j]
            k += 1
        out.append(k)
    out.sort(reverse=True)
    return out


def o_genus(domain_actions_branches, domain_size, base_genus):
    """Riemann-Hurwitz genus from branch actions on a transitive domain."""
    ram = sum(
        sum(k - 1 for k in o_ram_partition(g)) for g in domain_actions_branches
    )
    val = domain_size * (2 * base_genus - 2) + ram
    assert val % 2 == 0 and val >= -2
    return val // 2 + 1


@dataclass(frozen=True)
class RegularAction:
    """Entry actions on the sorted elements of a group (the Galois cover).

    Same attributes as the package's action tuples, so its intertwiner
    search accepts it.
    """

    domain_size: int
    actions: tuple
    base_genus: int

    @property
    def branch_actions(self):
        return self.actions[2 * self.base_genus:]

    def is_connected(self):
        return self.domain_size > 0 and o_is_transitive(self.actions, self.domain_size)


def regular_model(t, G):
    """Entries of t acting on the sorted elements of G by right translation."""
    elements = sorted(G.elements)
    index = {g: i for i, g in enumerate(elements)}
    actions = tuple(
        tuple(index[o_compose(h, e)] for h in elements) for e in t.entries
    )
    return RegularAction(len(elements), actions, t.base_genus)


def nu_fiber(c, G):
    """The conjugates of a pointed class's canonical tuple by every element
    of the brute-force normalizer fixing its marked point, sorted."""
    lam = c.marked_point
    fixed = [s for s in o_normalizer(list(G.elements), G.degree) if s[lam] == lam]
    t = c.canonical
    return tuple(sorted({replace(t, entries=tuple(o_conjugate(e, s) for e in t.entries))
                         for s in fixed}))


# ---------------------------------------------------------------------------
# Named small groups used across the test matrix (0-based image tuples).

C2_ON_2 = [(0, 1), (1, 0)]
S3_ON_3 = symmetric_elements(3)
C3_ON_3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
V4_REGULAR = [
    (0, 1, 2, 3),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (3, 2, 1, 0),
]


def census(elements, d, genus, n, conj_pointed, conj_unpointed):
    """(tuple_count, pointed_count, unpointed_count) by exhaustion."""
    tuples = brute_force_tuples(elements, d, genus, n)
    pointed = orbit_partition(tuples, conj_pointed)
    unpointed = orbit_partition(tuples, conj_unpointed)
    return len(tuples), len(pointed), len(unpointed)
