"""Fiberwise geometry of a monodromy tuple: induced actions, ramification
profiles, and Riemann-Hurwitz genus computations.

Three standard action models for a tuple valid in G:

  * natural: the entries act on the d points as given (the induced cover),
  * regular: every entry acts on G itself by right translation (the
    Galois cover); only its genus is computed, from element orders,
  * coset: entries act by right translation on the right cosets H\\G;
    with H the stabilizer of the marked point this is the quotient model
    of the induced cover, and the two are equivariantly isomorphic.

The ramification index over branch point j at a domain orbit of g_j is
the orbit length k; Riemann-Hurwitz then gives the fiber genus
2 g_X - 2 = N (2 g_Y - 2) + sum_j sum_orbits (k - 1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce

from .errors import (
    DegreeMismatch,
    DisconnectedCover,
    DomainSizeMismatch,
    InternalInvariantViolation,
    NotASubgroup,
    ParityViolation,
)
from .perms import Perm, PermGroup, compose, cycle_type, generates, perm_order
from .tuples import HurwitzTuple
from .classify import SpaceClassification, _row_action


@dataclass(frozen=True)
class ActionTuple:
    """A tuple together with an explicit permutation action of every entry.

    ``actions`` matches ``base.entries`` position by position; each is a
    permutation of {0, ..., domain_size - 1}.
    """

    base: HurwitzTuple
    domain_size: int
    actions: tuple[Perm, ...]

    @property
    def branch_actions(self) -> tuple[Perm, ...]:
        return self.actions[2 * self.base.base_genus:]

    def is_connected(self) -> bool:
        """True when the group generated by the entry actions is transitive."""
        if self.domain_size == 0:
            return False
        reach = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for a in self.actions:
                y = a[x]
                if y not in reach:
                    reach.add(y)
                    frontier.append(y)
        return len(reach) == self.domain_size


def natural_model(t: HurwitzTuple) -> ActionTuple:
    """The entries acting on the d points as given."""
    return ActionTuple(t, t.degree, t.entries)


def coset_model(t: HurwitzTuple, G: PermGroup, H: PermGroup) -> ActionTuple:
    """Entries act on the right cosets H\\G by right translation.

    Cosets are indexed in the order of their minimal elements.  With
    H = G(lam0) this is the quotient model of the induced cover.
    """
    ids = [G.table.index.get(h) for h in H.elements]
    if None in ids or reduce(G.table.join, ids, 1) != sum(1 << i for i in set(ids)):
        raise NotASubgroup("H is not a subgroup of G")  # not in G, or not closed

    def coset(x: Perm) -> Perm:  # the least member of H x
        return min(compose(h, x) for h in H.elements)

    index = {rep: i for i, rep in enumerate(sorted({coset(g) for g in G.elements}))}
    return ActionTuple(t, len(index), tuple(
        tuple(index[coset(compose(rep, e))] for rep in index) for e in t.entries))


def actions_isomorphic(A: ActionTuple, B: ActionTuple) -> Perm | None:
    """A domain bijection intertwining every corresponding pair of entries.

    Returned as a tuple psi with psi[x . a_k] == psi[x] . b_k for all k;
    None when no such bijection exists.  The search anchors one point per
    orbit and propagates along the actions, backtracking over anchor
    images only.
    """
    if len(A.actions) != len(B.actions):
        raise DegreeMismatch(
            f"{len(A.actions)} entries vs {len(B.actions)}"
        )
    if A.domain_size != B.domain_size:
        raise DomainSizeMismatch(
            f"domain {A.domain_size} vs {B.domain_size}"
        )
    n_dom = A.domain_size
    if n_dom == 0:
        return ()

    pairs = list(zip(A.actions, B.actions))

    def propagate(psi: list[int | None], used: set[int], root: int, image: int):
        """Extend psi by psi[root] = image; return newly assigned points or None."""
        if psi[root] is not None or image in used:
            return None
        assigned = [root]
        psi[root] = image
        used.add(image)
        queue = [root]
        while queue:
            x = queue.pop()
            for a, b in pairs:
                y, z = a[x], b[psi[x]]
                if psi[y] is None:
                    if z in used:
                        break
                    psi[y] = z
                    used.add(z)
                    assigned.append(y)
                    queue.append(y)
                elif psi[y] != z:
                    break
            else:
                continue
            for w in assigned:  # undo on conflict
                used.discard(psi[w])  # type: ignore[arg-type]
                psi[w] = None
            return None
        return assigned

    def solve(psi: list[int | None], used: set[int]) -> bool:
        try:
            root = psi.index(None)
        except ValueError:
            return True
        for image in range(n_dom):
            assigned = propagate(psi, used, root, image)
            if assigned is None:
                continue
            if solve(psi, used):
                return True
            for w in assigned:
                used.discard(psi[w])  # type: ignore[arg-type]
                psi[w] = None
        return False

    psi: list[int | None] = [None] * n_dom
    if solve(psi, set()):
        return tuple(psi)  # type: ignore[arg-type]
    return None


def ramification_profile(t: HurwitzTuple) -> tuple[tuple[int, ...], ...]:
    """Per branch point, the partition of the degree by orbit lengths of g_j."""
    return tuple(cycle_type(g) for g in t.branches)


def _genus(ram: int, domain_size: int, base_genus: int) -> int:
    """Riemann-Hurwitz genus from the total ramification sum_j sum (k - 1)."""
    val = domain_size * (2 * base_genus - 2) + ram
    if val % 2 != 0:
        raise ParityViolation(
            f"2g-2 = {val} is odd; the input cannot be a valid monodromy datum"
        )
    genus = val // 2 + 1
    if genus < 0:
        raise ParityViolation(f"negative genus {genus}")
    return genus


def fiber_genus(t: HurwitzTuple, G: PermGroup, model: str = "induced",
                H: PermGroup | None = None) -> int:
    """Genus of the total space of the selected model of the cover.

    ``model`` is one of "induced" (natural action on the d points),
    "galois" (regular action on G), or "coset" (right cosets of H).
    The action must be connected (transitive); genus of a disconnected
    action is refused rather than summed per component.
    """
    if model == "galois":
        if not generates(G, t.entries):
            raise DisconnectedCover("galois action is not transitive")
        # right translation by g: |G|/ord(g) cycles of length ord(g)
        n = G.order
        return _genus(sum(n - n // k for k in map(perm_order, t.branches)), n, t.base_genus)
    if model == "induced":
        action = natural_model(t)
    elif model == "coset":
        if H is None:
            raise NotASubgroup("coset model needs a subgroup H")
        action = coset_model(t, G, H)
    else:
        raise ValueError(f"unknown model {model!r}")
    if not action.is_connected():
        raise DisconnectedCover(f"{model} action is not transitive")
    n = action.domain_size
    return _genus(sum(n - len(cycle_type(a)) for a in action.branch_actions), n, t.base_genus)


@dataclass(frozen=True)
class CoverReport:
    """Consolidated per-class cover data for one fiber of the family.

    ``branching_type`` here is the cycle-type shadow of the type: a
    sorted multiset of (cycle type, multiplicity) pairs.  Unlike the
    class-level type, the cycle-type form is unchanged by conjugation
    with any element normalizing G (which may permute the conjugacy
    classes themselves), so the whole report is a class and move-orbit
    invariant.
    """

    degree: int
    base_genus: int
    profiles: tuple[tuple[int, ...], ...]
    ramification_point_counts: tuple[int, ...]
    branching_type: tuple[tuple[tuple[int, ...], int], ...]
    genus: int
    galois_genus: int


def cycle_type_multiset(t: HurwitzTuple) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Sorted (cycle type, multiplicity) pairs over the branch entries."""
    return tuple(sorted(Counter(ramification_profile(t)).items()))


def cover_report(t: HurwitzTuple, G: PermGroup) -> CoverReport:
    """The report of one tuple; it refuses what ``fiber_genus`` does, the induced
    model's cases first, then reads the group's report for its branch cycle types."""
    table = G.table
    ids = list(map(table.index.get, t.entries))
    if None in ids or not table.generates(ids):
        fiber_genus(t, G, "induced")
        raise DisconnectedCover("galois action is not transitive")
    if not G.is_transitive():  # the entries generate G, so act as G does
        raise DisconnectedCover("induced action is not transitive")
    return _row_report(G, t.base_genus, ids)


def _row_report(G: PermGroup, base_genus: int, row) -> CoverReport:
    """The report of a generating index row.  For a fixed G every field is
    a function of the base genus and the branch cycle types in slot order,
    so ``G._cache`` keeps one report per such key."""
    table, branch = G.table, row[2 * base_genus:]
    profiles = tuple(map(table.cycle_types.__getitem__, branch))
    memo: dict = G._cache.setdefault("cover_reports", {})  # type: ignore[assignment]
    key = (base_genus, profiles)
    if key not in memo:
        d, n, k = G.degree, G.order, len(branch)
        memo[key] = CoverReport(
            degree=d,
            base_genus=base_genus,
            profiles=profiles,
            ramification_point_counts=tuple(map(len, profiles)),
            branching_type=tuple((p, profiles.count(p)) for p in sorted(set(profiles))),
            genus=_genus(d * k - sum(map(len, profiles)), d, base_genus),
            galois_genus=_genus(n * k - sum(n // table.orders[j] for j in branch), n, base_genus),
        )
    return memo[key]


def universal_fiber_report(cls: SpaceClassification, c: int) -> CoverReport:
    """Cover data for the fiber of the universal family over pointed class c.

    Computed from the canonical row ``cls.canonicals[c]`` and re-verified on
    its conjugate by the first non-identity element of N(lam0) (when there is
    one), column 1 of the row action's ``images``.  Both rows must generate
    G, a transitive group, and give the identical report, since all the
    quantities are conjugation invariants.
    """
    G, g, row = cls.group, cls.base_genus, cls.canonicals[c]
    table = G.table
    if not (G.is_transitive() and table.generates(row)):
        raise DisconnectedCover("the canonical row does not give a connected cover")
    report = _row_report(G, g, row)
    action = _row_action(G, G.marked_point)
    if action.N.order > 1:  # N(lam0) is sorted, so its identity is column 0
        member = [action.images[j][1] for j in row]
        if not table.generates(member) or _row_report(G, g, member) != report:
            raise InternalInvariantViolation(
                "cover report differs across members of one pointed class")
    return report
