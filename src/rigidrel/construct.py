"""Building hereditarily rigid relations from antichains of index patterns.

An abstract trace assigns to every injective ell-tuple a set of
surjective index patterns, equivariantly under permutations of the
pattern alphabet.  When the assigned sets are pairwise strictly
incomparable, the relation they generate (all low-diversity tuples plus
the realized patterns) is hereditarily ell-rigid.  Sperner's theorem
bounds how large the base set can get; the constructors draw the sets
from a middle layer of the pattern power set and verify the result.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .kernel import (
    CapacityError,
    Relation,
    beta,
    beta_lt,
    mask_bits,
    rank_count,
    subsets_colex,
)
from .rigidity import (
    RigidityReport,
    TraceMap,
    comparable_masks,
    is_hereditarily_ell_rigid,
)


class BoundError(ValueError):
    """A counting precondition for the requested construction fails."""


class TraceError(ValueError):
    """An abstract trace violates a structural requirement."""


class ConstructionError(RuntimeError):
    """A constructed relation failed its post-verification."""

    def __init__(self, message: str, report: RigidityReport | None = None):
        super().__init__(message)
        self.report = report


def falling_factorial(n: int, r: int) -> int:
    """n (n-1) ... (n-r+1); zero when r exceeds n."""
    return math.perm(n, r)


def surjection_count(n: int, ell: int) -> int:
    """Number of surjections from an n-set onto an ell-set, by inclusion-exclusion."""
    if n < 1 or ell < 1:
        raise ValueError(f"need n, ell >= 1, got n={n}, ell={ell}")
    return sum(
        (-1) ** (ell - j) * math.comb(ell, j) * j**n for j in range(1, ell + 1)
    )


def sperner_bound_holds(k: int, ell: int, h: int) -> bool:
    """Necessary condition for existence: injective ell-tuples must fit
    into the widest antichain over the surjective index patterns."""
    if k < 2 or ell < 1 or h < 1:
        raise ValueError("need k >= 2, ell >= 1, h >= 1")
    s = surjection_count(h, ell)
    return falling_factorial(k, ell) <= math.comb(s, s // 2)


def exists_2rigid(k: int, h: int) -> bool:
    """Exact existence criterion at ell = 2: k(k-1) <= C(2**h - 2, 2**(h-1) - 1)."""
    if k < 2 or h < 1:
        raise ValueError("need k >= 2, h >= 1")
    return k * (k - 1) <= math.comb(2**h - 2, 2 ** (h - 1) - 1)


def max_k_2rigid(h: int) -> int:
    """Largest base-set size admitting a hereditarily 2-rigid h-ary relation,
    or 0 when none exists."""
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    bound = math.comb(2**h - 2, 2 ** (h - 1) - 1)
    k = (1 + math.isqrt(1 + 4 * bound)) // 2
    while k * (k - 1) > bound:
        k -= 1
    return k if k >= 2 else 0


def r_bounds(ell: int, h: int) -> tuple:
    """Lower and upper bounds for the largest ell-tuple count supported at
    arity h: the middle layer with an orbit removed, and the full middle layer."""
    if ell < 2:
        raise ValueError(f"need ell >= 2, got {ell}")
    if not ell < h:
        raise ValueError(f"need ell < h, got ell={ell}, h={h}")
    s = surjection_count(h, ell)
    fe = math.factorial(ell)
    lower = math.comb(s - fe, (s - fe) // 2)
    upper = math.comb(s, s // 2)
    return lower, upper


@dataclass(frozen=True)
class IndexAntichain:
    """A family of pattern sets intended to be pairwise incomparable."""

    ell: int
    h: int
    members: tuple  # frozensets of index patterns

    def validate_antichain(self) -> bool:
        return _strict_antichain(self.members)


def middle_layer(ground, forbidden=()) -> IndexAntichain:
    """All floor(m/2)-subsets of ground minus forbidden, in colex order of
    the sorted-ground index masks.  An empty remaining ground yields no
    members.  Materializes the layer, so it is guarded in size."""
    forbidden = set(forbidden)
    ground = set(ground)
    if not forbidden <= ground:
        raise ValueError("forbidden elements must come from the ground set")
    elems = sorted(ground - forbidden)
    m = len(elems)
    if m == 0:
        return IndexAntichain(0, 0, ())
    first = next(iter(elems))
    h = len(first)
    ell = max(max(p) for p in elems) + 1
    c = m // 2
    if math.comb(m, c) > 5_000_000:
        raise CapacityError(
            f"middle_layer materializes C({m},{c}) sets; guard is 5e6"
        )
    members = tuple(
        frozenset(elems[i] for i in mask_bits(bm)) for bm in subsets_colex(m, c)
    )
    return IndexAntichain(ell, h, members)


def dual_2(x_set) -> frozenset:
    """Swap the two pattern symbols in every member pattern."""
    out = set()
    for p in x_set:
        if any(e not in (0, 1) for e in p):
            raise ValueError("dual is defined for two-symbol patterns only")
        out.add(tuple(1 - e for e in p))
    dual = frozenset(out)
    if len(out) % 2 == 1:
        assert dual != frozenset(x_set), "odd-size sets are never self-dual"
    return dual


@functools.lru_cache(maxsize=None)
def _relabellings(ell: int, h: int) -> tuple:
    """One (perm, table) pair per permutation of the pattern alphabet, in
    itertools order: the table maps each surjective ell-symbol pattern of
    length h to the pattern relabelled by the inverse of perm, which is
    the pattern the tuple reordered by perm must carry."""
    patterns = sorted(beta(ell, h, range(ell))) if ell <= h else []
    out = []
    for perm in itertools.permutations(range(ell)):
        inv = [0] * ell
        for i, pi in enumerate(perm):
            inv[pi] = i
        out.append((perm, {p: tuple(inv[e] for e in p) for p in patterns}))
    return tuple(out)


class AbstractTrace(TraceMap):
    """A synthetic trace assignment, to be validated before use."""

    @classmethod
    def from_dict(cls, ell: int, h: int, k: int, mapping) -> "AbstractTrace":
        items = tuple(sorted((tuple(x), frozenset(v)) for x, v in mapping.items()))
        return cls(ell, h, k, items)

    @classmethod
    def from_trace_map(cls, tm: TraceMap) -> "AbstractTrace":
        return cls(tm.ell, tm.h, tm.k, tm.items)

    def validate(self) -> None:
        """Raise TraceError unless the assignment is total over the
        injective ell-tuples, draws from the surjective patterns, and is
        equivariant under permutations of the pattern alphabet."""
        ell, h, k = self.ell, self.h, self.k
        expected_keys = sorted(beta(ell, ell, range(k)))
        if [x for x, _ in self.items] != expected_keys:
            raise TraceError("assignment must cover exactly the injective tuples")
        relabel = _relabellings(ell, h)
        patterns = relabel[0][1].keys()  # the identity comes first
        table = self.as_dict
        for x, tx in self.items:
            if not patterns >= tx:
                raise TraceError(f"trace at {x} uses non-surjective patterns")
        for x, tx in self.items:
            for perm, moved in relabel:
                xp = tuple(x[pi] for pi in perm)
                if table[xp] != frozenset(map(moved.__getitem__, tx)):
                    raise TraceError(
                        f"not equivariant at {x} under permutation {perm}"
                    )

    def values_strictly_incomparable(self) -> bool:
        """No trace contained in (or equal to) another trace's set."""
        return _strict_antichain([tx for _, tx in self.items])


def _strict_antichain(sets) -> bool:
    """No set contained in (or equal to) another, tested on bit-masks."""
    bit: dict = {}
    return not comparable_masks(
        sum(bit.setdefault(p, 1 << len(bit)) for p in x) for x in sets
    )


def rho_from_trace(tr: AbstractTrace) -> Relation:
    """Relation generated by an abstract trace: every tuple with fewer
    than ell distinct entries, plus each trace pattern composed with its
    tuple.  Non-equivariant assignments are rejected."""
    tr.validate()
    ell, h, k = tr.ell, tr.h, tr.k
    patterned = (tuple(x[e] for e in p) for x, tx in tr.items for p in tx)
    return Relation.from_tuples(
        k, h, itertools.chain(beta_lt(ell, h, range(k)), patterned)
    )


def _verified(rho: Relation, ell: int) -> Relation:
    report = is_hereditarily_ell_rigid(rho, ell)
    if not report.verdict:
        raise ConstructionError(
            f"constructed relation failed verification on side "
            f"{report.failing_side}",
            report,
        )
    return rho


def construct_2rigid(k: int, h: int) -> Relation:
    """Build and verify a hereditarily 2-rigid h-ary relation on k points.

    Walks the middle layer over the two-symbol surjective patterns in
    colex order, assigning to each unordered pair {a, b} (in
    lexicographic order) the first set whose dual is also fresh; the
    reversed pair gets the dual.  The counting criterion is checked up
    front and the result is re-verified before being returned.
    """
    if k < 2 or h < 1:
        raise ValueError("need k >= 2, h >= 1")
    s = 2**h - 2
    c = 2 ** (h - 1) - 1
    if not exists_2rigid(k, h):
        raise BoundError(
            f"no hereditarily 2-rigid relation at k={k}, h={h}: "
            f"k(k-1) = {k * (k - 1)} > C({s},{c}) = {math.comb(s, c)}"
        )
    rank_count(k, h)  # refuse before any work a relation too large to hold
    patterns = sorted(beta(2, h, (0, 1)))
    assert len(patterns) == s
    stream = (
        frozenset(patterns[i] for i in mask_bits(bm))
        for bm in subsets_colex(s, c)
    )
    used = set()
    assignment = {}
    for a, b in itertools.combinations(range(k), 2):
        for x_set in stream:
            if x_set in used:
                continue
            x_dual = dual_2(x_set)
            assert x_dual not in used, "used sets stay closed under duals"
            assignment[(a, b)] = x_set
            assignment[(b, a)] = x_dual
            used.add(x_set)
            used.add(x_dual)
            break
        else:
            raise ConstructionError(
                f"middle layer exhausted at pair ({a},{b})"
            )
    tr = AbstractTrace.from_dict(2, h, k, assignment)
    if not tr.values_strictly_incomparable():
        raise ConstructionError("assigned trace sets are not an antichain")
    return _verified(rho_from_trace(tr), 2)


def _pattern_orbit(x_set, perms):
    return frozenset(
        frozenset(tuple(perm[e] for e in p) for p in x_set) for perm in perms
    )


def construct_ellrigid(k: int, ell: int, h: int) -> Relation:
    """Build and verify a hereditarily ell-rigid relation for ell >= 3.

    One free orbit of patterns is reserved to tag each alphabet
    permutation; the remaining ground's middle layer supplies, for each
    increasing ell-subset of the base set, a set with a free orbit under
    alphabet permutations (stabilized sets are skipped, with a bounded
    backtracking fallback).  The equivariant extension then generates the
    relation, which is re-verified before being returned.
    """
    if ell < 3:
        raise ValueError("construct_ellrigid needs ell >= 3 (ell = 2 has its own constructor)")
    if not ell <= k:
        raise ValueError(f"need ell <= k, got ell={ell}, k={k}")
    if not ell < h:
        raise BoundError(f"construction requires ell < h, got ell={ell}, h={h}")
    s = surjection_count(h, ell)
    fe = math.factorial(ell)
    lower = math.comb(s - fe, (s - fe) // 2)
    need = falling_factorial(k, ell)
    if need > lower:
        raise BoundError(
            f"counting criterion fails at k={k}, ell={ell}, h={h}: "
            f"{need} > C({s - fe},{(s - fe) // 2}) = {lower}"
        )
    rank_count(k, h)
    patterns = sorted(beta(ell, h, range(ell)))
    perms = list(itertools.permutations(range(ell)))
    y = patterns[0]
    y_orbit = {tuple(perm[e] for e in y) for perm in perms}
    assert len(y_orbit) == fe, "a surjective pattern has a free orbit"
    ground = [p for p in patterns if p not in y_orbit]
    m = len(ground)
    c = m // 2

    reps = list(itertools.combinations(range(k), ell))
    stream = (
        frozenset(ground[i] for i in mask_bits(bm))
        for bm in subsets_colex(m, c)
    )
    chosen = _assign_orbit_disjoint(reps, stream, perms, fe)

    assignment = {}
    for rep, x_set in chosen.items():
        for perm, moved in _relabellings(ell, h):
            xp = tuple(rep[pi] for pi in perm)
            assignment[xp] = frozenset(map(moved.__getitem__, x_set)) | {moved[y]}
    tr = AbstractTrace.from_dict(ell, h, k, assignment)
    if not tr.values_strictly_incomparable():
        raise ConstructionError("assigned trace sets are not an antichain")
    return _verified(rho_from_trace(tr), ell)


def _assign_orbit_disjoint(reps, stream, perms, orbit_size, node_budget=200_000):
    """Give each representative a candidate whose alphabet orbit is free
    and disjoint from earlier choices.

    Greedy in stream order; the depth-first fallback only backtracks when
    the greedy pass would fail, and gives up deterministically once the
    node budget is spent.  The search keeps its own stack, so the number
    of representatives is not bounded by the recursion limit.
    """
    candidates = []  # (set, orbit) pairs with free orbits, in stream order
    pull_budget = 64 * len(reps) + 256

    def ensure(idx) -> bool:
        while len(candidates) <= idx:
            if len(candidates) >= pull_budget:
                return False
            x_set = next(stream, None)
            if x_set is None:
                return False
            orbit = _pattern_orbit(x_set, perms)
            if len(orbit) == orbit_size:
                candidates.append((x_set, orbit))
        return True

    picks: list = []  # candidate index chosen for each representative so far
    used: list = []  # their orbits
    pos = 0
    nodes = 0
    while len(picks) < len(reps) and nodes < node_budget:
        nodes += 1
        if not ensure(pos):
            if not picks:
                break
            pos = picks.pop() + 1
            used.pop()
            continue
        orbit = candidates[pos][1]
        if all(not (orbit & prev) for prev in used):
            picks.append(pos)
            used.append(orbit)
        pos += 1
    if len(picks) < len(reps):
        raise ConstructionError(
            "could not pick orbit-disjoint antichain members within budget"
        )
    return {rep: candidates[i][0] for rep, i in zip(reps, picks)}
