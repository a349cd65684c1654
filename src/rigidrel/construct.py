"""Building hereditarily rigid relations from antichains of index patterns.

A trace assigns to every injective ell-tuple a set of surjective index
patterns.  The traces of a relation are equivariant under permutations
of the pattern alphabet, so the sets at the C(k, ell) increasing tuples
fix the whole relation: all low-diversity tuples plus each increasing
tuple composed with its patterns.  When the sets, with their images
under the permutations, are pairwise strictly incomparable, that
relation is hereditarily ell-rigid.  Sperner's theorem bounds how large
the base set can get.  An AbstractTrace holds exactly those sets, so it
is equivariant as stored, and rho_from_trace builds its relation.  There
is one path from sets to a relation: picks -> AbstractTrace ->
rho_from_trace -> verify.  Both constructors run it in one body,
_construct: it picks the sets from a middle layer of the pattern power
set (at ell >= 3 after holding back one free orbit of patterns), builds
the relation of that trace, and verifies it once, from its members.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .kernel import (
    CapacityError,
    Relation,
    _surjective_patterns,
    rank_count,
    subsets_colex,
)
from .rigidity import (
    RigidityReport,
    _bit_map,
    _pattern_weights,
    _probe_ranks,
    _relabellings,
    _small_kernels,
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


# Bounds are computed and printed below 2**MAX_BOUND_BITS only: that is at
# most 4,215 decimal digits, inside CPython's default limit of 4,300 digits
# on converting an int to str.
MAX_BOUND_BITS = 14_000


def _require_printable_bounds(ell: int, h: int, k=None) -> None:
    """Refuse, before any bound is computed, a middle layer over more than
    MAX_BOUND_BITS surjective patterns, or a tuple count k!/(k-ell)! that
    could reach 2**MAX_BOUND_BITS.  At 2 <= ell <= h there are at least
    ell! * ell**(h - ell) >= 2**(h - 1) patterns, so a large h is refused
    before they are counted."""
    if 2 <= ell <= h and (
        h > MAX_BOUND_BITS.bit_length() or surjection_count(h, ell) > MAX_BOUND_BITS
    ):
        raise CapacityError(
            f"bounds are computed for at most {MAX_BOUND_BITS} surjective "
            f"patterns, and ell={ell}, h={h} has more"
        )
    if k is not None and ell <= k and ell * k.bit_length() > MAX_BOUND_BITS:
        raise CapacityError(
            f"k!/(k-ell)! for a {k.bit_length()}-bit k at ell={ell} "
            f"may exceed 2**{MAX_BOUND_BITS}"
        )


def surjection_count(n: int, ell: int) -> int:
    """Number of surjections from an n-set onto an ell-set, by inclusion-exclusion."""
    if n < 1 or ell < 1:
        raise ValueError(f"need n, ell >= 1, got n={n}, ell={ell}")
    if ell > n:
        return 0
    return sum(
        (-1) ** (ell - j) * math.comb(ell, j) * j**n for j in range(1, ell + 1)
    )


def sperner_bound_holds(k: int, ell: int, h: int) -> bool:
    """Necessary condition for existence: injective ell-tuples must fit
    into the widest antichain over the surjective index patterns.  At
    ell = 2 it is exact, k(k-1) <= C(2**h - 2, 2**(h-1) - 1), as there are
    2**h - 2 surjections from an h-set onto a 2-set."""
    if k < 2 or ell < 1 or h < 1:
        raise ValueError("need k >= 2, ell >= 1, h >= 1")
    return _fits_middle_layer(math.perm(k, ell), surjection_count(h, ell))


def _fits_middle_layer(need: int, m: int) -> bool:
    """need <= C(m, m // 2).  As 2**m / (m + 1) <= C(m, m // 2) <= 2**m,
    bit lengths decide it unless need is within a factor m + 1 of 2**m,
    so the binomial is only built when it is about as large as need."""
    if need.bit_length() + (m + 1).bit_length() <= m:
        return True
    return need.bit_length() <= m + 1 and need <= math.comb(m, m // 2)


def max_k_2rigid(h: int) -> int:
    """Largest base-set size admitting a hereditarily 2-rigid h-ary relation,
    or 0 when none exists."""
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    _require_printable_bounds(2, h)
    m = _ground_size(2, h)
    bound = math.comb(m, m // 2)
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
    _require_printable_bounds(ell, h)
    s = surjection_count(h, ell)
    fe = math.factorial(ell)
    lower = math.comb(s - fe, (s - fe) // 2)
    upper = math.comb(s, s // 2)
    return lower, upper


def bound_sides(k: int, ell: int, h: int) -> tuple:
    """The counting criterion the constructors check, as (need, m, have):
    need = k!/(k-ell)! injective ell-tuples must get distinct sets from
    the middle layer of m patterns, which holds have = C(m, m // 2) sets.
    The m patterns are the surjective ones, less one free orbit of ell!
    patterns held back at ell >= 3."""
    m = _ground_size(ell, h)
    return math.perm(k, ell), m, math.comb(m, m // 2)


def _ground_size(ell: int, h: int) -> int:
    """The m of bound_sides."""
    s = surjection_count(h, ell)
    return s if ell == 2 else s - math.factorial(ell)


@dataclass(frozen=True)
class AbstractTrace:
    """A trace held at the increasing ell-tuples: masks[i] is the mask of
    the i-th tuple of itertools.combinations(range(k), ell), in the bit
    order of rigidity's trace masks (bit i is the i-th sorted surjective
    pattern; bits past those stand for patterns that are not surjective).
    Each other injective tuple carries the mask of its sorted form, moved
    by the relabelling that reorders it, so the trace is equivariant as
    stored."""

    ell: int
    h: int
    k: int
    masks: tuple

    @classmethod
    def from_dict(cls, ell: int, h: int, k: int, mapping) -> "AbstractTrace":
        """From a mapping of exactly the increasing tuples to sets of patterns."""
        _pattern_weights(k, h, ell)  # refuse too many patterns before listing them
        bit = {p: 1 << i for i, p in enumerate(_surjective_patterns(h, ell))}
        foreign = 1 << len(bit)
        table = {tuple(x): v for x, v in mapping.items()}
        increasing = list(itertools.combinations(range(k), ell))
        if table.keys() != set(increasing):
            raise TraceError(f"keys must be exactly the increasing {ell}-tuples of range({k})")
        masks = (sum({bit.get(p, foreign) for p in table[x]}) for x in increasing)
        return cls(ell, h, k, tuple(masks))

    def validate(self) -> None:
        """Raise TraceError unless there is one mask per increasing tuple
        and no mask has a bit past the surjective patterns."""
        increasing = list(itertools.combinations(range(self.k), self.ell))
        if len(self.masks) != len(increasing):
            raise TraceError(f"need {len(increasing)} masks, one per increasing tuple")
        n = surjection_count(self.h, self.ell)
        for x, m in zip(increasing, self.masks):
            if m >> n:
                raise TraceError(f"trace at {x} uses non-surjective patterns")


def rho_from_trace(tr: AbstractTrace) -> Relation:
    """The relation of a trace, once validated: every tuple with fewer
    than ell distinct entries, plus each increasing tuple composed with the
    patterns of its mask.  A reordered tuple carrying the relabelled
    patterns gives the same members, so these are all of them, each once."""
    tr.validate()
    k, h, ell = tr.k, tr.h, tr.ell
    ranks = [r for _, low in _small_kernels(k, h, ell) for r in low]
    for probe, m in zip(_probe_ranks(k, h, ell), tr.masks):
        while m:
            low = m & -m
            ranks.append(probe[low.bit_length() - 1])
            m ^= low
    return Relation.from_ranks(k, h, ranks)


def construct_2rigid(k: int, h: int) -> Relation:
    """Build and verify a hereditarily 2-rigid h-ary relation on k points.

    Each pair (a, b) with a < b, in lexicographic order, gets the first
    fresh set of the middle layer over the two-symbol surjective patterns,
    in colex order (see _assign), and (b, a) carries its dual.  The dual
    pairs the patterns off, and each set has an odd number 2**(h-1) - 1 of
    them, so no set is its own dual.
    """
    if k < 2 or h < 1:
        raise ValueError("need k >= 2, h >= 1")
    return _construct(k, 2, h)


def construct_ellrigid(k: int, ell: int, h: int) -> Relation:
    """Build and verify a hereditarily ell-rigid relation for ell >= 3.

    The first pattern y and its orbit under alphabet permutations are held
    back: each picked set is tagged with the bit of y.  Each increasing
    ell-tuple gets the first set, from the middle layer over the remaining
    patterns in colex order, whose orbit is free and not yet taken (see
    _assign), and each reordering of the tuple carries its image.
    """
    if ell < 3:
        raise ValueError("construct_ellrigid needs ell >= 3 (ell = 2 has its own constructor)")
    if not ell <= k:
        raise ValueError(f"need ell <= k, got ell={ell}, k={k}")
    if not ell < h:
        raise BoundError(f"construction requires ell < h, got ell={ell}, h={h}")
    return _construct(k, ell, h)


def _construct(k: int, ell: int, h: int) -> Relation:
    """The body of both constructors: check the counting criterion, pick a
    set for each increasing tuple (see _assign), build the relation of that
    AbstractTrace with rho_from_trace and verify it from its members.
    There the trace of an injective x is the set picked for sorted(x),
    moved, so the verification compares exactly the picked masks and their
    images.  Holding back the orbit of the first pattern, whose bit tags
    every pick, is the only ell >= 3 branch."""
    need, m = math.perm(k, ell), _ground_size(ell, h)
    if not _fits_middle_layer(need, m):
        head = (
            f"no hereditarily 2-rigid relation at k={k}, h={h}: k(k-1) ="
            if ell == 2
            else f"counting criterion fails at k={k}, ell={ell}, h={h}:"
        )
        raise BoundError(f"{head} {need} > C({m},{m // 2}) = {math.comb(m, m // 2)}")
    rank_count(k, h)  # refuse before any work a relation too large to hold
    _pattern_weights(k, h, ell)  # and a decision too large, before any table
    stream, tag = subsets_colex(m, m // 2), 0
    if ell > 2:
        # the first pattern y (bit 0) tags the permutations; its orbit is free
        y_orbit = {move(1) for _, move in _relabellings(ell, h)}
        assert len(y_orbit) == math.factorial(ell), "a surjective pattern has a free orbit"
        n = surjection_count(h, ell)
        ground = [i for i in range(n) if 1 << i not in y_orbit]
        where = dict(zip(ground, range(m)))
        stream, tag = map(_bit_map([where.get(i) for i in range(n)], m), stream), 1
    rho = rho_from_trace(AbstractTrace(ell, h, k, tuple(_assign(k, ell, h, stream, tag))))
    report = is_hereditarily_ell_rigid(rho, ell)
    if not report.verdict:
        raise ConstructionError(
            f"constructed relation failed verification on side {report.failing_side}", report
        )
    return rho


def _assign(k: int, ell: int, h: int, stream, tag: int):
    """Yield one mask x | tag per increasing ell-tuple, in combinations
    order, where x is the first mask of stream that is not taken and whose
    orbit under the relabellings is free.  In the composed relation, the
    tuple reordered by a permutation carries x | tag, both moved.

    The relabellings form a group acting on masks, and the stream is a
    union of orbits, so orbits are equal or disjoint: x is free of the
    taken orbits exactly when x itself is not taken, and a pick never
    blocks another orbit.  The pass thus picks one mask per free orbit
    met, as many as any search over the same masks can.  It draws at most
    64 C(k, ell) + 256 free masks, taken ones included.
    """
    moves = [move for _, move in _relabellings(ell, h)[1:]]  # the identity comes first
    left = 64 * math.comb(k, ell) + 256  # free masks still to draw
    taken = set()
    stream = iter(stream)
    for _ in range(math.comb(k, ell)):
        for x in stream:
            if x in taken:
                left -= 1
            elif x not in (images := [move(x) for move in moves]):
                left -= 1  # no relabelling fixes x, so its orbit is free
                break
        else:
            left = -1  # the stream ran out
        if left < 0:
            raise ConstructionError(
                "could not pick orbit-disjoint antichain members within budget"
            )
        taken.add(x)
        taken.update(images)
        yield x | tag
