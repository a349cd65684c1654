"""Hereditary rigidity of a nonempty relation.

A nonempty h-ary relation rho on {0..k-1} is hereditarily ell-rigid when
its unary partial polymorphisms are exactly the functions below the
identity together with those whose image has fewer than ell values.
Deciding that reduces to two one-sided checks: the small functions must
all preserve rho, and no injective partial function with domain size ell
that moves a point may preserve it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, itemgetter, mul, or_
from typing import Optional

from .kernel import (
    CapacityError,
    PartialUnaryFn,
    Relation,
    _surjective_patterns,
    all_partial_unary,
    mask_bits,
    tuple_unrank,
)
from .preserve import ppol1, unary_preserves


class EmptyRelationError(ValueError):
    """Rigidity is only defined for nonempty relations."""


def _require_usable(rho: Relation, ell: int) -> None:
    if rho.is_empty:
        raise EmptyRelationError("rigidity needs a nonempty relation")
    if not 1 <= ell <= rho.k:
        raise ValueError(f"need 1 <= ell <= k, got ell={ell}, k={rho.k}")


def omega_member(f: PartialUnaryFn, ell: int) -> bool:
    """Is f below the identity or of image size below ell?"""
    if not 1 <= ell <= f.k:
        raise ValueError(f"need 1 <= ell <= k, got ell={ell}, k={f.k}")
    return f.below_identity or len(f.img) < ell


@dataclass(frozen=True)
class RigidityReport:
    """Outcome of the rigidity decision, with a replayable failure when negative.

    failing_side is "omega" when some small function fails to preserve
    (witness is then a member tuple whose image escapes), and "psi" when
    some injective domain-ell function preserving the relation was found.
    """

    verdict: bool
    failing_function: Optional[PartialUnaryFn] = None
    failing_side: Optional[str] = None
    witness: Optional[tuple] = None

    def __post_init__(self):
        if self.verdict and self.failing_function is not None:
            raise ValueError("positive report cannot carry a failing function")
        if not self.verdict and self.failing_side not in ("omega", "psi"):
            raise ValueError("negative report needs a failing side")


# reports are frozen, so every positive decision returns this one
_POSITIVE = RigidityReport(True)


def verify_report(rho: Relation, ell: int, report: RigidityReport) -> bool:
    """Replay a negative report against the definitions."""
    if report.verdict:
        return True
    f = report.failing_function
    if f is None:
        return False
    if report.failing_side == "omega":
        if not omega_member(f, ell):
            return False
        res = unary_preserves(f, rho)
        if res.preserved:
            return False
        if report.witness is not None:
            img = f.apply_tuple(report.witness)
            return report.witness in rho and img is not None and img not in rho
        return True
    # psi side: f must be a genuine Psi_ell member that preserves rho
    if len(f.dom) != ell or not f.is_injective or f.below_identity:
        return False
    return unary_preserves(f, rho).preserved


# Most candidate patterns (m**h) and injective m-tuples (k!/(k - m)!) a
# decision enumerates at image size m.  With `check` on full relations
# (peak RSS of a fresh process, CPython 3.11) the largest sizes admitted
# peak at 258 MiB for k = 2, h = 19 (about 520 bytes per two-symbol
# pattern), 242 MiB for k = 3, h = 12 (about 490 per three-symbol one) and
# 41 MiB for k = 1448, h = 2 (about 20 per injective pair, as no mask is
# keyed by its tuple).  So every admitted decision stays below the 512 MiB
# that MAX_RANKS allows a mask: h = 20 and h = 13 would need about 2 and 3
# times as much.  A tuple limit of 2**22 would admit k = 2048, which now
# peaks at 66 MiB in 5.9 s of CPU time (646 MiB with the tuple-keyed dict),
# so memory no longer sets the tuple limit.  Refused sizes stay near 17 MiB.
MAX_PATTERNS = 10**6
MAX_TUPLES = 1 << 21


@lru_cache(maxsize=None)
def _pattern_weights(k: int, h: int, m: int) -> tuple:
    """The m weight columns of the sorted surjective h-patterns onto
    range(m): the tuple y composed with the i-th pattern has rank
    sum(y[j] * columns[j][i]), where columns[j][i] sums k**(h - 1 - t) over
    the positions t at which that pattern holds j.

    Every decision passes here before it enumerates patterns or tuples,
    so this is where a size past MAX_PATTERNS or MAX_TUPLES is refused."""
    tuples = 1
    for i in range(m):  # k!/(k - m)!, cut short past the limit (m <= k)
        tuples *= k - i
        if tuples > MAX_TUPLES:
            break
    if m**h > MAX_PATTERNS or tuples > MAX_TUPLES:
        raise CapacityError(
            f"a decision at k={k}, h={h} enumerates {m}**{h} patterns and "
            f"{k}!/({k}-{m})! tuples, but allows at most {MAX_PATTERNS} "
            f"patterns and {MAX_TUPLES} tuples"
        )
    # over every pattern of the last positions, in lex order, the weight of
    # each symbol and the set of symbols used; a new first position with
    # value a puts a copy of the lists in front for each a, at C speed
    columns, used = [[0] for _ in range(m)], [0]
    for power in (k**t for t in range(h)):
        columns = [
            list(itertools.chain.from_iterable(
                map(add, col, itertools.repeat(power)) if a == j else col for a in range(m)
            ))
            for j, col in enumerate(columns)
        ]
        used = list(itertools.chain.from_iterable(
            map(or_, used, itertools.repeat(1 << a)) for a in range(m)
        ))
    surjective = list(map(((1 << m) - 1).__eq__, used))
    return tuple(tuple(itertools.compress(col, surjective)) for col in columns)


def _probe_ranks(k: int, h: int, ell: int):
    """For each increasing ell-tuple x, in combinations order, the list of
    the ranks of x composed with each sorted surjective pattern.  A rank
    is linear in x: raising x[d] by one, with the entries after it still
    following it, adds the weight columns d, ..., ell - 1.  So each list is
    an earlier one plus columns, added at C speed, and within a run of the
    last entry it is the previous one plus the last column."""
    columns = _pattern_weights(k, h, ell)
    last = columns[-1]

    def climb(ranks, d):
        for col in columns[d:]:
            ranks = list(map(add, ranks, col))
        return ranks

    def run(d, lo, ranks):
        # the tuples with the entries before d fixed and x[d] >= lo; ranks
        # is that of x[d] = lo with the entries after it following
        if d == ell - 1:
            yield ranks
            for _ in range(lo + 1, k):
                ranks = list(map(add, ranks, last))
                yield ranks
            return
        for v in range(lo, k - ell + d + 1):
            if v > lo:
                ranks = climb(ranks, d)
            yield from run(d + 1, v + 1, ranks)

    first = [0] * len(last)  # the ranks of (0, ..., 0), climbed to (0, 1, ..., ell - 1)
    for d in range(1, ell):
        first = climb(first, d)
    return run(0, 0, first)


@lru_cache(maxsize=None)
def _string_positions(width: int) -> tuple:
    """At index i, the position width - i of bit i in a mask's binary
    string of width + 1 digits.  One tuple per width, so the maps of that
    width share these ints instead of holding a fresh one per entry."""
    return tuple(range(width, -1, -1))


def _bit_map(src, width: int):
    """The map on masks below 2**width whose image has at bit d the bit
    src[d] of its argument, or 0 where src[d] is None.  It shuffles the
    binary string, in which bit i of m is the character at width - i,
    and bit width is always 0, so it takes time and memory linear in the
    number of bits."""
    if not src:
        return lambda m: 0
    at = _string_positions(width)
    pick = itemgetter(*(at[width if i is None else i] for i in reversed(src)))
    fmt = f"0{width + 1}b"
    return lambda m: int("".join(pick(format(m, fmt))), 2)


@lru_cache(maxsize=None)
def _relabellings(ell: int, h: int) -> tuple:
    """One (perm, move) pair per permutation of the pattern alphabet, in
    itertools order.  Bit i of a trace mask stands for the i-th sorted
    surjective ell-symbol pattern of length h; move sends it to the bit of
    that pattern relabelled by the inverse of perm, which is the pattern
    the tuple reordered by perm must carry."""
    index = {bytes(p): i for i, p in enumerate(_surjective_patterns(h, ell))}
    out = []
    for perm in itertools.permutations(range(ell)):
        # pattern p of the image comes from the pattern perm o p
        table = bytes.maketrans(bytes(range(ell)), bytes(perm))
        src = [index[p.translate(table)] for p in index]
        out.append((perm, _bit_map(src, len(index))))
    return tuple(out)


def _kernel(entries) -> tuple:
    """Equality pattern of a tuple: entries renamed 0, 1, ... by first occurrence."""
    seen: dict = {}
    return tuple(seen.setdefault(e, len(seen)) for e in entries)


def _coarsens(coarse, fine) -> bool:
    """True iff positions equal in the kernel fine are equal in coarse."""
    return len(set(zip(fine, coarse))) == len(set(fine))


@lru_cache(maxsize=8)
def _small_kernels(k: int, h: int, ell: int) -> tuple:
    """Every kernel with fewer than ell blocks, with the ranks of all the
    tuples that have exactly that kernel."""
    return tuple(
        (p, tuple(sum(map(mul, y, w)) for y in itertools.permutations(range(k), m)))
        for m in range(1, min(ell - 1, h) + 1)
        for w, p in zip(zip(*_pattern_weights(k, h, m)), _surjective_patterns(h, m))
        if _kernel(p) == p
    )


@lru_cache(maxsize=4096)
def _member_shape(k: int, h: int, r: int) -> tuple:
    """The kernel of the tuple u of rank r, and the weights w of its
    sorted support: the map sending that support to vals sends u to the
    rank sum(vals[j] * w[j])."""
    u = tuple_unrank(r, h, k)
    w = [sum(k ** (h - 1 - i) for i, e in enumerate(u) if e == s) for s in sorted(set(u))]
    return _kernel(u), tuple(w)


@lru_cache(maxsize=1024)
def _omega_failure(k: int, h: int, r: int, vals: tuple) -> RigidityReport:
    """The omega failure of the member of rank r under the map that sends
    its sorted support to vals; zip ignores values beyond the support.
    Reports are frozen, so the relations that fail alike share one."""
    u = tuple_unrank(r, h, k)
    f = PartialUnaryFn.from_pairs(k, zip(sorted(set(u)), vals))
    return RigidityReport(False, f, "omega", u)


def omega_contained(rho: Relation, ell: int) -> RigidityReport:
    """Check that every small function preserves rho.

    Support-local: for every member u and every map g on its entries with
    fewer than ell distinct values, g(u) must stay in the relation.  The
    images g(u) are exactly the tuples whose kernel coarsens u's kernel
    into fewer than ell blocks, so u fails iff some such kernel has a tuple
    missing from rho.  The first failing member in rank order gets the
    first failing g, with values in lex order.  The verdict field means
    "containment holds".

    At ell = 1 no function but the empty one is small, and nothing is
    probed.  At every ell >= 2 the k diagonal tuples are probed first.
    The constant kernel coarsens every kernel, so if some (c, ..., c) is
    missing, the first member u fails, and its first failing g is the
    constant c: when u is (0, ..., 0), g is first among the constants that
    break it; otherwise (0, ..., 0) ranks below u and is missing, so c = 0,
    and g onto 0 comes first of all.  Only a complete diagonal at ell >= 3
    leads on to the other small kernels, decided once each, and to the
    walk of the members whose kernel some missing one coarsens.
    """
    _require_usable(rho, ell)
    if ell == 1:
        return _POSITIVE
    k, h = rho.k, rho.h
    step = (k**h - 1) // (k - 1)  # the rank of (1, ..., 1)
    c = rho.first_missing(range(0, k * step, step))
    if c >= 0:
        return _omega_failure(k, h, next(rho.iter_ranks()), (c,) * h)
    if ell == 2:  # the constant kernel is the one small kernel
        return _POSITIVE
    missing = [
        kernel for kernel, ranks in _small_kernels(k, h, ell) if rho.first_missing(ranks) >= 0
    ]
    if not missing:
        return _POSITIVE
    fails: dict = {}
    for r in rho.iter_ranks():
        kappa, w = _member_shape(k, h, r)
        if kappa not in fails:
            fails[kappa] = any(_coarsens(m, kappa) for m in missing)
        if fails[kappa]:
            for vals in itertools.product(range(k), repeat=len(w)):
                if len(set(vals)) < ell:
                    if not rho.contains_rank(sum(map(mul, vals, w))):
                        return _omega_failure(k, h, r, vals)
    return _POSITIVE


def _trace_list(rho: Relation, ell: int) -> list:
    """The trace of every injective ell-tuple as a bitmask, keyless: bit i
    is set when the i-th sorted surjective pattern, composed with the
    tuple, is a member of rho.  Only the n = C(k, ell) increasing tuples
    are probed, in combinations order.  Traces of any relation are
    equivariant, so the increasing x reordered by perm carries
    move(trace(x)), for each relabelling (perm, move): entry j * n + i is
    the i-th increasing tuple reordered by the j-th relabelling, the
    identity first."""
    probed = list(map(rho.bits, _probe_ranks(rho.k, rho.h, ell)))
    masks = probed.copy()
    for _, move in itertools.islice(_relabellings(ell, rho.h), 1, None):
        masks += map(move, probed)
    return masks


def _trace_masks(rho: Relation, ell: int) -> dict:
    """The masks of _trace_list keyed by their tuples, which only trace()
    needs.  The keys are not in lex order."""
    increasing = list(itertools.combinations(range(rho.k), ell))
    reorders = (map(itemgetter(*perm), increasing) for perm, _ in _relabellings(ell, rho.h)[1:])
    return dict(zip(itertools.chain(increasing, *reorders), _trace_list(rho, ell)))


def comparable_masks(masks) -> set:
    """The masks contained in, or equal to, the mask of another entry of
    the sequence masks.

    A mask that occurs twice is comparable, and the occurrences are
    counted only when some mask repeats.  The others are tested
    once per distinct value: masks of equal popcount are comparable only
    when equal, so only a smaller mask needs a subset test against the
    larger ones.
    """
    distinct = set(masks)
    out = set()
    if len(distinct) < len(masks):
        out = {m for m, n in Counter(masks).items() if n > 1}
    by_size: dict[int, list] = {}
    for m in distinct:
        by_size.setdefault(m.bit_count(), []).append(m)
    larger: list = []
    for size in sorted(by_size, reverse=True):
        group = by_size[size]
        if larger:
            out.update(m for m in group if any(m & ~big == 0 for big in larger))
        larger += group
    return out


def is_hereditarily_ell_rigid(rho: Relation, ell: int) -> RigidityReport:
    """Decide hereditary ell-rigidity.

    Checks omega containment first.  Given that, an injective function
    x -> y with domain size ell preserves rho exactly when trace(x) is a
    subset of trace(y), so rho is rigid iff its traces are strictly
    incomparable.  Otherwise the failing function is the first preserving
    one with domains in colex order and values in lex order.  Every ell
    runs this one path.  At ell = 1 there is no small kernel, so omega
    containment holds, and each trace is one bit, for the constant
    pattern; of k >= 2 one-bit masks two are equal or one is empty, so no
    relation is hereditarily 1-rigid.  Arities below ell fail with all
    traces empty.
    """
    contained = omega_contained(rho, ell)
    if not contained.verdict:
        return contained
    masks = _trace_list(rho, ell)
    comparable = comparable_masks(masks)
    if not comparable:
        return _POSITIVE
    x, y = _first_preserving(rho.k, ell, masks, comparable)
    return RigidityReport(False, f_arrow(x, y, rho.k), "psi", None)


def _first_preserving(k: int, ell: int, masks: list, comparable: set) -> tuple:
    """The first preserving x -> y, from the masks of _trace_list: x is the
    colex-first increasing tuple whose mask is comparable, which exists as
    traces are equivariant, and y the lex-first other injective tuple whose
    mask contains that of x.  Block j of the masks is scanned at C speed,
    and only up to the last increasing tuple that can still come first."""
    n = math.comb(k, ell)

    def hits(j, keep, first=k):
        """The increasing tuples with x[0] < first whose masks in block j
        pass keep, in combinations order."""
        block = masks[j * n : (j + 1) * n - math.comb(k - first, ell)]
        return itertools.compress(itertools.combinations(range(k), ell), map(keep, block))

    lead = next(hits(0, comparable.__contains__))
    # x comes no later than lead in colex order, the lex order of the
    # reversals, so x[-1] <= lead[-1] and x[0] <= lead[-1] - ell + 1
    first = lead[-1] - ell + 2
    x = min(hits(0, comparable.__contains__, first), key=itemgetter(slice(None, None, -1)))
    mx = masks[n - 1 - sum(math.comb(k - 1 - v, ell - t) for t, v in enumerate(x))]
    above = {m for m in set(masks) if mx & ~m == 0}.__contains__
    y = next((y for y in hits(0, above) if y != x), None)  # the identity's block is in lex order
    perms = itertools.permutations(range(ell))  # the order of _relabellings
    for j, perm in enumerate(itertools.islice(perms, 1, None), 1):
        # a reordered tuple starts with one of its entries, so only tuples
        # starting at most y[0] can come before y
        reordered = map(itemgetter(*perm), hits(j, above, k if y is None else y[0] + 1))
        y = min(itertools.chain(() if y is None else (y,), reordered), default=None)
    return x, y


def brute_force_rigidity(rho: Relation, ell: int) -> bool:
    """Definition-level oracle: compare ppol1(rho) with the omega class.

    Enumerates all (k+1)**k unary partial functions twice over, so it is
    guarded to k <= 5.
    """
    _require_usable(rho, ell)
    if rho.k > 5:
        raise CapacityError(
            f"brute_force_rigidity requires k <= 5, got k={rho.k}"
        )
    expected = frozenset(
        f for f in all_partial_unary(rho.k) if omega_member(f, ell)
    )
    return ppol1(rho) == expected


@dataclass(frozen=True)
class TraceMap:
    """For each injective ell-tuple, the index patterns it realizes in rho.

    Patterns are h-tuples over range(ell) using every value; pattern p
    belongs to the trace of x exactly when composing x with p lands in
    the relation.
    """

    ell: int
    h: int
    k: int
    items: tuple  # sorted tuple of (x, frozenset of patterns)

    @cached_property
    def as_dict(self) -> dict:
        return dict(self.items)

    def __getitem__(self, x):
        return self.as_dict[tuple(x)]

    def keys(self):
        return [x for x, _ in self.items]


def trace(rho: Relation, ell: int) -> TraceMap:
    _require_usable(rho, ell)
    masks = sorted(_trace_masks(rho, ell).items())  # refuses a size past the limits first
    patterns = _surjective_patterns(rho.h, ell)
    items = tuple((x, frozenset(patterns[i] for i in mask_bits(m))) for x, m in masks)
    return TraceMap(ell, rho.h, rho.k, items)


def f_arrow(x, y, k: int) -> PartialUnaryFn:
    """The partial function sending the injective tuple x pointwise to y."""
    x, y = tuple(x), tuple(y)
    if len(x) != len(y):
        raise ValueError("tuples must have equal length")
    if len(set(x)) != len(x) or len(set(y)) != len(y):
        raise ValueError("both tuples must be injective")
    return PartialUnaryFn.from_pairs(k, zip(x, y))


def trace_incomparability(rho: Relation, ell: int) -> bool:
    """Strict pairwise incomparability of all traces.

    Fails as soon as one trace is contained in (or equal to) another
    trace at a different tuple.
    """
    _require_usable(rho, ell)
    return not comparable_masks(_trace_list(rho, ell))
