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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter, mul
from typing import Optional

from .kernel import (
    CapacityError,
    PartialUnaryFn,
    Relation,
    _surjective_patterns,
    all_partial_unary,
    mask_bits,
    subsets_colex,
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


@lru_cache(maxsize=None)
def _pattern_weights(k: int, h: int, m: int) -> tuple:
    """Sorted surjective h-patterns onto range(m), each with its weights w:
    the tuple y composed with the pattern has rank sum(y[j] * w[j])."""
    out = []
    for p in _surjective_patterns(h, m):
        w = [0] * m
        for i, j in enumerate(p):
            w[j] += k ** (h - 1 - i)
        out.append((p, tuple(w)))
    return tuple(out)


def _bit_map(src, width: int):
    """The map on masks below 2**width whose image has at bit d the bit
    src[d] of its argument, or 0 where src[d] is None.  It shuffles the
    binary string, in which bit i of m is the character at width - i,
    so it takes time and memory linear in the number of bits."""
    if not src:
        return lambda m: 0
    pick = itemgetter(*(0 if i is None else width - i for i in reversed(src)))
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
        for p, w in _pattern_weights(k, h, m)
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
    missing from rho; at ell = 2 that means a missing diagonal tuple.
    That is decided once per kernel, and the first failing member in rank
    order gets the first failing g, with values in lex order.  The verdict
    field means "containment holds".
    """
    _require_usable(rho, ell)
    k, h = rho.k, rho.h
    if ell == 2:  # the one small kernel is the constant one: test the diagonal
        step = (k**h - 1) // (k - 1)  # the rank of (1, ..., 1)
        c = rho.first_missing(range(0, k * step, step))
        if c >= 0:  # the first member fails, mapped onto the missing (c, ..., c)
            return _omega_failure(k, h, next(rho.iter_ranks()), (c,) * h)
        return RigidityReport(True)
    missing = [
        kernel for kernel, ranks in _small_kernels(k, h, ell) if rho.first_missing(ranks) >= 0
    ]
    if not missing:
        return RigidityReport(True)
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
    return RigidityReport(True)


def _trace_masks(rho: Relation, ell: int) -> dict:
    """The trace of every injective ell-tuple as a bitmask: bit i is set
    when the i-th sorted surjective pattern, composed with the tuple, is a
    member of rho.  Only the increasing tuples are probed.  Traces of any
    relation are equivariant, so the increasing x reordered by perm
    carries move(trace(x)), for each relabelling (perm, move).  The keys
    are not in lex order."""
    weights = [w for _, w in _pattern_weights(rho.k, rho.h, ell)]
    probed = [
        (x, rho.bits([sum(map(mul, x, w)) for w in weights]))
        for x in itertools.combinations(range(rho.k), ell)
    ]
    out = dict(probed)
    # the identity comes first and keeps the probed masks
    for perm, move in _relabellings(ell, rho.h)[1:]:
        reorder = itemgetter(*perm)
        out.update((reorder(x), move(m)) for x, m in probed)
    return out


def comparable_masks(masks) -> set:
    """The masks contained in, or equal to, the mask of another entry.

    Masks of equal popcount are comparable only when equal, a hash test;
    only a smaller mask needs a subset test against the larger ones.
    """
    by_size: dict[int, list] = {}
    for m in masks:
        by_size.setdefault(m.bit_count(), []).append(m)
    out = set()
    larger: list = []
    for size in sorted(by_size, reverse=True):
        group = by_size[size]
        out.update(m for m, n in Counter(group).items() if n > 1)
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
    masks = _trace_masks(rho, ell)
    comparable = comparable_masks(masks.values())
    if not comparable:
        return RigidityReport(True)
    # traces are equivariant, so comparable ones include an increasing x
    x = next(
        x for x in map(mask_bits, subsets_colex(rho.k, ell)) if masks[x] in comparable
    )
    perms = itertools.permutations(range(rho.k), ell)  # in lex order
    y = next(y for y in perms if masks[x] & ~masks[y] == 0 and y != x)
    return RigidityReport(False, f_arrow(x, y, rho.k), "psi", None)


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
    patterns = [p for p, _ in _pattern_weights(rho.k, rho.h, ell)]
    items = tuple(
        (x, frozenset(patterns[i] for i in mask_bits(m)))
        for x, m in sorted(_trace_masks(rho, ell).items())
    )
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
    return not comparable_masks(_trace_masks(rho, ell).values())
