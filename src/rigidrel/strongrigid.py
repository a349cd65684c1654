"""Near-full relations on a two-element base set and the clones they cut out.

delta(t, h) is the h-ary relation on {0, 1} missing exactly the tuple of
t ones followed by h - t zeros.  Intersecting the unary-to-h families of
these relations yields a strictly descending chain of clones whose limit
is exactly the trivial partial functions (projections and constants),
while each finite stage still contains a nontrivial member.

Membership is decided from the agreement masks of f's domain rows: bit j
of row r's mask is set iff r[j] = f(r).  Stacking rows whose values spell
the excluded tuple gives a matrix whose column j equals that tuple iff bit
j survives the AND of their masks, so the matrix breaks delta(t, h) iff an
AND of t one-row masks and an AND of h - t zero-row masks share no bit.
The ANDs of i masks (repeats allowed) grow with i and reach the
AND-closure, a fixpoint, within |dom(f)| steps.  A single (t, h) is
decided by delta_preserves' forward pass over the masks, which also picks
the certificate, and the limit needs no more (limit_is_trivial_clone).
Only the chain, which sweeps every function, reads the closures off
tables built once per row set (_depth_rows).  One closure over all the
masks likewise decides whether f preserves every relation of arity h
(_agreement_depth, the Pol-Inv criterion h < d(f)); it reads only the
masks of dom(f), so it holds on any base set {0..k-1}.  These two alone
check phi(n), the nontrivial function below every family of arity < n:
phi_facts is the one home of its three facts, which the phi suite prints
and the chain's separator needs, and phi refuses n > PHI_MAX_N.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import add

from .kernel import (
    CapacityError,
    DomainMismatchError,
    PartialFn,
    Relation,
    all_partial_fns,
    is_trivial,
    tuple_rank,
    tuple_unrank,
)
from .preserve import (
    PreservationVerdict,
    ViolationCertificate,
    check_certificate,
    replay_certificate,
)


# Largest n for which phi(n) is built: every check of it builds an
# AND-closure over its n rows, which has at most 2**n keys.  The phi suite
# takes about 0.2 s at n = 14 and doubles with each n (CPython 3.11, 2 vCPU).
PHI_MAX_N = 14


class NoWitnessError(ValueError):
    """Trivial functions admit no nontriviality witness."""


def excluded_tuple(t: int, h: int) -> tuple:
    """t ones followed by h - t zeros."""
    if not 1 <= t < h:
        raise ValueError(f"need 1 <= t < h, got t={t}, h={h}")
    return (1,) * t + (0,) * (h - t)


@functools.lru_cache(maxsize=None)
def delta(t: int, h: int) -> Relation:
    """All h-tuples over {0, 1} except the excluded one; size 2**h - 1.
    Cached, as a Relation is immutable and replays reuse the same few."""
    v = excluded_tuple(t, h)
    skip = tuple_rank(v, 2)
    return Relation.from_ranks(2, h, (r for r in range(2**h) if r != skip))


def phi(n: int) -> PartialFn:
    """The n-ary separating function, defined on n inputs.

    Its domain is the row (0, 1, ..., 1) plus the rows with a zero first
    entry and a single one in position i for i = 2..n; only the first row
    maps to 1.  Nontrivial, yet it preserves every relation of arity
    below n.  Refused above PHI_MAX_N, before any row is built.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n > PHI_MAX_N:
        raise CapacityError(
            f"phi(n) is checked through an AND-closure of up to 2**n keys "
            f"and requires n <= {PHI_MAX_N}, got n={n}"
        )
    rows = {(0,) + (1,) * (n - 1): 1}
    for i in range(1, n):
        row = [0] * n
        row[i] = 1
        rows[tuple(row)] = 0
    return PartialFn.from_mapping(2, n, rows)


def phi_preserves_all(n: int, h: int) -> bool:
    """Does phi(n) preserve every h-ary relation on {0, 1}?

    It does iff h < d(phi(n)) (see _agreement_depth), so one AND-closure
    over phi(n)'s n rows answers every h; d(phi(n)) = n.
    """
    if not h < n:
        raise ValueError(f"need h < n, got h={h}, n={n}")
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    return h < _agreement_depth(phi(n))


def phi_facts(n: int, h: int) -> dict:
    """phi(n)'s three facts, keyed as the phi suite prints them: it is
    nontrivial, it preserves every h-ary relation (h < n) and it breaks
    delta(1, n).  All three hold for every 1 <= h < n <= PHI_MAX_N."""
    f = phi(n)
    return {
        "nontrivial": not is_trivial(f),
        "preserves_all_below": phi_preserves_all(n, h),
        "fails_delta_1_n": not delta_preserves(f, 1, n).preserved,
    }


@functools.lru_cache(maxsize=4096)
def _agreement_mask(args: tuple, v: int) -> int:
    """The row args as a bitmask over the columns: bit j is set iff
    args[j] == v."""
    bm = 0
    for j, e in enumerate(args):
        if e == v:
            bm |= 1 << j
    return bm


def _closure_depths(rows) -> dict:
    """Map each AND of the masks (repeats allowed) to the fewest masks
    whose AND it is.

    Repeating a factor keeps an AND, so level i of the closure, the ANDs
    of exactly i masks, is every key of depth <= i: the levels only grow,
    and they reach their fixpoint, the AND-closure, within len(rows) steps.
    A breadth-first pass extends only the keys found at the last step.
    """
    depth = dict.fromkeys(rows, 1)
    frontier = list(depth)
    i = 1
    while frontier:
        i += 1
        found = []
        for a in frontier:
            for r in rows:
                m = a & r
                if m not in depth:
                    depth[m] = i
                    found.append(m)
        frontier = found
    return depth


def _agreement_depth(f: PartialFn):
    """d(f): the fewest rows of dom(f), repeats allowed, whose agreement
    masks AND to 0, or None when no rows do (f is a partial projection).

    By the Pol-Inv Galois connection for partial functions, f preserves
    every h-ary relation iff h < d(f): any h rows then share a coordinate
    that f copies, so the image column is a column of the matrix; and d
    rows with no such coordinate, padded with repeats to h rows, have as
    their columns a relation that f breaks.  Nothing here depends on the
    size of the base set, so this holds at every k.
    """
    return _closure_depths([_agreement_mask(args, v) for args, v in f.graph]).get(0)


# "No such key" in the depth tables: above every h + 1 <= PHI_MAX_N the chain tests.
_ABSENT = PHI_MAX_N + 1


def _depth_tables(rows: list) -> tuple:
    """depth[S][a] and best[S][a] for every set S of the given rows, all
    2**n of arity n in rank order, with S a bitmask over them.

    depth[S][a] is the depth of the AND a in the closure of S's one-side
    agreement masks (each row's mask as if it mapped to 1); best[S][a] is
    the least depth of a key b of the closure of S's zero-side masks with
    a & b == 0, the first such b as _closure_depths lists its keys by
    depth.  Either is _ABSENT when there is none.
    """
    keys = range(len(rows))  # every AND of n-bit masks
    depth, best = [], []
    for s in range(2 ** len(rows)):
        chosen = [args for r, args in enumerate(rows) if s >> r & 1]
        ones = _closure_depths([_agreement_mask(args, 1) for args in chosen])
        zeros = _closure_depths([_agreement_mask(args, 0) for args in chosen]).items()
        depth.append([ones.get(a, _ABSENT) for a in keys])
        best.append([next((j for b, j in zeros if not a & b), _ABSENT) for a in keys])
    return depth, best


def _depth_rows(n: int):
    """(f, depth[A], best[B]) for every partial function f on {0, 1} of
    arity n, in all_partial_fns order, with A and B the sets of f's rows
    mapping to one and to zero, from tables built once per call.

    An AND of i one-row masks and one of j zero-row masks that share no
    bit break delta(t, h) whenever i <= t and j <= h - t (see the module
    docstring), so f preserves every delta(t, h) with 1 <= t < h iff
    h < d1 = min(depth[A][a] + best[B][a]) over the keys a; d1 exceeds
    _ABSENT when f breaks none.
    """
    rows = [tuple_unrank(r, n, 2) for r in range(2**n)]
    depth, best = _depth_tables(rows)
    width = len(rows)
    bit = {}  # (args, value) -> its row's bit, the zero side's above width
    for r, args in enumerate(rows):
        bit[args, 1] = 1 << r
        bit[args, 0] = 1 << (width + r)
    low = (1 << width) - 1
    for f in all_partial_fns(2, n):
        s = sum(map(bit.__getitem__, f.graph))
        yield f, depth[s & low], best[s >> width]


def delta_preserves(f: PartialFn, t: int, h: int) -> PreservationVerdict:
    """Exact preservation check against delta(t, h), complement driven.

    A violating matrix must have its image equal to the single excluded
    tuple, so rows i <= t come from f's ones and the rest from its zeros,
    and the only constraint left is that no column matches the excluded
    tuple everywhere: the AND of the rows' agreement masks is 0.  One
    forward pass keeps the distinct ANDs after each row, each with a
    back-pointer to the state and row that first reached it; f breaks
    delta(t, h) iff state 0 is reached after h rows, and the back-pointers
    from there give the certificate's rows.  Verdicts agree with
    preserves().
    """
    if f.k != 2:
        raise DomainMismatchError("delta relations live on a two-element base set")
    v = excluded_tuple(t, h)
    sides = [
        [(_agreement_mask(args, y), args) for args, val in f.graph if val == y]
        for y in (0, 1)
    ]
    steps = [{(1 << f.n) - 1: None}]
    for y in v:
        nxt: dict = {}
        for state in sorted(steps[-1]):
            for bm, args in sides[y]:
                ns = state & bm
                if ns not in nxt:
                    nxt[ns] = (state, args)
        steps.append(nxt)
    if 0 not in steps[-1]:
        return PreservationVerdict(True)
    rows = []
    state = 0
    for step in reversed(steps[1:]):
        state, args = step[state]
        rows.append(args)
    columns = tuple(zip(*reversed(rows)))
    return PreservationVerdict(False, ViolationCertificate(columns, v))


@dataclass(frozen=True)
class NontrivialityWitness:
    """Row ordering of dom(f) exhibiting a violated delta relation.

    The rows mapping to one come first, so the image column is exactly
    the excluded tuple of delta(t, h) with h = |dom(f)|, and no matrix
    column can equal it unless f were a projection.
    """

    h: int
    t: int
    rows: tuple

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "t": self.t,
            "rows": [list(r) for r in self.rows],
            "violated": f"delta({self.t},{self.h})",
        }


def witness_nontrivial(f: PartialFn) -> NontrivialityWitness:
    """Construct the canonical witness that a nontrivial f escapes
    delta(t, h) at h = |dom(f)| and t = number of one-values."""
    if f.k != 2:
        raise DomainMismatchError("witnesses live on a two-element base set")
    if is_trivial(f):
        raise NoWitnessError("trivial functions preserve every delta relation")
    ones = [args for args, val in f.graph if val == 1]  # the graph is sorted
    zeros = [args for args, val in f.graph if val == 0]
    rows = tuple(ones + zeros)
    t, h = len(ones), len(rows)
    v = excluded_tuple(t, h)
    assert v not in zip(*rows), "f would be a projection"
    return NontrivialityWitness(h, t, rows)


def verify_witness(f: PartialFn, w: NontrivialityWitness) -> bool:
    """Replay a witness through the general matrix definition."""
    if f.k != 2:
        raise DomainMismatchError("witnesses live on a two-element base set")
    if w.h != len(w.rows) or tuple(sorted(w.rows)) != f.dom:  # f.graph is sorted
        return False
    mapping = f.mapping
    v = excluded_tuple(w.t, w.h)
    if tuple(map(mapping.__getitem__, w.rows)) != v:
        return False
    cert = ViolationCertificate(tuple(zip(*w.rows)), v)
    return replay_certificate(cert, f.n, mapping, delta(w.t, w.h))


def _arities(arity_cap: int) -> range:
    """1 .. arity_cap, refused at once unless 1 <= arity_cap <= 3: the
    chain sweeps all 3**(2**n) partial functions of arity n."""
    if arity_cap < 1:
        raise ValueError(f"need arity_cap >= 1, got {arity_cap}")
    if arity_cap > 3:
        raise CapacityError("the strong suites require arity_cap <= 3")
    return range(1, arity_cap + 1)


def chain_inclusion(h: int, arity_cap: int, dom_cap=None) -> bool:
    """Preserving the (h+1)-ary family implies preserving the h-ary one,
    swept over all partial functions on {0, 1} up to the caps, and the
    inclusion is strict: phi(h+1) separates the two stages, since it is
    nontrivial, preserves every h-ary relation and breaks delta(1, h+1)."""
    if h < 2:
        raise ValueError(f"need h >= 2, got {h}")
    functions = itertools.chain.from_iterable(map(_depth_rows, _arities(arity_cap)))
    if dom_cap is not None and dom_cap < 0:
        raise ValueError(f"need dom_cap >= 0, got {dom_cap}")
    phi(h + 1)  # the separator, refused above PHI_MAX_N before the sweep
    for f, one, zero in functions:
        if dom_cap is not None and len(f.graph) > dom_cap:
            continue
        if h + 1 < min(map(add, one, zero)) <= h:
            return False
    return all(phi_facts(h + 1, h).values())


def repeat_identifies(t: int, h: int) -> bool:
    """Does delta(t, h) arise from delta(t, h+1) by repeating the last
    coordinate?"""
    if not 1 <= t < h:
        raise ValueError(f"need 1 <= t < h, got t={t}, h={h}")
    bigger = delta(t, h + 1)
    derived = Relation.from_tuples(
        2, h, (x for x in itertools.product((0, 1), repeat=h) if x + (x[-1],) in bigger)
    )
    return derived == delta(t, h)


def prefix_escape(h0: int) -> PartialFn:
    """A certified nontrivial function preserving every family up to h0.

    Returns phi(h0 + 1) after checking both properties; this is why no
    finite prefix of the chain pins down the trivial functions.
    """
    if h0 < 2:
        raise ValueError(f"need h0 >= 2, got {h0}")
    f = phi(h0 + 1)
    if is_trivial(f):
        raise RuntimeError("separating function unexpectedly trivial")
    # h0 < d(f) covers every relation of arity 1..h0 (see _agreement_depth)
    if not phi_preserves_all(h0 + 1, h0):
        raise RuntimeError(f"separating function escapes a family of arity <= {h0}")
    return f


def _minimal_nontrivial(n: int):
    """The nontrivial partial functions on {0, 1} of arity n whose one-row
    deletions are all trivial, by size, then domain and values in lex
    order.  They have 2 to n + 1 rows: a least set of rows whose masks AND
    to 0 has at most n, as each clears a bit no other does, and f is
    nontrivial on it or, if constant there, on it and one more row."""
    rows = [tuple_unrank(r, n, 2) for r in range(2**n)]
    nontrivial = set()  # of fewer rows: each candidate is decided once
    for size in range(2, n + 2):
        for dom in itertools.combinations(rows, size):
            for values in itertools.product((0, 1), repeat=size):
                f = PartialFn._trusted(2, n, tuple(zip(dom, values)))
                if is_trivial(f):
                    continue
                nontrivial.add(f.graph)
                if not any(f.graph[:i] + f.graph[i + 1 :] in nontrivial for i in range(size)):
                    yield f


def limit_is_trivial_clone(arity_cap: int) -> bool:
    """A partial function on {0, 1} with arity at most arity_cap is trivial
    iff it preserves every delta(t, h) up to arity h_max = 2**arity_cap.

    If f is a subfunction of g, a matrix that breaks a relation under f
    breaks it under g: preserving passes down and breaking passes up.  So
    per arity n it is enough that the n total projections and the two
    total constants preserve every delta(t, h), 1 <= t < h <= h_max, and
    that each minimal nontrivial function carries a replayable witness
    within h_max and breaks some delta(m, 2m), m <= h_max // 2, through a
    certificate that replays.
    """
    arities = _arities(arity_cap)
    h_max = 2**arity_cap
    pairs = [(t, h) for h in range(2, h_max + 1) for t in range(1, h)]
    for n in arities:
        rows = [tuple_unrank(r, n, 2) for r in range(2**n)]
        for values in list(zip(*rows)) + [(0,) * 2**n, (1,) * 2**n]:
            g = PartialFn._trusted(2, n, tuple(zip(rows, values)))
            if not all(delta_preserves(g, t, h).preserved for t, h in pairs):
                return False
        for g in _minimal_nontrivial(n):
            w = witness_nontrivial(g)
            if w.h > h_max or not verify_witness(g, w):
                return False
            for m in range(1, h_max // 2 + 1):
                verdict = delta_preserves(g, m, 2 * m)
                if not verdict.preserved:
                    break
            else:
                return False
            if not check_certificate(verdict.certificate, g, delta(m, 2 * m)):
                return False
    return True
