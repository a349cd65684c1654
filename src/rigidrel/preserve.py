"""Deciding whether a partial function preserves a relation.

A function f of arity n preserves an h-ary relation rho when every h x n
matrix whose columns lie in rho and whose rows lie in dom(f) has its
row-wise image column back in rho.  A violating matrix is returned as a
re-checkable certificate; with no eligible matrix the answer is
vacuously yes.  One search, preserves(), answers every arity:
unary_preserves is preserves() on a unary function's graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .kernel import (
    CapacityError,
    DomainMismatchError,
    PartialFn,
    PartialUnaryFn,
    Relation,
    all_partial_unary,
)


@dataclass(frozen=True)
class ViolationCertificate:
    """An h x n matrix given by its columns, plus the escaping image column."""

    columns: tuple  # n columns, each an h-tuple that is a member of rho
    image: tuple  # h-tuple outside rho


@dataclass(frozen=True)
class PreservationVerdict:
    preserved: bool
    certificate: Optional[ViolationCertificate] = None

    def __post_init__(self):
        if self.preserved == (self.certificate is not None):
            raise ValueError("certificate present iff the verdict is negative")


def check_certificate(cert: ViolationCertificate, f, rho: Relation) -> bool:
    """Replay a certificate through the definition.

    Accepts an n-ary PartialFn or a PartialUnaryFn.  True iff all columns
    are in rho, all rows are in dom(f), f maps the rows to the stated
    image, and the image is outside rho.
    """
    if isinstance(f, PartialUnaryFn):
        f = f.as_partial_fn()
    n, h = f.n, rho.h
    if len(cert.columns) != n or len(cert.image) != h:
        return False
    if any(len(c) != h for c in cert.columns):
        return False
    if any(c not in rho for c in cert.columns):
        return False
    mapping = f.mapping
    for row, y in zip(zip(*cert.columns), cert.image):
        if row not in mapping or mapping[row] != y:
            return False
    return cert.image not in rho


def unary_preserves(f: PartialUnaryFn, rho: Relation) -> PreservationVerdict:
    """Preservation check for a unary partial function: preserves() on its
    graph.

    At n = 1 the search walks the members of rho in rank order, so the
    certificate is the rank-least member inside dom(f) whose image leaves
    rho.
    """
    return preserves(f.as_partial_fn(), rho)


def preserves(f: PartialFn, rho: Relation) -> PreservationVerdict:
    """Preservation check for an n-ary partial function.

    Searches n-tuples of rho-columns depth first in rank order.  Column j
    draws only from the members whose entries all lie in the values that
    dom(f) takes at coordinate j, filtered once per call.  After j
    columns every row of the matrix is a prefix p, and ``reach[j][p]`` is
    the bit-mask of the values f takes on the domain rows extending p.  A
    branch is dropped when some row reaches no value (it leaves the
    prefixes of dom(f)), or when every tuple of the product of the
    reachable value sets lies in rho: no completion can then escape.
    That escape test is memoised per mask tuple.  The filter and the
    pruning remove only subtrees without a violation and leave the search
    order alone, so the first violation found is still the
    lexicographically least one (columns compared by rank, left to right).
    """
    if f.k != rho.k:
        raise DomainMismatchError("function and relation use different base sets")
    if not f.graph:
        return PreservationVerdict(True)
    n, h, k = f.n, rho.h, rho.k
    mapping = f.mapping
    columns = [
        [c for c in rho.members if at_j.issuperset(c)] for at_j in map(set, zip(*mapping))
    ]
    reach = tuple({} for _ in range(n + 1))
    for args, v in f.graph:
        for j, table in enumerate(reach):
            p = args[:j]
            table[p] = table.get(p, 0) | 1 << v
    weights = tuple(k ** (h - 1 - i) for i in range(h))
    escapes: dict = {}

    def can_escape(masks) -> bool:
        hit = escapes.get(masks)
        if hit is None:
            choices = (
                [v * w for v in range(k) if m >> v & 1]
                for m, w in zip(masks, weights)
            )
            ranks = map(sum, itertools.product(*choices))
            hit = escapes[masks] = rho.first_missing(ranks) >= 0
        return hit

    def search(j, rows, cols):
        if j == n:  # the last column passed with singleton masks: image escapes
            return ViolationCertificate(cols, tuple(mapping[row] for row in rows))
        table = reach[j + 1]
        for col in columns[j]:
            new_rows = tuple(row + (c,) for row, c in zip(rows, col))
            masks = tuple(table.get(row, 0) for row in new_rows)
            if all(masks) and can_escape(masks):
                found = search(j + 1, new_rows, cols + (col,))
                if found is not None:
                    return found
        return None

    cert = search(0, ((),) * h, ())
    if cert is None:
        return PreservationVerdict(True)
    return PreservationVerdict(False, cert)


def ppol1(rho: Relation) -> frozenset:
    """All unary partial functions preserving rho.

    Enumerates every table and applies it to every member directly from
    the definition; guarded to k <= 7 since there are (k+1)**k unary
    partial functions.
    """
    if rho.k > 7:
        raise CapacityError(
            f"ppol1 enumerates (k+1)**k functions and requires k <= 7, got k={rho.k}"
        )
    members = rho.members
    return frozenset(
        f
        for f in all_partial_unary(rho.k)
        if all(img is None or img in rho for img in map(f.apply_tuple, members))
    )
