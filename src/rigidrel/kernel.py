"""Core value types over a finite base set {0, ..., k-1}.

Tuples of arity h are ranked in base k with the first entry most
significant.  Relations are dense bit-masks over tuple ranks, stored
little-endian by bit position (bit r lives in byte r // 8 at bit r % 8),
so membership tests are O(1) byte lookups even for masks of millions of
bits.  Only this module reads mask bytes: other modules probe a relation
through ``contains_rank``, ``bits``, ``first_missing`` and the lazy member
walk ``iter_ranks``.  Partial functions are kept as explicit graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache


class EncodingError(ValueError):
    """Tuple entry, rank, or mask outside the valid range."""


class DomainMismatchError(ValueError):
    """Operands live on different base sets or have incompatible arities."""


class CapacityError(RuntimeError):
    """Requested computation exceeds a documented size guard."""


# bit positions set in each byte value, for fast mask iteration
_BYTE_BITS = tuple(
    tuple(b for b in range(8) if v >> b & 1) for v in range(256)
)


# Most ranks a dense relation mask may cover: 2**32 bits make a 512 MiB mask.
MAX_RANKS = 1 << 32


def _header(data: dict, key: str) -> int:
    """The int field key of a JSON object; floats, strings and booleans
    are refused rather than converted."""
    v = data[key]
    if type(v) is not int:
        raise EncodingError(f"field {key!r} must be an int, got {v!r}")
    return v


def _check_k(k: int) -> None:
    if k < 2:
        raise ValueError(f"base set must have at least 2 elements, got k={k}")


def rank_count(k: int, h: int) -> int:
    """Number k**h of h-tuples over {0..k-1}, refused with CapacityError
    when a dense mask over them would exceed MAX_RANKS bits."""
    _check_k(k)
    if h < 1:
        raise ValueError(f"arity must be >= 1, got {h}")
    if h > MAX_RANKS.bit_length() or k**h > MAX_RANKS:  # as k >= 2, h alone may tell
        raise CapacityError(
            f"a dense mask over {k}**{h} tuples exceeds the guard of "
            f"{MAX_RANKS} bits"
        )
    return k**h


def tuple_rank(entries, k: int) -> int:
    """Rank of a tuple in base k, first entry most significant."""
    r = 0
    for e in entries:
        if type(e) is not int or not 0 <= e < k:  # bool is an int subclass
            raise EncodingError(f"entry {e!r} is not an int in range(0, {k})")
        r = r * k + e
    return r


def tuple_unrank(rank: int, arity: int, k: int):
    """Inverse of :func:`tuple_rank` at the given arity."""
    if arity < 1:
        raise EncodingError(f"arity must be >= 1, got {arity}")
    if not 0 <= rank < k**arity:
        raise EncodingError(f"rank {rank} outside range for k={k}, arity={arity}")
    out = [0] * arity
    for i in range(arity - 1, -1, -1):
        rank, out[i] = divmod(rank, k)
    return tuple(out)


@lru_cache(maxsize=None)
def _surjective_patterns(n: int, m: int):
    """All n-tuples over range(m) using every value, sorted lexicographically."""
    return tuple(
        p
        for p in itertools.product(range(m), repeat=n)
        if len(set(p)) == m
    )


def beta(m: int, n: int, base) -> set:
    """n-tuples over ``base`` with exactly m distinct entries.

    Empty when m > n.  Size is C(|base|, m) times the number of
    surjections from an n-set onto an m-set.
    """
    elems = tuple(sorted(set(base)))
    if not 1 <= m <= len(elems):
        raise ValueError(f"need 1 <= m <= |base|, got m={m}, |base|={len(elems)}")
    if n < 1:
        raise ValueError(f"arity must be >= 1, got {n}")
    out = set()
    for support in itertools.combinations(elems, m):
        for pat in _surjective_patterns(n, m):
            out.add(tuple(support[p] for p in pat))
    return out


def beta_lt(m: int, n: int, base) -> set:
    """n-tuples over ``base`` with fewer than m distinct entries."""
    elems = tuple(sorted(set(base)))
    out = set()
    for mm in range(1, min(m - 1, len(elems), n) + 1):
        out |= beta(mm, n, elems)
    return out


def subsets_colex(m: int, c: int):
    """Bit-masks of all c-subsets of range(m), in increasing (colex) order."""
    if c < 0 or c > m:
        return
    if c == 0:
        yield 0
        return
    v = (1 << c) - 1
    limit = 1 << m
    while v < limit:
        yield v
        u = v & -v
        w = v + u
        v = w | (((v ^ w) // u) >> 2)


def mask_bits(mask: int):
    """Indices of set bits, ascending."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@dataclass(frozen=True)
class Relation:
    """Finite relation of arity h over {0..k-1}, stored as a dense bit-mask."""

    k: int
    h: int
    mask: bytes

    def __post_init__(self):
        total = rank_count(self.k, self.h)
        nbytes = (total + 7) // 8
        if len(self.mask) != nbytes:
            raise EncodingError(
                f"mask has {len(self.mask)} bytes, expected {nbytes}"
            )
        spare = nbytes * 8 - total
        if spare and self.mask[-1] >> (8 - spare):
            raise EncodingError("mask has bits set beyond the last valid rank")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_ranks(cls, k: int, h: int, ranks) -> "Relation":
        total = rank_count(k, h)
        buf = bytearray((total + 7) // 8)
        for r in ranks:
            if not 0 <= r < total:
                raise EncodingError(f"rank {r} outside range for k={k}, h={h}")
            buf[r >> 3] |= 1 << (r & 7)
        return cls(k, h, bytes(buf))

    @classmethod
    def from_tuples(cls, k: int, h: int, tuples) -> "Relation":
        ranks = []
        for t in tuples:
            if len(t) != h:
                raise EncodingError(f"tuple {t!r} has arity {len(t)}, expected {h}")
            ranks.append(tuple_rank(t, k))
        return cls.from_ranks(k, h, ranks)

    @classmethod
    def empty(cls, k: int, h: int) -> "Relation":
        return cls.from_ranks(k, h, ())

    @classmethod
    def full(cls, k: int, h: int) -> "Relation":
        return cls.from_ranks(k, h, range(k**h))

    @classmethod
    def diagonal(cls, k: int, h: int) -> "Relation":
        return cls.from_tuples(k, h, ((c,) * h for c in range(k)))

    # -- queries -----------------------------------------------------------

    def contains_rank(self, r: int) -> bool:
        if not 0 <= r < self.k**self.h:
            raise EncodingError(f"rank {r} outside range for k={self.k}, h={self.h}")
        return bool(self.mask[r >> 3] >> (r & 7) & 1)

    def __contains__(self, entries) -> bool:
        return self.contains_rank(tuple_rank(entries, self.k))

    def bits(self, ranks) -> int:
        """The int whose bit i is set iff ranks[i] is a member; no range check."""
        mask, m = self.mask, 0
        for i, r in enumerate(ranks):
            if mask[r >> 3] >> (r & 7) & 1:
                m |= 1 << i
        return m

    def first_missing(self, ranks) -> int:
        """The index of the first non-member in ranks, or -1; no range check."""
        mask = self.mask
        for i, r in enumerate(ranks):
            if not mask[r >> 3] >> (r & 7) & 1:
                return i
        return -1

    def iter_ranks(self):
        """Member ranks, ascending, lazily: leading zero bytes are skipped
        at C speed, and a caller that stops early scans no further."""
        mask = self.mask
        rest = mask.lstrip(b"\0")
        base = 8 * (len(mask) - len(rest))
        for byte in rest:
            if byte:
                for b in _BYTE_BITS[byte]:
                    yield base + b
            base += 8

    @cached_property
    def size(self) -> int:
        return int.from_bytes(self.mask, "little").bit_count()

    @property
    def is_empty(self) -> bool:
        return not any(self.mask)  # stops at the first member's byte

    @cached_property
    def ranks(self):
        """Member ranks, ascending."""
        return tuple(self.iter_ranks())

    @cached_property
    def members(self):
        """Member tuples in rank order."""
        k, h = self.k, self.h
        return tuple(tuple_unrank(r, h, k) for r in self.ranks)

    @cached_property
    def support_index(self):
        """Members grouped by exact support (set of entries, as a bit-mask).

        Each bucket is a rank-ascending list of (rank, entries) pairs.
        """
        index: dict[int, list] = {}
        for rank, entries in zip(self.ranks, self.members):
            smask = 0
            for e in entries:
                smask |= 1 << e
            index.setdefault(smask, []).append((rank, entries))
        return index

    # -- serialization -----------------------------------------------------

    def to_json(self, form: str = "tuples") -> dict:
        if form == "tuples":
            return {
                "k": self.k,
                "h": self.h,
                "tuples": [list(t) for t in self.members],
            }
        if form == "mask":
            return {"k": self.k, "h": self.h, "mask_hex": self.mask.hex()}
        raise ValueError(f"unknown serialization form {form!r}")

    @classmethod
    def from_json(cls, data: dict) -> "Relation":
        try:
            k, h = _header(data, "k"), _header(data, "h")
        except (KeyError, TypeError) as exc:
            raise EncodingError(f"bad relation object: {exc}") from exc
        if "mask_hex" in data:
            try:
                mask = bytes.fromhex(data["mask_hex"])
            except ValueError as exc:
                raise EncodingError(f"bad mask_hex: {exc}") from exc
            return cls(k, h, mask)
        if "tuples" in data:
            return cls.from_tuples(k, h, (tuple(t) for t in data["tuples"]))
        raise EncodingError("relation object needs 'tuples' or 'mask_hex'")


@dataclass(frozen=True)
class PartialUnaryFn:
    """Unary partial function on {0..k-1}, as a table with None for undefined."""

    k: int
    table: tuple

    def __post_init__(self):
        _check_k(self.k)
        if len(self.table) != self.k:
            raise EncodingError(
                f"table has {len(self.table)} entries, expected {self.k}"
            )
        for v in self.table:
            if v is not None and not (type(v) is int and 0 <= v < self.k):
                raise EncodingError(f"value {v!r} is not an int in range(0, {self.k})")

    @classmethod
    def from_pairs(cls, k: int, pairs) -> "PartialUnaryFn":
        table = [None] * k
        for x, v in pairs:
            if table[x] is not None and table[x] != v:
                raise EncodingError(f"conflicting values at {x}")
            table[x] = v
        return cls(k, tuple(table))

    @classmethod
    def identity(cls, k: int) -> "PartialUnaryFn":
        return cls(k, tuple(range(k)))

    @cached_property
    def dom(self):
        return tuple(x for x, v in enumerate(self.table) if v is not None)

    @cached_property
    def img(self) -> frozenset:
        return frozenset(v for v in self.table if v is not None)

    @cached_property
    def below_identity(self) -> bool:
        return all(v is None or v == x for x, v in enumerate(self.table))

    @cached_property
    def is_injective(self) -> bool:
        return len(self.img) == len(self.dom)

    def apply_tuple(self, entries):
        """Pointwise image of a tuple, or None if some entry is undefined."""
        out = []
        for e in entries:
            v = self.table[e]
            if v is None:
                return None
            out.append(v)
        return tuple(out)

    def restrict(self, points) -> "PartialUnaryFn":
        keep = set(points)
        return PartialUnaryFn(
            self.k,
            tuple(v if x in keep else None for x, v in enumerate(self.table)),
        )

    def as_partial_fn(self) -> "PartialFn":
        return PartialFn.from_mapping(
            self.k, 1, {(x,): v for x, v in enumerate(self.table) if v is not None}
        )

    def to_json(self) -> dict:
        return {"k": self.k, "table": list(self.table)}

    @classmethod
    def from_json(cls, data: dict) -> "PartialUnaryFn":
        return cls(_header(data, "k"), tuple(data["table"]))


def all_partial_unary(k: int):
    """All (k+1)**k unary partial functions, in a fixed table order."""
    _check_k(k)
    choices = (None,) + tuple(range(k))
    for table in itertools.product(choices, repeat=k):
        yield PartialUnaryFn(k, table)


@dataclass(frozen=True)
class PartialFn:
    """n-ary partial function on {0..k-1}, as an explicit sorted graph."""

    k: int
    n: int
    graph: tuple  # sorted tuple of (args, value) pairs

    def __post_init__(self):
        _check_k(self.k)
        if self.n < 1:
            raise ValueError(f"arity must be >= 1, got {self.n}")
        seen = set()
        for args, v in self.graph:
            if len(args) != self.n:
                raise EncodingError(f"argument tuple {args!r} has wrong arity")
            tuple_rank(args, self.k)  # validates entries
            if not (type(v) is int and 0 <= v < self.k):
                raise EncodingError(f"value {v!r} is not an int in range(0, {self.k})")
            if args in seen:
                raise EncodingError(f"argument tuple {args!r} listed twice")
            seen.add(args)
        if tuple(sorted(self.graph)) != self.graph:
            raise EncodingError("graph must be sorted by argument tuple")

    @classmethod
    def _trusted(cls, k: int, n: int, graph: tuple) -> "PartialFn":
        """A function from a graph its caller built valid, unchecked."""
        f = object.__new__(cls)
        f.__dict__.update(k=k, n=n, graph=graph)
        return f

    @classmethod
    def from_mapping(cls, k: int, n: int, mapping) -> "PartialFn":
        items = tuple(sorted((tuple(a), v) for a, v in dict(mapping).items()))
        return cls(k, n, items)

    @property
    def mapping(self) -> dict:
        return dict(self.graph)

    @property
    def dom(self):
        return tuple(a for a, _ in self.graph)

    @property
    def values(self) -> frozenset:
        return frozenset(v for _, v in self.graph)

    def restrict(self, args_subset) -> "PartialFn":
        keep = set(tuple(a) for a in args_subset)
        return PartialFn(
            self.k, self.n, tuple(p for p in self.graph if p[0] in keep)
        )

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "graph": [[list(a), v] for a, v in self.graph],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PartialFn":
        graph = tuple(sorted((tuple(a), v) for a, v in data["graph"]))
        return cls(_header(data, "k"), _header(data, "n"), graph)


def all_partial_fns(k: int, n: int):
    """All (k+1)**(k**n) n-ary partial functions, in a fixed table order."""
    _check_k(k)
    # per input, in rank order: undefined, or one (args, value) pair per value
    choices = [
        (None,) + tuple((args, v) for v in range(k))
        for args in (tuple_unrank(r, n, k) for r in range(k**n))
    ]
    for combo in itertools.product(*choices):
        yield PartialFn._trusted(k, n, tuple(filter(None, combo)))


def is_partial_projection(f: PartialFn) -> bool:
    """True iff f agrees with some coordinate projection on its domain.

    The empty function is a subfunction of every projection, hence True.
    """
    if not f.graph:
        return True
    dom, values = zip(*f.graph)
    return values in zip(*dom)


def is_partial_constant(f: PartialFn) -> bool:
    """True iff f takes at most one value (the empty function counts)."""
    return len(f.values) <= 1


def is_trivial(f: PartialFn) -> bool:
    """Partial projection or partial constant."""
    return is_partial_constant(f) or is_partial_projection(f)
