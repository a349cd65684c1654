"""Encodings, tuple enumeration, and the three container types."""
from __future__ import annotations

import itertools
import json
import math
import random
import types

import pytest

from rigidrel.kernel import (
    CapacityError,
    EncodingError,
    PartialFn,
    PartialUnaryFn,
    Relation,
    all_partial_fns,
    all_partial_unary,
    beta,
    beta_lt,
    is_partial_constant,
    is_partial_projection,
    is_trivial,
    mask_bits,
    subsets_colex,
    tuple_rank,
    tuple_unrank,
)


# -- ranks and enumeration ----------------------------------------------------


def test_rank_round_trip_exhaustive():
    for k in (2, 3, 4):
        for arity in (1, 2, 3):
            for i, entries in enumerate(itertools.product(range(k), repeat=arity)):
                assert tuple_rank(entries, k) == i
                assert tuple_unrank(i, arity, k) == entries


def test_rank_first_entry_most_significant():
    assert tuple_rank((1, 0), 2) == 2
    assert tuple_rank((0, 1), 2) == 1
    assert tuple_unrank(5, 3, 2) == (1, 0, 1)


def test_rank_rejects_out_of_range_entries():
    with pytest.raises(EncodingError):
        tuple_rank((0, 2), 2)
    with pytest.raises(EncodingError):
        tuple_rank((-1,), 3)
    # non-integer entries, booleans included
    for entries in ((0, 0.5), (1.0,), (1, 0.0), (True,), (0, False), (2.0,), (2.9,)):
        with pytest.raises(EncodingError):
            tuple_rank(entries, 3)


def _brute_beta(m, n, base):
    return {
        t for t in itertools.product(base, repeat=n) if len(set(t)) == m
    }


def test_beta_matches_brute_force():
    for k in (2, 3, 4):
        base = range(k)
        for n in (1, 2, 3, 4):
            for m in range(1, k + 1):
                assert beta(m, n, base) == _brute_beta(m, n, base)
    with pytest.raises(ValueError):
        beta(0, 2, range(2))
    with pytest.raises(ValueError):
        beta(3, 2, range(2))  # m exceeds |base|


def test_beta_counts():
    # |beta_m^n(k)| = C(k,m) * (surjections from n onto m)
    assert len(beta(2, 3, range(3))) == 3 * 6
    assert len(beta(3, 3, range(3))) == 6
    assert len(beta(2, 2, range(5))) == 20  # injective pairs: 5*4


def test_beta_lt_is_union_of_lower_layers():
    for k in (2, 3):
        for n in (1, 2, 3):
            for m in range(1, k + 2):
                expected = set()
                for j in range(m):
                    expected |= _brute_beta(j, n, range(k))
                assert beta_lt(m, n, range(k)) == expected


def test_subsets_colex_order_and_coverage():
    for m in (1, 3, 5, 8):
        for c in range(0, m + 1):
            masks = list(subsets_colex(m, c))
            assert len(masks) == math.comb(m, c)
            assert masks == sorted(masks)  # colex == increasing as integers
            assert all(v.bit_count() == c for v in masks)
            assert len(set(masks)) == len(masks)


def test_subsets_colex_edges():
    assert list(subsets_colex(4, 0)) == [0]
    assert list(subsets_colex(3, 3)) == [0b111]
    assert list(subsets_colex(2, 3)) == []
    assert list(subsets_colex(5, 2))[:3] == [0b00011, 0b00101, 0b00110]


def test_mask_bits():
    assert mask_bits(0) == ()
    assert mask_bits(0b10110) == (1, 2, 4)


# -- Relation -----------------------------------------------------------------


def test_relation_constructor_validation():
    # each check gives the same error, in the same order, whether or not a
    # relation of that shape was built before
    for _ in range(2):
        Relation(2, 2, b"\x0f")
        with pytest.raises(EncodingError, match="mask has 2 bytes, expected 1"):
            Relation(2, 2, b"\x00\x00")  # 4 tuples need exactly 1 byte, not 2
        with pytest.raises(EncodingError, match="beyond the last valid rank"):
            Relation(2, 2, b"\xf0")  # stray bits above rank 3
        with pytest.raises(EncodingError, match="beyond the last valid rank"):
            Relation(3, 2, b"\x00\x02")  # rank 9, past the last rank 8
        with pytest.raises(EncodingError, match="beyond the last valid rank"):
            Relation(7, 1, b"\x80")  # the one spare bit
        Relation(3, 2, b"\x00\x01")
        with pytest.raises(EncodingError, match="expected 536870912"):
            Relation(2, 32, b"")  # MAX_RANKS bits are allowed
        for k, h in ((2, 33), (65537, 2), (2, 10**6)):
            with pytest.raises(CapacityError):
                Relation(k, h, b"")  # refused before the byte count
        for k in (1, 0, -3):
            with pytest.raises(ValueError, match="at least 2 elements"):
                Relation(k, 2, b"\x00\x00")  # refused before the byte count
        with pytest.raises(ValueError, match="arity must be >= 1"):
            Relation(2, 0, b"")


def test_relation_factories_and_sizes():
    for k, h in ((2, 1), (2, 3), (3, 2), (4, 2)):
        assert Relation.empty(k, h).size == 0
        assert Relation.empty(k, h).is_empty
        assert Relation.full(k, h).size == k**h
        diag = Relation.diagonal(k, h)
        assert diag.size == k
        assert diag.members == tuple((a,) * h for a in range(k))


def test_size_is_the_popcount_of_the_mask():
    # size pops only the nonzero bytes: check it against a direct popcount
    # and the member walk on seeded masks with long interior zero runs,
    # runs of 0xFF and (at 3**3, 5**3, 3**7) a partial last byte
    rng = random.Random(22)
    rels = []
    for k, h in ((2, 3), (3, 3), (5, 3), (3, 7), (2, 14)):
        total = k**h
        buf = bytearray((total + 7) // 8)
        for _ in range(rng.randrange(1, 4)):
            lo = rng.randrange(len(buf))
            hi = min(len(buf), lo + rng.randrange(1, 40))
            buf[lo:hi] = b"\xff" * (hi - lo)
        for r in rng.sample(range(total), rng.randrange(1, 9)):
            buf[r >> 3] |= 1 << (r & 7)
        buf[-1] &= 0xFF >> (8 * len(buf) - total)  # no bits past the last rank
        rels += [
            Relation(k, h, bytes(buf)),
            Relation.empty(k, h),
            Relation.full(k, h),
            Relation.diagonal(k, h),
        ]
    assert any(b"\0" * 200 in rho.mask.strip(b"\0") for rho in rels)
    for rho in rels:
        assert rho.size == sum(bin(b).count("1") for b in rho.mask) == len(rho.ranks)


def test_relation_from_tuples_equals_from_ranks():
    tuples = [(0, 1), (2, 2), (1, 0)]
    a = Relation.from_tuples(3, 2, tuples)
    b = Relation.from_ranks(3, 2, [tuple_rank(t, 3) for t in tuples])
    assert a == b
    assert a.size == 3
    assert a.ranks == tuple(sorted(tuple_rank(t, 3) for t in tuples))
    assert a.members == tuple(sorted(tuples, key=lambda t: tuple_rank(t, 3)))


def test_relation_membership():
    rho = Relation.from_tuples(3, 2, [(0, 1), (1, 2)])
    assert (0, 1) in rho
    assert (1, 2) in rho
    assert (2, 1) not in rho
    assert rho.contains_rank(tuple_rank((0, 1), 3))
    with pytest.raises(EncodingError):
        rho.contains_rank(9)
    # each of these ranks to 0, the rank of the one member (0, 0)
    zero = Relation.from_tuples(3, 2, [(0, 0)])
    assert (0, 0) in zero
    for entries in ((0,), (), (0, 0, 0)):
        with pytest.raises(EncodingError, match="arity"):
            entries in zero


def test_iter_ranks_walks_set_bits_lazily():
    rng = random.Random(11)
    for k, h in ((2, 3), (2, 4), (3, 3), (2, 8), (5, 3)):
        total = k**h
        ranks = sorted(rng.sample(range(total), rng.randrange(total + 1)))
        rho = Relation.from_ranks(k, h, ranks)
        assert list(rho.iter_ranks()) == list(rho.ranks) == ranks
    # the lowest set bit comes first, past a leading run of zero bytes
    assert next(Relation.from_ranks(2, 5, (18, 20)).iter_ranks()) == 18
    rho = Relation.from_ranks(3, 3, (0, 7, 8, 9, 26))
    assert rho.ranks == tuple(rho.iter_ranks()) == (0, 7, 8, 9, 26)


def _byte_walk(mask: bytes) -> list:
    return [8 * i + b for i, byte in enumerate(mask) for b in range(8) if byte >> b & 1]


def test_iter_ranks_and_members_match_a_byte_walk():
    # random masks with zero runs, 0xFF runs and a partial last byte
    rng = random.Random(23)
    cases = [(2, 1, b"\x00"), (2, 1, b"\x03"), (3, 1, b"\x07"), (2, 3, b"\x00"), (2, 3, b"\xff")]
    for k, h in ((2, 3), (3, 2), (3, 3), (2, 7), (5, 3), (3, 5), (7, 3)):
        total = k**h
        nbytes = (total + 7) // 8
        for _ in range(12):
            buf = bytearray()  # runs of zero, 0xFF and random bytes
            while len(buf) < nbytes:
                run = rng.choice((b"\0", b"\xff", bytes([rng.randrange(256)])))
                buf += run * rng.randrange(1, 6)
            del buf[nbytes:]
            buf[-1] &= 0xFF >> (8 * nbytes - total)
            cases.append((k, h, bytes(buf)))
    for k, h, mask in cases:
        rho = Relation(k, h, mask)
        ranks = _byte_walk(mask)
        assert list(rho.iter_ranks()) == ranks
        assert rho.members == tuple(tuple_unrank(r, h, k) for r in ranks)
        assert rho.to_json("tuples")["tuples"] == [list(tuple_unrank(r, h, k)) for r in ranks]
    assert any(b"\xff\xff" in mask for _, _, mask in cases)
    assert any(b"\0\0\0" in mask.strip(b"\0") for _, _, mask in cases)


def test_batched_probes_agree_with_contains_rank():
    rng = random.Random(16)
    for k, h in ((2, 3), (3, 2), (3, 3), (5, 2)):
        total = k**h
        for _ in range(20):
            rho = Relation.from_ranks(k, h, rng.sample(range(total), rng.randrange(total + 1)))
            assert list(rho.iter_ranks()) == [r for r in range(total) if rho.contains_rank(r)]
            for n in (0, 1, 3, total, 2 * total):
                probe = [rng.randrange(total) for _ in range(n)]
                if n:
                    probe.append(probe[0])  # repeated ranks read alike
                hits = [rho.contains_rank(r) for r in probe]
                assert rho.bits(probe) == sum(hit << i for i, hit in enumerate(hits))
                assert rho.first_missing(probe) == (hits.index(False) if False in hits else -1)
                assert rho.first_missing(iter(probe)) == rho.first_missing(probe)
    empty = Relation.empty(3, 2)
    assert empty.bits([]) == 0 and empty.first_missing([]) == -1
    assert list(empty.iter_ranks()) == []
    # the walk is lazy behind 1 MB of leading zero bytes
    far = 8 * 10**6
    rho = Relation.from_ranks(2, 24, (far + 2, far + 9, 2**24 - 1))
    walk = rho.iter_ranks()
    assert isinstance(walk, types.GeneratorType)
    assert next(walk) == far + 2
    assert list(walk) == [far + 9, 2**24 - 1]
    assert rho.bits([far + 9, 0, far + 2]) == 0b101
    assert rho.first_missing([far + 2, far + 9, far]) == 2


def test_relation_support_index_reconstructs_members():
    rng = random.Random(7)
    for k, h in ((2, 3), (3, 2), (3, 3), (4, 2)):
        total = k**h
        ranks = rng.sample(range(total), total // 2)
        rho = Relation.from_ranks(k, h, ranks)
        seen = []
        for smask, bucket in rho.support_index.items():
            support = mask_bits(smask)
            for rank, entries in bucket:
                assert set(entries) == set(support)
                assert tuple_rank(entries, k) == rank
                seen.append(rank)
        assert sorted(seen) == sorted(ranks)


def test_relation_json_round_trip_both_forms():
    rho = Relation.from_tuples(3, 2, [(0, 1), (1, 2), (2, 0)])
    as_tuples = rho.to_json()
    assert as_tuples["tuples"] == [[0, 1], [1, 2], [2, 0]]
    assert Relation.from_json(as_tuples) == rho
    as_mask = rho.to_json(form="mask")
    assert set(as_mask) == {"k", "h", "mask_hex"}
    assert Relation.from_json(as_mask) == rho
    with pytest.raises(ValueError):
        rho.to_json(form="bogus")
    # the byte chunks of the mask form are its compact dump, also with a
    # partial last byte and with no member
    for rel in (rho, Relation.full(5, 3), Relation.empty(2, 2)):
        dump = json.dumps(rel.to_json("mask"), separators=(",", ":"))
        assert b"".join(rel.mask_json_chunks()) == dump.encode()


def test_relation_from_json_rejects_garbage():
    with pytest.raises(EncodingError):
        Relation.from_json({"k": 2})
    with pytest.raises(EncodingError):
        Relation.from_json({"k": 2, "h": 1, "mask_hex": "zz"})
    with pytest.raises(EncodingError):
        Relation.from_json({"h": 1, "mask_hex": "01"})
    with pytest.raises(EncodingError):  # neither form wins over the other
        Relation.from_json({"k": 2, "h": 1, "tuples": [[0]], "mask_hex": "01"})
    for k in (True, 2.0, 2.9, "2"):  # header fields are not converted
        with pytest.raises(EncodingError):
            Relation.from_json({"k": k, "h": 1, "mask_hex": "01"})
        with pytest.raises(EncodingError):
            Relation.from_json({"k": 2, "h": k, "mask_hex": "01"})


# -- PartialUnaryFn -----------------------------------------------------------


def test_unary_validation():
    with pytest.raises(EncodingError):
        PartialUnaryFn(2, (0,))  # table length != k
    with pytest.raises(EncodingError):
        PartialUnaryFn(2, (0, 2))  # value out of range
    for table in ((0, 1.5, 0), (1.0, None, 0), (True, None, 0), (2.0, 0, 0), (2.9, 0, 0)):
        with pytest.raises(EncodingError):
            PartialUnaryFn(3, table)  # value not an int
    for k in (True, 2.0, 2.9):
        with pytest.raises(EncodingError):
            PartialUnaryFn.from_json({"k": k, "table": [0, 1]})


def test_unary_identity_and_constants():
    ident = PartialUnaryFn.identity(3)
    assert ident.table == (0, 1, 2)
    assert ident.below_identity
    assert ident.is_injective
    const = PartialUnaryFn(3, (1, 1, 1))
    assert not const.is_injective
    assert const.img == frozenset({1})


def test_unary_below_identity():
    assert PartialUnaryFn(2, (None, None)).below_identity  # empty function
    assert PartialUnaryFn(3, (0, None, 2)).below_identity
    assert not PartialUnaryFn(2, (1, 0)).below_identity
    assert not PartialUnaryFn(3, (0, 1, 0)).below_identity


def test_unary_dom_img_mask():
    f = PartialUnaryFn(4, (None, 3, None, 1))
    assert f.dom == (1, 3)
    assert f.img == frozenset({1, 3})


def test_unary_apply_tuple():
    f = PartialUnaryFn(3, (2, None, 0))
    assert f.apply_tuple((0, 2, 0)) == (2, 0, 2)
    assert f.apply_tuple((0, 1)) is None  # 1 is undefined


def test_unary_restrict_and_compose():
    f = PartialUnaryFn(3, (1, 2, 0))
    assert f.restrict((0, 2)).table == (1, None, 0)


def test_unary_as_partial_fn_and_json():
    f = PartialUnaryFn(3, (None, 0, 2))
    p = f.as_partial_fn()
    assert p.n == 1 and p.mapping == {(1,): 0, (2,): 2}
    assert PartialUnaryFn.from_json(f.to_json()) == f


def test_all_partial_unary_census():
    for k in (2, 3):
        fns = list(all_partial_unary(k))
        assert len(fns) == (k + 1) ** k
        assert len(set(fns)) == len(fns)
        assert all(f.k == k for f in fns)


# -- PartialFn ----------------------------------------------------------------


def test_partial_fn_validation():
    with pytest.raises(EncodingError):
        PartialFn(2, 1, (((0,), 0), ((0,), 1)))  # duplicate argument tuple
    with pytest.raises(EncodingError):
        PartialFn.from_mapping(2, 1, {(0,): 2})  # value out of range
    for value in (1.5, 1.0, True, 2.0, 2.9):
        with pytest.raises(EncodingError):
            PartialFn.from_mapping(3, 1, {(0,): value})  # value not an int
    with pytest.raises(EncodingError):
        PartialFn.from_mapping(2, 2, {(0,): 0})  # arity mismatch


def test_partial_fn_mapping_and_dom():
    f = PartialFn.from_mapping(2, 2, {(1, 0): 1, (0, 0): 0})
    assert f.mapping == {(0, 0): 0, (1, 0): 1}
    assert f.dom == ((0, 0), (1, 0))  # sorted
    assert f.values == frozenset({0, 1})


def test_partial_fn_restrict_and_subfunction():
    f = PartialFn.from_mapping(2, 1, {(0,): 1, (1,): 0})
    sub = f.restrict([(0,)])
    assert sub.mapping == {(0,): 1}


def test_partial_projection_detection():
    for k, n in ((2, 2), (3, 2)):
        for i in range(n):
            full_proj = PartialFn.from_mapping(
                k, n, {t: t[i] for t in itertools.product(range(k), repeat=n)}
            )
            assert is_partial_projection(full_proj)
            sub = full_proj.restrict(list(full_proj.dom)[:2])
            assert is_partial_projection(sub)
    # defined everywhere but not a projection
    xor = PartialFn.from_mapping(
        2, 2, {t: (t[0] + t[1]) % 2 for t in itertools.product(range(2), repeat=2)}
    )
    assert not is_partial_projection(xor)
    assert is_partial_projection(PartialFn.from_mapping(2, 2, {}))


def test_partial_constant_and_trivial():
    c = PartialFn.from_mapping(3, 2, {(0, 1): 2, (2, 2): 2})
    assert is_partial_constant(c)
    assert is_trivial(c)
    mixed = PartialFn.from_mapping(3, 2, {(0, 1): 2, (2, 2): 1})
    assert not is_partial_constant(mixed)
    # a one-point function is both a constant and a projection restriction
    point = PartialFn.from_mapping(2, 1, {(1,): 1})
    assert is_partial_constant(point) and is_partial_projection(point)


def test_all_partial_fns_census():
    # (k+1)**(k**n) tables
    assert sum(1 for _ in all_partial_fns(2, 1)) == 9
    assert sum(1 for _ in all_partial_fns(2, 2)) == 81
    assert sum(1 for _ in all_partial_fns(3, 1)) == 64
    fns = list(all_partial_fns(2, 2))
    assert len(set(fns)) == len(fns)
    # built unchecked, they equal the fully validated functions
    for f in itertools.chain(fns, all_partial_fns(3, 1)):
        g = PartialFn(f.k, f.n, f.graph)
        assert f == g and hash(f) == hash(g) and f.mapping == g.mapping


def _reference_graphs(k: int, n: int):
    """The enumeration as first written: one value choice per input, in
    rank order, dropping the inputs left undefined."""
    inputs = tuple(tuple_unrank(r, n, k) for r in range(k**n))
    choices = (None,) + tuple(range(k))
    for values in itertools.product(choices, repeat=len(inputs)):
        yield tuple((args, v) for args, v in zip(inputs, values) if v is not None)


def test_all_partial_fns_matches_reference_enumeration():
    # the same graphs in the same order, streamed: (3, 2) has 4**9 of them
    for k, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        pairs = itertools.zip_longest(all_partial_fns(k, n), _reference_graphs(k, n))
        assert all(f is not None and f.graph == want for f, want in pairs), (k, n)


def test_is_partial_projection_matches_definition():
    # every function at (2, n <= 3) and (3, 1): some coordinate i with
    # args[i] == f(args) across the whole graph
    for k, n in ((2, 1), (2, 2), (2, 3), (3, 1)):
        for f in all_partial_fns(k, n):
            expected = any(all(a[i] == v for a, v in f.graph) for i in range(n))
            assert is_partial_projection(f) == expected, f


def test_partial_fn_json_round_trip():
    f = PartialFn.from_mapping(3, 2, {(0, 1): 2, (1, 1): 0})
    data = f.to_json()
    assert PartialFn.from_json(data) == f
    for field, value in (("k", 3.0), ("n", True), ("n", 2.9)):
        with pytest.raises(EncodingError):
            PartialFn.from_json({**data, field: value})
    # a repeated argument tuple is refused, not overwritten by its last value
    with pytest.raises(EncodingError, match="listed twice"):
        PartialFn.from_json({"k": 2, "n": 1, "graph": [[[0], 0], [[0], 1]]})


def test_package_all_lists_every_public_name_and_no_module():
    import rigidrel

    assert not [
        n for n in rigidrel.__all__ if isinstance(getattr(rigidrel, n), types.ModuleType)
    ]
    public = {
        n for n, v in vars(rigidrel).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert sorted(rigidrel.__all__) == sorted(public)
