"""Bounds, antichains, synthetic traces, and the two constructions."""
from __future__ import annotations

import hashlib
import itertools
import math
import time

import pytest

from rigidrel import construct
from rigidrel.construct import (
    AbstractTrace,
    BoundError,
    ConstructionError,
    TraceError,
    _assign,
    _fits_middle_layer,
    bound_sides,
    construct_2rigid,
    construct_ellrigid,
    max_k_2rigid,
    r_bounds,
    rho_from_trace,
    sperner_bound_holds,
    surjection_count,
)
from rigidrel.kernel import CapacityError, Relation, beta_lt
from rigidrel.rigidity import (
    _relabellings,
    _trace_masks,
    comparable_masks,
    is_hereditarily_ell_rigid,
    trace,
)


# -- counting ----------------------------------------------------------------


def _brute_surjections(n: int, ell: int) -> int:
    count = 0
    for t in itertools.product(range(ell), repeat=n):
        if len(set(t)) == ell:
            count += 1
    return count


def test_surjection_count_matches_enumeration():
    for ell in range(1, 5):
        for n in range(1, 8):
            assert surjection_count(n, ell) == _brute_surjections(n, ell)


def test_surjection_count_two_blocks():
    # s(h, 2) = 2^h - 2
    for h in range(2, 7):
        assert surjection_count(h, 2) == 2**h - 2


def test_sperner_bound_and_existence():
    # 2-rigid relations need k(k-1) middle-layer sets of surjective patterns
    assert sperner_bound_holds(2, 2, 2)
    assert not sperner_bound_holds(3, 2, 2)  # 6 ordered pairs, only 2 patterns
    assert sperner_bound_holds(5, 2, 3)
    assert not sperner_bound_holds(6, 2, 3)
    assert sperner_bound_holds(59, 2, 4)
    assert not sperner_bound_holds(60, 2, 4)


def test_max_k_2rigid_table():
    assert [max_k_2rigid(h) for h in range(1, 6)] == [0, 2, 5, 59, 12455]


def test_max_k_agrees_with_existence_predicate():
    assert not sperner_bound_holds(2, 2, 1)  # no k >= 2 works at h = 1
    for h in range(2, 6):
        m = max_k_2rigid(h)
        assert sperner_bound_holds(m, 2, h)
        assert not sperner_bound_holds(m + 1, 2, h)


def test_r_bounds():
    # at ell=2, h=4: s = 14 patterns, middle layer C(14,7), reserving one
    # free orbit of size ell! leaves C(12,6) guaranteed choices
    lo, hi = r_bounds(2, 4)
    assert (lo, hi) == (math.comb(12, 6), math.comb(14, 7))
    lo3, hi3 = r_bounds(3, 4)
    s3 = surjection_count(4, 3)
    assert hi3 == math.comb(s3, s3 // 2)
    assert lo3 == math.comb(s3 - 6, (s3 - 6) // 2)
    with pytest.raises(ValueError):
        r_bounds(1, 4)
    with pytest.raises(ValueError):
        r_bounds(4, 4)  # needs ell < h


def test_bounds_refuse_unprintable_sizes_fast():
    # the sizes the bounds command refuses, refused by the library before
    # any binomial is built (max_k_2rigid(19) alone took 3.9 s unguarded)
    assert max_k_2rigid(13) > 0  # the largest h the guard admits at ell = 2
    for call, args in ((max_k_2rigid, (14,)), (max_k_2rigid, (22,)), (r_bounds, (3, 40))):
        began = time.perf_counter()
        with pytest.raises(CapacityError):
            call(*args)
        assert time.perf_counter() - began < 0.5


def test_bound_sides_and_error_texts():
    # (tuples to place, ground patterns, middle-layer sets of the ground)
    assert bound_sides(59, 2, 4) == (3422, 14, math.comb(14, 7))
    assert bound_sides(10, 3, 4) == (720, 30, math.comb(30, 15))
    for build, args, text in (
        (construct_2rigid, (60, 4),
         "no hereditarily 2-rigid relation at k=60, h=4: k(k-1) = 3540 > C(14,7) = 3432"),
        (construct_2rigid, (2, 1),
         "no hereditarily 2-rigid relation at k=2, h=1: k(k-1) = 2 > C(0,0) = 1"),
        (construct_ellrigid, (539, 3, 4),
         "counting criterion fails at k=539, ell=3, h=4: 155720334 > C(30,15) = 155117520"),
    ):
        with pytest.raises(BoundError) as info:
            build(*args)
        assert str(info.value) == text


def test_middle_layer_fit_from_bit_lengths():
    for m in range(40):
        have = math.comb(m, m // 2)
        for need in {*range(70), have - 1, have, have + 1, 2**m // (m + 1), 2**m}:
            if need >= 0:
                assert _fits_middle_layer(need, m) == (need <= have)
    # a ground of 2**40 patterns is decided without its binomial
    assert sperner_bound_holds(3, 2, 41)
    assert sperner_bound_holds(10, 3, 40)
    with pytest.raises(CapacityError):
        construct_2rigid(3, 100000)  # the bound holds; the relation is too large


# -- abstract traces -----------------------------------------------------------


def _increasing_masks(rho, ell):
    """rho's trace masks at the increasing tuples, in combinations order."""
    masks = _trace_masks(rho, ell)
    return tuple(masks[x] for x in itertools.combinations(range(rho.k), ell))


def _increasing_table(rho, ell):
    """rho's trace as pattern sets at the increasing tuples."""
    table = trace(rho, ell).as_dict
    return {x: table[x] for x in itertools.combinations(range(rho.k), ell)}


def test_abstract_trace_round_trip_from_real_trace():
    rho = construct_2rigid(2, 2)
    at = AbstractTrace.from_dict(2, 2, 2, _increasing_table(rho, 2))
    at.validate()
    assert at.masks == _increasing_masks(rho, 2)
    assert not comparable_masks(at.masks)
    assert rho_from_trace(at) == rho


def test_abstract_trace_validation_catches_tampering():
    rho = construct_2rigid(5, 3)
    table = _increasing_table(rho, 2)
    # from_dict takes exactly the increasing tuples as keys
    missing = dict(table)
    del missing[(1, 3)]
    extra = {**table, (0, 5): frozenset()}
    longer = {**table, (0, 1, 2): frozenset()}
    not_increasing = {**table, (3, 1): table[(1, 3)]}
    for mapping in (missing, extra, longer, not_increasing):
        with pytest.raises(TraceError):
            AbstractTrace.from_dict(2, 3, 5, mapping)
    # validate takes one mask per increasing tuple, from surjective patterns
    masks = _increasing_masks(rho, 2)
    foreign = masks[:4] + (masks[4] | 1 << surjection_count(3, 2),) + masks[5:]
    for wrong in (masks[:-1], masks + (0,), foreign):
        with pytest.raises(TraceError):
            AbstractTrace(2, 3, 5, wrong).validate()
        with pytest.raises(TraceError):
            rho_from_trace(AbstractTrace(2, 3, 5, wrong))
    non_surjective = {x: frozenset({(0, 0, 0)}) for x in table}
    with pytest.raises(TraceError):
        AbstractTrace.from_dict(2, 3, 5, non_surjective).validate()


def test_trace_shape_error_texts():
    table = _increasing_table(construct_ellrigid(4, 3, 4), 3)
    keys_text = "keys must be exactly the increasing 3-tuples of range(4)"
    for mapping in ({**table, (0, 2, 1): frozenset()}, {}):
        with pytest.raises(TraceError) as info:
            AbstractTrace.from_dict(3, 4, 4, mapping)
        assert str(info.value) == keys_text
    masks = AbstractTrace.from_dict(3, 4, 4, table).masks
    with pytest.raises(TraceError) as info:
        AbstractTrace(3, 4, 4, masks[1:]).validate()
    assert str(info.value) == "need 4 masks, one per increasing tuple"


def test_non_surjective_error_text():
    table = _increasing_table(construct_2rigid(5, 3), 2)
    wrong = dict(table)
    wrong[(1, 3)] = table[(1, 3)] | {(1, 1, 1)}
    with pytest.raises(TraceError) as info:
        AbstractTrace.from_dict(2, 3, 5, wrong).validate()
    assert str(info.value) == "trace at (1, 3) uses non-surjective patterns"
    wrong[(0, 4)] = frozenset({(0, 1, 2)})  # a third symbol
    with pytest.raises(TraceError) as info:
        AbstractTrace.from_dict(2, 3, 5, wrong).validate()
    assert str(info.value) == "trace at (0, 4) uses non-surjective patterns"


def test_comparable_masks_detects_containment():
    # at h = 2 the surjective patterns (0, 1) and (1, 0) are bits 0 and 1
    def mask(patterns):
        return AbstractTrace.from_dict(2, 2, 2, {(0, 1): patterns}).masks[0]

    contained = [mask({(0, 1)}), mask({(0, 1), (1, 0)})]
    assert contained == [0b01, 0b11]
    assert comparable_masks(contained) == {0b01}
    equal = [mask({(0, 1)}), mask({(0, 1)})]
    assert comparable_masks(equal) == {0b01}
    assert comparable_masks([mask({(0, 1)}), mask({(1, 0)})]) == set()


def test_rho_from_trace_contains_low_diversity_block():
    rho = construct_2rigid(5, 3)
    low = beta_lt(2, 3, range(5))
    assert low <= set(rho.members)


# -- the ell = 2 construction ---------------------------------------------------


def test_construct_2rigid_smallest_case_exact():
    rho = construct_2rigid(2, 2)
    assert rho.members == ((0, 0), (0, 1), (1, 1))


def test_construct_2rigid_sizes_and_verification():
    for k, h, size in ((2, 2, 3), (5, 3, 35), (10, 4, 325)):
        rho = construct_2rigid(k, h)
        assert rho.size == size
        assert is_hereditarily_ell_rigid(rho, 2).verdict
        at = AbstractTrace.from_dict(2, h, k, _increasing_table(rho, 2))
        at.validate()
        assert at.masks == _increasing_masks(rho, 2)
        assert not comparable_masks(at.masks)


def test_construct_2rigid_trace_sizes_follow_middle_layer():
    # every ordered pair receives a middle-layer-sized set of patterns
    rho = construct_2rigid(5, 3)
    tm = trace(rho, 2)
    s = surjection_count(3, 2)
    want = s // 2
    for x in tm.keys():
        assert len(tm[x]) == want


def test_construct_2rigid_duality():
    # the trace of a reversed pair is the dual of the trace of the pair
    rho = construct_2rigid(5, 3)
    tm = trace(rho, 2)
    for a, b in itertools.permutations(range(5), 2):
        assert tm[(b, a)] == {tuple(1 - e for e in p) for p in tm[(a, b)]}


def test_construct_2rigid_bound_errors():
    with pytest.raises(BoundError):
        construct_2rigid(3, 2)  # only k <= 2 fits at h = 2
    with pytest.raises(BoundError):
        construct_2rigid(60, 4)
    with pytest.raises(BoundError):
        construct_2rigid(6, 3)
    with pytest.raises(ValueError):
        construct_2rigid(2, 1)


def test_rigid_census_respects_counting_bound():
    # wherever a 2-rigid relation exists, the counting inequality must hold
    for k, h in ((2, 2), (2, 3), (3, 2)):
        total = k**h
        found = False
        for bits in range(1, 2**total):
            rho = Relation(k, h, bits.to_bytes((total + 7) // 8, "little"))
            if is_hereditarily_ell_rigid(rho, 2).verdict:
                found = True
                break
        if found:
            assert sperner_bound_holds(k, 2, h)


# -- the ell >= 3 construction ---------------------------------------------------


def test_construct_ellrigid_334():
    rho = construct_ellrigid(3, 3, 4)
    assert rho.size == 61
    assert is_hereditarily_ell_rigid(rho, 3).verdict


def test_construct_ellrigid_434():
    rho = construct_ellrigid(4, 3, 4)
    assert rho.size == 152
    assert is_hereditarily_ell_rigid(rho, 3).verdict
    # ... but it must not be 2-rigid or 4-rigid for free
    assert not is_hereditarily_ell_rigid(rho, 2).verdict


def test_construct_ellrigid_beyond_recursion_limit():
    # C(20, 3) = 1140 representatives, more than the default recursion
    # limit allows a recursive orbit search
    rho = construct_ellrigid(20, 3, 4)
    assert is_hereditarily_ell_rigid(rho, 3).verdict


def test_construct_ellrigid_parameter_errors():
    with pytest.raises(ValueError):
        construct_ellrigid(4, 2, 4)  # ell = 2 has its own routine
    with pytest.raises(BoundError):
        construct_ellrigid(4, 3, 3)  # needs ell < h
    with pytest.raises(ValueError):
        construct_ellrigid(2, 3, 4)  # ell > k


def test_constructors_refuse_a_decision_too_large_before_building_tables(monkeypatch):
    # (2, 2, 24) has 2**24 patterns and (3, 3, 13) has 3**13, past
    # MAX_PATTERNS; once they took seconds and gigabytes to be refused
    def unbuilt(*args):
        raise AssertionError("tables built before the size check")

    monkeypatch.setattr(construct, "_relabellings", unbuilt)
    monkeypatch.setattr(construct, "_surjective_patterns", unbuilt)
    with pytest.raises(CapacityError):
        construct_2rigid(2, 24)
    with pytest.raises(CapacityError):
        construct_ellrigid(3, 3, 13)
    with pytest.raises(CapacityError):
        AbstractTrace.from_dict(2, 24, 2, {(0, 1): ()})


# SHA-256 of Relation.mask for constructions as first published by this
# package, before the constructors moved onto trace masks
PINNED_MASKS = {
    (2, 5, 3): "af92a9185b5e95807948eb5a835504c903955581aa33bb005b0092bc559b55fd",
    (2, 10, 4): "a481e19b19197f6ce7a9e4d52f750ce50469998d97143adbe7dcbe947c0ac598",
    (2, 59, 4): "4ba86db6a10cdaf051e5021e1f2230f58da4d38f6fab60b857c210baddc54b37",
    (3, 4, 4): "d005cb744db04b4b39e058fb13146db6a48d3ec6a536d658330392ba1116bda7",
    (3, 10, 4): "826a1164bba3690224f3febc497effafa902de0a0e10562c1b9e1ce3b5d83335",
    (3, 20, 4): "7d19334eb041f47f2934685d6505a37aad77568f2859de4bc83f67e0db8c00ff",
    (4, 6, 5): "45ee611e1c4963c07575944722a525a2fbbd86f95bc624a98700bd21d4ce0adc",
    # as built by the two assignment loops that one greedy pass replaced
    (2, 20, 5): "56f1b6f093526d266ac341384387445a332dd07c12fa53ab44766003a5d028ea",
    (3, 12, 4): "39d8dd7864373ed8e3002b54a1dad77e3faab3900f17434e0ef54fdce6dedba0",
    (3, 7, 5): "1a342d4ea512658b1c901def19aab760a14d31c76a7045b2b8f1a50e533d0c2b",
    (4, 5, 5): "2f1a9812d53b07354f5bb41ca7b756ad0402a6f2669b1c92cfcd4573671a1e0f",
    (5, 6, 6): "096f6208af02cee34b6fee42296d3d6bb0579e08ff8af6d7c998b3bd14acf176",
}


@pytest.mark.parametrize("ell,k,h", sorted(PINNED_MASKS))
def test_constructions_match_pinned_masks(ell, k, h):
    rho = construct_2rigid(k, h) if ell == 2 else construct_ellrigid(k, ell, h)
    assert hashlib.sha256(rho.mask).hexdigest() == PINNED_MASKS[(ell, k, h)]


@pytest.mark.parametrize("ell,k,h", sorted(PINNED_MASKS))
def test_rho_from_trace_round_trip(ell, k, h):
    # the public path, from the traces of the increasing tuples, rebuilds
    # exactly what the constructors build
    rho = construct_2rigid(k, h) if ell == 2 else construct_ellrigid(k, ell, h)
    at = AbstractTrace(ell, h, k, _increasing_masks(rho, ell))
    at.validate()
    assert rho_from_trace(at) == rho


def test_assign_fails_when_the_stream_holds_too_few_free_orbits():
    swap = _relabellings(2, 3)[1][1]
    x, y, fixed = 0b000111, 0b001011, 0b100001  # fixed is its own dual
    assert swap(fixed) == fixed and swap(x) not in (x, y)
    budget_text = "could not pick orbit-disjoint antichain members within budget"
    # k = 3 has three pairs, and these streams hold two free orbits
    for stream in ([x, swap(x), fixed, y], [fixed, x, x, y, swap(y), x]):
        with pytest.raises(ConstructionError, match=budget_text):
            list(_assign(3, 2, 3, iter(stream), 0))
    # the one pair gets the first mask with a free orbit, past the self-dual one
    assert list(_assign(2, 2, 3, iter([fixed, x, swap(x), y]), 0)) == [x]
    # the pass draws at most 64 C(k, 2) + 256 free masks, taken ones
    # included: here the last pick is the cap-th free mask, then one past it
    cap, z = 64 * 3 + 256, 0b010011
    assert len(list(_assign(3, 2, 3, iter([x] + [swap(x)] * (cap - 3) + [y, z]), 0))) == 3
    with pytest.raises(ConstructionError, match=budget_text):
        list(_assign(3, 2, 3, iter([x] + [swap(x)] * (cap - 2) + [y, z]), 0))
