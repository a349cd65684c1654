"""Bounds, antichains, synthetic traces, and the two constructions."""
from __future__ import annotations

import itertools
import math

import pytest

from rigidrel.construct import (
    AbstractTrace,
    BoundError,
    IndexAntichain,
    TraceError,
    construct_2rigid,
    construct_ellrigid,
    dual_2,
    exists_2rigid,
    falling_factorial,
    max_k_2rigid,
    middle_layer,
    r_bounds,
    rho_from_trace,
    sperner_bound_holds,
    surjection_count,
)
from rigidrel.kernel import CapacityError, Relation, beta, beta_lt
from rigidrel.rigidity import is_hereditarily_ell_rigid, trace


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


def test_falling_factorial():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(4, 4) == 24
    assert falling_factorial(3, 0) == 1


def test_sperner_bound_and_existence():
    # 2-rigid relations need k(k-1) middle-layer sets of surjective patterns
    assert exists_2rigid(2, 2)
    assert not exists_2rigid(3, 2)  # 6 ordered pairs, only 2 patterns
    assert exists_2rigid(5, 3)
    assert not exists_2rigid(6, 3)
    assert exists_2rigid(59, 4)
    assert not exists_2rigid(60, 4)
    assert sperner_bound_holds(5, 2, 3)
    assert not sperner_bound_holds(6, 2, 3)


def test_max_k_2rigid_table():
    assert [max_k_2rigid(h) for h in range(1, 6)] == [0, 2, 5, 59, 12455]


def test_max_k_agrees_with_existence_predicate():
    assert not exists_2rigid(2, 1)  # no k >= 2 works at h = 1
    for h in range(2, 6):
        m = max_k_2rigid(h)
        assert exists_2rigid(m, h)
        assert not exists_2rigid(m + 1, h)


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


# -- antichains ----------------------------------------------------------------


def test_middle_layer_structure():
    ground = sorted(beta(2, 3, range(2)))  # 6 surjective patterns
    layer = middle_layer(ground)
    assert len(layer.members) == math.comb(6, 3)
    assert all(len(m) == 3 for m in layer.members)
    assert layer.validate_antichain()


def test_middle_layer_two_element_ground():
    ground = sorted(beta(2, 2, range(2)))  # {(0,1), (1,0)}
    layer = middle_layer(ground)
    assert set(layer.members) == {frozenset({(0, 1)}), frozenset({(1, 0)})}


def test_middle_layer_forbidden_and_empty():
    ground = sorted(beta(2, 3, range(2)))  # 6 patterns
    banned = ground[:2]
    layer = middle_layer(ground, forbidden=banned)
    assert len(layer.members) == math.comb(4, 2)
    assert all(not (set(banned) & m) for m in layer.members)
    with pytest.raises(ValueError):
        middle_layer(ground, forbidden=[(9, 9, 9)])
    assert middle_layer(ground, forbidden=ground).members == ()
    assert middle_layer([]).members == ()


def test_middle_layer_capacity_guard():
    ground = sorted(beta(2, 5, range(2)))  # 30 patterns -> C(30,15) sets
    with pytest.raises(CapacityError):
        middle_layer(ground)


def test_antichain_validation_rejects_nested_sets():
    bad = IndexAntichain(2, 3, (frozenset({1}), frozenset({1, 2})))
    assert not bad.validate_antichain()
    good = IndexAntichain(2, 3, (frozenset({1}), frozenset({2})))
    assert good.validate_antichain()


def test_dual_2_swaps_symbols():
    x = frozenset({(0, 0, 1), (0, 1, 1)})
    assert dual_2(x) == frozenset({(1, 1, 0), (1, 0, 0)})
    odd = frozenset({(0, 1)})
    assert dual_2(odd) != odd


# -- abstract traces -----------------------------------------------------------


def test_abstract_trace_round_trip_from_real_trace():
    rho = construct_2rigid(2, 2)
    tm = trace(rho, 2)
    at = AbstractTrace.from_trace_map(tm)
    at.validate()
    assert at.values_strictly_incomparable()
    assert rho_from_trace(at) == rho


def test_abstract_trace_validation_catches_tampering():
    rho = construct_2rigid(5, 3)
    at = AbstractTrace.from_trace_map(trace(rho, 2))
    table = at.as_dict
    # breaking one value kills equivariance
    x0 = next(iter(table))
    tampered = dict(table)
    tampered[x0] = frozenset()
    bad = AbstractTrace.from_dict(2, 3, 5, tampered)
    with pytest.raises(TraceError):
        bad.validate()
    # missing a key breaks totality
    partial = dict(table)
    del partial[x0]
    with pytest.raises(TraceError):
        AbstractTrace.from_dict(2, 3, 5, partial).validate()
    # non-surjective pattern rejected
    wrong = {x: frozenset({(0, 0, 0)}) for x in table}
    with pytest.raises(TraceError):
        AbstractTrace.from_dict(2, 3, 5, wrong).validate()


def test_equivariance_error_names_first_tuple_and_permutation():
    # the tuple x reordered by perm is x[perm[0]], x[perm[1]], ...; the error
    # names the first x in key order, then the first perm in itertools order
    rho = construct_ellrigid(4, 3, 4)
    table = AbstractTrace.from_trace_map(trace(rho, 3)).as_dict
    for tampered_at, named in (
        ((0, 1, 2), "(0, 1, 2) under permutation (0, 2, 1)"),
        ((1, 0, 2), "(0, 1, 2) under permutation (1, 0, 2)"),
        ((2, 3, 1), "(1, 2, 3) under permutation (1, 2, 0)"),
    ):
        tampered = dict(table)
        tampered[tampered_at] = frozenset()
        with pytest.raises(TraceError) as info:
            AbstractTrace.from_dict(3, 4, 4, tampered).validate()
        assert str(info.value) == f"not equivariant at {named}"


def test_values_strictly_incomparable_detects_containment():
    items = {
        (0, 1): frozenset({(0, 1)}),
        (1, 0): frozenset({(0, 1), (1, 0)}),
    }
    at = AbstractTrace.from_dict(2, 2, 2, items)
    assert not at.values_strictly_incomparable()
    items_eq = {
        (0, 1): frozenset({(0, 1)}),
        (1, 0): frozenset({(0, 1)}),
    }
    assert not AbstractTrace.from_dict(2, 2, 2, items_eq).values_strictly_incomparable()


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
        tm = trace(rho, 2)
        at = AbstractTrace.from_trace_map(tm)
        at.validate()
        assert at.values_strictly_incomparable()


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
        assert tm[(b, a)] == dual_2(tm[(a, b)])


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
