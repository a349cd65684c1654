"""Rigidity decision procedure, reports, traces, and equivariance."""
from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from operator import mul

import pytest

from rigidrel.construct import (
    bound_sides,
    construct_2rigid,
    construct_ellrigid,
    surjection_count,
)
from rigidrel.kernel import (
    CapacityError,
    PartialUnaryFn,
    Relation,
    _surjective_patterns,
    all_partial_unary,
    beta,
    beta_lt,
    mask_bits,
    subsets_colex,
)
from rigidrel import rigidity
from rigidrel.preserve import ppol1, unary_preserves
from rigidrel.rigidity import (
    MAX_PATTERNS,
    MAX_TUPLES,
    EmptyRelationError,
    _pattern_weights,
    _probe_ranks,
    _relabellings,
    _trace_masks,
    RigidityReport,
    brute_force_rigidity,
    f_arrow,
    is_hereditarily_ell_rigid,
    omega_contained,
    omega_member,
    trace,
    trace_incomparability,
    verify_report,
)

LEQ2 = Relation.from_tuples(2, 2, [(0, 0), (0, 1), (1, 1)])
GEQ2 = Relation.from_tuples(2, 2, [(0, 0), (1, 0), (1, 1)])


def enumerate_psi(k: int, ell: int) -> list:
    """Injective unary partial functions with |dom| = ell not below identity,
    in the reference order of canonical witnesses: domains in colex order,
    values in lexicographic order."""
    out = []
    for dmask in subsets_colex(k, ell):
        points = mask_bits(dmask)
        for vals in itertools.permutations(range(k), ell):
            if vals != points:
                out.append(PartialUnaryFn.from_pairs(k, zip(points, vals)))
    return out


def _random_relation(rng: random.Random, k: int, h: int) -> Relation:
    total = k**h
    bits = rng.randrange(1, 2**total)
    return Relation(k, h, bits.to_bytes((total + 7) // 8, "little"))


# -- Omega and Psi -----------------------------------------------------------


def test_omega_member_matches_definition():
    for k in (2, 3):
        for ell in range(1, k + 1):
            for f in all_partial_unary(k):
                expected = f.below_identity or len(f.img) < ell
                assert omega_member(f, ell) == expected


def test_omega_class_validation():
    f = PartialUnaryFn(2, (0, 1))
    with pytest.raises(ValueError):
        omega_member(f, 3)
    with pytest.raises(ValueError):
        omega_member(f, 0)


def test_enumerate_psi_counts():
    # |Psi_ell(k)| = C(k, ell) * (falling factorial - 1)
    for k in (2, 3, 4):
        for ell in range(1, k + 1):
            fns = enumerate_psi(k, ell)
            expected = math.comb(k, ell) * (math.perm(k, ell) - 1)
            assert len(fns) == expected
            assert len(set(fns)) == len(fns)
            for f in fns:
                assert f.is_injective
                assert len(f.dom) == ell
                assert not f.below_identity


def test_enumerate_psi_small_cases():
    assert [f.table for f in enumerate_psi(2, 2)] == [(1, 0)]
    assert len(enumerate_psi(2, 1)) == 2  # 0 -> 1 and 1 -> 0
    assert len(enumerate_psi(3, 2)) == 15


def test_psi_and_omega_partition_unary_functions():
    # Omega and Psi are disjoint; every injective non-identity-like map of
    # domain size ell lands in exactly one of them
    for k in (2, 3):
        for ell in range(1, k + 1):
            psi = set(enumerate_psi(k, ell))
            for f in all_partial_unary(k):
                in_psi = f in psi
                if in_psi:
                    assert not omega_member(f, ell)
                if len(f.dom) == ell and f.is_injective and not f.below_identity:
                    # full image of size ell: omega_member can still hold
                    # only via below_identity, excluded above
                    assert in_psi == (len(f.img) == ell)


# -- reports and the main decision procedure ---------------------------------


def test_leq_is_two_rigid_with_positive_report():
    report = is_hereditarily_ell_rigid(LEQ2, 2)
    assert report.verdict
    assert report.failing_function is None and report.failing_side is None
    assert verify_report(LEQ2, 2, report)


def test_full_relation_fails_with_psi_witness():
    full = Relation.full(2, 2)
    report = is_hereditarily_ell_rigid(full, 2)
    assert not report.verdict
    assert report.failing_side == "psi"
    assert report.failing_function.table == (1, 0)
    assert verify_report(full, 2, report)


def test_omega_side_failure_is_witnessed():
    # a relation missing a diagonal tuple fails Omega-containment at ell = 2
    rho = Relation.from_tuples(2, 2, [(0, 1), (1, 1)])
    report = is_hereditarily_ell_rigid(rho, 2)
    assert not report.verdict
    assert report.failing_side == "omega"
    f = report.failing_function
    assert omega_member(f, 2)
    assert not unary_preserves(f, rho).preserved
    assert verify_report(rho, 2, report)


def test_no_relation_is_one_rigid():
    # Psi_1 never empties out: some constant or point-map always preserves
    for k, h in ((2, 1), (2, 2), (3, 2)):
        for _ in range(10):
            rho = _random_relation(random.Random(k * 100 + h), k, h)
            report = is_hereditarily_ell_rigid(rho, 1)
            assert not report.verdict
            assert verify_report(rho, 1, report)


def test_reports_always_replay():
    rng = random.Random(97)
    for k, h in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for _ in range(15):
            rho = _random_relation(rng, k, h)
            for ell in range(1, k + 1):
                report = is_hereditarily_ell_rigid(rho, ell)
                assert verify_report(rho, ell, report)


def test_verify_report_rejects_wrong_witness():
    # a report whose function actually preserves the relation must not verify
    ident = PartialUnaryFn.identity(2)
    bogus = RigidityReport(False, failing_function=ident, failing_side="psi")
    assert not verify_report(LEQ2, 2, bogus)


def test_empty_relation_and_bad_ell_rejected():
    with pytest.raises(EmptyRelationError):
        is_hereditarily_ell_rigid(Relation.empty(2, 2), 2)
    with pytest.raises(EmptyRelationError):
        brute_force_rigidity(Relation.empty(2, 2), 2)
    with pytest.raises(ValueError):
        is_hereditarily_ell_rigid(LEQ2, 3)  # ell > k
    with pytest.raises(ValueError):
        is_hereditarily_ell_rigid(LEQ2, 0)


def test_agrees_with_brute_force_spot_checks():
    rng = random.Random(41)
    for k, h in ((2, 2), (3, 2)):
        for _ in range(25):
            rho = _random_relation(rng, k, h)
            for ell in range(1, k + 1):
                fast = is_hereditarily_ell_rigid(rho, ell).verdict
                assert fast == brute_force_rigidity(rho, ell)


def test_brute_force_definition():
    # pPol restricted to unary functions must equal Omega exactly
    assert brute_force_rigidity(LEQ2, 2)
    assert ppol1(LEQ2) == frozenset(
        f for f in all_partial_unary(2) if omega_member(f, 2)
    )
    assert not brute_force_rigidity(Relation.full(2, 2), 2)


def test_brute_force_capacity_guard():
    with pytest.raises(CapacityError):
        brute_force_rigidity(Relation.diagonal(6, 1), 2)


def test_decision_refuses_past_the_pattern_and_tuple_limits(monkeypatch):
    # each size is the smallest refused, with the largest admitted below it
    assert 3**12 <= MAX_PATTERNS < 2**20 and 1448 * 1447 <= MAX_TUPLES < 1449 * 1448
    for k, h, m in ((2, 19, 2), (3, 12, 3), (1448, 2, 2), (2**21, 1, 1)):
        columns = _pattern_weights.__wrapped__(k, h, m)
        assert len(columns) == m and {len(c) for c in columns} == {surjection_count(h, m)}
    with monkeypatch.context() as mp:

        def unbounded(*args):
            raise AssertionError("weight columns built past the guard")

        mp.setattr(rigidity, "add", unbounded)  # the weight columns are summed with it
        for k, h, m in ((2, 20, 2), (3, 13, 3), (1449, 2, 2), (2**16, 1, 1000)):
            with pytest.raises(CapacityError):
                _pattern_weights.__wrapped__(k, h, m)
    # end to end: omega containment holds, and the trace is refused
    for rho, ell in (
        (Relation.diagonal(2, 20), 2),
        (Relation.from_tuples(3, 13, beta_lt(3, 13, range(3))), 3),
        (Relation.diagonal(1449, 2), 2),
    ):
        with pytest.raises(CapacityError):
            is_hereditarily_ell_rigid(rho, ell)


# -- omega containment and orbit closure -------------------------------------


def test_omega_contained_ell2_means_diagonal():
    rng = random.Random(3)
    for k, h in ((2, 2), (3, 2), (3, 3)):
        diag = Relation.diagonal(k, h)
        for _ in range(20):
            rho = _random_relation(rng, k, h)
            report = omega_contained(rho, 2)
            has_diag = all(d in rho for d in diag.members)
            assert report.verdict == has_diag
            if not report.verdict:
                assert verify_report(rho, 2, report)


def test_omega_witness_on_diagonal_deletions():
    # the first missing diagonal tuple gives the constant map; the first
    # member in rank order, also past leading zero bytes, is the witness
    rng = random.Random(30)
    for k, h in ((5, 3), (10, 4), (30, 4)):
        rho = construct_2rigid(k, h)
        for _ in range(4):
            gone = {
                sum(c * k**i for i in range(h)) for c in rng.sample(range(k), 2)
            } | set(range(rng.choice((0, 9, 40))))
            cut = Relation.from_ranks(k, h, set(rho.ranks) - gone)
            c = next(c for c in range(k) if (c,) * h not in cut)
            u = cut.members[0]
            report = is_hereditarily_ell_rigid(cut, 2)
            assert (report.failing_side, report.witness) == ("omega", u)
            assert report.failing_function == PartialUnaryFn.from_pairs(k, ((x, c) for x in u))
            assert verify_report(cut, 2, report)
    # pinned: k = 5, h = 3 with the diagonal tuples of 0 and 3 deleted
    cut = Relation.from_ranks(5, 3, set(construct_2rigid(5, 3).ranks) - {0, 93})
    report = omega_contained(cut, 2)
    assert report.witness == (0, 0, 1)
    assert report.failing_function.table == (0, 0, None, None, None)


def test_omega_contained_general_ell():
    # at ell = 3 a member with two distinct entries can be collapsed to
    # any 2-or-fewer-valued image; all collapses must stay inside
    rho = Relation.from_tuples(3, 2, [(0, 1), (1, 0)])
    report = omega_contained(rho, 3)
    assert not report.verdict  # collapsing (0,1) to (0,0) escapes
    good = Relation.from_tuples(3, 2, set(rho.members) | beta_lt(3, 2, range(3)))
    assert omega_contained(good, 3).verdict


# -- traces -------------------------------------------------------------------


def _naive_trace(rho: Relation, ell: int):
    patterns = sorted(beta(ell, rho.h, range(ell))) if ell <= rho.h else []
    out = {}
    for x in sorted(beta(ell, ell, range(rho.k))):
        out[x] = frozenset(
            p for p in patterns if tuple(x[i] for i in p) in rho
        )
    return out


def _probed_masks(rho: Relation, ell: int) -> dict:
    """Every injective tuple probed directly: bit i is the i-th sorted
    surjective pattern composed with the tuple."""
    patterns = sorted(
        p for p in itertools.product(range(ell), repeat=rho.h) if len(set(p)) == ell
    )
    return {
        y: sum(1 << i for i, p in enumerate(patterns) if tuple(y[j] for j in p) in rho)
        for y in itertools.permutations(range(rho.k), ell)
    }


def test_trace_masks_match_direct_probes():
    # covers ell = h, ell > h (every mask 0) and ell = k
    rng = random.Random(6)
    for k in range(2, 7):
        for h in range(1, 5 if k < 6 else 4):
            for ell in range(2, min(k, 4) + 1):
                for _ in range(3):
                    rho = _random_relation(rng, k, h)
                    assert _trace_masks(rho, ell) == _probed_masks(rho, ell)
                    keys = trace(rho, ell).keys()
                    assert keys == list(itertools.permutations(range(k), ell))


def test_probe_ranks_match_direct_ranks():
    # covers ell = h, ell > h (no patterns, so every list is empty) and ell = k
    for k in range(2, 7):
        for h in range(1, 5):
            for ell in range(1, min(k, 4) + 1):
                weights = [
                    [sum(k ** (h - 1 - i) for i, e in enumerate(p) if e == j) for j in range(ell)]
                    for p in _surjective_patterns(h, ell)
                ]
                direct = [
                    [sum(map(mul, x, w)) for w in weights]
                    for x in itertools.combinations(range(k), ell)
                ]
                assert list(_probe_ranks(k, h, ell)) == direct


class _CountingMask(bytes):
    """A relation mask that counts the bytes read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("k,ell,h", [(6, 2, 3), (5, 3, 4), (4, 4, 4), (5, 4, 3)])
def test_trace_masks_probe_only_increasing_tuples(k, ell, h):
    rho = _random_relation(random.Random(k * ell * h), k, h)
    mask = _CountingMask(rho.mask)
    counted = Relation(k, h, mask)
    mask.reads = 0
    assert _trace_masks(counted, ell) == _probed_masks(rho, ell)
    s = len(list(beta(ell, h, range(ell)))) if ell <= h else 0
    assert mask.reads == math.comb(k, ell) * s


def test_relabellings_hold_about_one_pointer_per_entry():
    # each of the ell! maps indexes every surjective pattern; with a fresh
    # int per index the table at (5, 6) retained about 36 bytes an entry
    ell, h = 5, 6
    patterns = len(_surjective_patterns(h, ell))  # cached outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tables = _relabellings.__wrapped__(ell, h)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tables) == math.factorial(ell)
    assert retained / (len(tables) * patterns) <= 16


def test_trace_of_leq():
    tm = trace(LEQ2, 2)
    assert tm[(0, 1)] == frozenset({(0, 1)})
    assert tm[(1, 0)] == frozenset({(1, 0)})
    assert tm.keys() == [(0, 1), (1, 0)]


def test_trace_matches_naive():
    rng = random.Random(59)
    for k, h in ((2, 2), (3, 2), (3, 3), (3, 4)):
        for ell in range(2, k + 1):
            for _ in range(6):
                rho = _random_relation(rng, k, h)
                tm = trace(rho, ell)
                assert tm.as_dict == _naive_trace(rho, ell)


def test_trace_equivariance_seeded():
    rng = random.Random(1234)
    for _ in range(200):
        k = 3
        ell = rng.choice((2, 3))
        h = rng.randrange(2, 5)
        rho = _random_relation(rng, k, h)
        tm = trace(rho, ell)
        xs = tm.keys()
        x = xs[rng.randrange(len(xs))]
        perm = list(range(ell))
        rng.shuffle(perm)
        x_perm = tuple(x[p] for p in perm)
        pats = sorted(beta(ell, h, range(ell))) if ell <= h else []
        for i_pat in pats:
            lhs = i_pat in tm[x_perm]
            rhs = tuple(perm[e] for e in i_pat) in tm[x]
            assert lhs == rhs


def test_f_arrow():
    f = f_arrow((0, 1), (2, 1), 3)
    assert f.table == (2, 1, None)
    with pytest.raises(ValueError):
        f_arrow((0, 0), (1, 2), 3)
    with pytest.raises(ValueError):
        f_arrow((0, 1), (1,), 3)


def test_trace_incomparability_on_known_cases():
    assert trace_incomparability(LEQ2, 2)
    assert trace_incomparability(GEQ2, 2)
    # full relation: both traces equal the full pattern set -> comparable
    assert not trace_incomparability(Relation.full(2, 2), 2)
    # diagonal only: both traces empty -> comparable (equal)
    assert not trace_incomparability(Relation.diagonal(2, 2), 2)


def test_incomparability_criterion_equals_rigidity_given_omega():
    # within Omega-contained relations, strict incomparability == rigidity
    for bits in range(1, 2**9):
        rho = Relation(3, 2, bits.to_bytes(2, "little"))
        if not omega_contained(rho, 2).verdict:
            continue
        assert trace_incomparability(rho, 2) == is_hereditarily_ell_rigid(rho, 2).verdict


def test_comparable_masks_match_a_pairwise_reference():
    rng = random.Random(41)
    for n in (0, 1, 2, 3, 6, 12, 40):
        for width in (1, 3, 6, 14):
            for repeats in (False, True):
                masks = [rng.randrange(1 << width) for _ in range(n)]
                if repeats and masks:
                    masks += rng.choices(masks, k=rng.randrange(1, 4))
                    rng.shuffle(masks)
                expected = {
                    a for i, a in enumerate(masks)
                    if any(a & ~b == 0 for j, b in enumerate(masks) if j != i)
                }
                assert rigidity.comparable_masks(masks) == expected
    assert rigidity.comparable_masks([5, 9, 5]) == {5}
    assert rigidity.comparable_masks([5, 9, 6]) == set()


# -- canonical witnesses ------------------------------------------------------


def _first_omega_failure(rho: Relation, ell: int):
    """First member in rank order that some collapse g breaks, with the
    first such g: values on the sorted support in lex order, fewer than
    ell of them.  The members are found by probing every tuple in lex
    order, which is rank order, not by the mask walk."""
    for u in itertools.product(range(rho.k), repeat=rho.h):
        if u not in rho:
            continue
        support = sorted(set(u))
        for vals in itertools.product(range(rho.k), repeat=len(support)):
            g = dict(zip(support, vals))
            if len(set(vals)) < ell and tuple(g[e] for e in u) not in rho:
                return PartialUnaryFn.from_pairs(rho.k, g.items()), u
    return None


def _assert_omega_canonical(rho: Relation, ell: int):
    # at ell = 1 no function but the empty one has fewer than ell values
    assert omega_contained(rho, 1) == RigidityReport(True)
    report = omega_contained(rho, ell)
    expected = _first_omega_failure(rho, ell)
    if expected is None:
        assert report.verdict and report.failing_function is None
        return
    f, u = expected
    assert not report.verdict
    got = (report.failing_side, report.failing_function, report.witness)
    assert got == ("omega", f, u)


@pytest.mark.parametrize(
    "k,h,ell", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 2, 3), (4, 2, 3)]
)
def test_omega_failure_canonical_exhaustive(k, h, ell):
    for bits in range(1, 2 ** (k**h)):
        _assert_omega_canonical(Relation(k, h, bits.to_bytes((k**h + 7) // 8, "little")), ell)


@pytest.mark.parametrize(
    "k,h,ell", [(3, 3, 3), (4, 2, 3), (4, 2, 4), (4, 3, 3), (5, 2, 4), (4, 3, 4)]
)
def test_omega_failure_canonical_sampled(k, h, ell):
    # a third of the sample holds every low-diversity tuple, so omega
    # containment holds; another third misses one of them, so only members
    # whose kernel that tuple coarsens fail, and the walk may pass others
    rng = random.Random(100 * k + 10 * h + ell)
    low = sorted(beta_lt(ell, h, range(k)))
    for i in range(300):
        members = set(_random_relation(rng, k, h).members)
        if i % 3:
            members |= set(low)
        if i % 3 == 2:
            members.discard(rng.choice(low))
        if members:
            _assert_omega_canonical(Relation.from_tuples(k, h, members), ell)


def _assert_canonical_witness(rho: Relation, ell: int, psi: list):
    report = is_hereditarily_ell_rigid(rho, ell)
    omega = _first_omega_failure(rho, ell)
    if omega is not None:
        assert report.failing_side == "omega"
        assert (report.failing_function, report.witness) == omega
        return
    first = next((f for f in psi if unary_preserves(f, rho).preserved), None)
    if first is None:
        assert report.verdict
    else:
        assert report.failing_side == "psi"
        assert report.failing_function == first


@pytest.mark.parametrize(
    "k,h,ell", [(2, 3, 2), (3, 2, 2), (4, 2, 3), (3, 2, 1), (2, 3, 1)]
)
def test_canonical_witness_exhaustive(k, h, ell):
    psi = enumerate_psi(k, ell)
    for bits in range(1, 2 ** (k**h)):
        rho = Relation(k, h, bits.to_bytes((k**h + 7) // 8, "little"))
        _assert_canonical_witness(rho, ell, psi)


def test_canonical_witness_sampled():
    # half of the sample contains every low-diversity tuple, so omega
    # containment holds there and the psi side is reached
    rng = random.Random(2015)
    k, h, ell = 3, 3, 3
    psi = enumerate_psi(k, ell)
    low = beta_lt(ell, h, range(k))
    for i in range(500):
        rho = _random_relation(rng, k, h)
        if i % 2:
            rho = Relation.from_tuples(k, h, set(rho.members) | low)
        _assert_canonical_witness(rho, ell, psi)


def test_canonical_witness_sampled_ell1():
    # at ell = 1 only the k diagonal tuples matter, and 300 random
    # relations cover each of their 16 patterns here
    rng = random.Random(421)
    psi = enumerate_psi(4, 1)
    for _ in range(300):
        _assert_canonical_witness(_random_relation(rng, 4, 2), 1, psi)


def _reference_psi_witness(rho: Relation, ell: int):
    """From every injective tuple probed directly: the colex-first
    increasing x whose mask another tuple's mask contains, and the
    lex-first such y; None when the masks are strictly incomparable."""
    masks = _probed_masks(rho, ell)
    for x in map(mask_bits, subsets_colex(rho.k, ell)):
        for y in itertools.permutations(range(rho.k), ell):
            if y != x and masks[x] & ~masks[y] == 0:
                return x, y
    return None


def test_canonical_witness_matches_probed_reference():
    # omega containment holds in every sample, so the psi side decides.  Of
    # each four samples, one is one or two tuples away from a construction,
    # so rigid relations and late witnesses are met, and one is at k = 4 or
    # 5 with h = ell = 3, where the lex-first y most often comes from a
    # reordered block and starts like an increasing candidate
    rng = random.Random(4400)
    sizes = [(k, h) for k in range(2, 8) for h in range(1, 9) if k**h <= 5000]
    seen = {"rigid": 0, "psi": 0}
    for i in range(600):
        k, h = rng.choice(sizes) if i % 4 != 1 else (rng.choice((4, 5)), 3)
        ell = rng.randrange(1, min(k, 5) + 1) if i % 4 != 1 else 3
        density = rng.random()
        members = {t for t in itertools.product(range(k), repeat=h) if rng.random() < density}
        buildable = 2 <= ell < h and bound_sides(k, ell, h)[0] <= bound_sides(k, ell, h)[2]
        if i % 4 == 0 and buildable:
            rho = construct_2rigid(k, h) if ell == 2 else construct_ellrigid(k, ell, h)
            toggled = set(rho.ranks) ^ set(rng.sample(range(k**h), i % 3 + 1))
            members = set(Relation.from_ranks(k, h, toggled).members)
        rho = Relation.from_tuples(k, h, members | beta_lt(ell, h, range(k)))
        if rho.is_empty:  # possible at ell = 1, where no tuple is added
            continue
        report = is_hereditarily_ell_rigid(rho, ell)
        expected = _reference_psi_witness(rho, ell)
        if expected is None:
            assert report.verdict
            seen["rigid"] += 1
        else:
            assert report.failing_side == "psi"
            assert report.failing_function == f_arrow(*expected, k)
            seen["psi"] += 1
        assert trace_incomparability(rho, ell) == report.verdict
    assert min(seen.values()) >= 100


@pytest.mark.parametrize("k,ell,h", [(5, 2, 3), (4, 3, 4)])
def test_canonical_witness_one_tuple_from_a_construction(k, ell, h):
    # toggling one tuple of a rigid relation moves the first preserving
    # function across the whole candidate order
    rho = construct_2rigid(k, h) if ell == 2 else construct_ellrigid(k, ell, h)
    psi = enumerate_psi(k, ell)
    members = set(rho.ranks)
    for r in random.Random(k**h).sample(range(k**h), 96):
        _assert_canonical_witness(Relation.from_ranks(k, h, members ^ {r}), ell, psi)
