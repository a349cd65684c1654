"""Near-total Boolean relations, the escape functions, and the chain."""
from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from rigidrel.kernel import (
    CapacityError,
    PartialFn,
    Relation,
    all_partial_fns,
    is_partial_projection,
    is_trivial,
)
from rigidrel import strongrigid
from rigidrel.preserve import ViolationCertificate, check_certificate, preserves
from rigidrel.strongrigid import (
    PHI_MAX_N,
    _agreement_depth,
    _break_levels,
    _breaks,
    _closure_depths,
    _in_family,
    _row_masks,
    _sweep_levels,
    NoWitnessError,
    NontrivialityWitness,
    chain_inclusion,
    delta,
    delta_preserves,
    excluded_tuple,
    limit_is_trivial_clone,
    phi,
    phi_preserves_all,
    prefix_escape,
    repeat_identifies,
    verify_witness,
    witness_nontrivial,
)

NEG = PartialFn.from_mapping(2, 1, {(0,): 1, (1,): 0})
XOR = PartialFn.from_mapping(
    2, 2, {t: (t[0] + t[1]) % 2 for t in itertools.product(range(2), repeat=2)}
)


# -- the relations ------------------------------------------------------------


def test_excluded_tuple():
    assert excluded_tuple(1, 2) == (1, 0)
    assert excluded_tuple(2, 5) == (1, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        excluded_tuple(0, 2)
    with pytest.raises(ValueError):
        excluded_tuple(2, 2)


def test_delta_misses_exactly_one_tuple():
    for h in range(2, 6):
        for t in range(1, h):
            rel = delta(t, h)
            assert rel.k == 2 and rel.h == h
            assert rel.size == 2**h - 1
            assert excluded_tuple(t, h) not in rel
    assert delta(1, 2).members == ((0, 0), (0, 1), (1, 1))


# -- delta_preserves against the generic checker -------------------------------


# (arity, largest h): every function of that arity at every h up to the
# largest, with the generic checker as the oracle (about 3 s in all)
ORACLE_SIZES = ((1, 5), (2, 5), (3, 3))

# SHA-256 of the reprs of every delta_preserves verdict the cross-check
# computes, concatenated in its loop order (20,583 verdicts)
VERDICTS_SHA256 = "3bb73207157e4d6e010956107c2de84d38b348b7504c58fbfe52e9669dff24d6"


def test_delta_preserves_cross_validated():
    digest = hashlib.sha256()
    for n, h_top in ORACLE_SIZES:
        for f in all_partial_fns(2, n):
            levels = _break_levels(f)
            for h in range(2, h_top + 1):
                for t in range(1, h):
                    rel = delta(t, h)
                    slow = preserves(f, rel)
                    assert _breaks(levels, t, h) == (not slow.preserved), (f, t, h)
                    fast = delta_preserves(f, t, h)
                    digest.update(repr(fast).encode())
                    assert fast.preserved == slow.preserved, (f, t, h)
                    if not fast.preserved:
                        assert check_certificate(fast.certificate, f, rel)
    assert digest.hexdigest() == VERDICTS_SHA256


def _exact_and_sets(rows, top):
    """sets[i]: every AND of exactly i of the rows, for i = 0 .. top,
    built step by step without the fixpoint (sets[0] is the empty AND)."""
    sets = [{-1}]
    for _ in range(top):
        sets.append({a & r for a in sets[-1] for r in rows})
    return sets


def test_in_family_matches_exact_and_sets():
    # the closure levels stop at their fixpoint and _in_family is a
    # threshold on h; this reference builds every AND set and tests every t
    for n in (1, 2, 3):
        full = (1 << n) - 1
        for f in all_partial_fns(2, n):
            masks = [sum(e << j for j, e in enumerate(args)) for args in f.dom]
            ones = [m for m, (_, v) in zip(masks, f.graph) if v == 1]
            zeros = [~m & full for m, (_, v) in zip(masks, f.graph) if v == 0]
            a_sets = _exact_and_sets(ones, 8)
            b_sets = _exact_and_sets(zeros, 8)
            levels = _break_levels(f)
            for h in range(2, 10):
                member = not any(
                    a & b == 0
                    for t in range(1, h)
                    for a in a_sets[t]
                    for b in b_sets[h - t]
                )
                assert _in_family(levels, h) == member, (f, h)
                per_t = not any(_breaks(levels, t, h) for t in range(1, h))
                assert per_t == member, (f, h)


def _all_break_pairs(f):
    """Every breaking pair (i, j), as _break_levels built them before the
    sweeps shared closures: both closures in full, every pair of keys."""
    ones, zeros = _row_masks(f)
    side_b = _closure_depths(zeros).items()
    return frozenset(
        (i, j) for a, i in _closure_depths(ones).items() for b, j in side_b if a & b == 0
    )


def test_sweep_levels_answer_as_every_break_pair():
    levels_of = _sweep_levels()  # one memo across all 6,651 functions
    for n in (1, 2, 3):
        for f in all_partial_fns(2, n):
            levels = levels_of(f)
            assert levels == _break_levels(f), f  # a fresh memo agrees
            pairs = _all_break_pairs(f)
            assert levels <= pairs, f
            for h in range(2, 10):
                assert _in_family(levels, h) == _in_family(pairs, h), (f, h)
                for t in range(1, h):
                    assert _breaks(levels, t, h) == _breaks(pairs, t, h), (f, t, h)


def test_limit_sweep_builds_one_closure_per_row_set(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(rows)
        return _closure_depths(rows)

    monkeypatch.setattr(strongrigid, "_closure_depths", counting)
    assert limit_is_trivial_clone(3)
    first = len(calls)
    # one-row sets and complemented zero-row sets: 2 * (2**2 + 2**4 + 2**8)
    assert 0 < first <= 552
    calls.clear()
    assert limit_is_trivial_clone(3)
    assert len(calls) == first  # the memo does not outlive its sweep


def test_limit_sweep_decides_triviality_once_per_function(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return is_trivial(f)

    monkeypatch.setattr(strongrigid, "is_trivial", counting)
    assert limit_is_trivial_clone(3)
    # the 3**2 + 3**4 + 3**8 functions of arity 1 to 3, once each
    assert len(calls) == 6651


def test_limit_sweep_tests_family_membership_once_per_trivial_function(monkeypatch):
    # membership is a threshold in h, so the top arity 2**3 decides it
    calls = []

    def counting(levels, h):
        calls.append(h)
        return _in_family(levels, h)

    monkeypatch.setattr(strongrigid, "_in_family", counting)
    assert limit_is_trivial_clone(3)
    trivial = sum(is_trivial(f) for n in (1, 2, 3) for f in all_partial_fns(2, n))
    assert calls == [8] * trivial == [8] * 1216


# delta_preserves certificates as the forward pass picked them before the
# verdict moved to the closure levels: (t, h) -> columns, None if preserved
PINNED_CERTIFICATES = {
    "NEG": {
        (1, 2): ((0, 1),),
        (1, 3): ((0, 1, 1),),
        (2, 3): ((0, 0, 1),),
        (1, 4): ((0, 1, 1, 1),),
        (2, 4): ((0, 0, 1, 1),),
        (3, 4): ((0, 0, 0, 1),),
        (1, 5): ((0, 1, 1, 1, 1),),
        (2, 5): ((0, 0, 1, 1, 1),),
        (3, 5): ((0, 0, 0, 1, 1),),
        (4, 5): ((0, 0, 0, 0, 1),),
    },
    "XOR": {
        (1, 2): ((1, 1), (0, 1)),
        (1, 3): ((1, 1, 0), (0, 1, 0)),
        (2, 3): ((1, 0, 0), (0, 1, 0)),
        (1, 4): ((1, 1, 0, 0), (0, 1, 0, 0)),
        (2, 4): ((1, 0, 0, 0), (0, 1, 0, 0)),
        (3, 4): ((1, 0, 0, 0), (0, 1, 1, 0)),
        (1, 5): ((1, 1, 0, 0, 0), (0, 1, 0, 0, 0)),
        (2, 5): ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
        (3, 5): ((1, 0, 0, 0, 0), (0, 1, 1, 0, 0)),
        (4, 5): ((1, 0, 0, 0, 0), (0, 1, 1, 1, 0)),
    },
    "phi(3)": {
        (1, 2): None,
        (1, 3): ((0, 0, 0), (1, 0, 1), (1, 1, 0)),
        (2, 3): None,
        (1, 4): ((0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 1)),
        (2, 4): ((0, 0, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0)),
        (3, 4): None,
        (1, 5): ((0, 0, 0, 0, 0), (1, 0, 1, 0, 0), (1, 1, 0, 1, 1)),
        (2, 5): ((0, 0, 0, 0, 0), (1, 1, 0, 1, 0), (1, 1, 1, 0, 1)),
        (3, 5): ((0, 0, 0, 0, 0), (1, 1, 1, 0, 1), (1, 1, 1, 1, 0)),
        (4, 5): None,
    },
    "phi(4)": {
        (1, 2): None,
        (1, 3): None,
        (2, 3): None,
        (1, 4): ((0, 0, 0, 0), (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)),
        (2, 4): None,
        (3, 4): None,
        (1, 5): ((0, 0, 0, 0, 0), (1, 0, 0, 1, 0), (1, 0, 1, 0, 0), (1, 1, 0, 0, 1)),
        (2, 5): ((0, 0, 0, 0, 0), (1, 1, 0, 0, 1), (1, 1, 0, 1, 0), (1, 1, 1, 0, 0)),
        (3, 5): None,
        (4, 5): None,
    },
}


def test_delta_preserves_pinned_certificates():
    fns = {"NEG": NEG, "XOR": XOR, "phi(3)": phi(3), "phi(4)": phi(4)}
    for name, f in fns.items():
        for h in range(2, 6):
            for t in range(1, h):
                verdict = delta_preserves(f, t, h)
                expected = PINNED_CERTIFICATES[name][t, h]
                if expected is None:
                    assert verdict.preserved, (name, t, h)
                else:
                    assert verdict.certificate == ViolationCertificate(
                        expected, excluded_tuple(t, h)
                    ), (name, t, h)


def test_delta_preserves_identity_and_constants():
    ident = PartialFn.from_mapping(2, 1, {(0,): 0, (1,): 1})
    zero = PartialFn.from_mapping(2, 1, {(0,): 0, (1,): 0})
    one = PartialFn.from_mapping(2, 1, {(0,): 1, (1,): 1})
    for t, h in ((1, 2), (1, 3), (2, 3), (2, 4)):
        assert delta_preserves(ident, t, h).preserved
        assert delta_preserves(zero, t, h).preserved
        assert delta_preserves(one, t, h).preserved


def test_negation_breaks_every_delta():
    for h in (2, 3, 4):
        for t in range(1, h):
            verdict = delta_preserves(NEG, t, h)
            assert not verdict.preserved
            assert check_certificate(verdict.certificate, NEG, delta(t, h))


# -- the escape functions -------------------------------------------------------


def test_phi_shape():
    f = phi(3)
    assert f.n == 3
    assert f.mapping == {(0, 1, 1): 1, (0, 1, 0): 0, (0, 0, 1): 0}
    assert phi(4).mapping == {
        (0, 1, 1, 1): 1,
        (0, 1, 0, 0): 0,
        (0, 0, 1, 0): 0,
        (0, 0, 0, 1): 0,
    }
    with pytest.raises(ValueError):
        phi(2)


def test_phi_is_nontrivial_yet_preserves_all_lower_arities():
    for n in (3, 4):
        f = phi(n)
        assert not is_trivial(f)
        for h in range(1, n):
            assert phi_preserves_all(n, h)
        assert not preserves(f, delta(1, n)).preserved


def test_phi_preserves_all_lower_arities_at_five_and_six():
    for n in (5, 6):
        for h in (1, 2, 3):
            assert phi_preserves_all(n, h)


def test_phi_certificate_against_own_delta():
    # the least violation: a zero column, then for j = 1 .. n-1 the column
    # with ones at rows 0 and n - j, which maps onto the excluded tuple
    for n in range(3, 9):
        verdict = preserves(phi(n), delta(1, n))
        assert not verdict.preserved
        cols = verdict.certificate.columns
        assert cols[0] == (0,) * n
        for j in range(1, n):
            assert cols[j] == tuple(int(i in (0, n - j)) for i in range(n))
        assert verdict.certificate.image == (1,) + (0,) * (n - 1)
        assert check_certificate(verdict.certificate, phi(n), delta(1, n))


def test_phi_preserves_all_rejects_h_not_below_n():
    with pytest.raises(ValueError):
        phi_preserves_all(3, 3)
    with pytest.raises(ValueError):
        phi_preserves_all(4, 0)
    assert phi_preserves_all(6, 5)


# -- every relation of one arity: the closure depth against the sweep ---------


def _sweep_preserves_all(f: PartialFn, h: int) -> bool:
    """The oracle: f against each of the 2**(2**h) h-ary relations on {0, 1}."""
    nbytes = (2**h + 7) // 8
    return all(
        preserves(f, Relation(2, h, m.to_bytes(nbytes, "little"))).preserved
        for m in range(2 ** (2**h))
    )


def _sweep_cases():
    """Every function of arity 1 and 2, and a seeded sample of arity 3."""
    fns = [f for n in (1, 2) for f in all_partial_fns(2, n)]
    return fns + random.Random(20150).sample(list(all_partial_fns(2, 3)), 40)


def test_agreement_depth_matches_relation_sweep():
    for f in _sweep_cases():
        d = _agreement_depth(f)
        for h in (1, 2, 3):
            assert (d is None or h < d) == _sweep_preserves_all(f, h), (f, h)


def test_phi_preserves_all_matches_relation_sweep():
    for n in range(3, 7):
        for h in range(1, min(n, 4)):
            assert phi_preserves_all(n, h) == _sweep_preserves_all(phi(n), h)
    for n in range(3, PHI_MAX_N + 1):
        assert _agreement_depth(phi(n)) == n
        assert all(phi_preserves_all(n, h) for h in range(1, n))


def _copies_no_coordinate(f: PartialFn, rows) -> bool:
    """No coordinate i has r[i] = f(r) on every row r."""
    mapping = f.mapping
    return not any(all(r[i] == mapping[r] for r in rows) for i in range(f.n))


def test_agreement_depth_rows_break_a_relation():
    # found by brute force over row multisets: the fewest rows on which f
    # copies no coordinate; their columns, padded with repeats to any
    # h >= d rows, form an h-ary relation that f breaks
    for f in _sweep_cases() + [phi(n) for n in range(3, 7)]:
        d = _agreement_depth(f)
        if d is None:
            assert is_partial_projection(f)
            continue
        assert not any(
            _copies_no_coordinate(f, rows)
            for rows in itertools.combinations_with_replacement(f.dom, d - 1)
        )
        rows = next(
            rows
            for rows in itertools.combinations_with_replacement(f.dom, d)
            if _copies_no_coordinate(f, rows)
        )
        for h in range(d, d + 3):
            padded = rows + (rows[-1],) * (h - d)
            rel = Relation.from_tuples(2, h, zip(*padded))
            verdict = preserves(f, rel)
            assert not verdict.preserved, (f, h)
            assert check_certificate(verdict.certificate, f, rel), (f, h)


# -- nontriviality witnesses ------------------------------------------------------


def test_witness_for_negation():
    w = witness_nontrivial(NEG)
    assert (w.h, w.t) == (2, 1)
    assert verify_witness(NEG, w)
    data = w.to_json()
    assert data["violated"] == "delta(1,2)"


def test_witness_for_xor():
    w = witness_nontrivial(XOR)
    assert (w.h, w.t) == (4, 2)
    assert verify_witness(XOR, w)


def test_witness_for_phi():
    w = witness_nontrivial(phi(3))
    assert (w.h, w.t) == (3, 1)
    assert verify_witness(phi(3), w)


def test_witness_all_nontrivial_binary_functions():
    for f in all_partial_fns(2, 2):
        if is_trivial(f):
            with pytest.raises(NoWitnessError):
                witness_nontrivial(f)
        else:
            w = witness_nontrivial(f)
            assert verify_witness(f, w)
            assert not delta_preserves(f, w.t, w.h).preserved


def _reference_witness(f):
    """The witness and its replay as written before they transposed rows
    and columns with zip: (witness, does the replay accept it)."""
    ones = sorted(args for args, val in f.graph if val == 1)
    zeros = sorted(args for args, val in f.graph if val == 0)
    rows = tuple(ones + zeros)
    w = NontrivialityWitness(len(rows), len(ones), rows)
    return w, _reference_replay(f, w)


def _reference_replay(f, w):
    if w.h != len(w.rows) or sorted(w.rows) != sorted(f.dom):
        return False
    v = excluded_tuple(w.t, w.h)
    if tuple(f.mapping[r] for r in w.rows) != v:
        return False
    columns = tuple(tuple(r[j] for r in w.rows) for j in range(f.n))
    rho = delta(w.t, w.h)
    if any(c not in rho for c in columns):
        return False
    for i in range(w.h):
        row = tuple(c[i] for c in columns)
        if row not in f.mapping or f.mapping[row] != v[i]:
            return False
    return v not in rho


def test_witness_and_replay_unchanged_on_every_nontrivial_function():
    nontrivial = 0
    for n in (1, 2, 3):
        for f in all_partial_fns(2, n):
            if is_trivial(f):
                continue
            nontrivial += 1
            w = witness_nontrivial(f)
            assert (w, verify_witness(f, w)) == _reference_witness(f) == (w, True), f
            # reordered rows: the image column is no longer the excluded tuple
            for rows in (w.rows[1:] + w.rows[:1], w.rows[::-1]):
                bad = NontrivialityWitness(w.h, w.t, rows)
                assert verify_witness(f, bad) == _reference_replay(f, bad), (f, rows)
    assert nontrivial == 5435


def test_verify_witness_rejects_wrong_shape():
    w = witness_nontrivial(NEG)
    assert not verify_witness(XOR, w)


# -- chain, coordinate-repetition identification, limit ----------------------------


def test_chain_inclusion_small():
    assert chain_inclusion(2, 2)
    assert chain_inclusion(2, 3)
    assert chain_inclusion(3, 2)


def test_chain_inclusion_guard():
    with pytest.raises(CapacityError):
        chain_inclusion(2, 4)
    with pytest.raises(ValueError):
        chain_inclusion(2, 0)  # an empty sweep proves nothing
    with pytest.raises(ValueError):
        chain_inclusion(2, 3, -1)  # so does one that skips every function
    assert chain_inclusion(2, 1, 0)  # the empty function alone
    # the separator phi(h + 1) is bounded as the phi suite bounds phi(n)
    assert chain_inclusion(PHI_MAX_N - 1, 1)
    with pytest.raises(CapacityError):
        chain_inclusion(PHI_MAX_N, 1)


def test_repeat_identification():
    # t = 1 included: chain inclusion at every arity rests on it
    for h in range(2, 6):
        for t in range(1, h):
            assert repeat_identifies(t, h)
    with pytest.raises(ValueError):
        repeat_identifies(0, 2)
    with pytest.raises(ValueError):
        repeat_identifies(2, 2)


def test_prefix_escape():
    for h0 in (2, 3):
        f = prefix_escape(h0)
        assert f.n == h0 + 1
        assert not is_trivial(f)


def test_phi_library_checks_refuse_above_phi_max_n(monkeypatch):
    assert prefix_escape(PHI_MAX_N - 1).n == PHI_MAX_N

    def unbounded(f):
        raise AssertionError("closure built past the guard")

    monkeypatch.setattr(strongrigid, "_agreement_depth", unbounded)
    monkeypatch.setattr(strongrigid, "_break_levels", unbounded)
    with pytest.raises(CapacityError):
        phi_preserves_all(PHI_MAX_N + 1, 3)
    with pytest.raises(CapacityError):
        prefix_escape(PHI_MAX_N)  # its separator is phi(PHI_MAX_N + 1)


def test_limit_is_trivial_clone_arity_two():
    assert limit_is_trivial_clone(2)


def test_limit_capacity_guard():
    with pytest.raises(CapacityError):
        limit_is_trivial_clone(4)
    with pytest.raises(ValueError):
        limit_is_trivial_clone(0)  # an empty sweep proves nothing
