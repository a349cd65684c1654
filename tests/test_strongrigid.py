"""Near-total Boolean relations, the escape functions, and the chain."""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
import random
from collections import Counter
from operator import add

import pytest

from rigidrel import kernel
from rigidrel.kernel import (
    CapacityError,
    DomainMismatchError,
    PartialFn,
    Relation,
    all_partial_fns,
    is_partial_projection,
    is_trivial,
)
from rigidrel import strongrigid
from rigidrel.preserve import (
    PreservationVerdict,
    ViolationCertificate,
    check_certificate,
    preserves,
)
from rigidrel.strongrigid import (
    PHI_MAX_N,
    _agreement_depth,
    _agreement_mask,
    _closure_depths,
    _depth_rows,
    _minimal_nontrivial,
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


def _depths(n):
    """(f, d1, d2) for every f of arity n, in all_partial_fns order, from
    one set of depth tables."""
    for f, one, zero in _depth_rows(n):
        yield f, min(map(add, one, zero)), min(map(max, one, zero))


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
        for f, d1, d2 in _depths(n):
            for h in range(2, h_top + 1):
                in_family = True
                for t in range(1, h):
                    rel = delta(t, h)
                    slow = preserves(f, rel)
                    in_family = in_family and slow.preserved
                    if 2 * t == h:
                        assert (t >= d2) == (not slow.preserved), (f, t, h)
                    fast = delta_preserves(f, t, h)
                    digest.update(repr(fast).encode())
                    assert fast.preserved == slow.preserved, (f, t, h)
                    if not fast.preserved:
                        assert check_certificate(fast.certificate, f, rel)
                assert (h < d1) == in_family, (f, h)
    assert digest.hexdigest() == VERDICTS_SHA256


def _exact_and_sets(rows, top):
    """sets[i]: every AND of exactly i of the rows, for i = 0 .. top,
    built step by step without the fixpoint (sets[0] is the empty AND)."""
    sets = [{-1}]
    for _ in range(top):
        sets.append({a & r for a in sets[-1] for r in rows})
    return sets


def test_depths_match_exact_and_sets():
    # the closures stop at their fixpoint and membership is a threshold on
    # h; this reference builds every AND set and tests every t
    for n in (1, 2, 3):
        full = (1 << n) - 1
        for f, d1, d2 in _depths(n):
            masks = [sum(e << j for j, e in enumerate(args)) for args in f.dom]
            ones = [m for m, (_, v) in zip(masks, f.graph) if v == 1]
            zeros = [~m & full for m, (_, v) in zip(masks, f.graph) if v == 0]
            a_sets = _exact_and_sets(ones, 8)
            b_sets = _exact_and_sets(zeros, 8)
            for h in range(2, 10):
                member = not any(
                    a & b == 0
                    for t in range(1, h)
                    for a in a_sets[t]
                    for b in b_sets[h - t]
                )
                assert (h < d1) == member, (f, h)
            for m in range(1, 5):  # delta(m, 2m) up to 2m = 8
                breaks = any(a & b == 0 for a in a_sets[m] for b in b_sets[m])
                assert (m >= d2) == breaks, (f, m)


def _all_break_pairs(f):
    """Every breaking pair (i, j), as the sweeps built them before they
    shared closures: both closures of f in full, every pair of keys."""
    ones = [_agreement_mask(args, 1) for args, v in f.graph if v == 1]
    zeros = [_agreement_mask(args, 0) for args, v in f.graph if v == 0]
    side_b = _closure_depths(zeros).items()
    return frozenset(
        (i, j) for a, i in _closure_depths(ones).items() for b, j in side_b if a & b == 0
    )


def test_depth_tables_answer_as_every_break_pair():
    for n in (1, 2, 3):
        for f, d1, d2 in _depths(n):  # one set of tables per arity
            pairs = _all_break_pairs(f)
            if pairs:
                assert d1 == min(i + j for i, j in pairs), f
                assert d2 == min(max(i, j) for i, j in pairs), f
            else:  # above every h a sweep compares, the chain's included
                assert min(d1, d2) > PHI_MAX_N, f


def test_limit_sweep_builds_one_closure_per_row_set(monkeypatch):
    # the limit decides each delta(t, h) by delta_preserves' forward pass and
    # builds no closure; the chain's sweep builds the one-side and zero-side
    # closures once per row set, 2 * (2**2 + 2**4 + 2**8), and its tables do
    # not outlive the sweep
    calls = []

    def counting(rows):
        calls.append(rows)
        return _closure_depths(rows)

    monkeypatch.setattr(strongrigid, "_closure_depths", counting)
    assert limit_is_trivial_clone(3)
    assert calls == []
    assert chain_inclusion(2, 3)
    first = len(calls)
    assert first == 552 + 1  # and one for the separator phi(3)'s agreement depth
    calls.clear()
    assert chain_inclusion(2, 3)
    assert len(calls) == first


def test_limit_sweep_decides_triviality_once_per_function(monkeypatch):
    # the enumeration decides each candidate of 2 to n + 1 rows once, and
    # witness_nontrivial's own guard decides the 65 minimal ones again
    minimal = {(n, g.graph) for n in (1, 2, 3) for g in _minimal_nontrivial(n)}
    calls = Counter()

    def counting(f):
        calls[f.n, f.graph] += 1
        return is_trivial(f)

    monkeypatch.setattr(strongrigid, "is_trivial", counting)
    assert limit_is_trivial_clone(3)
    candidates = sum(
        math.comb(2**n, size) * 2**size for n in (1, 2, 3) for size in range(2, n + 2)
    )
    assert candidates == 4 + 56 + 1680
    assert len(calls) == candidates
    assert {key for key, c in calls.items() if c != 1} == minimal
    assert set(calls.values()) == {1, 2}
    assert sum(calls.values()) == candidates + 65


def test_limit_sweep_tests_family_membership_once_per_trivial_function(monkeypatch):
    # membership passes down to subfunctions, so delta_preserves is asked
    # about the n + 2 total projections and constants of each arity only,
    # once per pair 1 <= t < h <= 2**3; every other question is about a
    # minimal nontrivial function and a delta(m, 2m)
    minimal = {g for n in (1, 2, 3) for g in _minimal_nontrivial(n)}
    calls = []

    def counting(f, t, h):
        calls.append((f, t, h))
        return delta_preserves(f, t, h)

    monkeypatch.setattr(strongrigid, "delta_preserves", counting)
    assert limit_is_trivial_clone(3)
    pairs = {(t, h) for h in range(2, 9) for t in range(1, h)}
    trivial = [(f.n, f.graph, t, h) for f, t, h in calls if is_trivial(f)]
    tops = {(n, graph) for n, graph, _, _ in trivial}
    assert len(trivial) == len(set(trivial)) == len(tops) * len(pairs) == 12 * 28
    assert all(len(graph) == 2**n for n, graph in tops)
    assert {(t, h) for _, _, t, h in trivial} == pairs
    rest = [(f, t, h) for f, t, h in calls if not is_trivial(f)]
    assert {f for f, _, _ in rest} == minimal
    assert all(h == 2 * t <= 8 for _, t, h in rest)


def test_limit_reads_no_sweep(monkeypatch):
    def refuse(*args):
        raise AssertionError("the limit swept every function")

    replays = []

    def counting(f, w):
        replays.append(f)
        return verify_witness(f, w)

    monkeypatch.setattr(strongrigid, "all_partial_fns", refuse)
    monkeypatch.setattr(kernel, "all_partial_fns", refuse)
    monkeypatch.setattr(strongrigid, "_depth_tables", refuse)
    monkeypatch.setattr(strongrigid, "verify_witness", counting)
    assert limit_is_trivial_clone(3)
    assert len(replays) == 1 + 7 + 57  # the minimal nontrivial functions


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


@functools.lru_cache(maxsize=None)
def _all_relations(k: int, h: int) -> tuple:
    """The 2**(k**h) h-ary relations on {0..k-1}."""
    nbytes = (k**h + 7) // 8
    return tuple(Relation(k, h, m.to_bytes(nbytes, "little")) for m in range(2 ** (k**h)))


def _sweep_preserves_all(f: PartialFn, h: int) -> bool:
    """The oracle: f against each h-ary relation on its base set."""
    return all(preserves(f, rel).preserved for rel in _all_relations(f.k, h))


def _sweep_cases():
    """Every function of arity 1 and 2, and a seeded sample of arity 3."""
    fns = [f for n in (1, 2) for f in all_partial_fns(2, n)]
    return fns + random.Random(20150).sample(list(all_partial_fns(2, 3)), 40)


def test_agreement_depth_matches_relation_sweep():
    for f in _sweep_cases():
        d = _agreement_depth(f)
        for h in (1, 2, 3):
            assert (d is None or h < d) == _sweep_preserves_all(f, h), (f, h)


def _random_binary_on_three(rng) -> PartialFn:
    """A binary partial function on {0, 1, 2}, each input undefined with
    probability 1/2, so that small domains, which preserve more, are common."""
    picks = {args: rng.randrange(6) for args in itertools.product(range(3), repeat=2)}
    return PartialFn.from_mapping(3, 2, {args: v for args, v in picks.items() if v < 3})


def test_agreement_depth_matches_relation_sweep_at_k3():
    # d(f) reads only the rows of dom(f), so the criterion holds on any
    # base set: here every unary and 400 binary functions on {0, 1, 2},
    # against all 8 unary and 512 binary relations
    rng = random.Random(1981)
    fns = list(all_partial_fns(3, 1)) + [_random_binary_on_three(rng) for _ in range(400)]
    for f in fns:
        d = _agreement_depth(f)
        for h in (1, 2):
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


def test_verify_witness_refuses_other_base_sets():
    # rows outside {0, 1} and rows inside it alike, as witness_nontrivial
    # and delta_preserves refuse k != 2
    for mapping in ({(0,): 1, (2,): 0}, {(0,): 1, (1,): 0}):
        f = PartialFn.from_mapping(3, 1, mapping)
        with pytest.raises(DomainMismatchError):
            verify_witness(f, NontrivialityWitness(2, 1, tuple(mapping)))


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


def test_chain_fails_when_its_separator_fails(monkeypatch):
    # phi(h + 1) must preserve every h-ary relation and break delta(1, h + 1)
    assert chain_inclusion(2, 1)
    with monkeypatch.context() as m:
        m.setattr(strongrigid, "phi_preserves_all", lambda n, h: False)
        assert chain_inclusion(2, 1) is False
    with monkeypatch.context() as m:
        m.setattr(strongrigid, "delta_preserves", lambda f, t, h: PreservationVerdict(True))
        assert chain_inclusion(2, 1) is False


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
    with pytest.raises(CapacityError):
        phi_preserves_all(PHI_MAX_N + 1, 3)
    with pytest.raises(CapacityError):
        prefix_escape(PHI_MAX_N)  # its separator is phi(PHI_MAX_N + 1)
    with pytest.raises(CapacityError):
        phi(PHI_MAX_N + 1)
    with pytest.raises(CapacityError):
        phi(2**64)  # refused before any of its rows is built


def test_limit_is_trivial_clone_arity_two():
    assert limit_is_trivial_clone(2)


# arity -> {domain size: number of minimal nontrivial functions}
MINIMAL_SIZES = {1: {2: 1}, 2: {2: 5, 3: 2}, 3: {2: 19, 3: 36, 4: 2}}


def test_minimal_nontrivial_functions_match_brute_force():
    for n, sizes in MINIMAL_SIZES.items():
        nontrivial = {f.graph for f in all_partial_fns(2, n) if not is_trivial(f)}
        rows = set(itertools.product((0, 1), repeat=n))
        for g in nontrivial:  # nontriviality passes up, so one-row deletions decide
            for row, v in itertools.product(rows - {args for args, _ in g}, (0, 1)):
                assert tuple(sorted(g + ((row, v),))) in nontrivial
        brute = {
            g
            for g in nontrivial
            if not any(g[:i] + g[i + 1 :] in nontrivial for i in range(len(g)))
        }
        found = list(_minimal_nontrivial(n))
        assert len(found) == len(brute) == sum(sizes.values())
        assert {g.graph for g in found} == brute
        assert Counter(len(g.graph) for g in found) == sizes
        assert all(len(g.graph) <= n + 1 for g in found)
        # each breaks delta(m, 2m) already at m = n, below 2**n // 2 at n = 3
        assert not any(delta_preserves(g, n, 2 * n).preserved for g in found)


def test_both_lemmas_hold_exhaustively():
    # every trivial f lies below one of the n + 2 maximal trivial functions,
    # with a d1 no smaller; every nontrivial f lies above a minimal one,
    # with a d2 no larger
    for n in (1, 2, 3):
        fns = list(_depths(n))
        depths = {f.graph: (d1, d2) for f, d1, d2 in fns}
        rows = list(itertools.product((0, 1), repeat=n))
        tables = list(zip(*rows)) + [(0,) * 2**n, (1,) * 2**n]
        tops = [tuple(zip(rows, values)) for values in tables]
        bottoms = [g.graph for g in _minimal_nontrivial(n)]
        assert len(tops) == n + 2 and len(bottoms) == sum(MINIMAL_SIZES[n].values())
        for f, d1, d2 in fns:
            graph = set(f.graph)
            if is_trivial(f):
                assert any(graph <= set(g) and d1 >= depths[g][0] for g in tops), f
            else:
                assert any(set(g) <= graph and d2 <= depths[g][1] for g in bottoms), f


def test_limit_fails_when_a_step_of_the_proof_fails(monkeypatch):
    # in turn: a projection or a constant breaks a delta, a minimal
    # function's witness fails, no delta(m, 2m) breaks, and no certificate
    # replays
    real, kept = delta_preserves, PreservationVerdict(True)
    rows = list(itertools.product((0, 1), repeat=3))

    def breaking(values):
        """delta_preserves, but the arity-3 function with these values on
        all rows breaks every delta."""
        top = tuple(zip(rows, values))

        def fake(f, t, h):
            if f.graph == top:
                cert = ViolationCertificate((), excluded_tuple(t, h))
                return PreservationVerdict(False, cert)
            return real(f, t, h)

        return fake

    assert phi(3) in _minimal_nontrivial(3)
    cases = (
        ("delta_preserves", breaking([r[2] for r in rows])),
        ("delta_preserves", breaking([1] * 8)),
        ("verify_witness", lambda f, w: f != phi(3) and verify_witness(f, w)),
        ("delta_preserves", lambda f, t, h: real(f, t, h) if h != 2 * t else kept),
        ("check_certificate", lambda cert, f, rho: False),
    )
    assert limit_is_trivial_clone(3)
    for name, fake in cases:
        with monkeypatch.context() as m:
            m.setattr(strongrigid, name, fake)
            assert limit_is_trivial_clone(3) is False, name


def test_limit_capacity_guard():
    with pytest.raises(CapacityError):
        limit_is_trivial_clone(4)
    with pytest.raises(CapacityError):
        limit_is_trivial_clone(10**12)  # refused before 2**arity_cap is formed
    with pytest.raises(ValueError):
        limit_is_trivial_clone(0)  # an empty sweep proves nothing
