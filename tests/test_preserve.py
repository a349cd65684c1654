"""Preservation checks, certificates, and the unary polymorphism set."""
from __future__ import annotations

import itertools
import random
import re

import pytest

from rigidrel.kernel import (
    CapacityError,
    EncodingError,
    PartialFn,
    PartialUnaryFn,
    Relation,
    all_partial_fns,
    all_partial_unary,
)
from rigidrel.preserve import (
    PreservationVerdict,
    ViolationCertificate,
    check_certificate,
    ppol1,
    preserves,
    unary_preserves,
)

LEQ2 = Relation.from_tuples(2, 2, [(0, 0), (0, 1), (1, 1)])


def _naive_unary(f: PartialUnaryFn, rho: Relation) -> PreservationVerdict:
    """Definition, spelled out: every member column inside dom(f) must map
    back into the relation.  product() walks the h-tuples in lex order,
    which is rank order, so the certificate is the rank-least violating
    member."""
    dom = set(f.dom)
    for col in itertools.product(range(rho.k), repeat=rho.h):
        if col in rho and all(e in dom for e in col):
            image = f.apply_tuple(col)
            if image not in rho:
                return PreservationVerdict(False, ViolationCertificate((col,), image))
    return PreservationVerdict(True)


def _first_violation(f: PartialFn, rho: Relation) -> PreservationVerdict:
    """The definition as an oracle: product() walks the column tuples in
    lex order of column rank, so the first violation is the least one."""
    for matrix in itertools.product(rho.members, repeat=f.n):
        rows = [tuple(col[i] for col in matrix) for i in range(rho.h)]
        if all(r in f.mapping for r in rows):
            image = tuple(f.mapping[r] for r in rows)
            if image not in rho:
                return PreservationVerdict(False, ViolationCertificate(matrix, image))
    return PreservationVerdict(True)


# -- verdicts and certificates --------------------------------------------


def test_verdict_requires_certificate_exactly_when_negative():
    cert = ViolationCertificate(((0, 1),), (1, 0))
    PreservationVerdict(True, None)
    PreservationVerdict(False, cert)
    with pytest.raises(ValueError):
        PreservationVerdict(True, cert)
    with pytest.raises(ValueError):
        PreservationVerdict(False, None)


def test_check_certificate_accepts_real_violation():
    neg = PartialUnaryFn(2, (1, 0))
    verdict = unary_preserves(neg, LEQ2)
    assert not verdict.preserved
    assert check_certificate(verdict.certificate, neg, LEQ2)


def test_check_certificate_rejects_fabrications():
    neg = PartialUnaryFn(2, (1, 0))
    # column not in the relation
    assert not check_certificate(
        ViolationCertificate(((1, 0),), (0, 1)), neg, LEQ2
    )
    # image actually lands inside the relation
    assert not check_certificate(
        ViolationCertificate(((0, 0),), (1, 1)), PartialUnaryFn(2, (1, 1)), LEQ2
    )
    # image inconsistent with the function
    assert not check_certificate(
        ViolationCertificate(((0, 1),), (0, 1)), neg, LEQ2
    )


def test_check_certificate_rejects_single_field_tamperings():
    xor = PartialFn.from_mapping(
        2, 2, {t: (t[0] + t[1]) % 2 for t in itertools.product(range(2), repeat=2)}
    )
    first = PartialFn.from_mapping(
        2, 2, {t: t[0] for t in itertools.product(range(2), repeat=2)}
    )
    rho = LEQ2  # misses (1, 0) only
    columns, image = ((1, 1), (0, 1)), (1, 0)  # rows (1, 0) -> 1 and (1, 1) -> 0
    assert check_certificate(ViolationCertificate(columns, image), xor, rho)
    for cert, f in (
        (ViolationCertificate(columns, (0, 0)), xor),  # wrong image entry
        (ViolationCertificate(columns, (1, 1)), xor),
        (ViolationCertificate(columns, image), xor.restrict([(1, 1), (0, 0)])),  # row outside dom
        (ViolationCertificate(((1, 0), (0, 1)), image), xor),  # column outside rho
        (ViolationCertificate(columns, (1, 1)), first),  # image inside rho
        (ViolationCertificate(columns[:1], image), xor),  # wrong lengths
        (ViolationCertificate(columns + ((0, 0),), image), xor),
        (ViolationCertificate(columns, image + (0,)), xor),
        (ViolationCertificate(((1, 1, 0), (0, 1, 1)), image), xor),
    ):
        assert not check_certificate(cert, f, rho), (cert, f)


def test_check_certificate_checks_every_length_before_any_probe():
    xor = PartialFn.from_mapping(
        2, 2, {t: (t[0] + t[1]) % 2 for t in itertools.product(range(2), repeat=2)}
    )
    # the first column holds an entry outside {0, 1}, which a membership
    # probe would reject with EncodingError; the second has the wrong length
    cert = ViolationCertificate(((0, 2), (1,)), (1, 0))
    assert check_certificate(cert, xor, LEQ2) is False
    # the probe itself still raises, with the same messages as before
    with pytest.raises(EncodingError, match=re.escape("tuple (0,) has arity 1, expected 2")):
        (0,) in LEQ2
    with pytest.raises(EncodingError, match=re.escape("entry 2 is not an int in range(0, 2)")):
        (0, 2) in LEQ2
    with pytest.raises(EncodingError, match=re.escape("entry True is not an int in range(0, 2)")):
        (0, True) in LEQ2


# -- unary_preserves -------------------------------------------------------


def test_unary_preserves_matches_naive_exhaustively():
    rng = random.Random(11)
    cases = []
    for k, h in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        total = k**h
        for _ in range(12):
            bits = rng.randrange(1, 2**total)
            nbytes = (total + 7) // 8
            cases.append(Relation(k, h, bits.to_bytes(nbytes, "little")))
    negatives = 0
    for rho in cases:
        for f in all_partial_unary(rho.k):
            verdict = unary_preserves(f, rho)
            assert verdict == _naive_unary(f, rho), (f, rho)
            if not verdict.preserved:
                negatives += 1
                assert check_certificate(verdict.certificate, f, rho)
    assert negatives >= 1000  # so certificates, not only verdicts, are compared


def test_unary_preserves_empty_function_is_vacuous():
    empty = PartialUnaryFn(2, (None, None))
    assert unary_preserves(empty, LEQ2).preserved


def test_unary_certificate_is_rank_least():
    # negation breaks <= on both (0,1)-columns; the least violating column
    # is (0,1) with rank 1
    neg = PartialUnaryFn(2, (1, 0))
    verdict = unary_preserves(neg, LEQ2)
    assert verdict.certificate.columns == ((0, 1),)
    assert verdict.certificate.image == (1, 0)


# -- preserves (general arity) ---------------------------------------------


def test_preserves_matches_naive_on_binary_functions():
    rng = random.Random(23)
    relations = [LEQ2, Relation.full(2, 2), Relation.diagonal(2, 2)]
    for _ in range(6):
        bits = rng.randrange(1, 2**8)
        relations.append(Relation(2, 3, bits.to_bytes(1, "little")))
    for rho in relations:
        for f in all_partial_fns(2, 2):
            verdict = preserves(f, rho)
            assert verdict == _first_violation(f, rho), (f, rho)
            if not verdict.preserved:
                assert check_certificate(verdict.certificate, f, rho)


def test_preserves_verdict_equals_oracle_on_seeded_cases():
    rng = random.Random(41)
    negatives = 0
    for k in (2, 3):
        for n in (1, 2, 3):
            for h in (1, 2, 3):
                if k == 3 and n == 3 and h == 3:
                    continue  # 19683 matrices per case: covered by smaller shapes
                total = k**h
                for _ in range(24):
                    bits = rng.randrange(1, 2**total)
                    rho = Relation(k, h, bits.to_bytes((total + 7) // 8, "little"))
                    density = rng.choice((0.3, 0.6, 0.9))
                    f = PartialFn.from_mapping(
                        k,
                        n,
                        {
                            args: rng.randrange(k)
                            for args in itertools.product(range(k), repeat=n)
                            if rng.random() < density
                        },
                    )
                    verdict = preserves(f, rho)
                    assert verdict == _first_violation(f, rho), (f, rho)
                    negatives += not verdict.preserved
    assert negatives >= 150  # so certificates, not only verdicts, are compared


def test_preserves_unary_agrees_with_unary_preserves():
    for k, h in ((2, 2), (3, 2)):
        rho = Relation.diagonal(k, h)
        for f in all_partial_unary(k):
            assert preserves(f.as_partial_fn(), rho).preserved == unary_preserves(f, rho).preserved


def test_preserves_empty_graph_vacuous():
    nowhere = PartialFn.from_mapping(2, 2, {})
    assert preserves(nowhere, LEQ2).preserved


def test_preserves_projection_always():
    proj = PartialFn.from_mapping(
        3, 2, {t: t[0] for t in itertools.product(range(3), repeat=2)}
    )
    for rho in (Relation.diagonal(3, 2), Relation.full(3, 2),
                Relation.from_tuples(3, 2, [(0, 1), (2, 2)])):
        assert preserves(proj, rho).preserved


def test_preserves_certificate_lex_least():
    neg = PartialUnaryFn(2, (1, 0)).as_partial_fn()
    verdict = preserves(neg, LEQ2)
    assert verdict.certificate.columns == ((0, 1),)


# -- ppol1 ------------------------------------------------------------------


def test_ppol1_counts_on_small_relations():
    assert len(ppol1(LEQ2)) == 8
    assert len(ppol1(Relation.full(2, 2))) == 9  # every unary partial map
    assert len(ppol1(Relation.full(2, 1))) == 9


def test_ppol1_matches_naive_filter():
    rng = random.Random(5)
    for k, h in ((2, 2), (3, 2)):
        total = k**h
        for _ in range(8):
            bits = rng.randrange(1, 2**total)
            rho = Relation(k, h, bits.to_bytes((total + 7) // 8, "little"))
            expected = frozenset(
                f for f in all_partial_unary(k) if _naive_unary(f, rho).preserved
            )
            assert ppol1(rho) == expected


def test_ppol1_contains_identity_and_subidentities():
    rho = Relation.from_tuples(3, 2, [(0, 2), (1, 1)])
    pp = ppol1(rho)
    ident = PartialUnaryFn.identity(3)
    assert ident in pp
    for pts in itertools.chain.from_iterable(
        itertools.combinations(range(3), r) for r in range(3)
    ):
        assert ident.restrict(pts) in pp


def test_ppol1_capacity_guard():
    with pytest.raises(CapacityError):
        ppol1(Relation.diagonal(8, 1))
