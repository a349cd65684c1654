"""Command line behavior: exit codes, formats, determinism."""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random

import pytest

from rigidrel import cli
from rigidrel.cli import main
from rigidrel.construct import construct_2rigid, construct_ellrigid
from rigidrel.kernel import CapacityError, PartialFn, Relation
from rigidrel.rigidity import is_hereditarily_ell_rigid
from rigidrel.strongrigid import PHI_MAX_N, phi

LEQ2 = Relation.from_tuples(2, 2, [(0, 0), (0, 1), (1, 1)])


def _write_relation(path, rho: Relation, form="tuples"):
    path.write_text(json.dumps(rho.to_json(form=form)))
    return str(path)


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# -- check ---------------------------------------------------------------------


def test_check_rigid_exit_zero(tmp_path, capsys):
    rel = _write_relation(tmp_path / "r.json", LEQ2)
    assert main(["check", "--relation", rel, "--ell", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "k": 2,
        "h": 2,
        "ell": 2,
        "rigid": True,
        "failing_side": None,
        "failing_function": None,
        "witness": None,
    }


def test_check_not_rigid_exit_one(tmp_path, capsys):
    rel = _write_relation(tmp_path / "r.json", Relation.full(2, 2), form="mask")
    assert main(["check", "--relation", rel, "--ell", "2"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["rigid"] is False
    assert out["failing_side"] == "psi"
    assert out["failing_function"] == {"k": 2, "table": [1, 0]}


def test_check_bad_inputs_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["check", "--relation", missing, "--ell", "2"]) == 2
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    assert main(["check", "--relation", str(garbled), "--ell", "2"]) == 2
    rel = _write_relation(tmp_path / "r.json", LEQ2)
    assert main(["check", "--relation", rel, "--ell", "9"]) == 2
    empty = _write_relation(tmp_path / "e.json", Relation.empty(2, 2))
    assert main(["check", "--relation", empty, "--ell", "2"]) == 2
    capsys.readouterr()


def test_check_dense_capacity_guard_exit_two(tmp_path, capsys):
    # a 43-byte file naming a mask of 10**15 bits is refused before allocation
    huge = tmp_path / "huge.json"
    huge.write_text('{"k":100000,"h":3,"tuples":[[0,0,0]]}')
    assert main(["check", "--relation", str(huge), "--ell", "2"]) == 2
    _assert_one_line_error(capsys)
    # so is an arity whose k**h would itself be a huge integer
    huge.write_text('{"k":2,"h":1000000000,"mask_hex":""}')
    assert main(["check", "--relation", str(huge), "--ell", "2"]) == 2
    _assert_one_line_error(capsys)


def test_check_malformed_tuples_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in (
        '{"k":3,"h":2,"tuples":5}',
        '{"k":3,"h":2,"tuples":[[0,"a"]]}',
        '{"k":2,"h":2,"tuples":[[0,0]],"mask_hex":"0f"}',  # both forms at once
    ):
        bad.write_text(text)
        assert main(["check", "--relation", str(bad), "--ell", "2"]) == 2
        _assert_one_line_error(capsys)


def test_deeply_nested_json_exit_two(tmp_path, capsys):
    # the JSON decoder recurses once per level and gives up past the limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for argv in (
        ["check", "--relation", str(deep), "--ell", "2"],
        ["strong", "--suite", "witness", "--fn-file", str(deep)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot load ")
        assert captured.err.count("\n") == 1, captured.err


def test_check_missing_args_exit_two(capsys):
    assert main(["check"]) == 2
    assert main(["bogus-command"]) == 2
    capsys.readouterr()


# -- construct -------------------------------------------------------------------


def test_construct_writes_verified_relation(tmp_path, capsys):
    out_file = tmp_path / "rel.json"
    code = main(
        ["construct", "--k", "5", "--ell", "2", "--h", "3", "--out", str(out_file)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["k"] == 5 and summary["ell"] == 2 and summary["h"] == 3
    assert summary["size"] == 35
    assert summary["verified"] is True
    assert summary["bound_lhs"] == 20 and summary["bound_rhs"] == 20
    rho = Relation.from_json(json.loads(out_file.read_text()))
    assert rho.size == 35
    assert is_hereditarily_ell_rigid(rho, 2).verdict


def test_construct_tuples_format(tmp_path, capsys):
    out_file = tmp_path / "rel.json"
    code = main(
        ["construct", "--k", "2", "--ell", "2", "--h", "2",
         "--out", str(out_file), "--format", "tuples"]
    )
    assert code == 0
    capsys.readouterr()
    data = json.loads(out_file.read_text())
    assert data["tuples"] == [[0, 0], [0, 1], [1, 1]]


@pytest.mark.parametrize("k,ell,h", [(5, 2, 3), (10, 3, 4), (3, 2, 3), (2, 2, 2)])
def test_construct_mask_file_is_the_json_dump(k, ell, h, tmp_path, capsys):
    # the mask form is written without json.dumps; its bytes must be the
    # dump's, also when k**h (125, 27, 4 here) leaves a partial last byte
    out_file = tmp_path / "rel.json"
    argv = ["construct", "--k", str(k), "--ell", str(ell), "--h", str(h), "--out", str(out_file)]
    assert main(argv) == 0
    capsys.readouterr()
    rho = construct_2rigid(k, h) if ell == 2 else construct_ellrigid(k, ell, h)
    assert out_file.read_bytes() == (cli._dump(rho.to_json("mask")) + "\n").encode()


@pytest.mark.parametrize("k,ell,h", [(5, 2, 3), (10, 3, 4), (3, 2, 3), (2, 2, 2)])
def test_construct_tuples_file_is_the_json_dump(k, ell, h, tmp_path, capsys):
    # both forms go through the one binary writer
    out_file = tmp_path / "rel.json"
    argv = ["construct", "--k", str(k), "--ell", str(ell), "--h", str(h),
            "--out", str(out_file), "--format", "tuples"]
    assert main(argv) == 0
    capsys.readouterr()
    rho = construct_2rigid(k, h) if ell == 2 else construct_ellrigid(k, ell, h)
    assert out_file.read_bytes() == (cli._dump(rho.to_json("tuples")) + "\n").encode()


def test_construct_unwritable_out_exit_two(tmp_path, capsys):
    # the relation is built and verified, but a destination that cannot be
    # opened ends the command with one error line and no summary
    for out in (tmp_path / "missing" / "rel.json", tmp_path):
        for form in ("mask", "tuples"):
            argv = ["construct", "--k", "5", "--ell", "2", "--h", "3",
                    "--out", str(out), "--format", form]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: cannot write {out}: ")
            assert captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_construct_ell3(tmp_path, capsys):
    out_file = tmp_path / "rel.json"
    code = main(
        ["construct", "--k", "3", "--ell", "3", "--h", "4", "--out", str(out_file)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["size"] == 61 and summary["verified"] is True


def test_construct_summary_lines_pinned(tmp_path, capsys):
    # the bound sides come from construct.bound_sides; the lines are the
    # ones the command printed before that function existed
    out_file = tmp_path / "rel.json"
    for k, ell, h, fields in (
        (5, 2, 3, '"bound_lhs":20,"bound_rhs":20,"size":35'),
        (10, 3, 4, '"bound_lhs":720,"bound_rhs":155117520,"size":2560'),
        (59, 2, 4, '"bound_lhs":3422,"bound_rhs":3432,"size":12036'),
    ):
        argv = ["construct", "--k", str(k), "--ell", str(ell), "--h", str(h)]
        assert main(argv + ["--out", str(out_file)]) == 0
        assert capsys.readouterr().out == (
            f'{{"k":{k},"ell":{ell},"h":{h},{fields},"verified":true,'
            f'"out":{json.dumps(str(out_file))}}}\n'
        )


def test_construct_bound_failure_exit_two(tmp_path, capsys):
    out_file = tmp_path / "rel.json"
    code = main(
        ["construct", "--k", "3", "--ell", "2", "--h", "2", "--out", str(out_file)]
    )
    assert code == 2
    assert not out_file.exists()
    assert main(
        ["construct", "--k", "2", "--ell", "1", "--h", "2", "--out", str(out_file)]
    ) == 2
    capsys.readouterr()


def test_construct_capacity_guard_exit_two(tmp_path, capsys):
    # k = 12455 passes the h = 5 counting bound, but its dense mask cannot
    # be held; the guard fires before any assignment work
    out_file = tmp_path / "rel.json"
    code = main(
        ["construct", "--k", "12455", "--ell", "2", "--h", "5", "--out", str(out_file)]
    )
    assert code == 2
    assert not out_file.exists()
    _assert_one_line_error(capsys)


# -- classify ---------------------------------------------------------------------


def test_classify_small_sweep(tmp_path, capsys):
    out_file = tmp_path / "c.jsonl"
    summary_file = tmp_path / "s.csv"
    code = main(
        ["classify", "--k", "2", "--h", "2", "--ell", "2",
         "--out", str(out_file), "--summary", str(summary_file)]
    )
    assert code == 0
    capsys.readouterr()
    lines = out_file.read_text().splitlines()
    assert len(lines) == 15  # every nonempty relation
    records = [json.loads(line) for line in lines]
    assert [r["relation_rank"] for r in records] == list(range(1, 16))
    rigid_ranks = [r["relation_rank"] for r in records if r["verdict"]]
    # exactly the two linear orders: {00,01,11} -> 11, {00,10,11} -> 13
    assert rigid_ranks == [11, 13]
    for r in records:
        assert r["elapsed_micros"] == 0
        assert (r["failing_function"] is None) == r["verdict"]
    assert summary_file.read_text() == "k,h,ell,total,rigid,not_rigid\n2,2,2,15,2,13\n"


def test_classify_jobs_byte_identical(tmp_path, capsys):
    files = {}
    for jobs in ("1", "3"):
        out_file = tmp_path / f"c{jobs}.jsonl"
        sum_file = tmp_path / f"s{jobs}.csv"
        assert main(
            ["classify", "--k", "2", "--h", "2", "--ell", "2", "--jobs", jobs,
             "--out", str(out_file), "--summary", str(sum_file)]
        ) == 0
        files[jobs] = (out_file.read_bytes(), sum_file.read_bytes())
    capsys.readouterr()
    assert files["1"] == files["3"]


def test_classify_resume_from(tmp_path, capsys):
    out_file = tmp_path / "c.jsonl"
    assert main(
        ["classify", "--k", "2", "--h", "2", "--ell", "2",
         "--resume-from", "12", "--out", str(out_file)]
    ) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert [r["relation_rank"] for r in records] == [12, 13, 14, 15]


def test_classify_stdout_and_summary_split(capsys):
    code = main(["classify", "--k", "2", "--h", "1", "--ell", "2"])
    assert code == 0
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert len(records) == 3
    assert all(not r["verdict"] for r in records)  # h < ell: nothing is rigid
    assert "k,h,ell,total,rigid,not_rigid" in captured.err
    assert "2,1,2,3,0,3" in captured.err


def test_classify_missing_directory_exit_two(tmp_path, capsys):
    # both destinations are opened before the sweep, so a bad one fails
    # at once with one error line and no traceback
    missing = tmp_path / "missing"
    good = tmp_path / "c.jsonl"
    for extra in (
        ["--out", str(missing / "c.jsonl")],
        ["--summary", str(missing / "s.csv")],
        ["--out", str(good), "--summary", str(missing / "s.csv")],
    ):
        code = main(["classify", "--k", "2", "--h", "2", "--ell", "2"] + extra)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ")
        assert captured.err.count("\n") == 1 and "classified" not in captured.err
    assert not missing.exists()
    assert good.read_text() == ""  # opened, but the sweep never ran


def test_classify_same_out_and_summary_exit_two(tmp_path, capsys, monkeypatch):
    # the JSONL would overwrite the CSV, so the pair is refused before
    # either file is opened
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "c.txt"
    target.write_text("kept\n")
    (tmp_path / "link.txt").symlink_to(target)
    for out, summary in (("c.txt", str(target)), ("link.txt", "./c.txt")):
        argv = ["classify", "--k", "2", "--h", "2", "--ell", "2"]
        assert main(argv + ["--out", out, "--summary", summary]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out and --summary name the same file\n"
    assert target.read_text() == "kept\n"


def test_classify_capacity_guard(capsys):
    assert main(["classify", "--k", "3", "--h", "3", "--ell", "2"]) == 2
    assert main(["classify", "--k", "2", "--h", "2", "--ell", "2", "--jobs", "0"]) == 2
    capsys.readouterr()


def test_classify_k_below_two_exit_two(capsys):
    assert main(["classify", "--k", "1", "--h", "3", "--ell", "1"]) == 2
    _assert_one_line_error(capsys)


def test_classify_timing_flag(tmp_path, capsys):
    out_file = tmp_path / "c.jsonl"
    assert main(
        ["classify", "--k", "2", "--h", "2", "--ell", "2", "--timing",
         "--out", str(out_file)]
    ) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert any(r["elapsed_micros"] > 0 for r in records)


# SHA-256 of the whole JSONL of a sweep, as the per-record json.dumps wrote it
CLASSIFY_SHA256 = {
    (2, 3, 2): "15417bd32eee623ba1fbdd3f7135ef0baeaa394f9709539d98e3c98dab3027b3",
    (3, 2, 3): "2898125bea04d7141e15ee562abd16c14ec03280053014e50cfbac16c1402033",
}


@pytest.mark.parametrize("k,h,ell", [(2, 3, 2), (3, 2, 2), (3, 2, 3), (2, 2, 1)])
def test_classify_lines_are_byte_exact(k, h, ell, tmp_path, capsys):
    # each line is the compact dump of the record rebuilt from the library
    argv = ["classify", "--k", str(k), "--h", str(h), "--ell", str(ell)]
    out_file = tmp_path / "c.jsonl"
    assert main(argv + ["--out", str(out_file)]) == 0
    data = out_file.read_bytes()
    lines = data.decode().splitlines(keepends=True)
    assert len(lines) == 2 ** (k**h) - 1
    nbytes = (k**h + 7) // 8
    for rank, line in enumerate(lines, 1):
        report = is_hereditarily_ell_rigid(Relation(k, h, rank.to_bytes(nbytes, "little")), ell)
        fn = report.failing_function
        record = {
            "k": k,
            "h": h,
            "ell": ell,
            "relation_rank": rank,
            "verdict": report.verdict,
            "failing_function": None if fn is None else fn.to_json(),
            "elapsed_micros": 0,
        }
        assert line == json.dumps(record, separators=(",", ":")) + "\n"
    if (k, h, ell) in CLASSIFY_SHA256:
        assert hashlib.sha256(data).hexdigest() == CLASSIFY_SHA256[k, h, ell]
    # with --timing only elapsed_micros moves, and each line stays a compact dump
    assert main(argv + ["--timing", "--out", str(out_file)]) == 0
    capsys.readouterr()
    timed = out_file.read_text().splitlines(keepends=True)
    assert len(timed) == len(lines)
    for line, old in zip(timed, lines):
        record = json.loads(line)
        assert line == cli._dump(record) + "\n"
        assert isinstance(record["elapsed_micros"], int)
        assert cli._dump(dict(record, elapsed_micros=0)) + "\n" == old


# -- bounds -----------------------------------------------------------------------


def test_bounds_csv(capsys):
    assert main(["bounds", "--ell", "2", "--h", "4", "--k", "59"]) == 0
    rows = dict(
        line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:]
    )
    assert rows["surjections"] == "14"
    assert rows["middle_layer"] == "3432"
    assert rows["max_k"] == "59"
    assert rows["r_lower"] == "924"
    assert rows["r_upper"] == "3432"
    assert rows["tuples_needed"] == "3422"
    assert rows["sperner_bound_holds"] == "true"


def test_bounds_without_k(capsys):
    assert main(["bounds", "--ell", "3", "--h", "4"]) == 0
    out = capsys.readouterr().out
    assert "max_k" not in out  # the closed form is specific to ell = 2
    assert "r_lower" in out


def test_bounds_k_below_two_exit_two(capsys):
    assert main(["bounds", "--ell", "2", "--h", "3", "--k", "1"]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--ell", "2", "--h", "14"],
        ["bounds", "--ell", "2", "--h", "24"],
        ["bounds", "--ell", "3", "--h", "1000000"],
        ["bounds", "--ell", "2", "--h", "4", "--k", str(2**14000)],
        ["construct", "--k", "3", "--ell", "2", "--h", "14"],
        ["construct", "--k", "3", "--ell", "2", "--h", "100000"],
    ],
)
def test_bounds_too_large_to_print_exit_two(argv, tmp_path, capsys):
    # refused before the binomial is built or the relation written
    out_file = tmp_path / "rel.json"
    if argv[0] == "construct":
        argv = argv + ["--out", str(out_file)]
    assert main(argv) == 2
    _assert_one_line_error(capsys)
    assert not out_file.exists()


def test_bounds_largest_printed_h(capsys):
    assert main(["bounds", "--ell", "2", "--h", "13"]) == 0
    rows = dict(
        line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:]
    )
    assert rows["middle_layer"] == str(math.comb(8190, 4095))
    # more pattern symbols than positions: no surjection, nothing to sum
    assert main(["bounds", "--ell", "1000000", "--h", "3"]) == 0
    assert "surjections,0\n" in capsys.readouterr().out


# -- strong -----------------------------------------------------------------------


def test_strong_phi(capsys):
    assert main(["strong", "--suite", "phi", "--n", "3"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "n": 3,
        "h": 2,
        "nontrivial": True,
        "preserves_all_below": True,
        "fails_delta_1_n": True,
    }
    assert captured.err == ""
    # every arity below 14 at once, from one AND-closure
    assert main(["strong", "--suite", "phi", "--n", "14", "--h", "13"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "n": 14,
        "h": 13,
        "nontrivial": True,
        "preserves_all_below": True,
        "fails_delta_1_n": True,
    }
    assert captured.err == ""
    assert main(["strong", "--suite", "phi"]) == 2  # --n required
    capsys.readouterr()
    assert main(["strong", "--suite", "phi", "--n", "3", "--h", "3"]) == 2
    _assert_one_line_error(capsys)
    # refused before phi(n) and its AND-closure of up to 2**n keys are built
    assert main(["strong", "--suite", "phi", "--n", str(PHI_MAX_N + 1), "--h", "3"]) == 2
    with pytest.raises(CapacityError) as info:
        phi(PHI_MAX_N + 1)
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_strong_witness(tmp_path, capsys):
    fn_file = tmp_path / "f.json"
    neg = PartialFn.from_mapping(2, 1, {(0,): 1, (1,): 0})
    fn_file.write_text(json.dumps(neg.to_json()))
    assert main(["strong", "--suite", "witness", "--fn-file", str(fn_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h"] == 2 and out["t"] == 1
    ident = PartialFn.from_mapping(2, 1, {(0,): 0, (1,): 1})
    fn_file.write_text(json.dumps(ident.to_json()))
    assert main(["strong", "--suite", "witness", "--fn-file", str(fn_file)]) == 1
    assert json.loads(capsys.readouterr().out) == {"trivial": True, "witness": None}


def test_non_integer_entries_and_values_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    witness = ["strong", "--suite", "witness", "--fn-file", str(bad)]
    check = ["check", "--relation", str(bad), "--ell", "2"]
    for argv, number, text in (
        (witness, "0.5", '{"k":2,"n":2,"graph":[[[0,0.5],1],[[1,1],0]]}'),
        (witness, "1.5", '{"k":2,"n":2,"graph":[[[0,0],1.5],[[1,1],0]]}'),
        (check, "1.0", '{"k":2,"h":2,"tuples":[[0,1.0]]}'),
    ):
        bad.write_text(text)
        assert main(argv) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert number in err, err  # the message names the offending number


def test_repeated_arguments_and_non_int_fields_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    witness = ["strong", "--suite", "witness", "--fn-file", str(bad)]
    check = ["check", "--relation", str(bad), "--ell", "2"]
    for argv, text in (
        (witness, '{"k":2,"n":2,"graph":[[[0,1],0],[[0,1],1],[[1,0],1]]}'),
        (check, '{"k":2.9,"h":2,"tuples":[[0,1]]}'),
        (check, '{"k":2,"h":2,"tuples":[[true,false]]}'),
        (witness, '{"k":2,"n":2,"graph":[[[0,0],true],[[1,1],0]]}'),
    ):
        bad.write_text(text)
        assert main(argv) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_strong_chain_and_limit(capsys):
    assert main(["strong", "--suite", "chain", "--h", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is True and out["separator_arity"] == 3
    assert out["arity_cap"] == 2  # the default
    assert main(["strong", "--suite", "limit", "--arity-cap", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"arity_cap": 2, "holds": True}
    # an empty sweep proves nothing, so it is a usage error, not "holds"
    assert main(["strong", "--suite", "limit", "--arity-cap", "0"]) == 2
    _assert_one_line_error(capsys)
    assert main(["strong", "--suite", "chain", "--h", "2", "--arity-cap", "0"]) == 2
    _assert_one_line_error(capsys)
    # a negative --dom-cap skips every function, the empty one too
    assert main(["strong", "--suite", "chain", "--h", "2", "--dom-cap", "-1"]) == 2
    _assert_one_line_error(capsys)
    assert main(["strong", "--suite", "chain"]) == 2  # --h required
    assert main(["strong", "--suite", "limit", "--arity-cap", "9"]) == 2  # guard
    capsys.readouterr()
    # a flag the suite does not take is refused, not ignored
    for argv, flag in (
        (["--suite", "limit", "--arity-cap", "1", "--dom-cap", "-1", "--h", "99", "--n", "99"], "--n"),
        (["--suite", "limit", "--dom-cap", "3"], "--dom-cap"),
        (["--suite", "chain", "--h", "2", "--n", "3"], "--n"),
        (["--suite", "chain", "--h", "2", "--fn-file", "f.json"], "--fn-file"),
        (["--suite", "phi", "--n", "4", "--arity-cap", "2"], "--arity-cap"),
        (["--suite", "witness", "--fn-file", "f.json", "--h", "3"], "--h"),
    ):
        assert main(["strong"] + argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --suite {argv[1]} does not take {flag}\n"


# -- the process pool and the exit-code contract ----------------------------------


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the classify pool with one that maps in process and records
    the size it was asked for, so no worker process is ever started."""
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "Pool", InProcessPool)
    return sizes


def test_classify_pool_capped_by_cores_and_chunks(tmp_path, capsys, monkeypatch, pool_sizes):
    # 15 ranks at k = 2, h = 2; the chunks, and so the output, follow --jobs
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    outputs = set()
    for jobs, resume, size in (
        ("1", "1", None),
        ("2", "1", 2),
        ("3", "1", 3),
        ("1000", "1", 4),  # more jobs than cores
        (str(2**64), "1", 4),
        ("3", "14", 2),  # two ranks left, so two chunks
        ("3", "16", None),  # nothing left to classify
    ):
        out_file = tmp_path / "c.jsonl"
        argv = ["classify", "--k", "2", "--h", "2", "--ell", "2", "--jobs", jobs,
                "--resume-from", resume, "--out", str(out_file)]
        assert main(argv) == 0
        capsys.readouterr()
        assert pool_sizes == ([] if size is None else [size])
        pool_sizes.clear()
        if resume == "1":
            outputs.add(out_file.read_bytes())
    assert len(outputs) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # unknown: one core
    assert main(["classify", "--k", "2", "--h", "2", "--ell", "2", "--jobs", "8"]) == 0
    capsys.readouterr()
    assert pool_sizes == []


BAD_RELATIONS = (
    "{not json",
    "",
    "[]",
    '"text"',
    '{"k":2}',
    '{"k":2,"h":2}',
    '{"k":-1,"h":2,"tuples":[]}',
    '{"k":2,"h":-1,"mask_hex":""}',
    '{"k":2,"h":2,"tuples":[[0,5]]}',
    '{"k":2,"h":2,"tuples":[0]}',
    '{"k":2,"h":2,"tuples":[[0,0,0]]}',
    '{"k":2,"h":2,"mask_hex":"zz"}',
    '{"k":2,"h":2,"mask_hex":"ffff"}',
    '{"k":2,"h":2,"mask_hex":null}',
    '{"k":1e400,"h":2,"tuples":[]}',
    '{"k":2,"h":1e400,"mask_hex":""}',
    '{"k":"two","h":2,"tuples":[]}',
    '{"k":18446744073709551616,"h":2,"tuples":[]}',
    '{"k":2,"h":2,"tuples":[[0,0]],"mask_hex":"0f"}',
)

BAD_FUNCTIONS = (
    "{not json",
    "[]",
    '{"k":2,"n":1}',
    '{"k":2,"n":1,"graph":[[[0],5]]}',
    '{"k":2,"n":0,"graph":[]}',
    '{"k":2,"n":1,"graph":[[0,1]]}',
    '{"k":2,"n":1,"graph":[[[0]]]}',
    '{"k":2,"n":2,"graph":[[[0,"a"],1]]}',
    '{"k":2,"n":2,"graph":[[[[0],0],1]]}',
    '{"k":2,"n":1e400,"graph":[]}',
    '{"k":3,"n":1,"graph":[[[0],1],[[1],0]]}',
)

EDGE = (-1, 0, 1, 2, 2**64)
NOT_INT = ("x", "1.5", "", "2**3")

# usage errors that argparse itself reports, each exit 2 with one line
ARGPARSE_ERRORS = (
    [],
    ["bogus"],
    ["--k", "2"],
    ["strong", "--suite"],
    ["strong", "--suite", "limit", "extra"],
    ["check", "--relation", "r.json", "--ell", "two"],
    ["strong", "--suite", "phi", "--n", "3", "--dom-cap", "x"],
)


# the strong flags, each with its valid values and values past a guard,
# and the flags each suite takes
STRONG_FLAGS = {
    "--n": ((3, 4, 5), (PHI_MAX_N + 1,)),
    "--h": ((2, 3), (PHI_MAX_N,)),
    "--arity-cap": ((1, 2), (4,)),
    "--dom-cap": ((0, 1, 2), (-1,)),
    "--fn-file": None,
}
SUITE_FLAGS = {
    "phi": ("--n", "--h"),
    "witness": ("--fn-file",),
    "chain": ("--h", "--arity-cap", "--dom-cap"),
    "limit": ("--arity-cap",),
}


def _contract_argv(rng, command, files, tmp_path):
    """One argv for command.  Each flag takes, about half the time, a small
    valid value, and otherwise a generic edge value, one past a guard or,
    now and then, no integer at all; one flag in ten argv is dropped."""
    argv = _contract_flags(rng, command, files, tmp_path)
    if rng.random() < 0.1:
        i = rng.choice([i for i, a in enumerate(argv) if a.startswith("--") and a != "--timing"])
        del argv[i : i + 2]
    return argv


def _contract_flags(rng, command, files, tmp_path):
    def pick(valid, past=()):
        roll = rng.random()
        if roll < 0.05:
            return rng.choice(NOT_INT)
        return str(rng.choice(valid if roll < 0.55 else EDGE + past))

    def path(kind):
        good, bad = files[kind]
        return rng.choice(good if rng.random() < 0.5 else bad)

    if command == "check":
        return ["check", "--relation", path("relation"), "--ell", pick((1, 2), (3,))]
    if command == "construct":
        argv = ["construct", "--k", pick((2, 3, 5)), "--ell", pick((2, 3)),
                "--h", pick((2, 3, 4), (9, 14)),
                "--out", str(tmp_path / rng.choice(("rel.json",) * 4 + ("missing/rel.json",)))]
        return argv + rng.choice(([], ["--format", "tuples"]))
    if command == "classify":
        argv = ["classify", "--k", pick((2,), (3,)), "--h", pick((1, 2, 3), (5,)),
                "--ell", pick((1, 2), (3,)), "--jobs", pick((1, 2, 3)),
                "--resume-from", pick((1, 2, 15), (16,))]
        argv += rng.choice(([], ["--timing"]))
        return argv + rng.choice(([], ["--out", str(tmp_path / "missing" / "c.jsonl")]))
    if command == "bounds":
        argv = ["bounds", "--ell", pick((1, 2, 3)), "--h", pick((2, 3, 4, 13), (14,))]
        return argv + rng.choice(([], ["--k", pick((2, 5, 59), (2**14000,))]))
    suite = rng.choice(tuple(SUITE_FLAGS))
    own = SUITE_FLAGS[suite]
    flags = [flag for flag in own if rng.random() < 0.8]
    if rng.random() < 0.2:  # a flag the suite does not take
        flags.append(rng.choice([flag for flag in STRONG_FLAGS if flag not in own]))
    argv = ["strong", "--suite", suite]
    for flag in flags:
        argv += [flag, path("function") if flag == "--fn-file" else pick(*STRONG_FLAGS[flag])]
    return argv


def _too_slow(argv) -> bool:
    """A valid run too large for a unit test (see the contract test)."""
    args = dict(zip(argv[1::2], argv[2::2]))
    try:
        k, h = int(args.get("--k", 0)), int(args.get("--h", 0))
    except ValueError:
        return False  # refused by the parser
    size = k**h if k >= 2 and 1 <= h <= 64 else None
    if argv[:1] == ["classify"]:
        return size is not None and 8 < size <= 16
    if argv[:1] == ["construct"]:
        return size is not None and 10**5 < size <= 2**32
    return False


def test_cli_contract_on_seeded_edge_arguments(tmp_path, capsys, pool_sizes):
    """Every subcommand, with seeded argv drawn from per-flag edge values
    and with malformed relation and function files, and every usage error
    argparse reports itself, exits 0, 1 or 2 without raising, and exit 2
    prints exactly one error line.

    Skipped, for run time only: classify with 8 < k**h <= 16 (it sweeps
    up to 65,535 relations), and construct with 10**5 < k**h <= 2**32 (it
    builds a dense relation of that many bits; above 2**32 the relation is
    refused before it is built).  Cases with an arity cap of 3 and phi at
    n = 14 are not drawn; other tests run them."""
    neg = PartialFn.from_mapping(2, 1, {(0,): 1, (1,): 0})
    ident = PartialFn.from_mapping(2, 1, {(0,): 0, (1,): 1})
    xor = PartialFn.from_mapping(2, 2, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})
    files = {}
    for kind, good, bad in (
        ("relation", [json.dumps(rho.to_json()) for rho in
                      (LEQ2, Relation.full(3, 2), Relation.empty(2, 2))], BAD_RELATIONS),
        ("function", [json.dumps(f.to_json()) for f in (neg, ident, xor)], BAD_FUNCTIONS),
    ):
        paths = []
        for i, text in enumerate(list(good) + list(bad)):
            path = tmp_path / f"{kind}{i}.json"
            path.write_text(text)
            paths.append(str(path))
        files[kind] = (paths[: len(good)], paths[len(good):] + [str(tmp_path / "absent.json")])
    rng = random.Random(2015)
    drawn = (
        _contract_argv(rng, command, files, tmp_path)
        for command in ("check", "construct", "classify", "bounds", "strong") * 80
    )
    ran = 0
    for argv in itertools.chain(ARGPARSE_ERRORS, drawn):
        if _too_slow(argv):
            continue
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        ran += 1
    assert ran > 350
