"""Command line front end.

Exit codes: 0 when the requested property holds (or the artifact was
built and verified), 1 when it fails, 2 on usage, input, or capacity
errors.  Standard output carries machine-readable data only; progress
notes go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from multiprocessing import Pool

from .construct import (
    ConstructionError,
    _require_printable_bounds,
    bound_sides,
    construct_2rigid,
    construct_ellrigid,
    max_k_2rigid,
    r_bounds,
    sperner_bound_holds,
    surjection_count,
)
from .kernel import (
    CapacityError,
    PartialFn,
    Relation,
)
from .rigidity import is_hereditarily_ell_rigid
from .strongrigid import (
    NoWitnessError,
    chain_inclusion,
    limit_is_trivial_clone,
    phi_facts,
    witness_nontrivial,
)


# raised by unreadable or malformed input files (JSON and encoding errors are
# ValueErrors; JSON nested too deep for the decoder raises RecursionError)
_LOAD_ERRORS = (OSError, ValueError, KeyError, TypeError, RecursionError)


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _classify_chunk(task) -> tuple:
    """Classify ranks start .. stop - 1; return their JSONL lines as one
    string and the number of rigid relations among them.

    Each line is written from a template: its head is fixed for the sweep,
    and its tail depends only on the failing function (None when rigid),
    of which a sweep has few, so each tail is dumped once and cached.
    The lines are byte-identical to dumping each record as a dict."""
    k, h, ell, start, stop, timing = task
    nbytes = (k**h + 7) // 8
    head = f'{{"k":{k},"h":{h},"ell":{ell},"relation_rank":'
    tails: dict = {}
    lines = []
    rigid = 0
    for rank in range(start, stop):
        began = time.perf_counter() if timing else 0.0
        rho = Relation(k, h, rank.to_bytes(nbytes, "little"))
        report = is_hereditarily_ell_rigid(rho, ell)
        micros = int((time.perf_counter() - began) * 1e6) if timing else 0
        fn = report.failing_function
        key = None if fn is None else fn.table
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = (
                f',"verdict":{_dump(report.verdict)},"failing_function":'
                f'{_dump(None if fn is None else fn.to_json())},"elapsed_micros":'
            )
        rigid += report.verdict
        lines.append(f"{head}{rank}{tail}{micros}}}\n")
    return "".join(lines), rigid


def cmd_check(args) -> int:
    try:
        with open(args.relation, "r", encoding="utf-8") as fh:
            rho = Relation.from_json(json.load(fh))
    except _LOAD_ERRORS as exc:
        print(f"error: cannot load relation: {exc}", file=sys.stderr)
        return 2
    report = is_hereditarily_ell_rigid(rho, args.ell)
    out = {
        "k": rho.k,
        "h": rho.h,
        "ell": args.ell,
        "rigid": report.verdict,
        "failing_side": report.failing_side,
        "failing_function": (
            None
            if report.failing_function is None
            else report.failing_function.to_json()
        ),
        "witness": None if report.witness is None else list(report.witness),
    }
    print(_dump(out))
    return 0 if report.verdict else 1


def cmd_construct(args) -> int:
    k, ell, h = args.k, args.ell, args.h
    if ell < 2:
        print(f"error: need ell >= 2, got {ell}", file=sys.stderr)
        return 2
    _require_printable_bounds(ell, h, k)  # before the relation is built
    try:
        rho = construct_2rigid(k, h) if ell == 2 else construct_ellrigid(k, ell, h)
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lhs, _, rhs = bound_sides(k, ell, h)
    if args.format == "mask":
        chunks = rho.mask_json_chunks()
    else:
        chunks = (_dump(rho.to_json("tuples")).encode(),)
    try:
        # binary mode writes the bytes as they are, and the last newline
        # is b"\n" on every platform
        with open(args.out, "wb") as fh:
            fh.writelines(chunks)
            fh.write(b"\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(
        _dump(
            {
                "k": k,
                "ell": ell,
                "h": h,
                "bound_lhs": lhs,
                "bound_rhs": rhs,
                "size": rho.size,
                "verified": True,
                "out": args.out,
            }
        )
    )
    return 0


def cmd_classify(args) -> int:
    k, h, ell = args.k, args.h, args.ell
    if k < 2 or h < 1 or h > 4 or k**h > 16:  # as k >= 2, h > 4 alone tells
        print(
            f"error: classify sweeps 2**(k**h) relations and requires "
            f"k >= 2, h >= 1 and k**h <= 16, got k={k}, h={h}",
            file=sys.stderr,
        )
        return 2
    if not 1 <= ell <= k:
        print(f"error: need 1 <= ell <= k, got ell={ell}", file=sys.stderr)
        return 2
    jobs = args.jobs
    if jobs < 1:
        print(f"error: need jobs >= 1, got {jobs}", file=sys.stderr)
        return 2
    dests = [os.path.realpath(path) for path in (args.out, args.summary) if path]
    if len(dests) > len(set(dests)):  # the JSONL would overwrite the CSV
        print("error: --out and --summary name the same file", file=sys.stderr)
        return 2
    total = 2 ** (k**h)
    start = max(1, args.resume_from)
    ranks = range(start, total)
    chunk = max(1, (len(ranks) + 4 * jobs - 1) // (4 * jobs))
    tasks = [
        (k, h, ell, lo, min(lo + chunk, total), args.timing)
        for lo in range(start, total, chunk)
    ]
    rigid = 0
    with contextlib.ExitStack() as stack:
        # open both destinations first, so a bad path fails before the sweep
        try:
            out, summary = [
                stack.enter_context(open(path, "w", encoding="utf-8")) if path else None
                for path in (args.out, args.summary)
            ]
        except OSError as exc:
            print(f"error: cannot write {exc.filename}: {exc}", file=sys.stderr)
            return 2
        # the chunks follow --jobs, so the output does not depend on the pool
        workers = min(jobs, len(tasks), os.cpu_count() or 1)
        if workers <= 1:
            batches = map(_classify_chunk, tasks)
        else:
            batches = stack.enter_context(Pool(workers)).imap(_classify_chunk, tasks)
        # chunks arrive in rank order and are written as they arrive
        for text, chunk_rigid in batches:
            (out or sys.stdout).write(text)
            rigid += chunk_rigid
        count = len(ranks)
        csv_text = (
            "k,h,ell,total,rigid,not_rigid\n"
            f"{k},{h},{ell},{count},{rigid},{count - rigid}\n"
        )
        # without a summary file the CSV goes wherever the JSONL does not
        (summary or (sys.stdout if out else sys.stderr)).write(csv_text)
    print(f"classified {count} relations", file=sys.stderr)
    return 0


def cmd_bounds(args) -> int:
    ell, h = args.ell, args.h
    if ell < 1 or h < 1 or (args.k is not None and args.k < 2):
        print("error: need ell >= 1, h >= 1 and k >= 2", file=sys.stderr)
        return 2
    _require_printable_bounds(ell, h, args.k)
    rows = [("ell", ell), ("h", h)]
    s = surjection_count(h, ell)
    rows.append(("surjections", s))
    rows.append(("middle_layer", math.comb(s, s // 2)))
    if ell == 2:
        rows.append(("max_k", max_k_2rigid(h)))
    if ell >= 2 and ell < h:
        lo, hi = r_bounds(ell, h)
        rows.append(("r_lower", lo))
        rows.append(("r_upper", hi))
    if args.k is not None:
        rows.append(("k", args.k))
        rows.append(("tuples_needed", math.perm(args.k, ell)))
        rows.append(
            ("sperner_bound_holds", str(sperner_bound_holds(args.k, ell, h)).lower())
        )
    print("name,value")
    for name, value in rows:
        print(f"{name},{value}")
    return 0


def cmd_strong(args) -> int:
    # per suite, the options it cannot run without and the ones it takes
    flags = {"n": "--n", "h": "--h", "fn_file": "--fn-file",
             "arity_cap": "--arity-cap", "dom_cap": "--dom-cap"}
    required, allowed = {
        "phi": (("n",), ("n", "h")),
        "witness": (("fn_file",), ("fn_file",)),
        "chain": (("h",), ("h", "arity_cap", "dom_cap")),
        "limit": ((), ("arity_cap",)),
    }[args.suite]
    for dest in required:
        if getattr(args, dest) is None:
            print(f"error: --suite {args.suite} requires {flags[dest]}", file=sys.stderr)
            return 2
    for dest, flag in flags.items():
        if dest not in allowed and getattr(args, dest) is not None:
            print(f"error: --suite {args.suite} does not take {flag}", file=sys.stderr)
            return 2
    if args.arity_cap is None:
        args.arity_cap = 2
    if args.suite == "phi":
        n = args.n
        h = args.h if args.h is not None else n - 1
        facts = phi_facts(n, h)
        print(_dump({"n": n, "h": h, **facts}))
        return 0 if all(facts.values()) else 1
    if args.suite == "witness":
        try:
            with open(args.fn_file, "r", encoding="utf-8") as fh:
                f = PartialFn.from_json(json.load(fh))
        except _LOAD_ERRORS as exc:
            print(f"error: cannot load function: {exc}", file=sys.stderr)
            return 2
        try:
            w = witness_nontrivial(f)
        except NoWitnessError:
            print(_dump({"trivial": True, "witness": None}))
            return 1
        print(_dump(w.to_json()))
        return 0
    if args.suite == "chain":
        holds = chain_inclusion(args.h, args.arity_cap, args.dom_cap)
        print(
            _dump(
                {
                    "h": args.h,
                    "arity_cap": args.arity_cap,
                    "dom_cap": args.dom_cap,
                    "holds": holds,
                    "separator_arity": args.h + 1,
                }
            )
        )
        return 0 if holds else 1
    holds = limit_is_trivial_clone(args.arity_cap)
    print(_dump({"arity_cap": args.arity_cap, "holds": holds}))
    return 0 if holds else 1


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one `error:` line and exit 2, like
    every other usage error; its subcommand parsers inherit this."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rigidrel",
        description="Hereditary rigidity of finite relations: check, "
        "construct, classify, and inspect bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide hereditary ell-rigidity of a relation file")
    p.add_argument("--relation", required=True, help="path to a relation JSON file")
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="build and verify a rigid relation")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--out", required=True, help="where to write the relation JSON")
    p.add_argument("--format", choices=("mask", "tuples"), default="mask")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("classify", help="classify every nonempty relation at (k, h)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="JSONL destination (default: stdout)")
    p.add_argument("--summary", help="CSV summary destination")
    p.add_argument("--resume-from", type=int, default=1, dest="resume_from")
    p.add_argument(
        "--timing",
        action="store_true",
        help="fill elapsed_micros (off by default to keep output deterministic)",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bounds", help="print the counting bounds as CSV")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("strong", help="two-element strong rigidity suites")
    p.add_argument("--suite", choices=("phi", "witness", "chain", "limit"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--fn-file", dest="fn_file")
    p.add_argument("--arity-cap", type=int, dest="arity_cap", help="default 2")
    p.add_argument("--dom-cap", type=int, default=None, dest="dom_cap")
    p.set_defaults(func=cmd_strong)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
