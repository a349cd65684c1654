"""The benchmark's workloads: input generation, op lists and output checks.

Every op is one invocation of the ``rigidrel`` command line with the argv a
user would type.  ``generate`` runs in the set-up process and writes the
inputs plus a manifest of ops; ``check`` runs in the measuring process after
each op, outside its timed span, and returns the problems it found (an empty
list means the output is correct).

Only public library names that the planned refactors keep are used here, so
those refactors need not edit the benchmark.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from rigidrel.construct import construct_2rigid
from rigidrel.kernel import PartialUnaryFn, Relation, beta, beta_lt, tuple_rank
from rigidrel.rigidity import RigidityReport, omega_contained, trace, verify_report

# Input sizes per scale.  "full" is what the benchmark measures; "tiny" is
# for the smoke tests.  The construct sizes are fixed rather than seeded:
# the psi scan grows about as k**4, so a seeded size would make the median
# op time follow the seed instead of the code.  They are the largest
# verified sizes at l = 2 and the l = 3 size where omega containment
# dominates.
SCALES = {
    "full": {
        "construct": [(59, 2, 4), (10, 3, 4)],
        "check_k": 30,
        "check_h": 4,
        "check_psi": 26,
        "check_rigid": 2,
        "check_diag": 4,
        "census": [(2, 4, 2, 16256), (4, 2, 3, 0)],
        "strong": [
            ["--suite", "limit", "--arity-cap", "3"],
            ["--suite", "chain", "--h", "2", "--arity-cap", "3"],
            ["--suite", "chain", "--h", "3", "--arity-cap", "3"],
            ["--suite", "chain", "--h", "4", "--arity-cap", "3"],
            ["--suite", "phi", "--n", "4"],
            ["--suite", "phi", "--n", "5", "--h", "3"],
            ["--suite", "phi", "--n", "6", "--h", "3"],
        ],
    },
    "tiny": {
        "construct": [(5, 2, 4), (4, 3, 4)],
        "check_k": 5,
        "check_h": 3,
        "check_psi": 4,
        "check_rigid": 0,
        "check_diag": 1,
        "census": [(2, 3, 2, 56), (3, 2, 3, 0)],
        "strong": [
            ["--suite", "limit", "--arity-cap", "2"],
            ["--suite", "chain", "--h", "2", "--arity-cap", "2"],
            ["--suite", "phi", "--n", "4"],
        ],
    },
}

CENSUS_JOBS = 2


# -- the independent verdict oracle ---------------------------------------


def omega_holds(rho: Relation, ell: int) -> bool:
    """Omega containment: every function with image below ell preserves rho.

    When every tuple with fewer than ell distinct entries is a member, each
    collapsed image is one of them, so containment holds without a scan.
    At ell = 2 the converse holds too: a missing constant tuple (c, ..., c)
    is the image of any member under the total constant map to c.  Only at
    ell >= 3 with such a tuple missing does this defer to the library.
    """
    if all(t in rho for t in beta_lt(ell, rho.h, range(rho.k))):
        return True
    if ell == 2:
        return False
    return omega_contained(rho, ell).verdict


def traces_incomparable(tm) -> bool:
    """No trace is contained in, or equal to, the trace of another tuple."""
    bit = {}
    groups: dict[int, list] = {}
    for _, tx in tm.items:
        m = 0
        for p in tx:
            m |= bit.setdefault(p, 1 << len(bit))
        groups.setdefault(len(tx), []).append(m)
    if any(len(set(g)) < len(g) for g in groups.values()):
        return False
    sizes = sorted(groups)
    for i, small in enumerate(sizes):
        for large in sizes[i + 1 :]:
            for m1 in groups[small]:
                if any(m1 & ~m2 == 0 for m2 in groups[large]):
                    return False
    return True


def oracle_verdict(rho: Relation, ell: int) -> bool:
    """The paper's criterion: omega containment and strict trace
    incomparability.  It shares no code with the psi scan it checks."""
    return omega_holds(rho, ell) and traces_incomparable(trace(rho, ell))


# -- helpers ----------------------------------------------------------------


def _load_relation(path) -> Relation:
    with open(path, "r", encoding="utf-8") as fh:
        return Relation.from_json(json.load(fh))


def _parse(stdout: str, problems: list):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        problems.append(f"stdout is not one JSON object: {stdout[:80]!r}")
        return None


def _op(argv, items=1, files=None, params=None) -> dict:
    return {
        "name": " ".join(argv),
        "argv": argv,
        "items": items,
        "files": files or {},
        "params": params or {},
    }


def _stratified_toggles(base: Relation, rng, npsi: int, nrigid: int) -> list:
    """Two-symbol tuples to toggle in a 2-rigid relation.

    Returns npsi toggles that make the relation fail on the psi side, the
    i-th with its first comparable domain in the i-th of npsi equal slices
    of the colex order, then nrigid toggles that keep it rigid.
    """
    k, h = base.k, base.h
    patterns = sorted(beta(2, h, (0, 1)))
    bit = {p: 1 << i for i, p in enumerate(patterns)}
    mask = {x: sum(bit[p] for p in tx) for x, tx in trace(base, 2).items}
    pairs = [(a, b) for b in range(k) for a in range(b)]  # colex order

    def first_comparable(a, b, p):
        """Colex index of the first domain whose trace becomes comparable
        once (a, b) composed with p is toggled, or None if none does."""
        m = dict(mask)
        m[(a, b)] ^= bit[p]
        m[(b, a)] ^= bit[tuple(1 - e for e in p)]
        found = [i for i, x in enumerate(pairs)
                 if any(y != x and m[x] & ~m[y] == 0 for y in ((a, b), (b, a)))]
        if any(m[(a, b)] & ~m[y] == 0 for y in m if y != (a, b)):
            found.append(pairs.index((a, b)))
        return min(found) if found else None

    def draw(lo, hi, accept):
        for _ in range(10_000):
            a, b = pairs[rng.randrange(lo, hi)]
            p = rng.choice(patterns)
            if accept(first_comparable(a, b, p)):
                return tuple((a, b)[e] for e in p)
        raise RuntimeError(f"no suitable toggle among pairs {lo} to {hi - 1}")

    out = []
    for i in range(npsi):
        lo, hi = i * len(pairs) // npsi, (i + 1) * len(pairs) // npsi
        out.append(draw(lo, hi, lambda pos: pos is not None and lo <= pos < hi))
    out += [draw(0, len(pairs), lambda pos: pos is None) for _ in range(nrigid)]
    return out


# -- workloads --------------------------------------------------------------


class Workload:
    name = ""
    # True when the op list depends on the seed; outputs are then pinned
    # for the default seed only.
    seeded = False
    # True when an op runs a worker pool, whose calls a traced run cannot
    # see; the workload then provides single_process_argv.
    pooled = False

    def generate(self, seed: int, scale: str, workdir: Path) -> list:
        raise NotImplementedError

    def check(self, op: dict, rc, stdout: str) -> list:
        raise NotImplementedError


class Construct(Workload):
    """Build, verify and write the paper's relations at the largest
    verified sizes.  Item: one verified relation."""

    name = "construct"

    def generate(self, seed, scale, workdir):
        sizes = list(SCALES[scale]["construct"])
        random.Random(seed).shuffle(sizes)
        ops = []
        for k, ell, h in sizes:
            out = str(workdir / f"construct-k{k}-l{ell}-h{h}.json")
            argv = ["construct", "--k", str(k), "--ell", str(ell), "--h", str(h),
                    "--out", out]
            ops.append(_op(argv, files={"relation": out},
                           params={"k": k, "ell": ell, "h": h}))
        return ops

    def check(self, op, rc, stdout):
        k, ell, h = (op["params"][x] for x in ("k", "ell", "h"))
        problems = []
        if rc != 0:
            return [f"exit code {rc}, expected 0"]
        out = _parse(stdout, problems)
        if out is None:
            return problems
        if out.get("verified") is not True:
            problems.append("summary lacks \"verified\": true")
        if (out.get("k"), out.get("ell"), out.get("h")) != (k, ell, h):
            problems.append("summary parameters differ from the argv")
        rho = _load_relation(op["files"]["relation"])
        if (rho.k, rho.h) != (k, h):
            problems.append(f"written relation has k={rho.k}, h={rho.h}")
        if out.get("size") != rho.size:
            problems.append(f"summary size {out.get('size')} != file size {rho.size}")
        if ell == 2:
            want = k + (2 ** (h - 1) - 1) * math.comb(k, 2)
            if rho.size != want:
                problems.append(f"size {rho.size}, expected {want}")
        if not oracle_verdict(rho, ell):
            problems.append("written relation does not decide as rigid")
        return problems


class CheckPerturbed(Workload):
    """Decide relations one toggled tuple away from a verified construction.

    A toggle adds or removes one two-symbol tuple of a seeded pair.  The
    psi scan stops at the first domain, in colex order, whose trace became
    comparable, so its cost is set by that domain's position.  The ops are
    stratified over that position: each psi-side negative is drawn from its
    own slice of the colex order, so that every seed spreads the early exits
    evenly over the scan.  A fixed few toggles leave the relation rigid (a
    full scan), and a seeded few delete a diagonal tuple, which fails on the
    omega side.  Item: one verdict.
    """

    name = "check-perturbed"
    seeded = True

    def generate(self, seed, scale, workdir):
        cfg = SCALES[scale]
        base = construct_2rigid(cfg["check_k"], cfg["check_h"])
        k, h = base.k, base.h
        rng = random.Random(seed)
        edits = [("toggle", t) for t in _stratified_toggles(
            base, rng, cfg["check_psi"], cfg["check_rigid"])]
        edits += [("delete", (c,) * h) for c in rng.sample(range(k), cfg["check_diag"])]
        rng.shuffle(edits)
        members = set(base.ranks)
        ops = []
        for i, (kind, t) in enumerate(edits):
            ranks = members ^ {tuple_rank(t, k)}
            rho = Relation.from_ranks(k, h, sorted(ranks))
            path = str(workdir / f"perturbed-{i:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(rho.to_json("tuples"), fh, separators=(",", ":"))
            argv = ["check", "--relation", path, "--ell", "2"]
            ops.append(_op(argv, files={"relation": path},
                           params={"edit": kind, "tuple": list(t)}))
        return ops

    def check(self, op, rc, stdout):
        problems = []
        rho = _load_relation(op["files"]["relation"])
        expected = oracle_verdict(rho, 2)
        if rc != (0 if expected else 1):
            problems.append(f"exit code {rc}, expected {0 if expected else 1}")
        out = _parse(stdout, problems)
        if out is None:
            return problems
        if out.get("rigid") is not expected:
            problems.append(f"verdict {out.get('rigid')}, oracle says {expected}")
            return problems
        if expected:
            return problems
        side = out.get("failing_side")
        if (side == "omega") != (not omega_holds(rho, 2)):
            problems.append(f"failing side {side!r} disagrees with omega containment")
        fn = out.get("failing_function")
        witness = out.get("witness")
        try:
            report = RigidityReport(
                False,
                PartialUnaryFn.from_json(fn),
                side,
                None if witness is None else tuple(witness),
            )
        except (TypeError, KeyError, ValueError) as exc:
            problems.append(f"negative report does not parse: {exc}")
            return problems
        if not verify_report(rho, 2, report):
            problems.append("negative report does not replay")
        return problems


class Census(Workload):
    """Exhaustive classify sweeps at k**h = 16 with a two-worker pool.
    Item: one relation verdict.  The sweeps ignore the seed."""

    name = "classify-census"
    pooled = True

    def generate(self, seed, scale, workdir):
        ops = []
        for k, h, ell, rigid in SCALES[scale]["census"]:
            stem = workdir / f"classify-k{k}-h{h}-l{ell}"
            out, summary = f"{stem}.jsonl", f"{stem}.csv"
            argv = ["classify", "--k", str(k), "--h", str(h), "--ell", str(ell),
                    "--jobs", str(CENSUS_JOBS), "--out", out, "--summary", summary]
            total = 2 ** (k**h) - 1
            ops.append(_op(argv, items=total, files={"jsonl": out, "summary": summary},
                           params={"k": k, "h": h, "ell": ell, "total": total,
                                   "rigid": rigid}))
        return ops

    def check(self, op, rc, stdout):
        p = op["params"]
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        if stdout:
            problems.append("classify wrote to stdout despite --out and --summary")
        want = (
            "k,h,ell,total,rigid,not_rigid\n"
            f"{p['k']},{p['h']},{p['ell']},{p['total']},{p['rigid']},"
            f"{p['total'] - p['rigid']}\n"
        )
        with open(op["files"]["summary"], "r", encoding="utf-8") as fh:
            got = fh.read()
        if got != want:
            problems.append(f"summary {got!r}, expected {want!r}")
        with open(op["files"]["jsonl"], "rb") as fh:
            lines = fh.read().count(b"\n")
        if lines != p["total"]:
            problems.append(f"{lines} JSONL records, expected {p['total']}")
        return problems

    def single_process_argv(self, argv):
        """The same sweep without a worker pool, so that a traced run sees
        every call."""
        i = argv.index("--jobs")
        return argv[: i + 1] + ["1"] + argv[i + 2 :]


class StrongSuites(Workload):
    """The two-element strong-rigidity suites.  Item: one invocation.
    The suites ignore the seed beyond the order they run in."""

    name = "strong-suites"
    CRITERIA = ("holds", "nontrivial", "preserves_all_below", "fails_delta_1_n")

    def generate(self, seed, scale, workdir):
        suites = [list(s) for s in SCALES[scale]["strong"]]
        random.Random(seed).shuffle(suites)
        return [_op(["strong"] + s) for s in suites]

    def check(self, op, rc, stdout):
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        out = _parse(stdout, problems)
        if out is None:
            return problems
        fields = [f for f in self.CRITERIA if f in out]
        if not fields:
            problems.append("no criterion field in the output")
        problems += [f"{f} is {out[f]!r}" for f in fields if out[f] is not True]
        return problems


WORKLOADS = {w.name: w for w in (Construct(), CheckPerturbed(), Census(), StrongSuites())}


def generate(workload: str, seed: int, scale: str, workdir: Path) -> list:
    """Write the inputs of one workload into workdir and return its ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[workload].generate(seed, scale, workdir)
    with open(workdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(ops, fh, indent=1)
    return ops
