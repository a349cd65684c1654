"""Spans around the library's public functions, installed from outside.

A traced run replaces public functions, methods and the command line's
``json`` module with wrappers that record a span per call.  Nothing in
``src/`` changes: the wrappers are swapped into every ``rigidrel`` module
that holds the original object and swapped back afterwards.  A wrapper
records only while ``Tracer.active`` is set, which the runner sets around
one command line invocation, so the output checks are never traced.

A span has a name, a start, an end, a parent span and an op id.  Spans stay
in memory in flat arrays and are written out once the run ends.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
import time
import types
from array import array
from collections import Counter

# (module, attribute path, span name, kind).  A target missing from the
# library is reported as absent, together with the metrics that need it.
TARGETS = (
    ("kernel", "Relation.__init__", "kernel.relation_build", "function"),
    ("kernel", "Relation.support_index", "kernel.support_index", "cached_property"),
    ("kernel", "Relation.from_json", "cli.from_json", "classmethod"),
    ("kernel", "Relation.to_json", "cli.to_json", "function"),
    ("kernel", "all_partial_fns", "kernel.all_partial_fns", "generator"),
    ("preserve", "preserves", "preserve.preserves", "function"),
    ("rigidity", "omega_contained", "rigidity.omega", "function"),
    ("rigidity", "is_hereditarily_ell_rigid", "rigidity.decide", "function"),
    ("rigidity", "trace", "rigidity.trace", "function"),
    ("construct", "construct_2rigid", "construct.build", "function"),
    ("construct", "construct_ellrigid", "construct.build", "function"),
    ("construct", "AbstractTrace.validate", "construct.validate", "function"),
    ("construct", "rho_from_trace", "construct.rho_from_trace", "function"),
    ("strongrigid", "delta_preserves", "strongrigid.delta_preserves", "function"),
    ("strongrigid", "witness_nontrivial", "strongrigid.witness", "function"),
    ("strongrigid", "verify_witness", "strongrigid.witness", "function"),
    ("cli", "json.load", "cli.json_load", "module_function"),
    ("cli", "json.dumps", "cli.json_dumps", "module_function"),
)


# Every per-layer metric and its unit.  A layer that does not run on a
# workload reads 0 there.
UNITS = {
    "kernel.relation_build_s": "s",
    "kernel.support_index_s": "s",
    "kernel.support_index.members": "count",
    "kernel.all_partial_fns_s": "s",
    "preserve.preserves_s": "s",
    "preserve.preserves.calls": "count",
    "rigidity.omega_s": "s",
    "rigidity.psi_s": "s",
    "rigidity.psi.scan_frac": "ratio",
    "rigidity.decide.calls": "count",
    "rigidity.traces": "count",
    "rigidity.verdict.rigid": "count",
    "rigidity.verdict.omega_fail": "count",
    "rigidity.verdict.psi_fail": "count",
    "construct.assign_s": "s",
    "construct.validate_s": "s",
    "construct.rho_from_trace_s": "s",
    "construct.reverify_s": "s",
    "strongrigid.delta_preserves_s": "s",
    "strongrigid.delta_preserves.calls": "count",
    "strongrigid.witness_s": "s",
    "strongrigid.functions_swept": "count",
    "cli.load_s": "s",
    "cli.serialize_s": "s",
    "cli.classify_jobs1_s": "s",
    "cli.classify_jobs2_s": "s",
    "cli.scaling_eff": "ratio",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.active = False
        self.counts: Counter = Counter()
        self.scan_fracs: list[float] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn, after=None):
        """Wrap fn so each active call records a span; after(result, args)
        runs once the span is closed."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def timed_generator(self, name: str, fn):
        """Wrap a generator function; each step it takes is one span."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self.open(nid) if self.active else None
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if i is not None:
                        self.close(i)
                if i is not None:
                    self.counts[name + ".items"] += 1
                yield item

        return wrapper

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            names = self.names
            for i in range(len(self.end)):
                fh.write(
                    f"{i},{self.parent[i]},{self.op[i]},{names[self.name[i]]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f}\n"
                )


def psi_scan_fraction(f, k: int, ell: int) -> float:
    """Position of a psi witness among all candidates, as a share.

    Candidates run over domains in colex order and, within a domain, over
    injective value tuples in lex order, skipping the identity on the
    domain.
    """
    points = f.dom
    vals = tuple(f.table[p] for p in points)
    per_domain = math.perm(k, ell) - 1
    dom_rank = sum(math.comb(p, i + 1) for i, p in enumerate(points))
    vrank = _perm_rank(vals, k)
    if _perm_rank(points, k) < vrank:
        vrank -= 1
    return (dom_rank * per_domain + vrank + 1) / (math.comb(k, ell) * per_domain)


def _perm_rank(vals, k: int) -> int:
    """Rank of an injective tuple among all such tuples over range(k)."""
    rank = 0
    used: set = set()
    for i, v in enumerate(vals):
        smaller = sum(1 for u in range(v) if u not in used)
        rank += smaller * math.perm(k - i - 1, len(vals) - i - 1)
        used.add(v)
    return rank


class Installation:
    """The wrappers of one traced run; ``remove`` restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: set[str] = set()
        self._undo: list = []
        self._modules = [
            m for n, m in sys.modules.items()
            if n == "rigidrel" or n.startswith("rigidrel.")
        ]
        for module, path, span, kind in TARGETS:
            if not self._install(module, path, span, kind):
                self.absent.add(span)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self, module, path, span, kind) -> bool:
        tr = self.tracer
        mod = sys.modules.get("rigidrel." + module)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            return False
        orig = vars(owner)[attr]
        if kind == "module_function":
            # Wrap in a private copy of the imported module, so that only
            # the calls made from this library module are traced.
            if sys.modules.get(owner.__name__) is owner:
                copy = types.ModuleType(owner.__name__)
                copy.__dict__.update(vars(owner))
                self._set(mod, owner_name, copy)
                owner = copy
            setattr(owner, attr, tr.timed(span, orig))
            return True
        if kind == "cached_property":
            if not isinstance(orig, functools.cached_property):
                return False
            new = functools.cached_property(
                tr.timed(span, orig.func, after=self._count_members)
            )
            new.__set_name__(owner, attr)
            self._set(owner, attr, new)
            return True
        if kind == "classmethod":
            if not isinstance(orig, classmethod):
                return False
            self._set(owner, attr, classmethod(tr.timed(span, orig.__func__)))
            return True
        if owner is not mod:  # a plain method
            self._set(owner, attr, tr.timed(span, orig))
            return True
        if kind == "generator":
            new = tr.timed_generator(span, orig)
        else:
            after = {"rigidity.decide": self._count_verdict,
                     "rigidity.trace": self._count_traces}.get(span)
            new = tr.timed(span, orig, after=after)
        for m in self._modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._set(m, key, new)
        return True

    def _count_members(self, index, args):
        if isinstance(index, dict):
            self.tracer.counts["kernel.support_index.members"] += sum(
                len(b) for b in index.values()
            )

    def _count_traces(self, tm, args):
        """Count the traces the library builds: one per injective tuple."""
        self.tracer.counts["rigidity.traces"] += len(tm.items)

    def _count_verdict(self, report, args):
        """Count verdicts by side and, for each decision that reached the
        psi stage, how far into the candidate order the scan went."""
        rho, ell = args[0], args[1]
        c = self.tracer.counts
        if report.verdict:
            c["rigidity.verdict.rigid"] += 1
        elif report.failing_side == "omega":
            c["rigidity.verdict.omega_fail"] += 1
            return
        else:
            c["rigidity.verdict.psi_fail"] += 1
        f = report.failing_function
        if report.verdict:
            self.tracer.scan_fracs.append(1.0)
        elif f is not None and len(f.dom) == ell:
            self.tracer.scan_fracs.append(psi_scan_fraction(f, rho.k, ell))

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def layer_metrics(tr: Tracer, absent: set) -> tuple[dict, list]:
    """Per-layer metrics from the spans: totals, self times and counts.

    Returns (metrics, names of metrics whose target is absent).  The
    pool and overhead metrics of ``UNITS`` are measured by the runner.
    """
    nspans = len(tr.end)
    dur = [tr.end[i] - tr.start[i] for i in range(nspans)]
    child = [0.0] * nspans
    for i in range(nspans):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]
    total: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    reverify = 0.0
    build = tr._ids.get("construct.build", -2)
    for i in range(nspans):
        name = tr.names[tr.name[i]]
        total[name] += dur[i]
        self_time[name] += dur[i] - child[i]
        calls[name] += 1
        if name == "rigidity.decide" and tr.parent[i] >= 0 and tr.name[tr.parent[i]] == build:
            reverify += dur[i]
    c = tr.counts
    fracs = tr.scan_fracs
    specs = (
        ("kernel.relation_build_s", ("kernel.relation_build",), total["kernel.relation_build"]),
        ("kernel.support_index_s", ("kernel.support_index",), total["kernel.support_index"]),
        ("kernel.support_index.members", ("kernel.support_index",), c["kernel.support_index.members"]),
        ("kernel.all_partial_fns_s", ("kernel.all_partial_fns",), total["kernel.all_partial_fns"]),
        ("preserve.preserves_s", ("preserve.preserves",), total["preserve.preserves"]),
        ("preserve.preserves.calls", ("preserve.preserves",), calls["preserve.preserves"]),
        ("rigidity.omega_s", ("rigidity.omega",), total["rigidity.omega"]),
        ("rigidity.psi_s", ("rigidity.decide", "rigidity.omega", "kernel.support_index"),
         self_time["rigidity.decide"]),
        ("rigidity.psi.scan_frac", ("rigidity.decide",), sum(fracs) / len(fracs) if fracs else 0.0),
        ("rigidity.decide.calls", ("rigidity.decide",), calls["rigidity.decide"]),
        ("rigidity.traces", ("rigidity.trace",), c["rigidity.traces"]),
        ("rigidity.verdict.rigid", ("rigidity.decide",), c["rigidity.verdict.rigid"]),
        ("rigidity.verdict.omega_fail", ("rigidity.decide",), c["rigidity.verdict.omega_fail"]),
        ("rigidity.verdict.psi_fail", ("rigidity.decide",), c["rigidity.verdict.psi_fail"]),
        ("construct.assign_s",
         ("construct.build", "construct.validate", "construct.rho_from_trace", "rigidity.decide"),
         self_time["construct.build"]),
        ("construct.validate_s", ("construct.validate",), total["construct.validate"]),
        ("construct.rho_from_trace_s", ("construct.rho_from_trace",),
         self_time["construct.rho_from_trace"]),
        ("construct.reverify_s", ("construct.build", "rigidity.decide"), reverify),
        ("strongrigid.delta_preserves_s", ("strongrigid.delta_preserves",),
         total["strongrigid.delta_preserves"]),
        ("strongrigid.delta_preserves.calls", ("strongrigid.delta_preserves",),
         calls["strongrigid.delta_preserves"]),
        ("strongrigid.witness_s", ("strongrigid.witness",), total["strongrigid.witness"]),
        ("strongrigid.functions_swept", ("kernel.all_partial_fns",),
         c["kernel.all_partial_fns.items"]),
        ("cli.load_s", ("cli.json_load", "cli.from_json"),
         total["cli.json_load"] + total["cli.from_json"]),
        ("cli.serialize_s", ("cli.to_json", "cli.json_dumps"),
         total["cli.to_json"] + total["cli.json_dumps"]),
    )
    metrics, missing = {}, []
    for name, needs, value in specs:
        if absent.intersection(needs):
            missing.append(name)
        else:
            metrics[name] = float(value) if UNITS[name] != "count" else value
    return metrics, missing

