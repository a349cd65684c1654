"""Benchmark of the rigidrel command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each op calls ``rigidrel.cli.main(argv)`` in this process with the
argv a user would type, and its output is checked after the timed span.
Ops run in rounds over the workload's op list.  Each op has an equal share
of ``--seconds`` and runs at least three times and until its runs fill its
share, so a short op runs more often than a long one; an op's time is the
median of its runs.

Times are CPU times (user plus system) of the processes that do the work:
this process, plus the pool workers it reaps for ``classify --jobs 2``,
scaled to a reference host speed (see ``REF_KERNEL_S``).  Raw CPU and wall
times are kept in the report line.

Set-up is timed in fresh interpreters: ``bench/gen.py`` starts, imports the
package and writes the workload's inputs, five to fifteen times; ``setup_s``
is the median of their scaled CPU times.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
With ``--trace 1`` untraced and traced passes alternate (see
``tracing.py``); the per-layer metrics come from a traced pass, their
times are wall times, and ``trace.overhead_s`` is the difference in scaled
CPU time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's metadata, ``failed_frac`` and the tail latency.  Intermediate files go
to ``.bench_work/`` under the root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
# Set-up runs at least SETUP_REPEATS times and, while it is cheap, as
# often as fits SETUP_BUDGET_S of wall time, up to SETUP_MAX_REPEATS.
SETUP_REPEATS = 5
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 2.0
MIN_RUNS = 3
DEFAULT_SEED = 1  # the seed whose check-perturbed outputs are pinned

# On a shared host the speed of a CPU second drifts by a third within a
# minute, as other tenants come and go on the same cores and caches, so raw
# CPU times of the same work vary as much.  A fixed calibration kernel is
# therefore timed before, during (every PROBE_PERIOD_S of wall time) and
# after each timed span, and the span's CPU time, less the kernel's own, is
# scaled by REF_KERNEL_S over the kernel's mean time: times read as they
# would on a host where the kernel takes REF_KERNEL_S.  The kernel does the
# same kind of work as the library (tuple hashing, dict updates, frozenset
# algebra) but runs none of its code, so a change to the package moves the
# scaled times and never the scale.  On a 2-vCPU x86-64 VM, timing the
# kernel around each op cut the pass-to-pass spread of check-perturbed's
# CPU time from 31 % to 3 %.
REF_KERNEL_S = 0.003  # its typical CPU time on that VM
PROBE_PERIOD_S = 0.25


def kernel() -> int:
    d: dict = {}
    for i in range(6000):
        t = (i % 97, i % 89, i >> 3)
        d[t] = d.get(t, 0) + 1
    fs = [frozenset(range(i % 13)) for i in range(600)]
    return sum(len(f & fs[0]) for f in fs) + len(d)


def kernel_s() -> float:
    """CPU seconds the calibration kernel takes now: the best of three."""
    best = float("inf")
    for _ in range(3):
        c0 = time.process_time()
        kernel()
        best = min(best, time.process_time() - c0)
    return best


class SpeedProbe:
    """Times the calibration kernel around and during a span.

    While the span runs, a SIGALRM every PROBE_PERIOD_S runs the kernel in
    this process's main thread; ``spent`` is this process's CPU time taken
    by those runs.  Child processes do not inherit the timer.  A traced
    span is probed only at its ends, so that no kernel run lands inside
    the library's spans.
    """

    def __init__(self, during=True):
        self.during = during

    def __enter__(self):
        self.samples = [kernel_s()]
        self.spent = 0.0
        self._busy = False
        if self.during:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        c0 = time.process_time()
        self.samples.append(kernel_s())
        self.spent += time.process_time() - c0
        self._busy = False

    def __exit__(self, *exc):
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        self.samples.append(kernel_s())

    def scaled(self, cpu: float) -> float:
        """A CPU time taken inside the span at reference speed."""
        return cpu * REF_KERNEL_S / statistics.fmean(self.samples)


def import_package():
    """Import rigidrel from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rigidrel" / "cli.py").is_file():
        raise SystemExit(f"error: no rigidrel sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import rigidrel.cli

    if Path(rigidrel.cli.__file__).resolve().parent != (src / "rigidrel").resolve():
        raise SystemExit(f"error: rigidrel was imported from {rigidrel.cli.__file__}")
    return rigidrel.cli


def workdir(workload: str, scale: str) -> Path:
    return Path(".bench_work") / scale / workload


def children_cpu() -> float:
    """CPU seconds of every child process reaped so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def cpu_now() -> float:
    """CPU seconds of this process and of its reaped children."""
    return time.process_time() + children_cpu()


def timed_setup(workload: str, seed: int, scale: str) -> tuple[list, list, list]:
    """Run the set-up in fresh interpreters; return each one's scaled CPU
    time, raw CPU time and wall time."""
    cmd = [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale]
    norm, cpu, wall = [], [], []
    while len(wall) < SETUP_REPEATS or (
            len(wall) < SETUP_MAX_REPEATS and sum(wall) < SETUP_BUDGET_S):
        with SpeedProbe() as probe:
            c0, t0 = children_cpu(), time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall.append(time.perf_counter() - t0)
            cpu.append(children_cpu() - c0)
        norm.append(probe.scaled(cpu[-1]))
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed: {proc.stderr.strip()}")
    return norm, cpu, wall


def digest(stdout: str, files: dict) -> str:
    h = hashlib.sha256(stdout.encode())
    for role in sorted(files):
        h.update(role.encode())
        with open(files[role], "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Runs ops, checks their outputs and keeps the per-op results.

    An op is checked in full until one run passes; later runs of it must
    reproduce that run's outputs byte for byte.
    """

    def __init__(self, cli, workload, pins):
        self.cli = cli
        self.workload = workload
        self.pins = pins  # op name -> digest, or None when nothing is pinned
        self.times: dict[str, list] = {}  # op name -> scaled CPU time of each run
        self.raw: dict[str, list] = {}  # op name -> raw CPU time of each run
        self.walls: dict[str, list] = {}  # op name -> wall time of each run
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}  # op name -> digest of its outputs
        self.probe_during = True  # probe the host's speed inside each op

    def invoke(self, argv, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with SpeedProbe(during=self.probe_during) as probe, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.op_id += 1
                tracer.active = True
            c0, t0 = cpu_now(), time.perf_counter()
            try:
                rc = self.cli.main(list(argv))
            except Exception as e:  # an op that raises is a failed op
                rc, exc = None, e
            dt, cpu = time.perf_counter() - t0, cpu_now() - c0
            if tracer is not None:
                tracer.active = False
        cpu -= probe.spent
        return rc, out.getvalue(), dt, cpu, probe.scaled(cpu), exc

    def run_op(self, op, argv=None, tracer=None) -> tuple[float, float]:
        """Run and check one op; return its wall and scaled CPU time."""
        rc, stdout, dt, cpu, norm, exc = self.invoke(argv or op["argv"], tracer)
        self.attempted += 1
        self.times.setdefault(op["name"], []).append(norm)
        self.raw.setdefault(op["name"], []).append(cpu)
        self.walls.setdefault(op["name"], []).append(dt)
        if exc is not None:
            problems = [f"raised {exc!r}"]
        elif op["name"] in self.digests:
            if digest(stdout, op["files"]) != self.digests[op["name"]]:
                problems = ["outputs differ from the op's first run"]
            else:
                problems = []
        else:
            try:
                problems = self.workload.check(op, rc, stdout)
            except Exception as e:  # a check that cannot run fails the op
                problems = [f"check raised {e!r}"]
            if not problems:
                got = digest(stdout, op["files"])
                if self.pins is not None and self.pins.get(op["name"]) != got:
                    problems.append(f"digest {got[:12]} differs from the pinned one")
                else:
                    self.digests[op["name"]] = got
        if problems:
            self.failures.append(f"{op['name']}: {'; '.join(problems)}")
        return dt, norm

    def run_pass(self, ops, single_process=False, tracer=None) -> tuple[float, float]:
        """One pass over the ops; returns the summed op wall and scaled CPU
        times."""
        wall = cpu = 0.0
        for op in ops:
            argv = self.workload.single_process_argv(op["argv"]) if single_process else None
            dt, norm = self.run_op(op, argv, tracer)
            wall, cpu = wall + dt, cpu + norm
        return wall, cpu


def tail(times_ms: list):
    """Highest whole percentile with at least 10 samples beyond it."""
    n = len(times_ms)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    rank = -(-p * n // 100)  # nearest rank, rounded up
    return {"percentile": p, "value_ms": sorted(times_ms)[rank - 1],
            "samples": n, "beyond": n - rank}


def metadata(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def load_pins(workload, seed: int, scale: str):
    if scale != "full":
        return None
    with open(BENCH / "digests.json", "r", encoding="utf-8") as fh:
        pinned = json.load(fh)[workload.name]
    if workload.seeded:
        return pinned.get(str(seed))
    return pinned["any"]


def execute(workload_name: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", pins=None):
    """Run one workload and return (result line, report line).

    pins maps op names to expected digests; by default the pinned ones.
    """
    os.chdir(ROOT)
    cli = import_package()
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import tracing
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    setup, setup_cpu, setup_wall = timed_setup(workload_name, seed, scale)
    with open(workdir(workload_name, scale) / "manifest.json", encoding="utf-8") as fh:
        ops = json.load(fh)
    if pins is None:
        pins = load_pins(workload, seed, scale)
    runner = Runner(cli, workload, pins)
    report = {"bench": "rigidrel", "workload": workload_name, **metadata(seed),
              "scale": scale, "setup_runs_s": setup, "setup_cpu_s": setup_cpu,
              "setup_wall_s": setup_wall}

    if not trace:
        share = seconds / len(ops)
        pending = ops
        while pending:
            runner.run_pass(pending)
            pending = [op for op in pending
                       if len(runner.walls[op["name"]]) < MIN_RUNS
                       or sum(runner.walls[op["name"]]) < share]
        cpu = {op["name"]: statistics.median(runner.times[op["name"]]) for op in ops}
        raw = {op["name"]: statistics.median(runner.raw[op["name"]]) for op in ops}
        wall = {op["name"]: statistics.median(runner.walls[op["name"]]) for op in ops}
        # A pooled op's peak is that of its largest process; the set-up
        # children reaped earlier stay at the size of a bare interpreter.
        rss = [resource.RUSAGE_SELF] + ([resource.RUSAGE_CHILDREN] if workload.pooled else [])
        metrics = {
            "setup_s": statistics.median(setup),
            "items_per_cpu_s": sum(op["items"] for op in ops) / sum(cpu.values()),
            "op_cpu_p50_ms": statistics.median(cpu.values()) * 1000,
            "peak_rss_mb": max(resource.getrusage(w).ru_maxrss for w in rss) / 1024,
        }
        units = {"setup_s": "s", "items_per_cpu_s": "items/s", "op_cpu_p50_ms": "ms",
                 "peak_rss_mb": "MB"}
        every_ms = [t * 1000 for ts in runner.times.values() for t in ts]
        report.update(ops=len(ops), op_cpu_tail_ms=tail(every_ms),
                      op_raw_cpu_p50_ms=statistics.median(raw.values()) * 1000,
                      op_wall_p50_ms=statistics.median(wall.values()) * 1000,
                      items_per_wall_s=sum(op["items"] for op in ops) / sum(wall.values()))
    else:
        # Untraced and traced passes alternate, twice each, and the overhead
        # compares the best scaled CPU time of each; the per-layer metrics
        # come from the last traced pass.  The speed probe runs only between
        # ops, so that no kernel run lands inside the library's spans.  A
        # pooled sweep cannot be traced from here, so it is timed untraced
        # and its one-process form is traced; the pool's scaling compares
        # their wall times.
        runner.probe_during = False
        single = workload.pooled
        untraced, untraced_wall, traced, pooled = [], [], [], []
        for _ in range(2):
            if single:
                pooled.append(runner.run_pass(ops)[0])
            wall, cpu = runner.run_pass(ops, single_process=single)
            untraced_wall.append(wall)
            untraced.append(cpu)
            tracer = tracing.Tracer()
            inst = tracing.Installation(tracer)
            try:
                traced.append(runner.run_pass(ops, single_process=single, tracer=tracer)[1])
            finally:
                inst.remove()
        metrics, absent = tracing.layer_metrics(tracer, inst.absent)
        jobs1, jobs2 = min(untraced_wall), min(pooled, default=0.0)
        metrics["cli.classify_jobs1_s"] = jobs1 if single else 0.0
        metrics["cli.classify_jobs2_s"] = jobs2
        metrics["cli.scaling_eff"] = jobs1 / (workloads.CENSUS_JOBS * jobs2) if single else 0.0
        metrics["trace.overhead_s"] = min(traced) - min(untraced)
        units = tracing.UNITS
        spans = workdir(workload_name, scale) / "spans.csv.gz"
        tracer.write(spans)
        report.update(absent=absent, spans=str(spans), span_count=len(tracer.end),
                      untraced_cpu_s=untraced, traced_cpu_s=traced,
                      untraced_wall_s=untraced_wall, pooled_wall_s=pooled)

    report["failed_frac"] = len(runner.failures) / runner.attempted
    report["failures"] = runner.failures[:5]
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("construct", "check-perturbed", "classify-census",
                                 "strong-suites"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in report["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
