"""Pin the canonical outputs: rewrite bench/digests.json.

    python3 bench/pin.py

Runs every workload once at the default seed, checks each op's output and
records the digest of its stdout and output files.  Run it only when a
change is meant to alter an output; otherwise a digest that differs is a
failed op.
"""

import json
import os
import sys

from run import BENCH, DEFAULT_SEED, ROOT, Runner, import_package, workdir

if __name__ == "__main__":
    os.chdir(ROOT)
    cli = import_package()
    import workloads

    pinned = {}
    for name, workload in workloads.WORKLOADS.items():
        seed = DEFAULT_SEED
        ops = workloads.generate(name, seed, "full", workdir(name, "full"))
        runner = Runner(cli, workload, None)
        runner.run_pass(ops)
        if runner.failures:
            sys.exit("error: not pinning failed ops:\n" + "\n".join(runner.failures))
        pinned[name] = {str(seed) if workload.seeded else "any": runner.digests}
        print(f"{name}: {len(runner.digests)} ops pinned", file=sys.stderr)
    with open(BENCH / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
