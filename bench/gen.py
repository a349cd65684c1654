"""Set-up of one benchmark run: generate a workload's inputs.

    python3 bench/gen.py --workload NAME --seed N --scale full|tiny

Writes the inputs and ``manifest.json`` under ``.bench_work/<scale>/<NAME>``
of the current directory.  ``run.py`` times this script in a fresh
interpreter, so its wall time covers interpreter start, the package import
and input generation.
"""

import argparse

from run import import_package, workdir

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), required=True)
    args = parser.parse_args()
    import_package()
    import workloads

    workloads.generate(args.workload, args.seed, args.scale,
                       workdir(args.workload, args.scale))
