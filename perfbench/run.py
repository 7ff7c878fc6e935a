#!/usr/bin/env python3
"""Repository benchmark: time to a solution at ε and served load-case sweeps.

Run from the repository root::

    python3 perfbench/run.py --workload pipe-multisolve-hmat --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it (``# info …``) records the resolved
solver configuration, ``nproc`` and the accuracy figures.  See
``perfbench/README.md`` for the workloads and metrics.

The benchmark imports the program from ``src/`` next to this directory
and exits with status 2 when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: scratch space for the server socket and temporary files, inside the
#: checkout (relative, so the socket path stays short)
WORK_DIR = ".perfbench_tmp"


def pin_environment() -> None:
    """Drop ``REPRO_*`` overrides and pin BLAS to one thread per worker.

    Must run before numpy is imported: BLAS reads its thread count once.
    """
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(WORK_DIR, exist_ok=True)
    os.environ["TMPDIR"] = os.path.abspath(WORK_DIR)
    pin_environment()
    sys.path.insert(0, str(src))

    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    result, info = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), socket_dir=WORK_DIR)
    for name, metric in result["metrics"].items():
        print(f"{name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print("# info " + json.dumps(info, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
