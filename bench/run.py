"""Benchmark entry point for flexboom.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and measures the ``flexboom``
package under ``src/`` there.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics from a separately traced run.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "closed_loop", "equilibrium_map")


class Terminated(BaseException):
    """Raised by the SIGTERM handler."""


def _terminate(signum, frame):
    raise Terminated


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "flexboom" / "__init__.py").is_file():
        print(f"error: no flexboom sources under {src}", file=sys.stderr)
        return 2
    # The matrices are tiny: pin BLAS to one thread before numpy loads, so
    # thread start-up and scheduling do not enter the figures.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import flexboom
    if Path(flexboom.__file__).resolve().parent != (src / "flexboom").resolve():
        print(f"error: imported flexboom from {flexboom.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import harness

    # Turn a termination request into an exception that no handler in the
    # passes absorbs, so the work directory is removed and a running set-up
    # probe is killed and waited for.
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             ROOT)
    except Terminated:
        return 128 + signal.SIGTERM
    for line in result.report:
        print(line)
    for failure in result.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result.contract_line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
