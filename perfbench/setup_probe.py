"""One set-up sample, or one reference sample, taken in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> < op0-input.json
    python3 perfbench/setup_probe.py --reference

With a workload, reads op 0's input as JSON on stdin, then times from before
`import qdotsim` (numpy comes in through it) until that first, cold op has
returned, and prints {"seconds": ...}. With --reference it times the same
kind of start-up without qdotsim: import numpy, then run the calibration
kernel REFERENCE_KERNELS times. run.py pairs each sample with a reference
sample taken just before it (see calibrate.py).
"""
import json
import sys
import time
from pathlib import Path

REFERENCE_KERNELS = 25  # about the CPU time of importing qdotsim plus a cold op


def main() -> None:
    here = Path(__file__).resolve().parent
    if sys.argv[1] == "--reference":
        t0 = time.perf_counter()
        import calibrate  # imports numpy

        for _ in range(REFERENCE_KERNELS):
            calibrate.kernel_time()
    else:
        inp = json.loads(sys.stdin.read())
        sys.path.insert(0, str(here.parent / "src"))
        t0 = time.perf_counter()
        import workloads  # imports qdotsim

        workloads.make(sys.argv[1]).run(inp)
    print(json.dumps({"seconds": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
