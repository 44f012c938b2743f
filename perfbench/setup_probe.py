"""Set-up probe: in a fresh interpreter, time importing systemt and compiling
the closed constant terms one workload uses.  Print the seconds taken and the
mean time of the calibration slices run afterwards, so the caller can scale
the set-up time by this interpreter's speed.

    python3 perfbench/setup_probe.py <toolkit src dir> <workload>
"""

import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS, eval_set  # noqa: E402  (imports systemt from the path above)

for term in WORKLOADS[sys.argv[2]].constant_terms():
    eval_set(term)
took = time.perf_counter() - started

from run import calibration_slice  # noqa: E402

SLICES = 200
print(took, sum(calibration_slice() for _ in range(SLICES)) / SLICES)
