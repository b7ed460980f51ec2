"""One set-up sample: import demixcs.cli, build and apply each family once.

Run as `python3 perfbench/setup_probe.py FAMILY:N:M ...` with `src` on
PYTHONPATH; prints the seconds from just before `import demixcs.cli` to
the end.  NumPy is imported before the clock starts: loading its shared
libraries took 60 to 130 ms on a 2-vCPU VM, varying with the host's page
cache, and none of it is under the program's control.
"""

import sys
import time

import numpy as np

started = time.perf_counter()

import demixcs.cli  # noqa: E402,F401
from demixcs.linop import hstack  # noqa: E402
from demixcs.models import build_family  # noqa: E402

for spec in sys.argv[1:]:
    family, n, m = spec.split(":")
    model = build_family(family, int(n), int(m), 0)
    theta = hstack(model.A, model.H)
    theta.apply_adjoint(theta.apply(np.ones(theta.cols)))
print(repr(time.perf_counter() - started))
