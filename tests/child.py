"""Scripts run on slipctl in a fresh interpreter, for the peak-RSS and
BLAS thread-count tests."""

import os
import subprocess
import sys

import slipctl

# The child reads its own peak RSS (VmHWM) because Linux carries ru_maxrss
# across exec: there it would start at the size of the test runner.
PEAK_KIB = """
def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
"""


def run_child(script, threads=1):
    """Standard output of a script run on this package in a fresh interpreter
    with the given number of BLAS threads; the script can call peak_kib(),
    its own peak RSS in KiB."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(slipctl.__file__)))
    n = str(threads)
    env = dict(os.environ, OMP_NUM_THREADS=n, OPENBLAS_NUM_THREADS=n, MKL_NUM_THREADS=n,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", PEAK_KIB + script], env=env, check=True,
                          capture_output=True, text=True, timeout=600).stdout
