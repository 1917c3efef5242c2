"""``python -m qwim`` between two timings of the calibration kernel.

    python3 bench/qwim_cli.py <qwim arguments>

Runs qwim's ``__main__`` as ``-m`` does.  The kernel is timed before and
after the command, the fastest of ``RUNS`` runs each time.  The mean of
the two goes to standard error as a last line ``calibration<TAB>seconds``,
so a subprocess op can be normalised by the speed of the core it ran on
while it ran.
"""

import runpy
import sys

from calibration import kernel_seconds

# the fastest of 7 runs tracked the host's speed better than that of 2
# (1.4 ms of a command's 0.8 s)
RUNS = 7

if __name__ == "__main__":
    before = min(kernel_seconds() for _ in range(RUNS))
    sys.argv[0] = "qwim"
    try:
        runpy.run_module("qwim", run_name="__main__", alter_sys=True)
    finally:
        after = min(kernel_seconds() for _ in range(RUNS))
        sys.stderr.write(f"calibration\t{0.5 * (before + after)!r}\n")
