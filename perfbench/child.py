"""One timed pipeline process, spawned by run.py.

    python3 perfbench/child.py TIMING_JSON [cli arguments...]

Runs capaminer.cli.main on the arguments and writes, to TIMING_JSON (kept
outside the pipeline's output directory), the monotonic clock on entering
and on leaving main, the process's CPU seconds spent inside main, main's
exit code and the process's peak resident set.
With no cli arguments it stops right before main, which times set-up alone.
The parent reads the clock before spawning; on Linux time.perf_counter is
CLOCK_MONOTONIC, which every process shares.
"""

import json
import resource
import sys
import time

from capaminer import cli

if __name__ == "__main__":
    entered, cpu_entered = time.perf_counter(), time.process_time()
    timing_path, argv = sys.argv[1], sys.argv[2:]
    code = cli.main(argv) if argv else None
    left, cpu_left = time.perf_counter(), time.process_time()
    with open(timing_path, "w") as fh:
        json.dump({"entered": entered, "left": left,
                   "cpu_s": cpu_left - cpu_entered, "exit_code": code,
                   "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss},
                  fh)
