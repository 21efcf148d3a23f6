"""Start processes for run.py from a small process and report their resource use.

A child's max-RSS, as the kernel reports it, is at least the resident size
its parent had when it was started, and the benchmark's own process grows
while it checks large outputs.  Jobs are therefore started from this process,
which stays small, so each job's ``peak_rss_mb`` is its own.

Protocol: one JSON request per line on standard input,
``{"argv": [...], "out": path, "err": path, "timeout": seconds or null}``,
answered by one JSON line ``[returncode, wall_s, cpu_s, max_rss_kib]``.
The process exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            timer = None
            if request["timeout"] is not None:
                timer = threading.Timer(request["timeout"], proc.kill)
                timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                if timer is not None:
                    timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = [proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss]
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
