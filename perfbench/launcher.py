"""Starts the benchmark's worker interpreters from a process that stays small.

    python3 -S perfbench/launcher.py

Linux carries the peak resident memory of a process that starts a child
(with vfork, as Python's subprocess does) into the child's ru_maxrss.  A
worker started by run.py, which holds reference tables and outputs,
would report run.py's peak instead of its own, so run.py starts this
launcher once and sends it requests, one JSON line each on stdin:
{"argv": [...], "input": str, "timeout": seconds, "cwd": dir}.  Each
reply is one JSON line: the monotonic-clock time just before the child
was started, and the child's exit code, stdout and the end of its
stderr, or {"timeout": true}.  The launcher exits when stdin closes.
"""

import json
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        started_ns = time.monotonic_ns()
        try:
            proc = subprocess.run(request["argv"], input=request["input"],
                                  capture_output=True, text=True,
                                  timeout=request["timeout"], cwd=request["cwd"])
            reply = {"started_ns": started_ns, "returncode": proc.returncode,
                     "stdout": proc.stdout, "stderr": proc.stderr[-2000:]}
        except subprocess.TimeoutExpired:
            reply = {"started_ns": started_ns, "timeout": True}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
