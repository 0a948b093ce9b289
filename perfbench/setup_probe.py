"""Set up one workload in a fresh process, as a user's process would:
import csrflab (``csrflab.cli``, what the ``csrf-lab`` command imports)
and, when serving, start the server and register and log in its clients.
csrflab is imported before any module of the benchmark, so that the
standard library it pulls in is charged to it.  Prints the monotonic
clock when set-up is done and the seconds spent importing the
benchmark's own modules, which run.py leaves out of setup_s; then tears
down.

    python3 perfbench/setup_probe.py matrix_tcp 1
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import csrflab.cli  # noqa: E402,F401

before = time.monotonic()
import workloads  # noqa: E402

own_imports = time.monotonic() - before
workload = workloads.new_workload(sys.argv[1], int(sys.argv[2]))
workload.setup(workloads.import_lab())
print(time.monotonic(), own_imports, flush=True)
workload.teardown()
