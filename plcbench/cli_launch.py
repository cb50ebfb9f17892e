"""Run `plc.cli` with the layer wrappers of `tracing.py` installed.

Used in place of `python -m plc.cli` by the traced cli workload: it records
when the interpreter and `import plc` are done, installs the wrappers, calls
`plc.cli.main` with its own arguments, and writes the layer summary to the
file named by PLCBENCH_TRACE_OUT.  PLCBENCH_T0 is the parent's
`time.perf_counter()` just before the launch; on Linux that clock is shared
by all processes, so the difference is the start-up time.
"""

import json
import os
import sys
import time

import plc.cli  # found through PYTHONPATH, which the parent sets to ./src

t_imported = time.perf_counter()

import tracing  # noqa: E402  (this script's directory is sys.path[0])

tracer = tracing.Tracer()
tracer.install()
code = plc.cli.main(sys.argv[1:])
sys.stdout.flush()
with open(os.environ["PLCBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
    json.dump({"startup_s": t_imported - float(os.environ["PLCBENCH_T0"]),
               "summary": tracer.summary()}, fh)
sys.exit(code)
