"""Run one credmask command with the benchmark's span wrappers installed.

The traced run of the subprocess workload starts this instead of
``python -m credmask``. ``BENCH_OP`` names the operation the spans belong
to and ``BENCH_TRACE_OUT`` the file they are appended to when the command
ends.
"""

import os
import runpy
import sys

from tracing import CHILD_ID_STRIDE, Tracer, write_records

op = int(os.environ["BENCH_OP"])
tracer = Tracer(id_base=op * CHILD_ID_STRIDE)
tracer.install()

code = 1
try:
    with tracer.operation(op, "cli.main"):
        # as ``python -m credmask`` does, so only the wrappers differ
        runpy.run_module("credmask", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
finally:
    write_records(os.environ["BENCH_TRACE_OUT"], tracer.records())
sys.exit(code)
