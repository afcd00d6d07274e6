"""Installs the benchmark's tracer in every Python process that starts with
this directory on PYTHONPATH and PERFBENCH_TRACE_DIR set, pool workers
included, whichever way they are started."""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_trace

    perfbench_trace.install(os.environ["PERFBENCH_TRACE_DIR"])
