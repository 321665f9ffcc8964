"""Run one graphact CLI command in a fresh process and record its timings.

Usage: python3 child.py <src dir> <result.json> <trace 0|1> -- <graphact args>

The command runs through `graphact.cli.main`, exactly as the console script
would run it. Around it this file records the import time, spans for the
light (untraced) or full (traced) set of trace points, the loop's own
per-frame samples, the host probes (see hostprobe.py) taken just before and
after the command, and the process's peak RSS, and writes them as JSON.
"""

import json
import os
import resource
import sys
import time

T_START = time.perf_counter()


def main(argv):
    src, result_path, trace = argv[0], argv[1], argv[2] == "1"
    args = argv[argv.index("--") + 1:]
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracing import LIGHT_POINTS, TRACE_POINTS, Tracer

    tracer = Tracer()
    t0 = time.perf_counter()
    import graphact.cli as cli
    t1 = tracer.begin("cli.import", t=t0)
    tracer.end(t1, t=time.perf_counter())
    from hostprobe import KINDS, probe_ms
    t_probe = time.perf_counter()
    probes = {kind: [probe_ms(kind)] for kind in KINDS}
    probe_s = time.perf_counter() - t_probe
    with open(os.devnull, "w") as devnull:
        stdout, sys.stdout = sys.stdout, devnull
        try:
            with tracer.installed(TRACE_POINTS if trace else LIGHT_POINTS):
                with tracer.span("cli." + args[0]):
                    rc = cli.main(args)
        finally:
            sys.stdout = stdout
    t_probe = time.perf_counter()
    for kind in KINDS:
        probes[kind].append(probe_ms(kind))
    probe_s += time.perf_counter() - t_probe
    with open(result_path, "w") as f:
        json.dump({"rc": rc, "t_start": T_START, "spans": tracer.spans, "probes": probes,
                   "probe_s": probe_s,
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
