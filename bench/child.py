"""One benchmark process: import brwlab from the checkout, read the
configs, call brwlab.cli.main on each and write a result file.

Usage: python3 bench/child.py SPEC.json

The spec names the checkout root, the (config, output directory) pairs,
the worker count and whether to trace.  Only what a user's own run would
need is imported before the first cli.main call, because the parent
times set-up as spawn to that call on the shared monotonic clock.
"""

import json
import os
import resource
import sys
import time


def peak_rss_kb():
    """High-water resident set of this process since its exec.

    ru_maxrss is not used where /proc is readable: Linux carries it over
    from the forked parent, so it would report the benchmark's own
    process whenever that is the larger."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import brwlab
    from brwlab import cli

    if not os.path.abspath(brwlab.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"brwlab imported from {brwlab.__file__}, not {src}", file=sys.stderr)
        return 3
    for run in spec["runs"]:
        with open(run["config"]) as fh:
            json.load(fh)
    main_fn = cli.main
    tracer = None
    if spec["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        main_fn = install(tracer)

    t_main = time.monotonic()
    statuses = []
    main_s = []
    for run in spec["runs"]:
        t0 = time.perf_counter()
        statuses.append(main_fn(["--config", run["config"], "--workers", str(spec["workers"]),
                                 "--out", run["out"]]))
        main_s.append(time.perf_counter() - t0)

    peak_kb = peak_rss_kb()
    result = {
        "t_main": t_main,
        "statuses": statuses,
        "main_s": main_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "trace": tracer.dump() if tracer is not None else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
