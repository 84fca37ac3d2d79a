"""One benchmark repetition in a fresh interpreter.

Usage: ``python child.py SPEC_JSON``, where SPEC_JSON holds ``launched``
(the parent's ``time.monotonic()`` just before starting this process),
``commands`` and ``probes`` (CLI argument lists) and ``trace``.  Prints
one JSON line: set-up and run times, peak RSS, CPU time, one exit code
per command and, when tracing, the spans.
"""

import json
import resource
import sys
import time
import traceback


def _call(main, argv) -> int:
    try:
        return main(argv)
    except Exception:  # an escaped exception is a failed command, not a failed benchmark
        traceback.print_exc()
        return 1


def peak_rss_mb() -> float:
    """High-water resident set of this process image (VmHWM).

    ru_maxrss is not used: Linux carries the parent's peak across exec
    into it, so it would report the benchmark's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(spec: dict) -> dict:
    from spinledger import cli

    setup_s = time.monotonic() - spec["launched"]
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    codes = [_call(cli.main, argv) for argv in spec["commands"]]
    run_s = time.perf_counter() - start
    codes += [_call(cli.main, argv) for argv in spec["probes"]]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "codes": codes,
        "spans": tracer.spans if tracer else None,
    }


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
