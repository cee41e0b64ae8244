"""One benchmark pass in a fresh interpreter.

The parent starts this script with ``PYTHONPATH`` set to the checkout's
``src/``.  It imports the CLI, notes the monotonic clock (the end of set-up)
and times a probe before and after the import (see ``probe.py``).  Then it
reads a job from stdin -- ``{"ops": [argv, ...], "trace": bool}`` -- runs
every op through ``cncrystal.cli.main`` in this process, and writes one JSON
object to stdout: the set-up facts, the wall time of the ops and their time
rescaled to reference speed, peak RSS, each op's exit status and document,
and with tracing on the tracer's report.

With ``--setup-only`` it writes the set-up facts and exits without a job.
"""

import sys
import time

from probe import SpeedProbe, timed_probe

FIRST_PROBE_S = timed_probe()
import cncrystal.cli  # noqa: E402

SETUP_END = time.monotonic()
LAST_PROBE_S = timed_probe()

import contextlib  # noqa: E402  (after the set-up clock on purpose)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_job(job: dict) -> dict:
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    # the probe would run inside the tracer's spans, so traced passes go without
    probe = SpeedProbe() if tracer is None else None
    results = []
    start = time.perf_counter()
    with probe or contextlib.nullcontext():
        for argv in job["ops"]:
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    status = cncrystal.cli.main(argv)
            except Exception:  # an escaping error is a failed op, not a lost one
                status = "exception: " + traceback.format_exc(limit=3)
            results.append([status, out.getvalue()])
    elapsed = time.perf_counter() - start
    report = {
        "wall_s": elapsed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
        "trace": None if tracer is None else tracer.report(),
    }
    if probe is not None:
        report["wall_s"] = elapsed - probe.probe_seconds()
        report["work_s"] = probe.work_seconds()
        report["probe_s"] = probe.median_probe()
    return report


def main() -> None:
    if sys.argv[1:] == ["--setup-only"]:
        report = {}
    else:
        report = run_job(json.load(sys.stdin))
    report.update(setup_end=SETUP_END, setup_probes_s=[FIRST_PROBE_S, LAST_PROBE_S])
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
