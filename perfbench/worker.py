"""One timed pass of a library workload, in a fresh interpreter.

``run.py`` starts this script, times it up to the ``ready`` line (that is
the set-up time: interpreter start, ``import logtrig`` and ``catalog()``),
then sends a JSON spec on stdin.  An empty spec ends the process after
set-up, after one speed-gauge reading.  Otherwise the worker runs one
pass, traced or not, between two gauge readings, and prints one JSON line
with the pass time, the gauge, peak RSS and the checked summary.  Nothing
is imported before ``logtrig`` so the set-up time is the package's own.
"""

import sys

import logtrig

logtrig.catalog()
sys.stdout.write("ready\n")
sys.stdout.flush()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if src not in Path(logtrig.__file__).resolve().parents:
        print(json.dumps({"ok": False, "reason": f"logtrig imported from "
                          f"{logtrig.__file__}, not from the source tree"}))
        return 1
    raw = sys.stdin.read()
    if not raw.strip():
        print(json.dumps({"ok": True, "gauge_s": calibrate.reading()}))
        return 0
    spec = json.loads(raw)
    inputs = spec["inputs"]
    reference = (workloads.load_reference()
                 if inputs["workload"] == "closed-forms" else None)
    gauge_before = calibrate.reading()
    tracer = tracing.Tracer().install() if spec["traced"] else None
    try:
        t0 = time.perf_counter()
        summary = workloads.run_pass(inputs, reference)
        elapsed = time.perf_counter() - t0
    except workloads.CheckFailed as exc:
        print(json.dumps({"ok": False, "reason": str(exc)}))
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    gauge_s = 0.5 * (gauge_before + calibrate.reading())
    out = {"ok": True, "sweep_s": elapsed, "gauge_s": gauge_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "summary": summary}
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        out["unpatched"] = tracer.missing
        if spec.get("spans_path"):
            Path(spec["spans_path"]).write_text(json.dumps(tracer.dump()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
