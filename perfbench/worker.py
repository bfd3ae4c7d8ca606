"""The run process: imports sidelab and drives `sidelab.cli.main` in-process.

    python3 perfbench/worker.py setup CONFIG...   time `import sidelab` plus load_config
    python3 perfbench/worker.py run SPEC.json     run timed (and traced) workload passes

`run.py` starts it with BLAS pinned to one thread and `src` on PYTHONPATH.
Both modes also time the host-speed probe of hostspeed.py: the run mode
before each pass and after the last, the setup mode after its set-up.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def _setup(configs: list[str]) -> None:
    start = time.perf_counter()
    import sidelab

    for path in configs:
        sidelab.cli.load_config(path)
    elapsed = time.perf_counter() - start

    import hostspeed

    hostspeed.probe()  # first call pays for lazy set-up in numpy and LAPACK
    print(json.dumps({"setup_s": elapsed, "probes": [hostspeed.probe() for _ in range(2)]}))


def _passes(configs: list[str], seconds: float, minimum: int, recorder=None) -> dict:
    """Repeat the workload pass until `seconds` have been measured and at
    least `minimum` passes ran, with a host-speed probe before each pass and
    after the last; returns each pass's wall time and exit codes, and the probes."""
    import hostspeed
    import sidelab

    times, codes, probes = [], [], [hostspeed.probe()]
    spent = 0.0
    while spent < seconds or len(times) < minimum:
        pass_codes = []
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            for config in configs:
                if recorder is not None:
                    recorder.op += 1
                try:
                    pass_codes.append(sidelab.cli.main(["--config", config]))
                except Exception:  # an operation that crashes counts as failed; the run goes on
                    traceback.print_exc()
                    pass_codes.append(None)
            elapsed = time.perf_counter() - start
        probes.append(hostspeed.probe())
        times.append(elapsed)
        codes.append(pass_codes)
        spent += elapsed
    return {"pass_s": times, "codes": codes, "probes": probes}


def _run(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import sidelab  # noqa: F401  (import cost belongs to setup_s, not to the passes)

    configs, seconds = spec["configs"], spec["seconds"]
    warm = _passes(configs, 0.0, 1)
    result = {}
    if spec["trace"]:
        import spans

        result["untraced"] = _passes(configs, seconds / 2, 2)
        recorder = spans.Recorder()
        recorder.install()
        result["traced"] = _passes(configs, seconds / 2, 2, recorder)
        with open(spec["spans"], "w") as fh:
            json.dump({"spans": recorder.spans, "counts": recorder.counts,
                       "passes": len(result["traced"]["pass_s"])}, fh)
        codes = result["untraced"]["codes"] + result["traced"]["codes"]
    else:
        result["untraced"] = _passes(configs, seconds, 3)
        codes = result["untraced"]["codes"]
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    result.update(
        codes=warm["codes"] + codes,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        threads=threads,
    )
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        _setup(sys.argv[2:])
    else:
        _run(sys.argv[2])
