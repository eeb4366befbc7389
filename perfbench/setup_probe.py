"""Time `import chanent` plus the first call of a workload, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload>

The first call is one trial at the development seed, so its inputs are the
same in every probe. The timed section is bracketed by compile slices
(calibration.py) run in the probe's own interpreter, because the speed of a
box is a property of each process. `slice_s` is their mean. Prints one JSON line:
{"setup_s": ..., "slice_s": ..., "ok": ..., "error": ...}.
"""

import json
import sys
import time

import calibration  # standard library only, like workloads, so both stay out of the timing
import workloads


def main() -> int:
    workload = workloads.WORKLOADS[sys.argv[1]]
    before = calibration.compile_slice_s()
    start = time.perf_counter()
    cli = workloads.import_cli()
    outcome = workloads.call(cli, workload, 1, workloads.DEV_SEED)
    setup_s = time.perf_counter() - start
    slice_s = (before + calibration.compile_slice_s()) / 2
    ok = outcome.failed == 0
    print(json.dumps({"setup_s": setup_s, "slice_s": slice_s, "ok": ok, "error": outcome.error}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
