"""Set-up probe: a fresh interpreter imports the package and builds one workload's inputs.

Run by ``run.py``, which times it; ``python3 perfbench/probe.py <workload> [--toy]``.
Prints ``{"speed": ..., "probe_s": ...}``: the host's speed measured right
after the work (see ``hostclock.speed_now``), and the seconds that took. The
work is too short for the host clock's periodic probes, and they would need
SciPy imported before it starts.
"""

import json
import os
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

if __name__ == "__main__":
    from workloads import WORKLOADS

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="probe-", dir=out) as workdir:
        WORKLOADS[sys.argv[1]].setup("--toy" in sys.argv[2:], Path(workdir))

    start = time.perf_counter()
    from hostclock import speed_now

    speed = speed_now()
    print(json.dumps({"speed": speed, "probe_s": time.perf_counter() - start}))
