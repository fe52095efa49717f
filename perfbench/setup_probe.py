"""Set-up probe: run in a fresh interpreter by ``run.py`` to time set-up.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.  Imports the
package, builds the workload's specs and materialises its tasks, then
prints ``{"import_s", "build_s"}`` as one JSON line.
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    imported = time.perf_counter()
    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).setup()
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": built - imported}))
