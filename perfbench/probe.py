"""Set-up probe: one fresh interpreter that imports bellsim and makes a
workload's first call, which fills bellsim's lazy caches (the strategy
matrices, the strategy enumeration, the cumulative mixture weights).

    python3 perfbench/probe.py WORKLOAD WORKDIR

Prints one JSON line with the import time and the first call's time.
``run.py`` times the whole process from outside, so ``setup_s`` also holds
interpreter start-up, as every ``bellsim`` command-line call pays it.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
from workloads import WORKLOADS, import_bellsim  # noqa: E402

bs = import_bellsim()
imported = perf_counter()
WORKLOADS[sys.argv[1]](bs, Path(sys.argv[2]), 0, None).first_call()
done = perf_counter()
print(json.dumps({"import_s": imported - start, "first_call_s": done - imported}))
