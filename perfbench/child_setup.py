"""Time icotile's set-up in a fresh process.

Usage: python3 child_setup.py MODULE [MODULE ...]

Imports the named modules, then makes the first calls that finish lazy
set-up (the catalog records and the verified decomposition ledger), and
prints one JSON object with the three durations in seconds.
"""

import importlib
import json
import sys
from time import perf_counter


def main(modules: list[str]) -> None:
    t0 = perf_counter()
    for name in modules:
        importlib.import_module(name)
    t1 = perf_counter()
    from icotile import catalog, inflation

    catalog.all_records()
    t2 = perf_counter()
    inflation.dodecahedron_ledger()
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "all_records_s": t2 - t1, "ledger_s": t3 - t2}))


if __name__ == "__main__":
    main(sys.argv[1:])
