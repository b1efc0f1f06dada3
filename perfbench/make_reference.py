"""Record the (status, solved) reference that run.py compares against.

    python3 perfbench/make_reference.py

Runs, untimed, the first runs of each workload at the default seed and
writes perfbench/reference.json: two letters per run (status letter from
``workloads.STATUS_LETTERS``, then 1/0 for solved) in run order (grid:
per call, cells in results.csv order), plus the sha256 of every grid
call's results.csv.  Record it again only when a change is meant to alter
statuses or solved flags, and say so.
"""

import json
import os
import sys

import run

COUNTS = {"grid": 4, "solve-long": 96, "solve-short": 3000}


def main() -> int:
    run.import_program()
    import workloads

    os.makedirs(run.WORK, exist_ok=True)
    seed = run.DEFAULT_SEED
    ref = {"seed": seed}
    for name, count in COUNTS.items():
        m = workloads.measure(name, seed, 0, run.WORK, count=count)
        bad = [o for o in m.outcomes if o.failures]
        if bad:
            raise SystemExit(f"{name}: {len(bad)} runs fail their checks; not recording")
        ref[name] = {"codes": "".join(o.code for o in m.outcomes)}
        if name == "grid":
            ref[name]["csv_sha256"] = m.csv_digests
        print(f"{name}: {len(m.outcomes)} runs recorded", flush=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
