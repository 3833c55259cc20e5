#!/usr/bin/env python3
"""Record the reference result digests that run.py compares against.

    python3 perfbench/record_digests.py

For every workload and every seed in SEEDS this runs the digest prefix (the
first ``digest_items`` items) untimed and writes the SHA-256 of their
canonical records to perfbench/digests.json.  Re-record only when a change is
meant to alter the exact results; the file's diff then shows which answers
moved.
"""

import json
import sys

import run

SEEDS = range(32)


def main():
    run.import_library()
    import workloads
    from speed import Speedometer

    table = {}
    for name in run.WORKLOAD_NAMES:
        table[name] = {}
        for seed in SEEDS:
            wl = workloads.WORKLOADS[name]()
            res, _ = run.measure(wl, run.Inputs(wl, seed), Speedometer(), count=wl.digest_items)
            if res.failures:
                sys.exit(f"{name} seed {seed}: items {res.failures} failed")
            table[name][str(seed)] = res.digest(wl.digest_items)
            print(name, seed, table[name][str(seed)], flush=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
