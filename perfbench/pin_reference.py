"""Write reference/<name>.json: the outcomes each workload must reproduce.

    python3 perfbench/pin_reference.py [--seeds 0,1,7]

Runs every distinct workload configuration once per seed in a fresh process
and refuses to pin outcomes that differ between seeds or that contain a fail.
Only re-pin when a change is meant to alter qglue's reported outcomes.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, WORK, WORKLOADS, Deadline, counts, launch, outcomes, qglue_cmd, read_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,7")
    seeds = [int(s) for s in parser.parse_args(argv).seeds.split(",")]
    WORK.mkdir(exist_ok=True)
    pinned = {}
    for workload in WORKLOADS.values():
        name = workload["reference"]
        if name in pinned:
            continue
        seen = []
        for seed in seeds:
            out = WORK / f"pin_{name}_{seed}.csv"
            unit = launch(
                qglue_cmd([*workload["args"], "--seed", str(seed), "--out", str(out)]),
                WORK / "pin.log",
                Deadline(900),
            )
            if unit["code"] != 0:
                print(f"{name} seed {seed}: qglue exited {unit['code']}", file=sys.stderr)
                return 1
            seen.append(outcomes(read_report(out)))
        if any(records != seen[0] for records in seen):
            print(f"{name}: outcomes differ between seeds {seeds}", file=sys.stderr)
            return 1
        pinned[name] = {"args": workload["args"], "counts": counts(seen[0]), "records": seen[0]}
        print(name, pinned[name]["counts"])
    for name, reference in pinned.items():
        with open(HERE / "reference" / f"{name}.json", "w", encoding="utf-8") as handle:
            rows = ",\n  ".join(json.dumps(record) for record in reference["records"])
            handle.write(
                f'{{"args": {json.dumps(reference["args"])},\n'
                f' "counts": {json.dumps(reference["counts"])},\n'
                f' "records": [\n  {rows}\n ]}}\n'
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
