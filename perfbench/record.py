"""Record the reference outputs every benchmark pass is checked against.

    python3 perfbench/record.py

Runs each workload once at the reference seed and writes its exit codes,
stdout and witness replay texts to perfbench/reference/<workload>.json.
Workloads that reuse another's reference (the jobs 2 run) must reproduce it
byte for byte, or nothing is written. Re-record only when the program's
output is meant to change.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import WORKDIR


def record(workload) -> dict:
    workloads.setup(WORKDIR, workload)
    capture = workloads.ReportCapture()
    try:
        out = workloads.run_pass(workload.commands(WORKDIR, workloads.REFERENCE_SEED), capture)
    finally:
        capture.close()
    if out.error:
        raise RuntimeError(f"{workload.name}: {out.error}")
    return {
        "seed": workloads.REFERENCE_SEED,
        "commands": [{"exit": code, "stdout": stdout}
                     for code, stdout in zip(out.exits, out.stdouts)],
        "replays": out.replays,
    }


def main() -> int:
    recorded = {name: record(w) for name, w in workloads.WORKLOADS.items()}
    for name, w in workloads.WORKLOADS.items():
        if recorded[name] != recorded[w.reference]:
            print(f"error: {name} does not reproduce the {w.reference} output",
                  file=sys.stderr)
            return 1
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, w in workloads.WORKLOADS.items():
        if w.reference == name:
            path = workloads.REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(recorded[name], indent=1) + "\n", encoding="utf-8")
            print(f"wrote {path.relative_to(workloads.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
