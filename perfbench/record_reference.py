#!/usr/bin/env python3
"""Record the correctness gate's reference: per-cell accuracy and RSRP error of
one pass of each workload at the default seed and gate.REFERENCE_EPOCHS.

    python3 perfbench/record_reference.py [workload ...]

Run it only when a change to the seeded outputs is intended and justified.
"""

from __future__ import annotations

import json
import sys

import gate
import run


def main(argv: list[str]) -> int:
    run.import_ristrack()
    for name in argv or sorted(run.WORKLOADS):
        passes = run.reference_pass(name, None)
        if passes.failed:
            print(f"{name}: {passes.failed} slots failed; reference not written", file=sys.stderr)
            return 1
        gate.REFERENCE_DIR.mkdir(exist_ok=True)
        text = run.WORKLOADS[name].config_text(run.DEFAULT_SEED, gate.REFERENCE_EPOCHS)
        record = {"workload": name, "seed": run.DEFAULT_SEED, "epochs": gate.REFERENCE_EPOCHS,
                  "config_text": text, "cells": passes.quality}
        gate.reference_path(name).write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {gate.reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
