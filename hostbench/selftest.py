#!/usr/bin/env python3
"""Self-test of the benchmark's failure count.

Run from the repository root:

    python3 hostbench/selftest.py

For every workload it makes one short run against the real pins, which
must pass, and one against deliberately wrong pins (each makespan off by
one nanosecond, the sweep's table with one character changed), in which
every run must fail. Exits non-zero if either expectation does not hold.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(workload, pins):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(run.PINNED_SEED), "--seconds", "1", "--trace", "0",
           "--pins", str(pins)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    run.build()
    good = HERE / "pins.json"
    pins = run.load_pins(good)
    for workload_pins in pins.values():
        if "makespan_ns" in workload_pins:
            workload_pins["makespan_ns"] += 1
    table = pins["fig8-sweep-256"]["table"]
    pins["fig8-sweep-256"]["table"] = table.replace("100%", "101%", 1)
    run.SCRATCH.mkdir(parents=True, exist_ok=True)
    bad = run.SCRATCH / "wrong-pins.json"
    bad.write_text(json.dumps(pins))

    ok = True
    for workload in sorted(run.WORKLOADS):
        right, wrong = bench(workload, good), bench(workload, bad)
        passed = right["failed"] == 0 and right["correct"]
        caught = (wrong["failed"] == wrong["attempted"] > 0
                  and not wrong["correct"])
        print(f"{workload}: real pins {right['failed']}/{right['attempted']} "
              f"failed, wrong pins {wrong['failed']}/{wrong['attempted']} "
              f"failed -> {'ok' if passed and caught else 'FAIL'}")
        ok = ok and passed and caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
