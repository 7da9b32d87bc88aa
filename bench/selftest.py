#!/usr/bin/env python3
"""Quick self-test of the benchmark. Run from the repository root:

    python3 bench/selftest.py

It runs every workload through bench/run.py at reduced size (--size quick,
one pass; two when traced) and checks that:

- the result line has exactly the keys correct, attempted, failed, metrics,
  with every output check passing;
- --trace 0 emits every end-to-end metric of BENCHMARK.json with its unit,
  and --trace 1 every per-layer metric;
- a second seed also passes every output check;
- two traced runs give identical work counts;
- the trace shows the layer split that the roadmap's optimisation items rely
  on (LAYER_SPLIT below). A change that moves work between layers on purpose
  updates LAYER_SPLIT and says so.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("spectral", "measurement", "verify")

# workload -> (span or module with the largest self time, counts that must be zero, counts that must not)
LAYER_SPLIT = {
    "spectral": ("operators.eigenstate_values", ["numerics.fourier.calls"],
                 ["operators.eigenstate_values.samples_z_lt10", "operators.eigenstate_values.samples_z_ge10"]),
    "measurement": ("numerics.fourier", ["operators.eigenstate_values.samples_z_ge10"],
                    ["numerics.fourier.points", "measurement.halfline_propagate.kernel_points"]),
    "verify": ("operators", ["numerics.fourier.calls"], ["operators.build_operator.calls"]),
}


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", "quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        results = {"seed 1 trace 0": run(workload, 1, 0), "seed 2 trace 0": run(workload, 2, 0),
                   "seed 1 trace 1, first": run(workload, 1, 1), "seed 1 trace 1, second": run(workload, 1, 1)}
        for label, res in results.items():
            trace = int(label.split()[3].rstrip(","))
            tag = f"{workload} {label}"
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{tag}: result keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{tag}: every output check passes ({res['failed']} of {res['attempted']} failed)")
            emitted = {name: m["unit"] for name, m in res["metrics"].items()}
            expect(emitted == declared[trace], f"{tag}: emits exactly the declared metrics with their units")
        traced = [results["seed 1 trace 1, first"]["metrics"], results["seed 1 trace 1, second"]["metrics"]]
        counts = [{k: m["value"] for k, m in t.items() if m["unit"] != "s"} for t in traced]
        expect(counts[0] == counts[1], f"{workload}: two traced runs give identical work counts")

        dominant, zero, nonzero = LAYER_SPLIT[workload]
        layer_trace = json.loads((BENCH / "out" / f"{workload}-seed1-trace1.json").read_text())
        first = next(p["trace"] for p in layer_trace["passes"] if p["traced"])
        self_s = dict(first["module_self_s"]) if "." not in dominant else {
            span: v["self_s"] for span, v in first["layers"].items()}
        top = max(self_s, key=self_s.get)
        expect(top == dominant, f"{workload}: largest self time is {dominant} (got {top})")
        for name in zero:
            expect(counts[0][name] == 0, f"{workload}: {name} is 0 (got {counts[0][name]})")
        for name in nonzero:
            expect(counts[0][name] > 0, f"{workload}: {name} is positive (got {counts[0][name]})")

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
