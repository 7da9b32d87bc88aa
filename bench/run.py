#!/usr/bin/env python3
"""qarrival benchmark: one workload, closed loop, one process, no extra threads.

Run from the repository root:

    python3 bench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

The workloads are defined in bench/workloads.py. A run repeats passes of the
workload back to back until --seconds have elapsed (at least one pass; two
with --trace 1). Every operation's output is checked, and every pass must
reproduce the first pass's outputs byte for byte. The metrics are the ones
named in BENCHMARK.json at the repository root:

- --trace 0: the end-to-end metrics, with tracing off. Times are medians over
  passes. setup_s is the median of several fresh processes timed from start
  to ready (numpy and qarrival imported, inputs built).
- --trace 1: the per-layer metrics. Passes alternate traced and untraced; the
  traced ones time every call into qarrival's public functions (see
  bench/tracing.py) and must give identical work counts; trace.overhead_s is
  the traced median minus the untraced median.

Stage times, the machine record and the trace are printed before the result
and written to bench/out/. The last line of stdout is the JSON result.
BLAS is left at its default thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def _import_qarrival():
    """Import qarrival from this checkout's src/, never from elsewhere."""
    if not (SRC / "qarrival" / "__init__.py").is_file():
        raise SystemExit(f"error: no qarrival sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qarrival
    import qarrival.cli

    if Path(qarrival.__file__).resolve().parent != SRC / "qarrival":
        raise SystemExit(f"error: imported qarrival from {qarrival.__file__}, not {SRC}")
    return qarrival


def _setup_once(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    numpy and qarrival and built the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        try:
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"error: setup probe failed (exit {proc.returncode})")
    return elapsed


def _run_pass(ops: list, tracer, record_spans: bool) -> dict:
    """One pass over the operations; checks run outside the timed calls."""
    outputs: dict = {}
    results = []
    if tracer is not None:
        tracer.start_pass(record_spans)
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        for op in ops:
            text, problems = "", []
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = perf_counter()
                try:
                    text = op.run()
                except Exception as exc:  # an operation's failure is a result, not the end of the run
                    problems.append(f"{type(exc).__name__}: {exc}")
                seconds = perf_counter() - start
            problems += [f"warning: {w.message}" for w in caught]
            if not problems:
                try:
                    problems += op.check(text, outputs)
                except Exception as exc:  # a malformed output fails its check
                    problems.append(f"check raised {type(exc).__name__}: {exc}")
            outputs[op.label] = text
            results.append({"label": op.label, "stage": op.stage, "seconds": seconds, "problems": problems,
                            "sha256": hashlib.sha256(text.encode()).hexdigest()})
    record = {"traced": tracer is not None, "wall_s": sum(r["seconds"] for r in results), "ops": results}
    if tracer is not None:
        record["trace"] = tracer.pass_record()
        if record_spans:
            record["spans"] = tracer.spans
    return record


def _machine(args: argparse.Namespace) -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                          "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    import ctypes

    with contextlib.suppress(OSError):
        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            if "openblas" in path and ".so" in path:
                lib = ctypes.CDLL(path)
                for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                             "openblas_get_num_threads"):
                    fn = getattr(lib, name, None)
                    if fn is not None:
                        fn.restype = ctypes.c_int
                        return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None outside a clone)."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qarrival").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def _end_to_end(names: dict, passes: list, setup: list) -> dict:
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in names.items()}


def _per_layer(names: dict, passes: list, tracing) -> dict:
    traced = [p["trace"] for p in passes if p["traced"]]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    first = traced[0]
    out = {}
    for name, unit in names.items():
        head, _, key = name.rpartition(".")
        if name == "trace.overhead_s":
            value = statistics.median(p["wall_s"] for p in passes if p["traced"]) - statistics.median(untraced)
        elif head in tracing.MODULES and key == "self_s":
            value = statistics.median(t["module_self_s"][head] for t in traced)
        elif head in tracing.MODULES and key == "errors":
            value = first["errors"][head]
        elif key == "calls":
            value = first["layers"].get(head, {}).get("calls", 0)
        elif key == "self_s":
            value = statistics.median(t["layers"].get(head, {}).get("self_s", 0.0) for t in traced)
        elif key in tracing.COUNTERS.get(head, (None, ()))[1]:
            value = first["counts"].get(name, 0)
        else:
            raise SystemExit(f"error: BENCHMARK.json names unknown per-layer metric {name!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def _report(args, passes: list, setup: list, machine: dict) -> tuple:
    """Print the human-readable summary; return (failed, problems)."""
    failed, problems = 0, []
    for i, p in enumerate(passes):
        for j, r in enumerate(p["ops"]):
            if r["sha256"] != passes[0]["ops"][j]["sha256"]:
                r["problems"].append("output differs from the first pass with the same seed")
            if r["problems"]:
                failed += 1
                problems += [f"pass {i} {r['label']}: {msg}" for msg in r["problems"]]
    stages: dict = {}
    for p in passes:
        per_pass: dict = {}
        for r in p["ops"]:
            per_pass[r["stage"]] = per_pass.get(r["stage"], 0.0) + r["seconds"]
        for stage, seconds in per_pass.items():
            stages.setdefault(stage, []).append(seconds)
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace} "
          f"passes {len(passes)} setup_runs {len(setup)}")
    for stage, values in stages.items():
        print(f"  stage {stage + '_s':<16} median {statistics.median(values):9.4f} s  n={len(values)}")
    traced = [p["trace"] for p in passes if p["traced"]]
    if traced:
        layers = traced[0]["layers"]
        counts = [t["counts"] for t in traced]
        if any(c != counts[0] for c in counts) or any(t["errors"] != traced[0]["errors"] for t in traced):
            failed += 1
            problems.append("work counts differ between traced passes")
        print("  layer                                   calls     self_s(median)")
        for span in sorted(layers, key=lambda s: -statistics.median(t["layers"][s]["self_s"] for t in traced)):
            self_s = statistics.median(t["layers"][span]["self_s"] for t in traced)
            print(f"  {span:<38} {layers[span]['calls']:>7} {self_s:12.4f} s")
    print("machine " + json.dumps(machine, sort_keys=True))
    for msg in problems[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    if len(problems) > 20:
        print(f"FAILED ... {len(problems) - 20} more", file=sys.stderr)
    return failed, problems


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("spectral", "measurement", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "quick"), default="full",
                        help="quick: reduced sizes for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _import_qarrival()
        import workloads

        workloads.build(args.workload, args.seed, args.size)
        print("ready", flush=True)
        return 0

    declared = _declared_metrics()
    qarrival = _import_qarrival()
    setup = [_setup_once(args) for _ in range(SETUP_REPEATS)]
    import tracing
    import workloads

    ops = workloads.build(args.workload, args.seed, args.size)
    tracer = tracing.Tracer(qarrival) if args.trace else None
    passes: list = []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds or (tracer is not None and len(passes) < 2):
        traced = tracer is not None and len(passes) % 2 == 0
        passes.append(_run_pass(ops, tracer if traced else None, record_spans=traced and not passes))

    machine = _machine(args)
    failed, problems = _report(args, passes, setup, machine)
    if args.trace:
        metrics = _per_layer(declared["per_layer"], passes, tracing)
    else:
        metrics = _end_to_end(declared["end_to_end"], passes, setup)
    result = {"correct": failed == 0, "attempted": sum(len(p["ops"]) for p in passes), "failed": failed,
              "metrics": metrics}
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"machine": machine, "setup_s": setup, "problems": problems, "passes": passes, "result": result}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
