"""gistrank benchmark: seeded inputs, timed repetitions, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, times the set-up a stage
invocation pays (median of several fresh processes), then runs the workload
repeatedly in one child process for about ``--seconds`` seconds. Each
repetition's reports and artifact hashes must equal the first's, and for the
padded workload the padding must leave the linked seeds, query graphs and
partitions byte-identical to the unpadded fixture's. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced repetitions and reports the per-layer metrics. One line per metric is
printed, then a JSON object as the last line. Exit code 0 when every check
passed, 1 when one failed, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
# Fresh processes timed for setup_s, after one untimed probe that warms the
# file cache.
SETUP_PROBES = 9
# Seconds the child may take beyond the measuring window before it is killed.
CHILD_GRACE_S = 110

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "wall_ref": ("ref", "lower"),
    "instances_per_ref": ("1/ref", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "map_T": ("MAP", "higher"),
    "map_TI": ("MAP", "higher"),
    "map_TII": ("MAP", "higher"),
    "stage_success_ratio": ("ratio", "higher"),
}


def _child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )


def _setup_seconds(config: Path) -> float:
    samples = []
    for _ in range(1 + SETUP_PROBES):
        proc = _child([str(BENCH / "setup_probe.py"), str(config)], timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples[1:])


def main() -> int:
    if not (ROOT / "src" / "gistrank" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'gistrank'} not found; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = workloads.prepare(workload, args.seed, work / "fixture")
        reference = None
        if workload.padded:
            plain = work / "unpadded"
            plain_config = workloads.prepare(
                dataclasses.replace(workload, padded=False), args.seed, plain
            )
            workloads.run_staged(plain_config, plain / "out", workloads.PAD_STAGES)
            reference = workloads.pad_invariant_hashes(plain / "out")
        setup_s = _setup_seconds(config) if not args.trace else None

        result_path = work / "result.json"
        trace_file = WORK / f"trace-{workload.name}-seed{args.seed}.json"
        proc = _child(
            [
                str(BENCH / "worker.py"),
                "--workload", workload.name,
                "--config", str(config),
                "--out", str(work / "out"),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--trace-file", str(trace_file),
                "--result", str(result_path),
            ],
            timeout=args.seconds + CHILD_GRACE_S,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not result_path.is_file():
            print(f"error: workload process exited with code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(res["mismatches"])
    if res["error"]:
        problems.append("a stage raised; traceback above")
    if reference is not None and "hashes" in res:
        problems += [
            f"padding changed {rel}" for rel, digest in sorted(reference.items())
            if res["hashes"].get(rel) != digest
        ]
    correct = not problems and res["failed"] == 0 and res["attempted"] > 0

    print(
        f"workload {workload.name} seed {args.seed}: {len(res['walls'])} untraced and "
        f"{len(res['traced_walls'])} traced repetitions; {res['attempted']} stage calls, "
        f"{res['failed']} failed"
    )
    print("repetition walls (s): untraced " + " ".join(f"{w:.3f}" for w in res["walls"])
          + "; traced " + " ".join(f"{w:.3f}" for w in res["traced_walls"]))
    print("repetition walls (ref): untraced " + " ".join(f"{w:.1f}" for w in res["ref_walls"]))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace and "layers" in res:
        for name, value in res["layers"].items():
            metrics[name] = (value, tracing.unit_of(name))
        overhead = statistics.median(res["traced_walls"]) - statistics.median(res["walls"])
        metrics["trace.overhead_s"] = (overhead, "s")
    elif not args.trace and res["walls"]:
        runs = workload.instances * len(workloads.MODES)
        wall = statistics.median(res["walls"])
        wall_ref = statistics.median(res["ref_walls"])
        print(f"wall_s {wall:.6g} s")
        print(f"instances_per_s {runs / wall:.6g} 1/s")
        values = {
            "wall_ref": wall_ref,
            "instances_per_ref": runs / wall_ref,
            "setup_s": setup_s,
            "peak_rss_mb": res["peak_rss_mb"],
            **{f"map_{mode}": value for mode, value in res["maps"].items()},
            "stage_success_ratio": 1.0 - res["failed"] / res["attempted"],
        }
        metrics = {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}
    print(f"stage_failure_ratio {res['failed'] / max(res['attempted'], 1):.6f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
