"""One workload's timed repetitions, in a process of their own.

Run by ``run.py``; not meant to be started by hand. Repeats the workload
while another repetition brings the run's length nearer to ``--seconds`` (at
least one, and with ``--trace 1`` at least one traced and one untraced,
alternating), checks that every repetition wrote the same artifacts as the
first, and writes a JSON result to ``--result``. In untraced repetitions it
times the reference loop of ``reference.py`` before every stage call and once
after the last; a repetition's wall time excludes those samples and is also
reported divided by their mean. Peak RSS is this process's own.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gistrank.pipeline as pipeline_mod  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class StageCounter:
    """Counts stage calls attempted and failed, around every call path.

    While ``sampling`` is set it also times the reference loop before each
    stage call, keeping the samples and the seconds they took.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.sampling = False
        self.samples: list[float] = []
        self.sampling_s = 0.0
        stages = pipeline_mod._STAGE_FUNCS
        for stage, fn in list(stages.items()):
            stages[stage] = self._wrap(fn)

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(reference.sample())
        self.sampling_s += time.perf_counter() - start

    def _wrap(self, fn):
        def run(ctx):
            if self.sampling:
                self.sample()
            self.attempted += 1
            try:
                return fn(ctx)
            except BaseException:
                self.failed += 1
                raise

        return run


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    counter = StageCounter()
    tracer = tracing.Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    ref_walls: list[float] = []
    layer_reps: list[dict[str, float]] = []
    first = None
    mismatches: list[str] = []
    error = None

    start = time.perf_counter()
    rep = 0
    while True:
        traced = bool(args.trace) and rep % 2 == 1
        shutil.rmtree(args.out, ignore_errors=True)
        uninstall = None
        if traced:
            tracer.trace = f"rep{rep}"
            uninstall = tracing.install(tracer)
        else:
            counter.samples, counter.sampling_s = [], 0.0
            counter.sampling = True
        t0 = time.perf_counter()
        try:
            workloads.run_workload(workload, args.config, args.out)
        except Exception:
            error = traceback.format_exc()
            print(error, file=sys.stderr)
            break
        finally:
            wall = time.perf_counter() - t0
            if uninstall is not None:
                uninstall()
        if not traced:
            wall -= counter.sampling_s
            counter.sample()
            counter.sampling = False
            ref_walls.append(wall / statistics.fmean(counter.samples))
        walls[traced].append(wall)
        if traced:
            layer_reps.append(tracing.summarize(tracer, tracer.trace))

        outputs = {
            "hashes": workloads.file_hashes(args.out),
            "reports": {
                m: (args.out / m / "report.json").read_text(encoding="utf-8")
                for m in workloads.MODES
            },
            "comparison": (args.out / "comparison.json").read_text(encoding="utf-8")
            if not workload.staged
            else None,
        }
        outputs["digests"] = workloads.mode_digests(outputs["hashes"])
        if first is None:
            first = outputs
            maps = workloads.read_maps(args.out)
        else:
            for key in ("reports", "comparison", "digests"):
                if outputs[key] != first[key]:
                    mismatches.append(f"rep{rep}: {key} differs from rep0")
        rep += 1

        elapsed = time.perf_counter() - start
        next_traced = bool(args.trace) and rep % 2 == 1
        if not walls[False] or (args.trace and not walls[True]):
            continue
        # Run another repetition only if that ends the run nearer to --seconds.
        predicted = statistics.median(walls[next_traced] or walls[False])
        if elapsed + predicted / 2 >= args.seconds:
            break

    result = {
        "error": error,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "mismatches": mismatches,
        "walls": walls[False],
        "traced_walls": walls[True],
        "ref_walls": ref_walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if first is not None:
        result.update(maps=maps, digests=first["digests"], hashes=first["hashes"])
    if layer_reps:
        result["layers"] = tracing.median_metrics(layer_reps)
        if args.trace_file is not None:
            tracer.write(args.trace_file)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
