"""The repository benchmark: one command, three workloads, every output
checked.

    python3 perfbench/run.py --workload sweep-srt --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a checkout (it imports the program from
``src/``).  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a separate traced run, and the spans are written to
``.perfbench-work/spans-<workload>-<seed>.jsonl``.  Lines above it name
every metric with its unit.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: layers whose self time the traced run reports
LAYERS = ("bench", "workloads", "engine", "bounds", "validate", "io",
          "tasks", "parallel", "service", "sweep", "faults")


def _self_times(tracer, own_prefix: str, result) -> None:
    """Self seconds per operation of each layer: over the workload's own
    operations, else over the probe that reaches the layer."""
    groups = [(own_prefix, "own ops"), ("ladder/", "probe: ladder"),
              ("mini-service/", "probe: mini service"),
              ("mini-sweep/", "probe: mini sweep")]
    for prefix, source in groups:
        ops = {s["op"] for s in tracer.spans
               if (s["op"] or "").startswith(prefix)}
        if not ops:
            continue
        for layer, seconds in tracer.self_times(prefix).items():
            if layer in LAYERS and seconds > 0:
                result.layer(f"self_s.{layer}", seconds / len(ops), "s",
                             f"{source}, per op over {len(ops)}")


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    from perfbench import pipeline, service, sweep

    modules = {"pipeline-50k": pipeline, "service-small": service,
               "sweep-srt": sweep}
    result, tracer = modules[name].run(seed, seconds, traced)
    if traced:
        if name != "pipeline-50k":
            pipeline.overhead_probe(seed, tracer, result)
        if name != "service-small":
            service.mini(seed, tracer, result)
        if name != "sweep-srt":
            sweep.mini(seed, tracer, result)
        _self_times(tracer, f"{name}/", result)
        from perfbench.common import WORK

        path = WORK / f"spans-{name}-{seed}.jsonl"
        tracer.dump(path)
        print(f"# {len(tracer.spans)} spans written to "
              f"{path.relative_to(ROOT)}")
    return result.emit(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline-50k", "service-small",
                                 "sweep-srt", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    from perfbench.common import WORK

    WORK.mkdir(exist_ok=True)
    names = (["pipeline-50k", "service-small", "sweep-srt"]
             if args.workload == "all" else [args.workload])
    outcomes = {}
    for name in names:
        outcomes[name] = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace))
        if len(names) > 1:
            print(json.dumps(outcomes[name], sort_keys=True))
    for leftover in WORK.glob("store-*"):
        shutil.rmtree(leftover, ignore_errors=True)
    if len(names) == 1:
        line = outcomes[names[0]]
    else:
        line = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{n}/{k}": v for n, o in outcomes.items()
                        for k, v in o["metrics"].items()},
        }
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
