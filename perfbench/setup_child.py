"""One fresh process of a workload's set-up: import its layers, run one
tiny operation so lazy set-up is done, print ``ready``.

``setup_s`` is the wall time from spawning this process to its exit, as
a user starting the tool from a shell would pay it.  Run as
``python3 perfbench/setup_child.py <pipeline|sweep>`` with ``src`` on
``PYTHONPATH``.
"""

import random
import sys


def pipeline() -> None:
    from repro import io
    from repro.core.bounds import makespan_lower_bound
    from repro.core.validate import validate_result
    from repro.engine import solve_srj
    from repro.workloads import make_instance

    instance = make_instance("uniform", random.Random(0), 8, 50)
    result = solve_srj(instance, backend="int")
    makespan_lower_bound(instance)
    validate_result(result)
    io.instance_to_json(instance)


def sweep() -> None:
    from repro.sweep import run_sweep  # noqa: F401
    from repro.tasks.scheduler import solve_srt
    from repro.tasks.validate import validate_task_schedule
    from repro.workloads import make_taskset

    pipeline()
    taskset = make_taskset("mixed", random.Random(0), 8, 16)
    validate_task_schedule(
        taskset, solve_srt(taskset, backend="int", record_steps=True)
    )


if __name__ == "__main__":
    {"pipeline": pipeline, "sweep": sweep}[sys.argv[1]]()
    print("ready")
