"""One fresh-process set-up of a workload, timed by ``run.py``.

Imports the modules the workload needs, probes the HiGHS binding, loads
the workload's dataset, then prints ``ready`` and exits. The parent
times the interval from spawning this process to reading that line.

Usage: ``python3 perfbench/setup_probe.py <workload>``
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS[argv[0]]
    for module in workload.modules:
        importlib.import_module(module)
    from repro.lp.batched import lp_backend_name

    lp_backend_name()
    workload.setup()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
