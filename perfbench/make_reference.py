"""Regenerate ``reference.json``: each workload's outputs and counts.

Runs one untraced and one traced pass of every workload at the default
seed, requires the two to agree exactly, and writes their outputs (what
``run.py`` checks later passes against) and the traced pass's
deterministic counts (printed as a note by ``run.py --trace 1`` when
they change). Regenerate only for a change meant to alter outputs.

Usage: ``python3 perfbench/make_reference.py``
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path[:0] = [str(run.SRC)]
    from repro.lp.batched import lp_backend_name
    from workloads import DEFAULT_SEED, WORKLOADS

    entries = {}
    for name, workload in WORKLOADS.items():
        topology = workload.setup()
        _, plain = run.timed_pass(workload, topology, DEFAULT_SEED)
        _, traced, _, counts = run.traced_pass(workload, topology, DEFAULT_SEED)
        if plain.errors or plain.outputs != traced.outputs:
            print(f"{name}: traced and untraced passes differ", file=sys.stderr)
            return 1
        entries[name] = {"outputs": plain.outputs, "counts": counts}
        print(f"{name}: {len(plain.outputs)} units, counts {counts}")
    reference = {
        "seed": DEFAULT_SEED,
        "lp_backend": lp_backend_name(),
        "workloads": entries,
    }
    run.REFERENCE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
