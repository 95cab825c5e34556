"""Compare two records written by ``run.py --record``.

Prints each metric of the base and the new record side by side with the
relative change, and for end-to-end metrics whether the change is worse
than the bound ``BENCHMARK.json`` fixes. Records made with different LP
backends are refused (exit 2): their timings and LP paths differ, so a
difference between them says nothing about a code change.

Usage: ``python3 perfbench/compare.py BASE.json NEW.json``

Exit code: 0 when no end-to-end metric is worse than its bound, 1 when
one is, 2 when the records cannot be compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent

#: Record fields that must match for two records to be comparable.
MUST_MATCH = ("lp_backend", "workload", "trace")


def load_bounds() -> dict[str, dict[str, Any]]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def compare(base: dict[str, Any], new: dict[str, Any]) -> int:
    for field in MUST_MATCH:
        if base.get(field) != new.get(field):
            print(
                f"refusing to compare: {field} differs "
                f"({base.get(field)!r} vs {new.get(field)!r})",
                file=sys.stderr,
            )
            return 2
    bounds = load_bounds()
    worse = False
    for name, old in base["metrics"].items():
        if name not in new["metrics"]:
            print(f"  {name:<26} missing from the new record")
            continue
        a, b = old["value"], new["metrics"][name]["value"]
        change = (b - a) / a if a else 0.0
        verdict = ""
        spec = bounds.get(name)
        if spec is not None:
            regress = change if spec["better"] == "lower" else -change
            verdict = "WORSE than bound" if regress > spec["bound"] else "within bound"
            worse = worse or regress > spec["bound"]
        print(
            f"  {name:<26} {a:>14.6g} -> {b:>14.6g} {old['unit']:<6} "
            f"{100 * change:+7.1f}%  {verdict}"
        )
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
