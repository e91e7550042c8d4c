"""Compare two benchmark results layer by layer.

    python3 bench/compare.py bench/results/A.json bench/results/B.json

Each argument is a result file written by run.py, or a saved standard output
of run.py (its last line is the result). Every metric present in either run
is printed with both values, both units and the ratio B/A; a ratio with a
zero base prints as n/a.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load_metrics(path) -> dict:
    text = Path(path).read_text().strip()
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        record = json.loads(text.splitlines()[-1])
    return record["metrics"]


def compare(a: dict, b: dict) -> list[str]:
    names = list(a) + [name for name in b if name not in a]
    width = max(len(name) for name in names)
    lines = [f"{'metric':<{width}}  {'A':>14}  {'B':>14}  {'B/A':>8}  unit"]
    for name in names:
        va = a.get(name, {}).get("value")
        vb = b.get(name, {}).get("value")
        unit = (a.get(name) or b.get(name))["unit"]
        ratio = f"{vb / va:8.3f}" if va and vb is not None else f"{'n/a':>8}"
        lines.append(f"{name:<{width}}  {fmt(va):>14}  {fmt(vb):>14}  {ratio}  {unit}")
    return lines


def fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(compare(load_metrics(argv[0]), load_metrics(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
