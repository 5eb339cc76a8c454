#!/usr/bin/env python3
"""Per-layer compare report of two sets of traced benchmark records.

Usage:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the record files that traced runs wrote
(`--trace 1 --out DIR`), typically one per seed. For every workload and
every per-layer metric, the report prints each side's median beside its
quartile spread (q1..q3 over that side's records). A time is flagged MOVED
only when each side's median lies outside the other side's spread; a count
is flagged CHANGED when its medians differ at all, since counts repeat
exactly. Exits 1 when anything is flagged, 0 otherwise.
"""

import json
import pathlib
import statistics
import sys


def load(directory):
    """workload -> metric -> (unit, [values]) over the traced records."""
    table = {}
    for path in sorted(pathlib.Path(directory).glob("*-trace1.json")):
        record = json.loads(path.read_text())
        if not record.get("trace"):
            continue
        metrics = table.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
    return table


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def compare(base, new):
    """Yields (workload, metric, unit, base summary, new summary, flag)."""
    for workload in sorted(set(base) | set(new)):
        names = list(base.get(workload, {}))
        names += [n for n in new.get(workload, {}) if n not in names]
        for name in names:
            unit_a, a = base.get(workload, {}).get(name, (None, []))
            unit_b, b = new.get(workload, {}).get(name, (None, []))
            unit = unit_a or unit_b
            if not a or not b:
                yield workload, name, unit, a and summary(a), b and summary(b), "MISSING"
                continue
            sa, sb = summary(a), summary(b)
            if sa[0] == 0 and sb[0] == 0:
                continue
            if unit == "s":
                moved = not sa[1] <= sb[0] <= sa[2] and not sb[1] <= sa[0] <= sb[2]
                flag = "MOVED" if moved else ""
            else:
                flag = "CHANGED" if sa[0] != sb[0] else ""
            yield workload, name, unit, sa, sb, flag


def fmt(stats, unit):
    if not stats:
        return "-"
    median, q1, q3 = stats
    if unit == "s":
        return f"{median * 1e3:10.2f} ms [{q1 * 1e3:.2f}..{q3 * 1e3:.2f}]"
    return f"{median:14.0f}"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("no traced records (*-trace1.json) in one of the directories", file=sys.stderr)
        return 2
    flagged = 0
    print(f"{'workload':15} {'layer metric':36} {'base median [q1..q3]':>34} "
          f"{'new median [q1..q3]':>34} {'change':>8}  flag")
    for workload, name, unit, sa, sb, flag in compare(base, new):
        change = ""
        if sa and sb and sa[0]:
            change = f"{(sb[0] - sa[0]) / sa[0]:+.1%}"
        print(f"{workload:15} {name:36} {fmt(sa, unit):>34} {fmt(sb, unit):>34} "
              f"{change:>8}  {flag}")
        flagged += bool(flag)
    print(f"{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
