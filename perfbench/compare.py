"""Compare two result sets of the tailspin benchmark: parent and change.

Usage: python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the JSON lines ``run.py`` appends to its ``--results`` file.
Runs are paired by workload, trace mode and seed (in file order when a seed
repeats). For every workload and metric the table gives each side's median
and quartiles, the share of pairs the change wins (ties count for neither)
and a verdict:

- improved: the change wins at least 9 of 10 pairs and the medians differ,
  in the better direction, by more than the parent's interquartile range;
- regressed: the change's median is worse than the parent's by more than
  the metric's bound from BENCHMARK.json (for a metric without a bound: the
  mirror of the improved rule);
- unresolved: the spread of either side (interquartile range over median)
  is wider than the bound, unless every change run beats every parent run;
  a metric without a bound is unresolved unless both sides repeat one value;
- unchanged: otherwise.

A change whose runs failed more often than the parent's gets no "improved".

Accuracies (the ``quality`` block of a result) are exact for a seed, so they
are compared seed by seed: "unchanged" when every pair is equal, otherwise
"changed", whatever the direction.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]], better: str,
            bound: float | None) -> tuple[str, float]:
    """(verdict, paired win share of the change) under the rules in the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = wins / len(pairs) if pairs else 0.0
    p1, mp, p3 = quartiles(parent)
    c1, mc, c3 = quartiles(change)
    gain = sign * (mc - mp)
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved", share
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > p3 - p1:
            return "regressed", share
        return ("unchanged" if len(set(parent) | set(change)) == 1 else "unresolved"), share
    spread = max((p3 - p1) / abs(mp) if mp else 0.0, (c3 - c1) / abs(mc) if mc else 0.0)
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not every_run_better:
        return "unresolved", share
    if -gain > bound * abs(mp):
        return "regressed", share
    return "unchanged", share


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def compare(parent_records: list[dict], change_records: list[dict], spec: dict) -> list[dict]:
    """One row per (workload, trace, metric) present on both sides."""
    meta = {e["name"]: e for e in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    groups = sorted({(r["workload"], r["trace"]) for r in parent_records} & {(r["workload"], r["trace"]) for r in change_records})
    for workload, trace in groups:
        side = {}
        for label, records in (("parent", parent_records), ("change", change_records)):
            mine = [r for r in records if r["workload"] == workload and r["trace"] == trace]
            side[label] = ([r for r in mine if r["correct"]], sum(r["failed"] for r in mine))
        (parent, parent_failed), (change, change_failed) = side["parent"], side["change"]
        by_seed: dict[int, list[dict]] = {}
        for r in parent:
            by_seed.setdefault(r["seed"], []).append(r)
        paired = []
        for r in change:
            if by_seed.get(r["seed"]):
                paired.append((by_seed[r["seed"]].pop(0), r))
        for name, entry in meta.items():
            p = [r["metrics"][name]["value"] for r in parent if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
            if not p or not c:
                continue
            pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in paired]
            result, share = verdict(p, c, pairs, entry["better"], entry.get("bound"))
            if result == "improved" and change_failed > parent_failed:
                result = "unresolved"
            rows.append({
                "workload": workload, "trace": trace, "metric": name, "unit": entry["unit"],
                "parent": quartiles(p), "change": quartiles(c), "runs": (len(p), len(c)),
                "pairs": len(pairs), "win_share": share, "verdict": result,
                "failed": (parent_failed, change_failed),
            })
        for name in sorted({k for a, b in paired for k in a.get("quality", {}) if k in b.get("quality", {})}):
            pairs = [(a["quality"][name], b["quality"][name]) for a, b in paired
                     if name in a.get("quality", {}) and name in b.get("quality", {})]
            rows.append({
                "workload": workload, "trace": trace, "metric": name, "unit": "ratio",
                "parent": quartiles([p for p, _ in pairs]), "change": quartiles([c for _, c in pairs]),
                "runs": (len(pairs), len(pairs)), "pairs": len(pairs),
                "win_share": sum(c > p for p, c in pairs) / len(pairs),
                "verdict": "unchanged" if all(p == c for p, c in pairs) else "changed",
                "failed": (parent_failed, change_failed),
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    rows = compare(load(Path(argv[0])), load(Path(argv[1])), spec)
    if not rows:
        print("no workload and metric present in both result sets", file=sys.stderr)
        return 1
    def spread(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    print(f"{'workload':<22} {'metric':<32} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36}"
          f" {'wins':>10} verdict")
    for row in rows:
        print(f"{row['workload']:<22} {row['metric']:<32} {spread(row['parent']):>36} {spread(row['change']):>36}"
              f" {row['win_share']:>4.0%} of {row['pairs']:<3} {row['verdict']} ({row['unit']})")
    failed = {(r["workload"], r["trace"]): r["failed"] for r in rows}
    for (workload, trace), (pf, cf) in sorted(failed.items()):
        print(f"# {workload} trace={trace}: failed invocations parent {pf}, change {cf}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
