#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts of this repository.

For each seed, runs ``perfbench/run.py --seconds S --trace 0`` of both
trees, alternating which one runs first, and summarises the gated
end-to-end metrics named in the change's BENCHMARK.json: per side the
median and quartiles, how many pairs the change won, and
``gain_resolved``: whether it won at least 9 in 10 pairs with a median
better than the parent's by more than the parent's q3 - q1. The
``determinism`` line of every run, the seeds and each side's
``environment`` line are kept, so that a reader can check that both sides
did the same work, and each side's line count of ``src/spectpp``, so that
the size of the change sits next to its timings. The ungated stage
diagnostics that each run prints as ``metric`` lines (simulation,
evaluation and sampling rates, seconds per training epoch) are summarised
apart, under ``diagnostics``, so that a change in one stage reads apart
from another's drift.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload sample-short \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --out BENCH.json

With ``--out``, the workload's summary is written into that JSON file
under ``workloads``, next to any other workloads it already holds;
otherwise it is printed. After the summary, the script names the seeds
whose ``determinism`` lines differ between the sides, and exits 1 when any
run was not correct or failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
DIAGNOSTICS = ("sim_events_per_s", "eval_events_per_s", "train_epoch_s", "ar_events_per_s",
               "sd_events_per_s")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One unchanged perfbench run of ``tree``; its environment,
    determinism and final result lines, and its stage diagnostics."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          timeout=4 * seconds + 300)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(command)} exited {proc.returncode}\n"
                           f"{proc.stdout}{proc.stderr}")

    def tagged(tag: str):
        found = [line[len(tag) + 1:] for line in lines if line.startswith(tag + " ")]
        return json.loads(found[0]) if found else None

    return {"environment": tagged("environment"), "determinism": tagged("determinism"),
            "result": json.loads(lines[-1]), "diagnostics": diagnostic_metrics(lines)}


def diagnostic_metrics(lines: list[str]) -> dict:
    """The stage diagnostics among a run's ``metric NAME VALUE UNIT``
    lines: per name, its value and unit."""
    found = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric" and fields[1] in DIAGNOSTICS:
            found[fields[1]] = {"value": float(fields[2]), "unit": fields[3]}
    return found


def source_lines(tree: Path) -> int:
    """Lines of the package's Python source in ``tree``."""
    return sum(len(path.read_text().splitlines())
               for path in sorted((tree / "src" / "spectpp").glob("*.py")))


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per metric: each side's values, median and quartiles, the pairs in
    which the change was better, and whether that resolves a gain: the
    change won at least 9 in 10 pairs and its median is better than the
    parent's by more than the parent's interquartile range."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        entry = {side: {**quartiles(values[side]), "values": values[side]} for side in SIDES}
        parent, change = entry["parent"], entry["change"]
        gap = (change["median"] - parent["median"]) * (1 if higher else -1)
        pairs = len(values["parent"])
        entry.update(unit=metric["unit"], better=metric["better"], change_wins=wins,
                     pairs=pairs, median_change=change["median"] / parent["median"] - 1.0,
                     gain_resolved=10 * wins >= 9 * pairs and gap > parent["q3"] - parent["q1"])
        out[name] = entry
    return out


def summarise_diagnostics(runs: dict[str, list[dict]]) -> dict:
    """Per stage diagnostic that every run of both sides printed: its unit
    and each side's values, median and quartiles. No gain is judged on
    them."""
    out = {}
    for name in DIAGNOSTICS:
        if not all(name in r["diagnostics"] for side in SIDES for r in runs[side]):
            continue
        values = {side: [r["diagnostics"][name]["value"] for r in runs[side]] for side in SIDES}
        out[name] = {"unit": runs["parent"][0]["diagnostics"][name]["unit"],
                     **{side: {**quartiles(values[side]), "values": values[side]}
                        for side in SIDES}}
    return out


def faults(runs: dict[str, list[dict]], seeds: list[int]) -> list[str]:
    """One line per run that was not correct or failed operations; any
    such line makes the comparison void."""
    return [f"{side} seed {seed}: correct={r['result']['correct']} "
            f"failed={r['result']['failed']}/{r['result']['attempted']}"
            for side in SIDES for seed, r in zip(seeds, runs[side])
            if not r["result"]["correct"] or r["result"]["failed"]]


def determinism_differs(runs: dict[str, list[dict]], seeds: list[int]) -> list[int]:
    """The seeds whose ``determinism`` lines, counts and digests, differ
    between the parent's run and the change's."""
    return [seed for seed, p, c in zip(seeds, runs["parent"], runs["change"])
            if p["determinism"] != c["determinism"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, help="JSON file to write the summary into")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    orders = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        orders.append(list(order))
        for side in order:
            run = run_once(trees[side], args.workload, seed, args.seconds)
            runs[side].append(run)
            result = run["result"]
            print(f"{args.workload} seed {seed} {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                             for m in metrics), file=sys.stderr, flush=True)

    summary = {
        "seeds": args.seeds,
        "seconds": args.seconds,
        "first_side": [order[0] for order in orders],
        "correct": {side: all(r["result"]["correct"] for r in runs[side]) for side in SIDES},
        "failed": {side: sum(r["result"]["failed"] for r in runs[side]) for side in SIDES},
        "metrics": summarise(runs, metrics),
        "diagnostics": summarise_diagnostics(runs),
        "determinism": {side: [r["determinism"] for r in runs[side]] for side in SIDES},
        "determinism_identical": [p["determinism"] == c["determinism"]
                                  for p, c in zip(runs["parent"], runs["change"])],
        "environment": {side: runs[side][0]["environment"] for side in SIDES},
        "src_lines": {side: source_lines(trees[side]) for side in SIDES},
    }
    if args.out is None:
        print(json.dumps(summary, indent=1, sort_keys=True))
    else:
        doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
        doc.setdefault("workloads", {})[args.workload] = summary
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    differs = determinism_differs(runs, args.seeds)
    if differs:
        print(f"{args.workload}: determinism differs between the sides at seeds "
              f"{' '.join(map(str, differs))}", file=sys.stderr)
    bad = faults(runs, args.seeds)
    for line in bad:
        print(f"{args.workload} {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
