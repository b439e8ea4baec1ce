"""Printing runs, summarising repeats, and comparing two result files."""

from __future__ import annotations

import json
import statistics
from typing import Any

from stats import quartile_spread, relative_spread, verdict


def as_document(result, traced: bool) -> dict[str, Any]:
    """One run in the shape the result files and ``compare`` use."""
    def encode(metrics):
        return {
            name: {"value": m.value, "unit": m.unit, **(
                {"samples": m.samples} if m.samples is not None else {}
            )}
            for name, m in metrics.items()
        }
    return {
        "workload": result.workload,
        "seed": result.seed,
        "traced": traced,
        "stream_sha256": result.sha256,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
        "metrics": encode(result.metrics),
        "counts": encode(result.counts),
    }


def contract_line(spec: dict, run: dict[str, Any], traced: bool) -> dict[str, Any]:
    """The last stdout line: exactly the metrics ``BENCHMARK.json`` names
    for this kind of run."""
    source = {**run["counts"], **run["metrics"]}
    wanted = spec["per_layer" if traced else "end_to_end"]
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
        },
    }


def print_run(spec: dict, result, traced: bool) -> None:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    kind = "traced" if traced else "end-to-end"
    print(f"== {result.workload} · seed {result.seed} · {kind} ==")
    print(f"   op streams sha256 {result.sha256}")
    speed = result.counts.get("gen.speed_factor")
    if speed is not None:
        print(f"   times at reference machine speed"
              f" (this run's speed factor: {speed.value:.3f})")
    for title, metrics in (("metric", result.metrics), ("layer count", result.counts)):
        if not metrics:
            continue
        print(f"   {title:<34} {'value':>14}  {'unit':<6} {'samples':>8}  bound")
        for name, metric in metrics.items():
            samples = "" if metric.samples is None else str(metric.samples)
            bound = bounds.get(name)
            note = (
                f"{bound['better']} is better, ±{bound['bound']:.0%}" if bound else ""
            )
            print(f"   {name:<34} {metric.value:>14.4f}  {metric.unit:<6} {samples:>8}  {note}")
    share = result.failed / max(result.attempted, 1)
    print(f"   failed_share {share:.6f} ({result.failed} of {result.attempted})"
          f" · correct {result.correct}")
    for problem in result.problems:
        print(f"   PROBLEM: {problem}")
    print(flush=True)


def _by_pair(runs: list[dict[str, Any]], names) -> dict[tuple[str, str], list[float]]:
    series: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        source = {**run["counts"], **run["metrics"]}
        for name in names:
            if name in source:
                series.setdefault((run["workload"], name), []).append(source[name]["value"])
    return series


def print_repeats(spec: dict, runs: list[dict[str, Any]], traced: bool) -> None:
    """min / quartiles / max per (metric, workload) and whether the
    spread fits the bound."""
    wanted = spec["per_layer" if traced else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in wanted}
    print(f"{'workload':<15} {'metric':<28} {'min':>11} {'q1':>11} {'median':>11}"
          f" {'q3':>11} {'max':>11} {'spread':>8} {'bound':>6}  fits")
    for (workload, name), values in _by_pair(runs, bounds).items():
        q1, median, q3 = quartile_spread(values)
        spread = relative_spread(values)
        bound = bounds[name]
        fits = "" if bound is None else ("yes" if spread <= bound else "NO")
        print(f"{workload:<15} {name:<28} {min(values):>11.4f} {q1:>11.4f} {median:>11.4f}"
              f" {q3:>11.4f} {max(values):>11.4f} {spread:>8.2%}"
              f" {'' if bound is None else format(bound, '.0%'):>6}  {fits}")
    print(flush=True)


def compare(spec: dict, parent_path: str, change_path: str) -> int:
    """One row per (metric, workload): parent, change, delta, bound, verdict."""
    def load(path):
        with open(path, encoding="utf-8") as handle:
            return [run for run in json.load(handle)["runs"] if not run["traced"]]
    names = {m["name"]: m for m in spec["end_to_end"]}
    parent = _by_pair(load(parent_path), names)
    change = _by_pair(load(change_path), names)
    regressed = 0
    print(f"{'workload':<15} {'metric':<28} {'parent':>12} {'change':>12} {'delta':>8}"
          f" {'bound':>6}  verdict")
    for pair in parent:
        if pair not in change:
            continue
        workload, name = pair
        meta = names[name]
        before, after = statistics.median(parent[pair]), statistics.median(change[pair])
        delta = (after - before) / abs(before) if before else 0.0
        outcome = verdict(parent[pair], change[pair], meta["better"], meta["bound"])
        regressed += outcome == "regressed"
        print(f"{workload:<15} {name:<28} {before:>12.4f} {after:>12.4f}"
              f" {delta:>+8.2%} {meta['bound']:>6.0%}  {outcome}")
    return 1 if regressed else 0
