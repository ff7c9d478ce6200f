"""Benchmark of branchsim's trajectory engine through its command line.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each round writes a config generated from the seed, runs it with
``branchsim.cli.run`` in a fresh interpreter (bench/child.py), and checks
the report against an exact per-generation oracle (bench/oracles.py).
Rounds repeat until S seconds have passed and at least ``TIMED_ROUNDS``
rounds have run; the timings are medians over the first ``TIMED_ROUNDS``
rounds, scaled to a reference machine speed.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (counted in trials) and ``metrics``, the end-to-end metrics
with ``--trace 0`` and the per-layer metrics of one extra traced round
with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")
OUT = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 2024
ROUNDS_PER_SEED = 1000  # round r of seed s runs master_seed = 1000 s + r
# Every run takes its timings from rounds 0..TIMED_ROUNDS-1, whatever its
# speed, so that every commit is timed on the same configs.  Each workload
# finishes at least 12 rounds in 25 s.
TIMED_ROUNDS = 12
# A shared machine's speed switches, within seconds, between states up to
# 1.7x apart.  A round's time over the time of bench/child.py's calibration
# loop, run in the same process just before and just after the round, moves
# far less.  Timings are reported at the speed at which the loop takes
# CAL_REF_S, about the fast state of a 2-vCPU VM.
CAL_REF_S = 0.025
LATEST_START_S = 80  # no timed round starts later, even if fewer than TIMED_ROUNDS ran
CHILD_TIMEOUT_S = 30  # a round takes under 2 s; with the reference and traced
                      # rounds a run still ends within 80 + 3 * 30 s


def gw_config(master_seed: int) -> dict:
    return {"version": 1, "experiment": "gw", "master_seed": master_seed,
            "trials": 8000, "horizon": 100, "population_cap": 1 << 200,
            "law": {"kind": "geometric", "r": 0.6}}


def truncation_config(master_seed: int) -> dict:
    return {"version": 1, "experiment": "controlled", "master_seed": master_seed,
            "trials": 500, "horizon": 2000,
            "law": {"kind": "explicit_pmf", "pmf": {"0": 0.25, "2": 0.75}},
            "policy": {"kind": "truncation",
                       "g": {"form": "log", "a": 2.0, "base": 3.0, "rounding": "ceil"}}}


def bisexual_config(master_seed: int) -> dict:
    return {"version": 1, "experiment": "bisexual", "master_seed": master_seed,
            "trials": 15000, "horizon": 500, "initial_units": 5,
            "law": {"kind": "poisson", "lambda": 1.5}, "alpha": 0.5,
            "mating": {"kind": "min"}}


@dataclass(frozen=True)
class Workload:
    config: Callable[[int], dict]
    oracle: Callable[[], list]
    threads: int = 1


WORKLOADS = {
    "gw_supercritical": Workload(gw_config, lambda: oracles.geometric_gw(0.6, 100)),
    "truncation_log": Workload(
        truncation_config,
        lambda: oracles.truncated_chain({0: 0.25, 2: 0.75},
                                        lambda n: oracles.log_growth(2.0, 3.0, n), 2000)),
    "bisexual_min": Workload(bisexual_config,
                             lambda: oracles.bisexual_min_poisson(1.5, 0.5, 5, 500)),
    "gw_threaded": Workload(gw_config, lambda: oracles.geometric_gw(0.6, 100), threads=2),
}


def encode(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def run_child(config_path: str, report_path: str, threads: int,
              spans_path: str | None = None) -> dict | None:
    """Run one round in a fresh interpreter; its timings, or None unless it
    ran to the end and branchsim exited 0."""
    args = [sys.executable, CHILD, config_path, report_path, str(threads),
            str(time.monotonic_ns())] + ([spans_path] if spans_path else [])
    try:
        proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"round timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if result["rc"] != 0:
        print(f"branchsim exited {result['rc']}: {proc.stderr.strip()[-2000:]}",
              file=sys.stderr)
        return None
    return result


@dataclass
class Round:
    master_seed: int
    timings: dict | None  # None when the round did not run to the end
    steps: int = 0
    errors: list = field(default_factory=list)  # failed output checks
    report: bytes = b""

    @property
    def ok(self) -> bool:
        return self.timings is not None and not self.errors


def run_round(workload: Workload, oracle: list, master_seed: int, out_dir: str,
              tag: str, threads: int, spans_path: str | None = None) -> Round:
    doc = workload.config(master_seed)
    config_bytes = encode(doc)
    config_path = os.path.join(out_dir, f"config-{tag}.json")
    report_path = os.path.join(out_dir, f"report-{tag}.csv")
    with open(config_path, "wb") as fh:
        fh.write(config_bytes)
    timings = run_child(config_path, report_path, threads, spans_path)
    if timings is None:
        return Round(master_seed, None)
    with open(report_path, "rb") as fh:
        report = fh.read()
    verdict = oracles.check_report(report.decode("utf-8"), config_bytes, master_seed,
                                   doc["trials"], oracle)
    for err in verdict.errors[:10]:
        print(f"check failed, master_seed {master_seed}: {err}", file=sys.stderr)
    return Round(master_seed, timings, verdict.trial_steps, verdict.errors, report)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled_s(rnd: Round, key: str) -> float:
    """A timing of the round in seconds at the reference speed."""
    return rnd.timings[key] * CAL_REF_S / rnd.timings["cal_s"]


def end_to_end(rounds: list[Round]) -> dict:
    """Medians over the given rounds, timings at the reference speed;
    the fastest set-up."""
    def median(fn):
        return statistics.median(fn(r) for r in rounds)
    return {
        "wall_s": metric(median(lambda r: scaled_s(r, "wall_s")), "s"),
        "trial_steps_per_s": metric(median(lambda r: r.steps / scaled_s(r, "wall_s")), "1/s"),
        "cpu_s": metric(median(lambda r: scaled_s(r, "cpu_s")), "s"),
        # set-up lasts a fifth of a second, short enough that the fastest
        # of the timed rounds is steadier than their median
        "setup_s": metric(min(r.timings["setup_s"] for r in rounds), "s"),
        "peak_rss_mb": metric(median(lambda r: r.timings["peak_rss_mb"]), "MB"),
    }


def per_layer(traced: Round, untraced_wall_s: float) -> dict:
    t = traced.timings
    spans = t["spans"]

    def calls(name):
        return spans.get(name, [0, 0.0])[0]

    def secs(name):
        return spans.get(name, [0, 0.0])[1]
    simulate_s = secs("cli.simulate")
    return {
        "scenario.parse_s": metric(secs("scenario.parse"), "s"),
        "cli.simulate_s": metric(simulate_s, "s"),
        "cli.report_s": metric(t["wall_s"] - simulate_s, "s"),
        "cli.report_bytes": metric(len(traced.report), "bytes"),
        "engine.batch_cpu_s": metric(t["batch_cpu_s"], "s"),
        "engine.trial_steps": metric(traced.steps, "count"),
        "engine.step_us": metric((simulate_s - secs("rng.spawn")) / traced.steps * 1e6, "us"),
        "engine.sample_us.scalar": metric(t["sample_us_scalar"], "us"),
        "engine.sample_us.slab": metric(t["sample_us_slab"], "us"),
        "rng.spawn_calls": metric(calls("rng.spawn"), "count"),
        "rng.spawn_s": metric(secs("rng.spawn"), "s"),
        "control.g_calls": metric(calls("control.g"), "count"),
        "control.g_s": metric(secs("control.g"), "s"),
        "bisexual.step_calls": metric(calls("bisexual.step"), "count"),
        "bisexual.step_s": metric(secs("bisexual.step"), "s"),
        "bisexual.sample_s": metric(secs("bisexual.sample"), "s"),
        "bisexual.mating_s": metric(secs("bisexual.mating"), "s"),
        "trace.overhead_s": metric(scaled_s(traced, "wall_s") - untraced_wall_s, "s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < (1 << 64) // ROUNDS_PER_SEED:
        parser.error(f"--seed must lie in [0, 2^64 / {ROUNDS_PER_SEED})")
    if not os.path.isfile(os.path.join(ROOT, "src", "branchsim", "cli.py")):
        print(f"no branchsim source under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    oracle = workload.oracle()
    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    rounds = []  # round r runs master_seed 1000 seed + r; only the first TIMED_ROUNDS are timed
    start = time.monotonic()
    while not rounds or len(rounds) < ROUNDS_PER_SEED and (
            time.monotonic() - start < args.seconds
            or len(rounds) < TIMED_ROUNDS and time.monotonic() - start < LATEST_START_S):
        seed = ROUNDS_PER_SEED * args.seed + len(rounds)
        rnd = run_round(workload, oracle, seed, out_dir, str(len(rounds)),
                        workload.threads)
        rounds.append(rnd)
        print(f"round {len(rounds) - 1}: master_seed {seed} ok {rnd.ok} "
              f"wall_s {(rnd.timings or {}).get('wall_s')} cal_s {(rnd.timings or {}).get('cal_s')} "
              f"steps {rnd.steps}")
    extra = []  # checked and counted, never timed
    if workload.threads != 1:
        # the thread count must not change a byte of the report
        ref = run_round(workload, oracle, rounds[0].master_seed, out_dir, "0-reference", 1)
        extra.append(ref)
        if rounds[0].report != ref.report:
            rounds[0].errors.append(f"{workload.threads}-thread report differs from "
                                    "the 1-thread report")
            print(rounds[0].errors[-1], file=sys.stderr)
    if args.trace:
        traced = run_round(workload, oracle, rounds[0].master_seed, out_dir, "0-traced",
                           workload.threads, os.path.join(out_dir, "spans-0.csv"))
        extra.append(traced)

    trials = workload.config(0)["trials"]
    failed = sum(trials for r in rounds + extra if not r.ok)
    correct = not any(r.errors for r in rounds + extra)
    # timings come from the timed rounds that ran to the end, checked or not
    timed = [r for r in rounds[:TIMED_ROUNDS] if r.timings]
    if not timed:
        print("no timed round ran to the end; no metrics", file=sys.stderr)
        return 1
    if args.trace:
        if not traced.timings:
            print("traced round did not run to the end; no per-layer metrics", file=sys.stderr)
            return 1
        metrics = per_layer(traced, statistics.median(scaled_s(r, "wall_s") for r in timed))
    else:
        metrics = end_to_end(timed)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": trials * len(rounds + extra),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
