#!/usr/bin/env python3
"""Validate the bench_serve_loadgen CSV schema (CI serve-load smoke).

Usage: check_serve_load.py SERVE_load.csv [--jobs N]

Checks structure and internal consistency, not absolute numbers (latency
depends on the host): the expected lane rows exist, counts add up, the
percentile ladder is ordered, throughput is positive, the warm path
batched, and the preemption profile suspended and resumed a running job.
--jobs asserts the total job count the smoke step requested.
"""

import argparse
import csv
import sys

EXPECTED_COLUMNS = [
    "lane", "jobs", "solved", "failed", "cancelled", "p50_ms", "p90_ms",
    "p99_ms", "max_ms", "wall_seconds", "throughput_per_s", "batches",
    "batched_jobs", "givebacks", "samples", "preempted_queued",
    "preempted_running", "resumed", "rejected_overload",
    "preempt_high_p50_ms", "preempt_low_p50_ms", "preempt_low_p99_ms",
    "preempt_preempted_running", "preempt_resumed", "noresume_high_p50_ms",
    "noresume_low_p50_ms", "noresume_low_p99_ms",
]
EXPECTED_LANES = ["high", "normal", "low", "all"]


def fail(message: str) -> None:
    sys.exit(f"check_serve_load: FAIL: {message}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("csv_path")
    parser.add_argument("--jobs", type=int, default=None,
                        help="expected total job count (the 'all' row)")
    args = parser.parse_args()

    with open(args.csv_path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != EXPECTED_COLUMNS:
            fail(f"bad header: {reader.fieldnames}")
        rows = {row["lane"]: row for row in reader}

    if sorted(rows) != sorted(EXPECTED_LANES):
        fail(f"bad lane set: {sorted(rows)}")

    lane_total = 0
    for lane in EXPECTED_LANES:
        row = rows[lane]
        jobs = int(row["jobs"])
        solved = int(row["solved"])
        failed = int(row["failed"])
        cancelled = int(row["cancelled"])
        if solved + failed + cancelled != jobs:
            fail(f"{lane}: statuses {solved}+{failed}+{cancelled} != {jobs}")
        if failed != 0:
            fail(f"{lane}: {failed} failed jobs")
        ladder = [float(row[c]) for c in ("p50_ms", "p90_ms", "p99_ms",
                                          "max_ms")]
        if jobs > 0 and ladder != sorted(ladder):
            fail(f"{lane}: percentile ladder not ordered: {ladder}")
        if jobs > 0 and ladder[0] <= 0.0:
            fail(f"{lane}: nonpositive p50 {ladder[0]}")
        if float(row["throughput_per_s"]) <= 0.0:
            fail(f"{lane}: nonpositive throughput")
        if float(row["wall_seconds"]) <= 0.0:
            fail(f"{lane}: nonpositive wall time")
        if lane != "all":
            lane_total += jobs

    all_jobs = int(rows["all"]["jobs"])
    if lane_total != all_jobs:
        fail(f"lane totals {lane_total} != all {all_jobs}")
    if args.jobs is not None and all_jobs != args.jobs:
        fail(f"expected {args.jobs} jobs, CSV reports {all_jobs}")

    batches = int(rows["all"]["batches"])
    batched = int(rows["all"]["batched_jobs"])
    if batches <= 0 or batched < all_jobs:
        fail(f"batching counters implausible: {batches} batches, "
             f"{batched} batched jobs for {all_jobs} jobs")
    # Batching must actually batch: strictly fewer claims than jobs.
    if all_jobs >= 100 and batches >= batched:
        fail(f"no batching observed: {batches} batches for {batched} jobs")

    # Split preemption counters: present, non-negative, and consistent
    # (every checkpoint-carrying resubmission came from one running
    # suspension).  The throughput passes run uncontended small jobs, so
    # their own counters are usually zero — presence, not magnitude.
    for column in ("preempted_queued", "preempted_running", "resumed",
                   "rejected_overload"):
        if int(rows["all"][column]) < 0:
            fail(f"negative {column}")
    if int(rows["all"]["resumed"]) > int(rows["all"]["preempted_running"]):
        fail("resumed exceeds preempted_running in the throughput pass")

    # The mixed-priority preemption profile must have actually preempted a
    # *running* low job and resumed it from its checkpoint.
    preempted_running = int(rows["all"]["preempt_preempted_running"])
    resumed = int(rows["all"]["preempt_resumed"])
    if preempted_running < 1:
        fail("preemption profile never suspended a running job")
    if resumed < 1:
        fail("preemption profile never resumed from a checkpoint")
    if resumed > preempted_running:
        fail(f"profile resumed {resumed} exceeds "
             f"preempted_running {preempted_running}")
    for prefix in ("preempt", "noresume"):
        high_p50 = float(rows["all"][f"{prefix}_high_p50_ms"])
        low_p50 = float(rows["all"][f"{prefix}_low_p50_ms"])
        low_p99 = float(rows["all"][f"{prefix}_low_p99_ms"])
        if high_p50 <= 0.0 or low_p50 <= 0.0:
            fail(f"{prefix}: nonpositive profile latency")
        if low_p50 > low_p99:
            fail(f"{prefix}: low-lane p50 {low_p50} above p99 {low_p99}")

    print(f"check_serve_load: OK: {all_jobs} jobs, "
          f"p99 {rows['all']['p99_ms']} ms, "
          f"{rows['all']['throughput_per_s']} jobs/s, "
          f"{batches} batches, "
          f"profile preempted_running {preempted_running} "
          f"resumed {resumed}")


if __name__ == "__main__":
    main()
