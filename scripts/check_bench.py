#!/usr/bin/env python3
"""Perf regression gate: compare a fresh perf_gate JSON against the
committed BENCH_core.json baseline.

Usage:
    check_bench.py CURRENT.json [--baseline BENCH_core.json]
                   [--threshold 0.30] [--sections stab,box_intersect,...]

Fails (exit 1) when any gated section's ops_per_sec drops more than
--threshold below the baseline. Two noise-tolerance mechanisms keep CI
honest without flaking:

  * jitter widening via the recorded p50/p99 latency fields: a section
    whose baseline p99/p50 ratio is large is inherently noisy (allocator
    spikes, cache effects at the measured size), so its allowed drop is
    widened proportionally (capped at +20 percentage points);
  * scale awareness: the committed baseline is a FULL-size run while the
    CI smoke runs --small. When the config sizes differ the comparison is
    one-sided sanity only — the small run must not be SLOWER than the
    full-size baseline (smaller working sets are strictly faster on every
    gated path, so dropping below the full-size number means a real,
    catastrophic regression) — and the report says so. Sections in
    SCALE_FREE measure the same fixture at every scale, so they are
    always compared two-sided (threshold + jitter).

Multi-scale files: both perf_gate and index_scaling emit a "scales" array
(one block per active-set tier, each with its own config + sections). The
tiers are paired positionally — tier i of the current run against tier i
of the baseline — and each pair independently picks two-sided or one-sided
mode from its own configs, so a --small smoke (tiers 2k/6k) gates cleanly
against the full baseline (tiers 100k/1M) without tripping the small-scale
mode for the whole file.

The primary block is the top-level config with the top-level sections
plus tier 0's sections: perf_gate records the index-bound sections (stab,
box_intersect, insert_erase_churn_amortized) of its primary tier only
once, in scales[0], and the primary comparison and ratchets read them
there. Files without "scales" use the top-level sections alone.

Asymmetry fails loudly: a gated section present in only one file, a tier
present in only one file, or a "scales" block on only one side is an exit-1
failure, never a silent skip — a harness that stops emitting a gated
metric must not pass the gate by omission.

Latency gating: sections in P99_GATED (the broker publish paths) also gate
on p99_ns — same-scale pairs allow threshold + jitter of rise, cross-scale
pairs are one-sided (a smaller run must not have a larger p99).

Absolute ratchets: stab/box_intersect (the vectorized-matching PR's
acceptance gate) and both broker publish sections carry throughput floors
at the reference scale (100k actives, 4 attributes, 20k queries). Any file containing a tier at exactly that scale
— in particular the committed full-size baseline — must meet the
RATCHET_FLOORS, so the trajectory can never silently slide back below the
3x mark even if both baseline and current regress together.

Correctness is never noise: gates.oracle_divergences must be 0 in both
files, and every scale block that records scalar/SIMD checksums must have
them equal.

Recording-only rows: sections in RECORDING_ONLY (perf_gate's
engine_residue) are printed beside the gated rows, with their ratio to the
baseline when the baseline has them, but never gated and never required
on either side; naming one in --sections is an error.

tcp_soak artifacts (bench == "tcp_soak") are recording-only: their
wall-clock numbers are kernel-scheduler noise (real processes, real
sockets), so nothing is perf-compared against any baseline — but the
correctness gates are still hard: gates.oracle_divergences must be 0 and
every run's gates_pass must be true, or the check exits 1.
"""

import argparse
import json
import math
import os
import sys

DEFAULT_SECTIONS = [
    "stab",
    "box_intersect",
    "insert_erase_churn_amortized",
    "broker_publish",
    "broker_publish_pipelined",
    "engine_rspc",
]
# Sections whose fixture does not depend on the run's scale (perf_gate's
# engine_rspc checks the same instances in --small and full runs): always
# compared two-sided, threshold + jitter, even across scales.
SCALE_FREE = {"engine_rspc"}
# Sections printed for the record and never gated (perf_gate's
# engine_residue: exact residue checks on the engine_rspc instances).
RECORDING_ONLY = {"engine_residue"}
# Sections whose p99 latency is gated alongside throughput: same-scale
# pairs fail when current p99 rises more than threshold + jitter above the
# baseline; cross-scale pairs are one-sided (the smaller run's p99 must not
# exceed the full-size baseline's at all).
P99_GATED = {"broker_publish", "broker_publish_pipelined"}
JITTER_CAP = 0.20  # max extra allowance from latency jitter, absolute

# Minimum ops/sec at REFERENCE_SCALE. stab/box_intersect: 3x the
# pre-vectorization baseline (stab 3792.8, box_intersect 378.6 —
# BENCH_core.json as of the tiered-index PR). broker_publish_pipelined and
# broker_publish: 5x the old sequential broker_publish baseline (1121.7),
# the routing-table classification path that the publish lanes replaced.
# It was the staged-pipeline PR's acceptance gate, and it binds the
# single-publication lane path since that path replaced the sequential one.
# Ratchet upward only.
RATCHET_FLOORS = {
    "stab": 11378.3,
    "box_intersect": 1135.7,
    "broker_publish": 5608.5,
    "broker_publish_pipelined": 5608.5,
}
REFERENCE_SCALE = {"actives": 100000, "attributes": 4, "queries": 20000}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        sys.exit(f"check_bench: cannot read {path}: {error}")


def jitter_allowance(section):
    """Extra allowed drop derived from the baseline's own latency spread."""
    p50 = section.get("p50_ns", 0.0)
    p99 = section.get("p99_ns", 0.0)
    if p50 <= 0 or p99 <= p50:
        return 0.0
    # p99/p50 of 2 -> ~3pp, 4 -> ~6pp, 32 -> capped 20pp.
    return min(JITTER_CAP, 0.03 * math.log2(p99 / p50) / math.log2(2.0))


def same_scale_configs(base_config, cur_config):
    return all(
        base_config.get(key) == cur_config.get(key)
        for key in ("actives", "attributes", "queries", "churn_ops")
    )


def compare_sections(base_config, base_sections, cur_config, cur_sections,
                     gated, threshold, label, rows, failures):
    """Gates `gated` section names of one (baseline, current) config pair;
    missing sections only fail when absent from the CURRENT side of a
    same-name pair (harness sets may legitimately differ per tier)."""
    configs_match = same_scale_configs(base_config, cur_config)
    if not configs_match:
        print(f"check_bench: config sizes differ at {label} "
              f"(baseline actives={base_config.get('actives')}, "
              f"current actives={cur_config.get('actives')}); "
              "applying one-sided scale-aware comparison")
    for name in gated:
        same_scale = configs_match or name in SCALE_FREE
        base = base_sections.get(name)
        cur = cur_sections.get(name)
        if base is None or cur is None:
            failures.append(f"{label} section {name}: missing from "
                            f"{'baseline' if base is None else 'current'}")
            continue
        base_ops = base.get("ops_per_sec", 0.0)
        cur_ops = cur.get("ops_per_sec", 0.0)
        if base_ops <= 0:
            failures.append(
                f"{label} section {name}: baseline ops_per_sec is {base_ops}")
            continue
        if same_scale:
            allowed = threshold + jitter_allowance(base)
        else:
            # One-sided cross-scale mode: the smaller run must not be
            # slower than the full-size baseline AT ALL — its working set
            # is strictly smaller, so even matching the baseline already
            # signals a large real regression. No threshold slack here.
            allowed = 0.0
        floor = base_ops * (1.0 - allowed)
        ratio = cur_ops / base_ops
        verdict = "ok" if cur_ops >= floor else "REGRESSION"
        rows.append((f"{name} {label}", base_ops, cur_ops, ratio, allowed,
                     verdict))
        if cur_ops < floor:
            failures.append(
                f"{label} section {name}: {cur_ops:.1f} ops/sec is "
                f"{(1.0 - ratio) * 100.0:.1f}% below baseline "
                f"{base_ops:.1f} (allowed {allowed * 100.0:.0f}%)")
        if name not in P99_GATED:
            continue
        base_p99 = base.get("p99_ns", 0.0)
        cur_p99 = cur.get("p99_ns", 0.0)
        if base_p99 <= 0 or cur_p99 <= 0:
            failures.append(
                f"{label} section {name}: p99_ns missing or non-positive "
                f"(baseline {base_p99}, current {cur_p99})")
            continue
        allowed_rise = threshold + jitter_allowance(base) if same_scale else 0.0
        ceiling = base_p99 * (1.0 + allowed_rise)
        p99_ratio = cur_p99 / base_p99
        p99_verdict = "ok" if cur_p99 <= ceiling else "REGRESSION"
        rows.append((f"{name} p99 {label}", base_p99, cur_p99, p99_ratio,
                     allowed_rise, p99_verdict))
        if cur_p99 > ceiling:
            failures.append(
                f"{label} section {name}: p99 {cur_p99:.1f} ns is "
                f"{(p99_ratio - 1.0) * 100.0:.1f}% above baseline "
                f"{base_p99:.1f} (allowed {allowed_rise * 100.0:.0f}%)")


def primary_sections(blob):
    """Top-level sections plus the primary tier's (scales[0]) sections."""
    scales = blob.get("scales", [])
    sections = dict(scales[0].get("sections", {})) if scales else {}
    sections.update(blob.get("sections", {}))
    return sections


def check_ratchet(config, sections, label, failures, require_all=False):
    """Absolute floors, applied to every block at exactly REFERENCE_SCALE.

    The primary sections block of a full-size run records every floored
    metric, so it is checked with require_all: a floored section going
    missing there fails loudly rather than silently un-arming its floor.
    Scale-tier blocks record only the index sections (the broker sections
    are primary-only), so floors apply to the sections a tier records.
    """
    if not all(config.get(k) == v for k, v in REFERENCE_SCALE.items()):
        return
    for name, floor in RATCHET_FLOORS.items():
        if name not in sections:
            if require_all:
                failures.append(
                    f"{label} section {name}: missing, so its absolute "
                    f"ratchet floor {floor:.1f} cannot be checked")
            continue
        ops = sections[name].get("ops_per_sec", 0.0)
        if ops < floor:
            failures.append(
                f"{label} section {name}: {ops:.1f} ops/sec is below the "
                f"absolute ratchet floor {floor:.1f} at the reference scale")


def check_checksums(blob, name, failures):
    """scalar/SIMD result checksums recorded per scale block must agree."""
    for scale in blob.get("scales", []):
        if "checksum_simd" not in scale and "checksum_scalar" not in scale:
            continue
        simd = scale.get("checksum_simd")
        scalar = scale.get("checksum_scalar")
        if simd != scalar:
            actives = scale.get("config", {}).get("actives")
            failures.append(
                f"{name} @{actives}: scalar/SIMD checksum mismatch "
                f"({simd} vs {scalar})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="fresh perf_gate JSON")
    parser.add_argument("--baseline", default="BENCH_core.json")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="max fractional ops/sec drop (default 0.30)")
    parser.add_argument("--sections", default=",".join(DEFAULT_SECTIONS),
                        help="comma-separated gated section names "
                             "(primary block)")
    args = parser.parse_args()

    current = load(args.current)
    if current.get("bench") == "tcp_soak":
        # Recording-only: multi-process wall clock is scheduler noise, so
        # no baseline comparison ever — but correctness gates stay hard.
        failures = []
        divergences = current.get("gates", {}).get("oracle_divergences")
        if divergences is None:
            failures.append("current: missing gates.oracle_divergences")
        elif divergences != 0:
            failures.append(f"current: {divergences} oracle divergences")
        runs = current.get("runs", [])
        if not runs:
            failures.append("current: tcp_soak artifact has no runs")
        for run in runs:
            if not run.get("gates_pass", False):
                failures.append(
                    f"run {run.get('name')}/{run.get('seed')}: gates_pass "
                    f"false (divergences={run.get('divergences')}, "
                    f"publishes={run.get('publishes')})")
        if failures:
            print("check_bench: FAIL (tcp_soak correctness gates)")
            for failure in failures:
                print(f"  - {failure}")
            sys.exit(1)
        print(f"check_bench: tcp_soak artifact sound — {len(runs)} runs, "
              "0 oracle divergences. Recording only; TCP wall-clock is "
              "never perf-gated.")
        sys.exit(0)
    if not os.path.exists(args.baseline):
        # First run on a fresh checkout (or a new machine): nothing to gate
        # against yet. Still insist the current file is well-formed and its
        # correctness gates hold — a broken harness must not bootstrap
        # itself into a baseline — then succeed explicitly so CI treats
        # the run as "recording", not "passing by accident".
        failures = []
        divergences = current.get("gates", {}).get("oracle_divergences")
        if divergences is None:
            failures.append("current: missing gates.oracle_divergences")
        elif divergences != 0:
            failures.append(f"current: {divergences} oracle divergences")
        check_checksums(current, "current", failures)
        if failures:
            print("check_bench: FAIL (no baseline, current file unsound)")
            for failure in failures:
                print(f"  - {failure}")
            sys.exit(1)
        print(f"check_bench: no baseline at {args.baseline}; "
              "recording only, nothing gated. Commit the current JSON as "
              "the baseline to arm the gate.")
        sys.exit(0)

    baseline = load(args.baseline)

    failures = []
    for name, blob in (("baseline", baseline), ("current", current)):
        divergences = blob.get("gates", {}).get("oracle_divergences")
        if divergences is None:
            failures.append(f"{name}: missing gates.oracle_divergences")
        elif divergences != 0:
            failures.append(f"{name}: {divergences} oracle divergences")
        check_checksums(blob, name, failures)

    rows = []
    gated = [name for name in args.sections.split(",") if name]
    for name in sorted(RECORDING_ONLY.intersection(gated)):
        failures.append(f"section {name} is recording-only and cannot be "
                        "gated")
    gated = [name for name in gated if name not in RECORDING_ONLY]
    compare_sections(baseline.get("config", {}), primary_sections(baseline),
                     current.get("config", {}), primary_sections(current),
                     gated, args.threshold, "(primary)", rows, failures)
    for name in sorted(RECORDING_ONLY):
        cur = primary_sections(current).get(name)
        if cur is None:
            continue
        base_ops = primary_sections(baseline).get(name, {}).get(
            "ops_per_sec", 0.0)
        cur_ops = cur.get("ops_per_sec", 0.0)
        ratio = cur_ops / base_ops if base_ops > 0 else float("nan")
        rows.append((f"{name} (primary)", base_ops, cur_ops, ratio, 0.0,
                     "recorded, not gated"))

    # Scale tiers, paired positionally: perf_gate tiers carry
    # stab/box_intersect/churn, an index_scaling file carries its
    # match_active sections — both flow through the same comparison.
    # Asymmetry is never silently skipped: a tier or a section present on
    # one side only means the two files don't measure the same thing, and a
    # gate that quietly compares the intersection would wave through a
    # harness that stopped emitting a gated metric.
    base_scales = baseline.get("scales", [])
    cur_scales = current.get("scales", [])
    if bool(base_scales) != bool(cur_scales):
        failures.append(
            f"scales block present only in "
            f"{'baseline' if base_scales else 'current'} "
            f"({len(base_scales)} vs {len(cur_scales)} tiers)")
    if base_scales and cur_scales and len(base_scales) != len(cur_scales):
        failures.append(
            f"tier count differs (baseline {len(base_scales)}, "
            f"current {len(cur_scales)}); comparing the common prefix")
    for tier, (base, cur) in enumerate(zip(base_scales, cur_scales)):
        base_sections = base.get("sections", {})
        cur_sections = cur.get("sections", {})
        for name in sorted(set(base_sections) ^ set(cur_sections)):
            failures.append(
                f"tier {tier} section {name}: present only in "
                f"{'baseline' if name in base_sections else 'current'}")
        shared = sorted(set(base_sections) & set(cur_sections))
        if not shared:
            failures.append(f"tier {tier}: no shared sections to gate")
            continue
        compare_sections(base.get("config", {}), base_sections,
                         cur.get("config", {}), cur_sections, shared,
                         args.threshold, f"[tier {tier}]", rows, failures)

    # Absolute ratchets at the reference scale, on BOTH files (the
    # committed baseline must itself stay above the floors).
    for name, blob in (("baseline", baseline), ("current", current)):
        check_ratchet(blob.get("config", {}), primary_sections(blob),
                      f"{name} (primary)", failures, require_all=True)
        for scale in blob.get("scales", []):
            actives = scale.get("config", {}).get("actives")
            check_ratchet(scale.get("config", {}), scale.get("sections", {}),
                          f"{name} @{actives}", failures)

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'section':<{width}}  {'baseline':>14}  {'current':>14}  "
          f"{'ratio':>6}  {'allowed_drop':>12}  verdict")
    for name, base_ops, cur_ops, ratio, allowed, verdict in rows:
        print(f"{name:<{width}}  {base_ops:>14.1f}  {cur_ops:>14.1f}  "
              f"{ratio:>6.2f}  {allowed * 100.0:>11.0f}%  {verdict}")

    if failures:
        print("\ncheck_bench: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\ncheck_bench: OK — no gated metric regressed beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
