#!/usr/bin/env python3
"""Perf-regression gate over the committed CSV baselines.

Compares bench output CSVs (``build/bench_out/*.csv``) against the
snapshots committed under ``bench/baselines/`` and fails (exit 1) when a
gated ratio regresses.  Only machine-independent *ratio* columns are gated
(e.g. ``vs_scalar``, ``goodput_vs_capacity``): absolute throughputs move
with the hardware, but a ratio of two runs on the same box should not fall
below its committed value by more than the tolerance, and acceptance floors
from the change that introduced each subsystem must keep holding outright.
Absolute, noise-banded end-to-end figures live in the repository benchmark
(``perfbench/``), not here.

Usage:
  check_baselines.py [--baseline-dir bench/baselines] [--out-dir build/bench_out]
                     [--tol 0.25] [--require] [--self-test] [--lint-config]

Typical flow (see bench/README.md):
  1. cmake --preset release && cmake --build --preset release
  2. ./build/bench_serve && ./build/bench_rollout && ./build/bench_simd_kernels
  3. python3 bench/check_baselines.py          # or: cmake --build build --target check_baselines

By default a bench whose output CSV is absent is skipped (so the gate can
run after any subset of benches); --require turns a missing candidate into
a failure, which is what CI uses after running the full set.
"""

import argparse
import csv
import os
import sys
import tempfile

# file -> list of (row key, ratio column, absolute floor or None,
# relative-checked, absolute ceiling or None).  A floor is the acceptance
# threshold from the PR that introduced the subsystem; the relative check
# (candidate >= (1 - tol) * baseline) guards against creeping regressions
# from later PRs and only applies to machine-independent ratios —
# slo_headroom divides a fixed target by an *absolute* p99, so it is
# floor-only (a slower box legitimately has less headroom).  A *ceiling*
# gates a smaller-is-better ratio (e.g. a tail-latency ratio): the
# candidate fails when it rises above the ceiling, and has no relative
# check — it may improve (drop) freely.
GATES = {
    "serve_slo.csv": [
        # Overload acceptance (ISSUE 5): at ~2x single-shard capacity with
        # admission control + autotune on, accepted-request p99 must meet
        # the SLO (headroom = target_p99 / p99 >= 1) and goodput must hold
        # >= 0.9x the measured closed-loop capacity.
        ("overload_admission", "slo_headroom", 1.0, False, None),
        ("overload_admission", "goodput_vs_capacity", 0.9, True, None),
    ],
    "rollout_swap.csv": [
        # Rollout hot-swap acceptance (ISSUE 7): served p99 across
        # swap_kernels() under open-loop load must stay within 1.5x the
        # steady-state p99.  Smaller is better, so this is ceiling-only:
        # both p99s come from the same run on the same box, and the ratio
        # may shrink freely as swaps get cheaper.
        ("across_swap", "swap_p99_vs_steady", None, False, 1.5),
    ],
    "simd_kernels.csv": [
        # SIMD acceptance (ISSUE 9): the vector arms must stay >= 1.2x the
        # scalar arm on the fused scatter pass, the float complex butterfly
        # and the dense GEMM.  Both times come from the same binary on the
        # same box (force_arm-interleaved best-of-reps), so the ratio is
        # machine-independent and relative-checked like the other speedups.
        ("fused_scatter", "vs_scalar", 1.2, True, None),
        ("butterfly_f32", "vs_scalar", 1.2, True, None),
        ("gemm_nn_dense", "vs_scalar", 1.2, True, None),
    ],
    "obs_overhead.csv": [
        # Observability overhead acceptance (ISSUE 8): trace-off throughput
        # over trace-on (default 1/16 sampling) on the batch-friendly
        # open-loop workload.  Ceiling-only, smaller is better: 1.05 means
        # instrumented serving keeps >= 0.95x the uninstrumented
        # throughput, and the ratio may drop below 1 freely (run-to-run
        # noise can make the traced run the faster one).
        ("trace_on_sampled", "overhead_vs_off", None, False, 1.05),
    ],
}


def read_csv(path):
    """Returns {first-column value: {column: value}}.

    Duplicate row keys are an error: the gate looks rows up by key, so a
    bench that accidentally writes a key twice would otherwise have its
    first row silently shadowed by the last one.
    """
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    key_col = next(iter(rows[0]))
    table = {}
    for row in rows:
        key = row[key_col]
        if key in table:
            raise ValueError(f"{path}: duplicate row key {key!r}")
        table[key] = row
    return table


def ratio(table, key, column, path):
    row = table.get(key)
    if row is None:
        raise ValueError(f"{path}: missing row '{key}'")
    if column not in row:
        raise ValueError(f"{path}: missing column '{column}'")
    try:
        return float(row[column])
    except ValueError as err:
        raise ValueError(
            f"{path}: row '{key}' column '{column}' is not numeric "
            f"({row[column]!r})"
        ) from err


def check_file(name, baseline_path, candidate_path, tol):
    """Returns a list of failure strings (empty = gate passed).

    Every gate in the file is evaluated even when an earlier one fails or
    cannot be read (missing row/column, non-numeric value): one broken gate
    must not mask the verdict on the others — a single run reports ALL
    failing gates.
    """
    failures = []
    baseline = read_csv(baseline_path)
    candidate = read_csv(candidate_path)
    for key, column, floor, relative, ceiling in GATES[name]:
        try:
            base = ratio(baseline, key, column, baseline_path)
            cand = ratio(candidate, key, column, candidate_path)
        except ValueError as err:
            failures.append(str(err))
            continue
        min_rel = (1.0 - tol) * base
        if relative and cand < min_rel:
            failures.append(
                f"{name}: {key}.{column} = {cand:.3f} regressed below "
                f"(1 - {tol}) * baseline {base:.3f} = {min_rel:.3f}"
            )
        if floor is not None and cand < floor:
            failures.append(
                f"{name}: {key}.{column} = {cand:.3f} is under the "
                f"acceptance floor {floor}"
            )
        if ceiling is not None and cand > ceiling:
            failures.append(
                f"{name}: {key}.{column} = {cand:.3f} is over the "
                f"acceptance ceiling {ceiling}"
            )
    return failures


def run(baseline_dir, out_dir, tol, require):
    failures = []
    checked = 0
    for name in sorted(GATES):
        baseline_path = os.path.join(baseline_dir, name)
        candidate_path = os.path.join(out_dir, name)
        if not os.path.exists(baseline_path):
            print(f"SKIP {name}: no committed baseline")
            continue
        if not os.path.exists(candidate_path):
            msg = f"{name}: bench output not found at {candidate_path}"
            if require:
                failures.append(msg)
            else:
                print(f"SKIP {msg} (run the bench first; --require makes this fail)")
            continue
        try:
            file_failures = check_file(name, baseline_path, candidate_path, tol)
        except ValueError as err:
            file_failures = [str(err)]
        checked += 1
        if file_failures:
            failures.extend(file_failures)
        else:
            print(f"OK   {name}")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    if not failures and checked == 0 and not require:
        print("note: nothing checked (no bench outputs found)")
    return 1 if failures else 0


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def lint_gate_table(gates, baseline_dir):
    """Structural lint of a GATES-style table; returns failure strings.

    Guards the gate script itself: a typo'd column name, a gate whose
    ceiling also claims a relative floor check, or a committed baseline
    that no longer satisfies its own acceptance floor would all silently
    weaken the perf gate.  Baseline checks are skipped for files with no
    committed snapshot (the gate skips those at run time too).
    """
    failures = []
    for name, entries in sorted(gates.items()):
        if not name.endswith(".csv"):
            failures.append(f"{name}: gated file name is not a .csv")
        if not entries:
            failures.append(f"{name}: gate list is empty")
        seen = set()
        for entry in entries:
            if len(entry) != 5:
                failures.append(f"{name}: entry {entry!r} is not a 5-tuple")
                continue
            key, column, floor, relative, ceiling = entry
            where = f"{name}: {key}.{column}"
            if not key or not column:
                failures.append(f"{where}: empty row key or column")
            if (key, column) in seen:
                failures.append(f"{where}: duplicate gate")
            seen.add((key, column))
            if floor is not None and not floor > 0:
                failures.append(f"{where}: floor {floor!r} must be > 0")
            if ceiling is not None:
                if not ceiling > 0:
                    failures.append(f"{where}: ceiling {ceiling!r} must be > 0")
                # A ceiling gates a smaller-is-better ratio; a floor or a
                # relative (larger-is-better) check on the same value is a
                # contradiction, not a stricter gate.
                if relative or floor is not None:
                    failures.append(
                        f"{where}: ceiling-gated ratio must not also carry "
                        f"a floor or relative check")
            if floor is None and ceiling is None and not relative:
                failures.append(f"{where}: gate checks nothing")
        baseline_path = os.path.join(baseline_dir, name)
        if not os.path.exists(baseline_path):
            continue
        try:
            table = read_csv(baseline_path)
        except ValueError as err:
            failures.append(str(err))
            continue
        for key, column, floor, _relative, ceiling in entries:
            try:
                value = ratio(table, key, column, baseline_path)
            except ValueError as err:
                failures.append(f"lint-config: {err}")
                continue
            if floor is not None and value < floor:
                failures.append(
                    f"{name}: committed baseline {key}.{column} = {value} "
                    f"is under its own acceptance floor {floor}")
            if ceiling is not None and value > ceiling:
                failures.append(
                    f"{name}: committed baseline {key}.{column} = {value} "
                    f"is over its own acceptance ceiling {ceiling}")
    return failures


def lint_config(baseline_dir):
    """--lint-config: the real table must lint clean AND the linter must
    catch each seeded defect (so the checker itself stays covered)."""
    failures = list(lint_gate_table(GATES, baseline_dir))

    def expect(broken, fragment, label):
        hits = lint_gate_table(broken, baseline_dir)
        if not any(fragment in h for h in hits):
            failures.append(
                f"lint-config self-check: seeded defect not caught ({label}: "
                f"expected a failure mentioning {fragment!r}, got {hits!r})")

    seeded = [
        ({"x.csv": [("row", "col", None, True, None),
                    ("row", "col", None, True, None)]},
         "duplicate gate", "duplicate"),
        ({"x.csv": [("row", "col", None, False, None)]},
         "checks nothing", "vacuous gate"),
        ({"x.csv": [("row", "col", 1.2, True, 1.5)]},
         "must not also carry", "floor+ceiling contradiction"),
        ({"x.csv": [("row", "col", -1.0, True, None)]},
         "must be > 0", "negative floor"),
        ({"x.txt": [("row", "col", 1.0, True, None)]},
         "not a .csv", "non-csv name"),
        ({"simd_kernels.csv": [("butterfly_f32", "no_such_column", 1.0,
                                True, None)]},
         "no_such_column", "column missing from committed baseline"),
        ({"simd_kernels.csv": [("butterfly_f32", "vs_scalar", 99.0,
                                True, None)]},
         "under its own acceptance floor", "baseline below floor"),
    ]
    for broken, fragment, label in seeded:
        expect(broken, fragment, label)

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    if not failures:
        print(f"lint-config OK ({sum(len(v) for v in GATES.values())} gates "
              f"across {len(GATES)} files, {len(seeded)} seeded defects "
              f"caught)")
    return 1 if failures else 0


def self_test():
    """Exercises the gate logic on synthetic CSVs (run from ctest)."""
    with tempfile.TemporaryDirectory() as tmp:
        basedir = os.path.join(tmp, "baselines")
        outdir = os.path.join(tmp, "out")
        os.mkdir(basedir)
        os.mkdir(outdir)
        simd_header = ["kernel", "scalar_ns", "simd_ns", "vs_scalar", "arm"]
        base_rows = [
            ["fused_scatter", "18000", "12000", "1.50", "avx2"],
            ["butterfly_f64", "5800", "2400", "2.42", "avx2"],
            ["butterfly_f32", "5700", "1600", "3.56", "avx2"],
            ["gemm_nn_dense", "19700", "14600", "1.35", "avx2"],
        ]
        simd_base = os.path.join(basedir, "simd_kernels.csv")
        simd_out = os.path.join(outdir, "simd_kernels.csv")
        write_csv(simd_base, simd_header, base_rows)

        # 1. identical candidate passes.
        write_csv(simd_out, simd_header, base_rows)
        assert run(basedir, outdir, 0.25, require=False) == 0

        # 2. absolute times may move freely; ratios within tolerance still
        #    pass (butterfly_f32 3.00 >= 0.75 * 3.56, every gated ratio
        #    >= its 1.2 floor).
        write_csv(
            simd_out,
            simd_header,
            [
                ["fused_scatter", "9100", "6270", "1.45", "avx2"],
                ["butterfly_f64", "2900", "1300", "2.23", "avx2"],
                ["butterfly_f32", "2850", "950", "3.00", "avx2"],
                ["gemm_nn_dense", "9900", "7600", "1.30", "avx2"],
            ],
        )
        assert run(basedir, outdir, 0.25, require=False) == 0

        # 3. a collapsed ratio fails both the relative check and the floor.
        write_csv(
            simd_out,
            simd_header,
            [
                ["fused_scatter", "18100", "12100", "1.49", "avx2"],
                ["butterfly_f64", "5900", "2500", "2.36", "avx2"],
                ["butterfly_f32", "5800", "5690", "1.02", "avx2"],
                ["gemm_nn_dense", "19800", "14800", "1.34", "avx2"],
            ],
        )
        assert run(basedir, outdir, 0.25, require=False) == 1
        failures = check_file("simd_kernels.csv", simd_base, simd_out, 0.25)
        assert len(failures) == 2, failures
        assert any("regressed below" in f for f in failures), failures
        assert any("acceptance floor" in f for f in failures), failures

        # 4. above the floor but > tol below the committed ratio fails.
        write_csv(
            simd_out,
            simd_header,
            [
                ["fused_scatter", "18100", "12100", "1.49", "avx2"],
                ["butterfly_f64", "5900", "2500", "2.36", "avx2"],
                ["butterfly_f32", "5800", "1930", "3.00", "avx2"],
                ["gemm_nn_dense", "19800", "14800", "1.34", "avx2"],
            ],
        )
        assert run(basedir, outdir, 0.10, require=False) == 1

        # 5. a missing gated row is a failure, not a silent pass.
        write_csv(
            simd_out,
            simd_header,
            [
                ["fused_scatter", "18100", "12100", "1.49", "avx2"],
                ["butterfly_f64", "5900", "2500", "2.36", "avx2"],
            ],
        )
        assert run(basedir, outdir, 0.25, require=False) == 1

        # 6. missing candidate: skip by default, failure under --require.
        os.remove(simd_out)
        assert run(basedir, outdir, 0.25, require=False) == 0
        assert run(basedir, outdir, 0.25, require=True) == 1

        # 7. duplicate row keys in a gated CSV are an error, not a silent
        #    last-row-wins.
        write_csv(simd_out, simd_header,
                  base_rows + [["butterfly_f32", "5700", "5600", "1.02",
                                "avx2"]])
        assert run(basedir, outdir, 0.25, require=False) == 1
        os.remove(simd_out)

        # 8. serve_slo gate: both overload floors bind (SLO headroom >= 1,
        #     goodput >= 0.9x capacity).
        slo_header = ["mode", "offered_rps", "goodput_rps", "p99_us",
                      "slo_headroom", "goodput_vs_capacity"]
        write_csv(
            os.path.join(basedir, "serve_slo.csv"),
            slo_header,
            [
                ["capacity_open_loop", "20000", "20000", "800", "", ""],
                ["overload_admission", "40000", "19000", "6000", "1.67",
                 "0.95"],
            ],
        )
        write_csv(
            os.path.join(outdir, "serve_slo.csv"),
            slo_header,
            [
                ["capacity_open_loop", "21000", "21000", "780", "", ""],
                ["overload_admission", "42000", "18500", "11000", "0.91",
                 "0.88"],
            ],
        )
        assert run(basedir, outdir, 0.50, require=False) == 1
        write_csv(
            os.path.join(outdir, "serve_slo.csv"),
            slo_header,
            [
                ["capacity_open_loop", "21000", "21000", "780", "", ""],
                ["overload_admission", "42000", "20000", "6400", "1.56",
                 "0.95"],
            ],
        )
        assert run(basedir, outdir, 0.25, require=False) == 0
        # slo_headroom is floor-only: 1.10 is far below 0.75 * the committed
        # 1.67 but still meets the SLO (>= 1.0), so it must pass — headroom
        # divides the fixed target by an absolute p99 and may legitimately
        # shrink on a slower box.
        write_csv(
            os.path.join(outdir, "serve_slo.csv"),
            slo_header,
            [
                ["capacity_open_loop", "9000", "9000", "1900", "", ""],
                ["overload_admission", "18000", "8600", "18100", "1.10",
                 "0.95"],
            ],
        )
        assert run(basedir, outdir, 0.25, require=False) == 0

        # 9. rollout gate: swap_p99_vs_steady is *ceiling*-gated (smaller
        #     is better).  Over the 1.5 ceiling fails; far *below* the
        #     committed baseline passes — an improved (cheaper) swap must
        #     never trip the relative floor that guards larger-is-better
        #     ratios.
        rollout_header = ["mode", "offered_rps", "goodput_rps", "p99_us",
                          "swaps", "swap_p99_vs_steady"]
        write_csv(
            os.path.join(basedir, "rollout_swap.csv"),
            rollout_header,
            [
                ["capacity_open_loop", "9000", "9000", "1400", "0", ""],
                ["steady_open_loop", "5400", "5400", "900", "0", "1.00"],
                ["across_swap", "5400", "5300", "1080", "4", "1.20"],
            ],
        )
        write_csv(
            os.path.join(outdir, "rollout_swap.csv"),
            rollout_header,
            [
                ["capacity_open_loop", "8800", "8800", "1500", "0", ""],
                ["steady_open_loop", "5300", "5300", "950", "0", "1.00"],
                ["across_swap", "5300", "5100", "1570", "4", "1.65"],
            ],
        )
        assert run(basedir, outdir, 0.25, require=False) == 1
        write_csv(
            os.path.join(outdir, "rollout_swap.csv"),
            rollout_header,
            [
                ["capacity_open_loop", "8800", "8800", "1500", "0", ""],
                ["steady_open_loop", "5300", "5300", "950", "0", "1.00"],
                ["across_swap", "5300", "5200", "960", "4", "1.01"],
            ],
        )
        assert run(basedir, outdir, 0.25, require=False) == 0

        # 10. obs gate: overhead_vs_off is ceiling-gated at 1.05 (smaller
        #     is better).  Instrumentation costing > 5% fails; a traced run
        #     that happens to beat the untraced one (ratio < 1) passes.
        obs_header = ["mode", "reqs_per_s", "overhead_vs_off"]
        write_csv(
            os.path.join(basedir, "obs_overhead.csv"),
            obs_header,
            [
                ["trace_off", "9000", "1.00"],
                ["trace_on_sampled", "8900", "1.01"],
            ],
        )
        write_csv(
            os.path.join(outdir, "obs_overhead.csv"),
            obs_header,
            [
                ["trace_off", "9100", "1.00"],
                ["trace_on_sampled", "8300", "1.10"],
            ],
        )
        assert run(basedir, outdir, 0.25, require=False) == 1
        write_csv(
            os.path.join(outdir, "obs_overhead.csv"),
            obs_header,
            [
                ["trace_off", "9100", "1.00"],
                ["trace_on_sampled", "9300", "0.98"],
            ],
        )
        assert run(basedir, outdir, 0.25, require=False) == 0

        # 11. one run reports ALL failing gates: a candidate whose first
        #     gated row is missing AND whose second gated value fails must
        #     surface both problems — a broken gate never masks another.
        write_csv(
            os.path.join(outdir, "serve_slo.csv"),
            slo_header,
            [
                ["capacity_open_loop", "21000", "21000", "780", "", ""],
                # overload_admission row absent -> slo_headroom unreadable...
            ],
        )
        failures = check_file(
            "serve_slo.csv",
            os.path.join(basedir, "serve_slo.csv"),
            os.path.join(outdir, "serve_slo.csv"),
            0.25,
        )
        assert len(failures) == 2, failures  # both gates report, not just one
        # ...and a present-but-failing pair also reports both at once.
        write_csv(
            os.path.join(outdir, "serve_slo.csv"),
            slo_header,
            [
                ["capacity_open_loop", "21000", "21000", "780", "", ""],
                ["overload_admission", "42000", "17000", "25000", "0.80",
                 "0.81"],
            ],
        )
        failures = check_file(
            "serve_slo.csv",
            os.path.join(basedir, "serve_slo.csv"),
            os.path.join(outdir, "serve_slo.csv"),
            0.25,
        )
        assert len(failures) >= 2, failures
        # restore a passing serve_slo.csv so the case-10 state stays green.
        write_csv(
            os.path.join(outdir, "serve_slo.csv"),
            slo_header,
            [
                ["capacity_open_loop", "21000", "21000", "780", "", ""],
                ["overload_admission", "42000", "20000", "6400", "1.56",
                 "0.95"],
            ],
        )
        assert run(basedir, outdir, 0.25, require=False) == 0
        # 12. simd gate: all three vector-vs-scalar floors bind at 1.2x and
        #     the relative check guards committed headroom; the arm column
        #     is informational and ignored by the gate.
        simd_header = ["kernel", "scalar_ns", "simd_ns", "vs_scalar", "arm"]
        write_csv(
            os.path.join(basedir, "simd_kernels.csv"),
            simd_header,
            [
                ["fused_scatter", "18000", "12000", "1.50", "avx2"],
                ["butterfly_f64", "5800", "2400", "2.42", "avx2"],
                ["butterfly_f32", "5700", "1600", "3.56", "avx2"],
                ["gemm_nn_dense", "19700", "14600", "1.35", "avx2"],
            ],
        )
        write_csv(
            os.path.join(outdir, "simd_kernels.csv"),
            simd_header,
            [
                ["fused_scatter", "18100", "15500", "1.17", "avx2"],
                ["butterfly_f64", "5900", "2500", "2.36", "avx2"],
                ["butterfly_f32", "5800", "1700", "3.41", "avx2"],
                ["gemm_nn_dense", "19800", "14800", "1.34", "avx2"],
            ],
        )
        assert run(basedir, outdir, 0.25, require=False) == 1  # floor binds
        write_csv(
            os.path.join(outdir, "simd_kernels.csv"),
            simd_header,
            [
                ["fused_scatter", "18100", "12100", "1.49", "sse2"],
                ["butterfly_f64", "5900", "2500", "2.36", "sse2"],
                ["butterfly_f32", "5800", "1700", "3.41", "sse2"],
                ["gemm_nn_dense", "19800", "14800", "1.34", "sse2"],
            ],
        )
        assert run(basedir, outdir, 0.25, require=False) == 0
        # A ratio above the floor but collapsed far below the committed
        # baseline (3.56 -> 1.30 on butterfly_f32) fails the relative check.
        write_csv(
            os.path.join(outdir, "simd_kernels.csv"),
            simd_header,
            [
                ["fused_scatter", "18100", "12100", "1.49", "avx2"],
                ["butterfly_f64", "5900", "2500", "2.36", "avx2"],
                ["butterfly_f32", "5800", "4460", "1.30", "avx2"],
                ["gemm_nn_dense", "19800", "14800", "1.34", "avx2"],
            ],
        )
        assert run(basedir, outdir, 0.25, require=False) == 1
        os.remove(os.path.join(outdir, "simd_kernels.csv"))
        os.remove(os.path.join(basedir, "simd_kernels.csv"))
        assert run(basedir, outdir, 0.25, require=False) == 0

    print("self-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--out-dir", default="build/bench_out")
    ap.add_argument("--tol", type=float, default=0.25,
                    help="allowed relative drop of a gated ratio vs baseline")
    ap.add_argument("--require", action="store_true",
                    help="fail when a gated bench output CSV is missing")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--lint-config", action="store_true",
                    help="lint the GATES table against the committed "
                         "baselines and verify the linter catches seeded "
                         "defects")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if args.lint_config:
        sys.exit(lint_config(args.baseline_dir))
    sys.exit(run(args.baseline_dir, args.out_dir, args.tol, args.require))


if __name__ == "__main__":
    main()
