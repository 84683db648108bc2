"""Perf-bench harness tests.

``bench_smoke`` runs the quick benchmark in-process and fails when any
kernel's speedup regressed more than 25% against the committed
``BENCH_timing.json`` — the same check as
``python -m repro.bench --quick --check BENCH_timing.json``.
``addopts`` deselects it by default; run it with ``-m bench_smoke``.
"""

from pathlib import Path

import pytest

from repro.bench import compare_reports, load_report, run_benchmarks

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_timing.json"


class TestCompareReports:
    def _report(self, speedup):
        return {
            "kernels": {
                "full_sta": {"des3": {"speedup": speedup}},
                "incremental": {"des3": {"speedup_vs_reference": speedup}},
                "evaluator": {"des3": {"speedup": speedup}},
                "evaluator_backward": {"des3": {"speedup": speedup}},
                "refine_iter": {"des3": {"speedup": speedup}},
            }
        }

    def test_clean_when_equal(self):
        base = self._report(10.0)
        assert compare_reports(self._report(10.0), base) == []

    def test_small_dip_within_tolerance(self):
        base = self._report(10.0)
        assert compare_reports(self._report(7.6), base, tolerance=0.25) == []

    def test_regression_flagged(self):
        base = self._report(10.0)
        problems = compare_reports(self._report(7.4), base, tolerance=0.25)
        assert len(problems) == 5
        assert any("full_sta/des3" in p for p in problems)
        assert any("refine_iter/des3" in p for p in problems)
        assert any("evaluator_backward/des3" in p for p in problems)

    def test_disjoint_designs_ignored(self):
        new = {"kernels": {"full_sta": {"spm": {"speedup": 1.0}}}}
        base = self._report(10.0)
        assert compare_reports(new, base) == []

    def test_improvement_never_flags(self):
        base = self._report(10.0)
        assert compare_reports(self._report(25.0), base) == []


def test_baseline_report_is_committed():
    """The regression gate needs its baseline in the repo."""
    assert BASELINE.exists(), "BENCH_timing.json missing — run python -m repro.bench --out BENCH_timing.json"
    report = load_report(BASELINE)
    kernels = report["kernels"]
    # Acceptance criteria of the perf PRs, recorded on des3:
    assert kernels["full_sta"]["des3"]["speedup"] >= 3.0
    assert kernels["incremental"]["des3"]["speedup_vs_reference"] >= 5.0
    # Tape-executor PR: end-to-end refine() >= 3x with a warm tape, and
    # the tape trajectory matched the closure reference bit for bit.
    assert kernels["refine_iter"]["des3"]["speedup"] >= 3.0
    for design, row in kernels["refine_iter"].items():
        assert row["trajectory_bitwise_equal"] == 1.0, design
    for design, row in kernels["evaluator_backward"].items():
        assert row["grad_bitwise_equal"] == 1.0, design
    # The evaluator speedup is fast-kernel vs reference-kernel (tape vs
    # closure), not warm-vs-cold of one kernel.
    for design, row in kernels["evaluator"].items():
        assert {"closure_ms", "tape_ms", "compile_ms"} <= set(row), design
    # MCMM PR: batched cross-scenario STA beats N independent runs on
    # every benchmarked design, with bitwise-equal per-scenario rows.
    for design, row in kernels["mcmm_sta"].items():
        assert row["scenarios"] >= 3.0, design
        assert row["speedup"] > 1.0, design
        assert row["metrics_bitwise_equal"] == 1.0, design
    # Flat Steiner PR: batched forest construction >= 5x on des3 with
    # bitwise-equal trees, and the flat L-pattern route estimator
    # matched the per-edge reference exactly on every design.
    assert kernels["forest_build"]["des3"]["speedup"] >= 5.0
    for design, row in kernels["forest_build"].items():
        assert row["trees_bitwise_equal"] == 1.0, design
        assert row["wirelength_delta"] == 0.0, design
    assert kernels["groute"]["des3"]["speedup"] >= 5.0
    for design, row in kernels["groute"].items():
        assert row["routes_bitwise_equal"] == 1.0, design
    # Serving-v2 PR: query fusion >= 2x jobs/sec on the des3 burst mix,
    # with fused per-job results equal to the unfused run everywhere.
    assert kernels["serve_throughput"]["des3"]["speedup"] >= 2.0
    for design, row in kernels["serve_throughput"].items():
        assert row["results_equal"] == 1.0, design
        assert row["fusion_ratio"] > 0.5, design
    # ECO PR: warm-context candidate validation >= 3x over cold
    # per-candidate rebuilds on des3, with bitwise-equal verdicts.
    assert kernels["eco_loop"]["des3"]["speedup"] >= 3.0
    for design, row in kernels["eco_loop"].items():
        assert row["verdicts_bitwise_equal"] == 1.0, design


def test_unknown_kernel_filter_rejected():
    with pytest.raises(ValueError, match="unknown bench kernels"):
        run_benchmarks(kernels=["nope"], log=lambda m: None)


def test_oracle_denominators_agree_with_production():
    """The four oracle-backed kernels run and their parity checks hold.

    No timing assertion: this only keeps the oracle imports and the
    bitwise/1e-9 agreement of each denominator in the tier-1 run.
    """
    report = run_benchmarks(
        designs=["spm"],
        repeats=1,
        queries=2,
        kernels=["forest_build", "groute", "full_sta", "incremental"],
        log=lambda m: None,
    )
    kernels = report["kernels"]
    assert kernels["forest_build"]["spm"]["trees_bitwise_equal"] == 1
    assert kernels["groute"]["spm"]["routes_bitwise_equal"] == 1
    assert kernels["full_sta"]["spm"]["wns_delta"] <= 1e-9
    assert kernels["full_sta"]["spm"]["tns_delta"] <= 1e-9
    assert kernels["incremental"]["spm"]["queries"] == 2


@pytest.mark.bench_smoke
def test_quick_bench_has_no_regressions():
    """In-process ``--quick`` run checked against the committed baseline.

    Tolerance is looser than the standalone CLI gate (0.40 vs 0.25):
    when the whole suite runs in one process this test executes after
    hundreds of tests have bloated the heap, which slows the
    small-design kernels by more than scheduler noise alone.
    """
    report = run_benchmarks(quick=True, repeats=2, queries=8, log=lambda m: None)
    problems = compare_reports(report, load_report(BASELINE), tolerance=0.40)
    assert problems == [], "\n".join(problems)
