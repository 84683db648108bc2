"""Performance-observatory tests (``repro.obs`` v2, docs/OBSERVABILITY.md).

Covers the four pillars and their satellites:

* the log-bucket quantile sketch — deterministic bucketing, bounded
  relative error, order-independent merge (hypothesis-tested), and the
  merge_metrics edge cases the parallel runner can produce;
* the SLO burn-rate engine — fire/clear transitions on a virtual
  clock, the chaos latency-fault integration through SignoffService,
  and the serve CLI's distinct SLO-breach exit code;
* the span self-time profiler — exact wall-time partition and the
  ``--profile`` report section;
* the watch CLI — torn-tail-tolerant JSONL tailing and the streaming
  dashboard state;
* bench trajectory — schema-versioned history rows and the
  ``--bench-trend`` regression flag;
* report degenerate traces and the serve-path telemetry-disabled
  guard.
"""

import asyncio
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    NullTelemetry,
    Telemetry,
    telemetry_session,
)
from repro.obs.report import (
    read_trace,
    render_report,
    summarize_serving,
    summarize_slo,
    TraceError,
)
from repro.obs.profile import render_profile, summarize_profile
from repro.obs.sketch import GAMMA, LogBucketSketch, bucket_index
from repro.obs.slo import (
    SLOEngine,
    SLObjective,
    parse_objective,
)
from repro.obs.watch import TraceTail, WatchState, watch
from repro.runtime import ManualClock
from repro.serve import (
    ChaosMonkey,
    DelayDispatch,
    SignoffService,
    virtual_asleep,
)
from repro.serve.jobs import DEFAULT_PRIORITY

# Relative quantile error bound of the sketch.
_REL_ERR = (GAMMA - 1.0) / (GAMMA + 1.0) + 1e-9


# ----------------------------------------------------------------------
# Pillar 1: quantile sketch
# ----------------------------------------------------------------------
class TestSketch:
    def test_empty_summary(self):
        s = LogBucketSketch().summary()
        assert s["count"] == 0
        assert s["p50"] == s["p99"] == 0.0

    def test_quantiles_within_relative_error(self):
        values = [0.001 * (i + 1) for i in range(1000)]
        sk = LogBucketSketch.from_values(values)
        for q in (0.5, 0.9, 0.99):
            true = values[max(0, int(math.ceil(q * len(values))) - 1)]
            got = sk.quantile(q)
            assert abs(got - true) <= _REL_ERR * true

    def test_quantiles_clamped_to_observed_range(self):
        sk = LogBucketSketch.from_values([3.0, 5.0, 7.0])
        assert 3.0 <= sk.quantile(0.0) <= 7.0
        assert sk.quantile(1.0) <= 7.0

    def test_insertion_order_irrelevant(self):
        values = [0.004, 1.7, 0.0, -2.5, 300.0, 0.021, 1.7]
        a = LogBucketSketch.from_values(values).summary()
        b = LogBucketSketch.from_values(list(reversed(values))).summary()
        for key in ("count", "min", "max", "p50", "p90", "p99", "buckets"):
            assert a[key] == b[key]

    def test_zero_and_negative_values(self):
        sk = LogBucketSketch.from_values([-1.0, -1.0, 0.0, 2.0])
        s = sk.summary()
        assert s["zeros"] == 1
        assert sum(s["neg_buckets"].values()) == 2
        assert sk.quantile(0.25) == pytest.approx(-1.0, rel=_REL_ERR)

    def test_nonfinite_kept_out_of_ranks(self):
        sk = LogBucketSketch.from_values([1.0, float("nan"), float("inf")])
        s = sk.summary()
        assert s["count"] == 3
        assert sum(s["buckets"].values()) == 1  # only the finite 1.0
        assert sk.quantile(0.5) == pytest.approx(1.0, rel=_REL_ERR)

    def test_bucket_index_is_pure(self):
        for v in (1e-6, 0.5, 1.0, 123.456):
            assert bucket_index(v) == bucket_index(v)
            upper = GAMMA ** bucket_index(v)
            assert v <= upper * (1 + 1e-12)
            assert v > upper / GAMMA * (1 - 1e-12)

    def test_merge_empty_and_zero_count_are_noops(self):
        sk = LogBucketSketch.from_values([1.0, 2.0])
        before = sk.summary()
        sk.merge({})
        sk.merge(None)
        sk.merge({"count": 0, "sum": 0.0})
        assert sk.summary() == before

    def test_merge_legacy_summary_attributes_mass_to_mean(self):
        sk = LogBucketSketch.from_values([1.0])
        sk.merge({"count": 3, "sum": 30.0, "min": 9.0, "max": 11.0})
        s = sk.summary()
        assert s["count"] == 4
        assert sum(s["buckets"].values()) == 4  # ranks account for all
        assert s["min"] == 1.0 and s["max"] == 11.0
        assert sk.quantile(0.9) == pytest.approx(10.0, rel=_REL_ERR)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=1e-6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=60,
        ),
        split=st.integers(min_value=0, max_value=60),
    )
    def test_merge_is_order_independent(self, values, split):
        """Worker sketches merge associatively: any split/order of the
        same samples yields identical quantiles, buckets and extrema."""
        split = min(split, len(values))
        left = LogBucketSketch.from_values(values[:split]).summary()
        right = LogBucketSketch.from_values(values[split:]).summary()
        ab = LogBucketSketch.merged([left, right]).summary()
        ba = LogBucketSketch.merged([right, left]).summary()
        whole = LogBucketSketch.from_values(values).summary()
        for key in ("count", "min", "max", "p50", "p90", "p99",
                    "buckets", "zeros", "neg_buckets"):
            assert ab.get(key) == ba.get(key)
            assert ab.get(key) == whole.get(key)
        # Float sums commute but reassociate; equality is approximate.
        assert ab["sum"] == pytest.approx(whole["sum"], rel=1e-12, abs=1e-12)

    def test_registry_flush_bitwise_identical(self):
        """Identical runs flush byte-identical metrics (injected clock)."""

        def run_once(tmp):
            clock = ManualClock()
            with Telemetry(path=tmp, clock=clock.now, run_id="fixed") as tel:
                for v in (0.004, 1.7, 0.3, 125.0, 0.004):
                    tel.hist("lat", v)
                    clock.advance(0.5)
            return tmp.read_bytes()

        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as d:
            a = run_once(Path(d) / "a.jsonl")
            b = run_once(Path(d) / "b.jsonl")
        assert a == b
        assert b"p99" in a

    def test_merge_metrics_tolerates_degenerate_snapshots(self):
        tel = Telemetry(clock=ManualClock().now, run_id="r")
        tel.hist("h", 2.0)
        tel.merge_metrics({})
        tel.merge_metrics(None)
        tel.merge_metrics({"counters": None, "gauges": None, "hists": None})
        tel.merge_metrics({"hists": {"h": {}, "other": None}})
        tel.merge_metrics({"counters": {"c": None}})
        snap = tel.metrics_snapshot()
        assert snap["hists"]["h"]["count"] == 1
        assert snap["counters"]["c"] == 0
        tel.merge_metrics({"hists": {"h": {"count": 1, "sum": 4.0,
                                           "min": 4.0, "max": 4.0,
                                           "buckets": {str(bucket_index(4.0)): 1}}}})
        assert tel.metrics_snapshot()["hists"]["h"]["count"] == 2
        tel.close()


# ----------------------------------------------------------------------
# Pillar 2: SLO burn-rate engine
# ----------------------------------------------------------------------
def _latency_objective(**kw):
    kw.setdefault("name", "lat")
    kw.setdefault("kind", "signoff")
    kw.setdefault("target", 0.9)
    kw.setdefault("latency_threshold_s", 0.05)
    kw.setdefault("windows", ((10.0, 2.0, 2.0),))
    return SLObjective(**kw)


class TestSLOEngine:
    def test_fires_on_sustained_badness_and_clears(self):
        clock = ManualClock()
        eng = SLOEngine([_latency_objective()], clock=clock.now)
        for _ in range(8):
            eng.observe("signoff", latency=0.2)
            clock.advance(0.1)
        (status,) = eng.evaluate()
        assert status["firing"]
        assert eng.firing() == ["lat"]
        # Fault stops; fast traffic slides both windows clean.
        for _ in range(200):
            eng.observe("signoff", latency=0.001)
            clock.advance(0.1)
        (status,) = eng.evaluate()
        assert not status["firing"]
        assert status["fired_total"] == 1
        assert status["cleared_total"] == 1

    def test_kind_filter_and_availability(self):
        clock = ManualClock()
        eng = SLOEngine(
            [SLObjective(name="avail", kind="*", target=0.5,
                         windows=((10.0, 2.0, 1.5),))],
            clock=clock.now,
        )
        for _ in range(6):
            eng.observe("refine", shed=True)
            clock.advance(0.1)
        (status,) = eng.evaluate()
        assert status["firing"]  # shed events burn the budget
        assert status["bad"] == 6

    def test_quiet_window_burns_nothing(self):
        clock = ManualClock()
        eng = SLOEngine([_latency_objective()], clock=clock.now)
        (status,) = eng.evaluate()
        assert not status["firing"]
        assert status["windows"][0]["burn_long"] == 0.0

    def test_transition_events_emitted_once(self):
        clock = ManualClock()
        tel = Telemetry(clock=clock.now, run_id="slo")
        with telemetry_session(tel):
            eng = SLOEngine([_latency_objective()], clock=clock.now)
            for _ in range(8):
                eng.observe("signoff", latency=0.2)
                clock.advance(0.1)
            eng.evaluate()
            eng.evaluate()  # steady state: no second alert
            for _ in range(200):
                eng.observe("signoff", latency=0.001)
                clock.advance(0.1)
            eng.evaluate()
            eng.evaluate()
        kinds = [e["kind"] for e in tel.events]
        assert kinds.count("slo_alert") == 1
        assert kinds.count("slo_clear") == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SLOEngine([_latency_objective(), _latency_objective()])

    def test_parse_objective(self):
        obj = parse_objective("lat:signoff:0.9:0.05:10/2/2,60/10/1")
        assert obj.name == "lat" and obj.kind == "signoff"
        assert obj.target == 0.9 and obj.latency_threshold_s == 0.05
        assert obj.windows == ((10.0, 2.0, 2.0), (60.0, 10.0, 1.0))
        assert parse_objective("avail:*").latency_threshold_s is None
        with pytest.raises(ValueError, match="bad --slo spec"):
            parse_objective("nope")


class _SLORecorder:
    """Synthetic instant handlers for the SLO chaos scenario."""

    def make(self):
        async def handler(job, ctx):
            return {"design": job.design}

        return {kind: handler for kind in DEFAULT_PRIORITY}


class TestSLOServiceIntegration:
    def _run_chaos(self, trace_path=None):
        """Latency fault on the first 6 signoffs, then fast traffic."""
        clock = ManualClock()
        chaos = ChaosMonkey(
            DelayDispatch(job="signoff", on_attempt=1, seconds=0.2, max_fires=6)
        )
        service = SignoffService(
            handlers=_SLORecorder().make(),
            clock=clock.now,
            asleep=virtual_asleep(clock),
            chaos=chaos,
            retry_backoff=0.0,
            slo=[_latency_objective()],
        )

        async def scenario():
            async with service:
                for _ in range(6):
                    service.submit("signoff", design="d")
                    await service.drain()
                    clock.advance(0.1)
                assert service.slo.firing() == ["lat"]
                for _ in range(200):
                    service.submit("signoff", design="d")
                    await service.drain()
                    clock.advance(0.1)
            return service

        import contextlib

        with contextlib.ExitStack() as stack:
            if trace_path is not None:
                tel = Telemetry(path=trace_path, clock=clock.now, run_id="slo")
                stack.enter_context(tel)
                stack.enter_context(telemetry_session(tel))
            asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))
        return service

    def test_chaos_latency_fault_fires_then_clears(self, tmp_path):
        service = self._run_chaos(tmp_path / "slo.jsonl")
        assert service.stats.lost() == 0  # zero-lost invariant holds
        (status,) = service.slo_final
        assert status["fired_total"] == 1
        assert status["cleared_total"] == 1
        assert not status["firing"]
        events = read_trace(tmp_path / "slo.jsonl")
        kinds = [e["kind"] for e in events]
        assert kinds.count("slo_alert") == 1
        assert kinds.count("slo_clear") == 1
        assert kinds.index("slo_alert") < kinds.index("slo_clear")
        slo = summarize_slo(events)
        assert [e["kind"] for e in slo["transitions"]] == [
            "slo_alert",
            "slo_clear",
        ]
        assert slo["firing"] == []
        rendered = render_report(events)
        assert "SLO (burn-rate alerts)" in rendered
        assert "FIRED" in rendered and "cleared" in rendered

    def test_chaos_scenario_is_deterministic(self, tmp_path):
        a = (tmp_path / "a.jsonl")
        b = (tmp_path / "b.jsonl")
        self._run_chaos(a)
        self._run_chaos(b)
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.slow
class TestServeCLISLOExit:
    def test_exit_codes_distinguish_breach(self, tmp_path):
        from repro.serve.cli import main as serve_main

        common = [
            "--jobs", "6", "--workers", "2", "--scale", "0.25",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]
        # Impossible latency target: every job busts it -> breach (3).
        assert serve_main(common + ["--slo", "lat:*:0.9:1e-9"]) == 3
        # Generous target: clean exit.
        assert serve_main(common + ["--slo", "lat:*:0.9:60"]) == 0


# ----------------------------------------------------------------------
# Pillar 3: span profiler + watch CLI
# ----------------------------------------------------------------------
def _make_span_trace():
    clock = ManualClock()
    tel = Telemetry(clock=clock.now, run_id="prof")
    with tel.span("root"):
        clock.advance(1.0)  # root self-time
        with tel.span("child_a"):
            clock.advance(2.0)
            with tel.span("leaf"):
                clock.advance(3.0)
        with tel.span("child_b"):
            clock.advance(4.0)
    with tel.span("root"):
        clock.advance(5.0)
    tel.close()
    return tel.events


class TestProfiler:
    def test_self_time_partitions_wall_time(self):
        events = _make_span_trace()
        prof = summarize_profile(events)
        assert prof["spans"] == 5
        assert prof["wall"] == pytest.approx(15.0)
        assert prof["self_total"] == pytest.approx(prof["wall"])
        by_name = {h["name"]: h for h in prof["hotspots"]}
        assert by_name["root"]["self"] == pytest.approx(6.0)  # 1 + 5
        assert by_name["root"]["total"] == pytest.approx(15.0)
        assert by_name["child_a"]["self"] == pytest.approx(2.0)
        assert by_name["leaf"]["self"] == pytest.approx(3.0)
        assert by_name["child_b"]["self"] == pytest.approx(4.0)
        # Hotspots ranked by self time.
        assert prof["hotspots"][0]["name"] == "root"

    def test_flame_paths(self):
        prof = summarize_profile(_make_span_trace())
        paths = {f["path"]: f for f in prof["flame"]}
        assert paths["root;child_a;leaf"]["self"] == pytest.approx(3.0)
        assert paths["root"]["calls"] == 2
        # Start order: every parent renders above its children.
        assert [f["path"] for f in prof["flame"]] == [
            "root", "root;child_a", "root;child_a;leaf", "root;child_b"
        ]

    def test_refine_spans_split_tsteiner_refine(self):
        """A traced hybrid ``TSteiner.optimize`` books the evaluator,
        every oracle probe (split into route, layers and STA) and the
        finish stage as spans inside ``tsteiner.refine``, and self times
        still partition wall time."""
        from repro.core.refine import RefinementConfig
        from repro.core.tsteiner import TSteiner
        from repro.flow.pipeline import prepare_design
        from repro.timing_model.model import EvaluatorConfig, TimingEvaluator

        netlist, forest = prepare_design("spm")
        model = TimingEvaluator(EvaluatorConfig(seed=0, hidden=16))
        cfg = RefinementConfig(max_iterations=4, validate_every=2, polish_probes=3)
        tel = Telemetry(run_id="spans")
        TSteiner(model, cfg).optimize(netlist, forest, telemetry=tel)
        tel.close()

        ends = [e for e in tel.events if e["kind"] == "span_end"]
        by_id = {e["span"]: e for e in ends}

        def ancestors(ev):
            while ev.get("parent") is not None:
                ev = by_id[ev["parent"]]
                yield ev["name"]

        inner = [e for e in ends if e["name"].startswith("refine.")]
        names = {e["name"] for e in inner}
        assert names == {"refine.gradient", "refine.evaluate", "refine.validate", "refine.finish"}
        assert all("tsteiner.refine" in ancestors(e) for e in inner)
        probes = sum(e["name"] == "refine.validate" for e in inner)
        assert probes == tel.counters["refine.validator_probes"] > 0
        # Each probe splits into route, layer assignment and STA, booked
        # directly under its refine.validate span.
        for child in ("validate.route", "validate.layers", "validate.sta"):
            spans = [e for e in ends if e["name"] == child]
            assert len(spans) == probes, child
            assert all(by_id[e["parent"]]["name"] == "refine.validate" for e in spans)
        prof = summarize_profile(tel.events)
        assert prof["self_total"] == pytest.approx(prof["wall"])
        stage = {f["path"]: f for f in prof["flame"]}["tsteiner.refine"]
        assert stage["self"] < stage["total"]

    def test_top_bounds_hotspots_not_flame(self):
        prof = summarize_profile(_make_span_trace(), top=2)
        assert len(prof["hotspots"]) == 2
        assert len(prof["flame"]) == 4

    def test_no_spans_returns_none(self):
        assert summarize_profile([{"kind": "log"}]) is None

    def test_render_report_profile_section(self):
        out = render_report(_make_span_trace(), profile=True)
        assert "Profile: 5 spans" in out
        assert "Flame (self-time by call path)" in out
        lines = render_profile(summarize_profile(_make_span_trace()))
        assert any("self%" in ln for ln in lines)


class TestWatch:
    def _write(self, path, events, tail=""):
        with open(path, "w", encoding="utf-8") as fh:
            for ev in events:
                fh.write(json.dumps(ev) + "\n")
            fh.write(tail)

    def test_tail_buffers_partial_final_line(self, tmp_path):
        p = tmp_path / "t.jsonl"
        full = {"kind": "job_submitted", "t": 1.0}
        self._write(p, [full], tail='{"kind": "job_do')
        tail = TraceTail(p)
        assert [e["kind"] for e in tail.poll()] == ["job_submitted"]
        # Writer completes the line: the event appears on the next poll.
        with open(p, "a", encoding="utf-8") as fh:
            fh.write('ne", "t": 2.0, "job_kind": "signoff", "latency": 0.01}\n')
        assert [e["kind"] for e in tail.poll()] == ["job_done"]
        assert tail.skipped == 0

    def test_tail_skips_complete_corrupt_line(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"kind": "run_start", "t": 0.0}\nnot json\n[1,2]\n')
        tail = TraceTail(p)
        assert [e["kind"] for e in tail.poll()] == ["run_start"]
        assert tail.skipped == 2

    def test_state_queue_depth_and_alerts(self):
        state = WatchState()
        for ev in [
            {"kind": "run_start", "run": "r", "t": 0.0},
            {"kind": "job_submitted", "t": 0.1},
            {"kind": "job_submitted", "t": 0.2},
            {"kind": "job_started", "t": 0.3},
            {"kind": "job_done", "t": 0.5, "job_kind": "signoff",
             "latency": 0.2},
            {"kind": "job_retry", "t": 0.6},
            {"kind": "slo_alert", "t": 0.7, "slo": "lat"},
        ]:
            state.apply(ev)
        assert state.queue_depth() == 2  # 2 submits + 1 retry - 1 start
        assert "lat" in state.firing
        out = state.render()
        assert "SLO ALERTS FIRING: lat" in out
        assert "signoff" in out
        state.apply({"kind": "slo_clear", "t": 0.8, "slo": "lat"})
        assert not state.firing
        state.apply({"kind": "run_end", "t": 0.9})
        assert state.ended

    def test_watch_once_and_follow_to_run_end(self, tmp_path):
        import io

        p = tmp_path / "t.jsonl"
        self._write(
            p,
            [
                {"kind": "run_start", "run": "w", "t": 0.0},
                {"kind": "job_submitted", "t": 0.1},
                {"kind": "job_started", "t": 0.2},
                {"kind": "job_done", "t": 0.4, "job_kind": "whatif",
                 "latency": 0.2},
                {"kind": "run_end", "t": 0.5},
            ],
        )
        out = io.StringIO()
        state = watch(p, once=True, out=out)
        assert state.ended
        assert "run ended" in out.getvalue()
        # Follow mode stops at run_end without sleeping forever.
        state = watch(p, interval=0.0, out=io.StringIO(),
                      sleep=lambda s: None)
        assert state.ended and state.by_kind["whatif"]["done"] == 1


# ----------------------------------------------------------------------
# Pillar 4: bench trajectory
# ----------------------------------------------------------------------
def _fake_report(speedup, quick=True):
    return {
        "version": 3,
        "quick": quick,
        "kernels": {
            "full_sta": {"des3": {"speedup": speedup}},
            "incremental": {"des3": {"speedup_vs_reference": 2 * speedup}},
        },
    }


class TestBenchHistory:
    def test_append_and_load_roundtrip(self, tmp_path):
        from repro.bench.history import (
            HISTORY_SCHEMA,
            append_history,
            load_history,
        )

        path = tmp_path / "hist.jsonl"
        row = append_history(_fake_report(10.0), path, timestamp=123.0,
                             label="abc")
        assert row["schema"] == HISTORY_SCHEMA
        append_history(_fake_report(11.0), path, timestamp=124.0)
        rows = load_history(path)
        assert len(rows) == 2
        assert rows[0]["t"] == 123.0 and rows[0]["label"] == "abc"
        assert rows[0]["speedups"]["full_sta/des3/speedup"] == 10.0
        assert rows[0]["speedups"]["incremental/des3/speedup_vs_reference"] == 20.0

    def test_corrupt_history_raises(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"schema": 1, "speedups": {}}\nnot json\n')
        from repro.bench.history import load_history

        with pytest.raises(ValueError, match="corrupt bench history"):
            load_history(path)
        with pytest.raises(ValueError, match="not found"):
            load_history(tmp_path / "missing.jsonl")

    def test_trend_flags_artificial_regression(self, tmp_path):
        from repro.bench.history import (
            append_history,
            load_history,
            render_trends,
            summarize_trends,
        )

        path = tmp_path / "hist.jsonl"
        for t, speedup in enumerate([10.0, 10.5, 9.8, 10.2]):
            append_history(_fake_report(speedup), path, timestamp=float(t))
        # The regressed run: full_sta collapses, incremental holds.
        bad = _fake_report(10.0)
        bad["kernels"]["full_sta"]["des3"]["speedup"] = 4.0
        append_history(bad, path, timestamp=5.0)
        trends = summarize_trends(load_history(path))
        assert trends["full_sta/des3/speedup"]["regressed"]
        assert not trends["incremental/des3/speedup_vs_reference"]["regressed"]
        text = render_trends(load_history(path))
        assert "REGRESSED" in text
        assert "full_sta/des3/speedup" in text

    def test_healthy_trend_is_clean(self, tmp_path):
        from repro.bench.history import (
            append_history,
            load_history,
            render_trends,
        )

        path = tmp_path / "hist.jsonl"
        for t, s in enumerate([10.0, 9.5, 10.4]):
            append_history(_fake_report(s), path, timestamp=float(t))
        text = render_trends(load_history(path))
        assert "REGRESSED" not in text
        assert "no metric below trajectory median tolerance" in text

    def test_report_cli_bench_trend(self, tmp_path, capsys):
        from repro.bench.history import append_history
        from repro.obs.report import main as report_main

        path = tmp_path / "hist.jsonl"
        append_history(_fake_report(10.0), path, timestamp=1.0)
        assert report_main(["--bench-trend", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Bench trend (1 runs on record)" in out

    def test_amortized_timer_uses_median(self):
        from repro.bench import _best_amortized

        calls = []

        def fn():
            calls.append(1)

        value = _best_amortized(fn, repeats=2, min_sample_s=0.0)
        assert value >= 0.0
        # Warmup + at least 3 samples even when repeats < 3.
        assert len(calls) >= 4


# ----------------------------------------------------------------------
# Report degenerate traces + serve telemetry guard (satellites)
# ----------------------------------------------------------------------
class TestReportDegenerateTraces:
    def test_no_serving_events_returns_none(self):
        events = _make_span_trace()
        assert summarize_serving(events) is None
        assert "Serving" not in render_report(events)

    def test_metrics_only_trace_renders(self):
        clock = ManualClock()
        tel = Telemetry(clock=clock.now, run_id="m")
        tel.hist("serve.latency.signoff", 0.02)
        tel.close()
        assert summarize_serving(tel.events) is None
        out = render_report(tel.events)
        assert "Histograms" in out and "p99" in out

    def test_truncated_final_line_lenient_read(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(
            '{"kind": "run_start", "run": "x", "t": 0.0, "seq": 0}\n'
            '{"kind": "job_done", "t": 1.0, "job_kind": "signoff", '
            '"latency": 0.01, "attempts": 1}\n'
            '{"kind": "run_e'  # torn final write
        )
        with pytest.raises(TraceError):
            read_trace(p)
        events = read_trace(p, strict=False)
        assert [e["kind"] for e in events] == ["run_start", "job_done"]
        serving = summarize_serving(events)
        assert serving["kinds"]["signoff"]["done"] == 1
        assert serving["kinds"]["signoff"]["p99_latency"] == 0.01

    def test_empty_trace_lenient_returns_empty(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(TraceError, match="empty trace"):
            read_trace(p)
        assert read_trace(p, strict=False) == []


class _CountingNull(NullTelemetry):
    """Disabled telemetry that records any accidental emission."""

    def __init__(self):
        self.calls = []

    def event(self, kind, **fields):
        self.calls.append(("event", kind))

    def count(self, name, n=1):
        self.calls.append(("count", name))

    def gauge(self, name, value):
        self.calls.append(("gauge", name))

    def hist(self, name, value):
        self.calls.append(("hist", name))


class TestServeTelemetryGuard:
    def test_disabled_path_emits_nothing(self):
        """Every serve-path emission (incl. SLO) honours tel.enabled."""
        probe = _CountingNull()
        clock = ManualClock()
        chaos = ChaosMonkey(
            DelayDispatch(job="signoff", on_attempt=1, seconds=0.2,
                          max_fires=2)
        )
        service = SignoffService(
            handlers=_SLORecorder().make(),
            clock=clock.now,
            asleep=virtual_asleep(clock),
            chaos=chaos,
            retry_backoff=0.0,
            slo=[_latency_objective()],
        )

        async def scenario():
            async with service:
                for _ in range(8):
                    service.submit("signoff", design="d")
                    await service.drain()
                    clock.advance(0.1)

        with telemetry_session(probe):
            asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))
        assert probe.calls == []
        assert service.stats.done == 8
