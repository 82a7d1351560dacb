//! Pieces every workload shares: options, the timed loop, repeated set-up,
//! the end-to-end summary, and the fixed per-layer metric set.

use std::time::{Duration, Instant};

use crate::stats::{median, percentile};
use crate::trace::Totals;

/// Fewest latency samples a measured run takes, whatever its time budget:
/// with 200 samples the 95th percentile has 10 samples beyond it.
pub const MIN_SAMPLES: usize = 200;

/// How many times an untraced run builds its set-up; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 5;

/// Consecutive segments an untraced run's measurement is split into. Each
/// end-to-end figure is the median over the segments (the mean of the
/// middle two): a burst of load from outside the benchmark moves at most
/// one segment, and the host's slower and faster spells average out.
pub const SEGMENTS: usize = 4;

/// Command-line options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds (split between the untraced and traced passes of a
    /// traced run).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused or failed that should have passed.
    pub failed: u64,
    /// Output checks that did not hold.
    pub mismatches: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed output check (the first 20 are kept verbatim).
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        } else if self.mismatches.len() == 20 {
            self.mismatches.push("further mismatches omitted".into());
        }
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }
}

/// How long a timed loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until `seconds` have passed and at least [`MIN_SAMPLES`] units ran.
    Time(f64),
    /// Exactly this many units.
    Units(usize),
}

/// What a timed loop measured, on the wall clock.
#[derive(Debug, Clone, Default)]
pub struct LoopStats {
    /// Time of each unit, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Work completed (beacons, requests, vehicle-ticks), summed.
    pub work: f64,
    /// Time of the whole loop, seconds.
    pub secs: f64,
}

/// Runs `step(unit_index)`, indices counting from `first`, until the
/// budget is spent. `step` returns the work the unit completed; each unit
/// is timed on its own.
pub fn timed_loop(budget: Budget, first: u64, mut step: impl FnMut(u64) -> f64) -> LoopStats {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    let mut n = 0usize;
    loop {
        let more = match budget {
            Budget::Time(s) => n < MIN_SAMPLES || start.elapsed() < Duration::from_secs_f64(s),
            Budget::Units(units) => n < units,
        };
        if !more {
            break;
        }
        let t0 = Instant::now();
        stats.work += step(first + n as u64);
        stats.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        n += 1;
    }
    stats.secs = start.elapsed().as_secs_f64();
    stats
}

/// An untraced measurement: [`SEGMENTS`] consecutive timed loops, each on
/// `budget`, sharing one unit numbering.
pub fn timed_segments(budget: Budget, mut step: impl FnMut(u64) -> f64) -> Vec<LoopStats> {
    let mut segments: Vec<LoopStats> = Vec::with_capacity(SEGMENTS);
    let mut first = 0u64;
    for _ in 0..SEGMENTS {
        let seg = timed_loop(budget, first, &mut step);
        first += seg.latencies_ms.len() as u64;
        segments.push(seg);
    }
    segments
}

/// Each of [`SEGMENTS`] segments' share of a run of `seconds`.
pub fn segment_time(seconds: f64) -> Budget {
    Budget::Time(seconds / SEGMENTS as f64)
}

/// Units run over all segments.
pub fn units(segments: &[LoopStats]) -> u64 {
    segments.iter().map(|s| s.latencies_ms.len() as u64).sum()
}

/// Median over segments of work per second.
pub fn throughput(segments: &[LoopStats]) -> f64 {
    let rates: Vec<f64> = segments.iter().map(|s| s.work / s.secs).collect();
    median(&rates).expect("at least one segment")
}

/// Each segment's latency samples.
pub fn latencies(segments: &[LoopStats]) -> Vec<Vec<f64>> {
    segments.iter().map(|s| s.latencies_ms.clone()).collect()
}

/// Builds the set-up `n` times (dropping each before the next) and returns
/// the last one with the median build time in seconds.
pub fn repeat_setup<T>(n: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("n >= 1"), median(&secs).expect("n >= 1"))
}

/// Forces the fixed-base exponentiation table (built lazily on the first
/// `base_pow`) and returns the seconds it took; about 0 when already
/// built.
pub fn force_crypto_tables() -> f64 {
    let t0 = Instant::now();
    let _ = vc_crypto::group::Element::base_pow(vc_crypto::group::Scalar::one());
    t0.elapsed().as_secs_f64()
}

/// Peak live heap since the last `vc_obs::mem::reset_peak`, MiB.
pub fn peak_heap_mb() -> f64 {
    vc_obs::mem::stats().peak_bytes as f64 / (1024.0 * 1024.0)
}

/// The end-to-end metrics of an untraced run. `throughput` is the
/// workload's own throughput metric, printed under its own name as a note
/// and under the shared name `throughput_per_s` in the result. Latency
/// percentiles are exact within each segment; the medians over segments
/// are reported. A segment without samples is a failed check, not a 0.
pub fn end_to_end(
    out: &mut Outcome,
    throughput: (&str, &str, f64),
    segments_ms: &[Vec<f64>],
    setup_s: f64,
    peak_mb: f64,
) {
    let (name, unit, value) = throughput;
    if let Some(k) = segments_ms.iter().position(Vec::is_empty) {
        out.mismatch(format!("segment {k} has no latency samples"));
    }
    let per_segment = |q: f64| -> Vec<f64> {
        segments_ms.iter().map(|s| percentile(s, q).unwrap_or(0.0)).collect()
    };
    let (p50s, p95s) = (per_segment(0.5), per_segment(0.95));
    let p50 = median(&p50s).unwrap_or(0.0);
    let p95 = median(&p95s).unwrap_or(0.0);
    out.notes.push(format!("{name} = {value:.3} {unit}"));
    let counts: Vec<usize> = segments_ms.iter().map(Vec::len).collect();
    out.notes.push(format!("latency samples per segment = {counts:?}"));
    out.notes.push(format!("segment p50 ms = {p50s:.3?}, p95 ms = {p95s:.3?}"));
    let fail_ratio =
        if out.attempted == 0 { 0.0 } else { out.failed as f64 / out.attempted as f64 };
    out.notes.push(format!("fail_ratio = {fail_ratio} ({} of {})", out.failed, out.attempted));
    out.metric("throughput_per_s", value, "1/s");
    out.metric("latency_p50_ms", p50, "ms");
    out.metric("latency_p95_ms", p95, "ms");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_heap_mb", peak_mb, "MiB");
}

/// Spans whose `.calls`, `.busy_ms` and `.us_per_call` every traced run
/// reports (zero where the workload does not call the layer).
pub const SPANS: &[&str] = &[
    "net.sign_beacon",
    "net.ingest_batch",
    "auth.handshake_full",
    "auth.handshake_resume",
    "auth.wallet_sign",
    "cloud.admit",
    "access.seal_new",
    "access.make_proof",
    "cloud.authorize",
    "cloud.validate_reports",
    "net.run_round",
];

/// The other per-layer metrics every traced run reports, with units.
pub const EXTRAS: &[(&str, &str)] = &[
    ("net.ingest_batch.fallback_ratio", "ratio"),
    ("auth.session_hit_ratio", "ratio"),
    ("cloud.admit.rejected", "count"),
    ("cloud.validate_reports.allocs_per_call", "count"),
    ("cloud.request.allocs_per_call", "count"),
    ("sim.build_scenario.busy_ms", "ms"),
    ("frame.grid.query.self_ms", "ms"),
    ("frame.shard.tick.self_ms", "ms"),
    ("frame.radio.delivery.self_ms", "ms"),
    ("frame.shard.merge.self_ms", "ms"),
    ("net.transmissions", "count"),
    ("net.delivered", "count"),
    ("net.heap_bytes", "bytes"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p95", "ms"),
    ("service.run_ms.p50", "ms"),
    ("service.run_ms.p95", "ms"),
    ("service.overhead_ms.p50", "ms"),
    ("service.generator_lag_ms.p95", "ms"),
    ("service.rejected", "count"),
    ("service.failed", "count"),
    ("service.run_job.urban-epidemic.ms", "ms"),
    ("service.run_job.urban-greedy.ms", "ms"),
    ("service.run_job.urban-cluster.ms", "ms"),
    ("service.run_job.highway-epidemic.ms", "ms"),
    ("service.run_job.highway-mozo.ms", "ms"),
    ("service.run_job.canyon-greedy.ms", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.crypto_spans", "count"),
    ("obs.v2v_crypto_share", "ratio"),
    ("obs.city_grid_query_share", "ratio"),
];

/// Span names that belong to the crypto-backed layers (signing,
/// verification, handshakes, sealing, credential proofs).
const CRYPTO_SPANS: &[&str] = &[
    "net.sign_beacon",
    "net.ingest_batch",
    "auth.handshake_full",
    "auth.handshake_resume",
    "auth.wallet_sign",
    "cloud.admit",
    "access.seal_new",
    "access.make_proof",
    "cloud.authorize",
];

/// The fixed per-layer metric set of a traced run, all zero until set.
pub struct Layers {
    values: Vec<(String, f64, &'static str)>,
}

impl Layers {
    /// Every per-layer metric, zeroed, in print order.
    pub fn new() -> Layers {
        let mut values = Vec::new();
        for span in SPANS {
            values.push((format!("{span}.calls"), 0.0, "count"));
            values.push((format!("{span}.busy_ms"), 0.0, "ms"));
            values.push((format!("{span}.us_per_call"), 0.0, "us"));
        }
        for (name, unit) in EXTRAS {
            values.push((name.to_string(), 0.0, *unit));
        }
        Layers { values }
    }

    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// On a name outside the fixed set.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        slot.1 = value;
    }

    /// Sets the span metrics from a tracer's totals, and the crypto span
    /// count.
    pub fn spans(&mut self, totals: &std::collections::BTreeMap<&'static str, Totals>) {
        for span in SPANS {
            let t = totals.get(span).copied().unwrap_or_default();
            self.set(&format!("{span}.calls"), t.calls as f64);
            self.set(&format!("{span}.busy_ms"), t.busy_ms());
            self.set(&format!("{span}.us_per_call"), t.us_per_call());
        }
        let crypto: u64 = CRYPTO_SPANS.iter().map(|s| totals.get(s).map_or(0, |t| t.calls)).sum();
        self.set("obs.crypto_spans", crypto as f64);
    }

    /// Moves the metrics into an outcome.
    pub fn into_outcome(self, out: &mut Outcome) {
        for (name, value, unit) in self.values {
            out.metric(&name, value, unit);
        }
    }
}

/// Collapsed stacks in `prof`: (those that pass through a crypto-backed
/// frame of the program — `auth.*`, `crypto.*`, the pipeline's `admit` and
/// `authorize` — and all of them).
pub fn crypto_stacks(prof: &vc_obs::profile::Profiler) -> (u64, u64) {
    let crypto = |f: &str| {
        f.starts_with("auth.") || f.starts_with("crypto.") || f == "admit" || f == "authorize"
    };
    let collapsed = prof.collapsed();
    let stacks: Vec<&str> = collapsed.lines().filter_map(|l| l.split(' ').next()).collect();
    let hits = stacks.iter().filter(|stack| stack.split(';').any(crypto)).count();
    (hits as u64, stacks.len() as u64)
}

/// Writes a traced run's spans to `perfbench/traces/<workload>-seed<n>.jsonl`
/// under the working directory and returns the path. A write failure is
/// reported as a note, not a failed run.
pub fn write_trace(out: &mut Outcome, workload: &str, seed: u64, tracer: &crate::trace::Tracer) {
    let dir = std::path::Path::new("perfbench").join("traces");
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let result = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_jsonl(&mut w)?;
        std::io::Write::flush(&mut w)
    });
    match result {
        Ok(()) => out.notes.push(format!("spans written to {}", path.display())),
        Err(e) => out.notes.push(format!("spans not written ({}): {e}", path.display())),
    }
}
