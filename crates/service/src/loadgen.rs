//! `vcload` — open/closed-loop load generation against a `vcloudd`.
//!
//! Each client thread owns one connection. In closed-loop mode a client
//! submits a job, blocks on its RESULT, then submits the next — measuring
//! the service at its natural pace. In open-loop mode clients pace
//! SUBMITs at a fixed rate regardless of completions (the classic way to
//! expose queueing collapse), then collect all results.
//!
//! Latency is measured from the server's own [`JobTimes`] (queue, run,
//! end-to-end) plus the client-observed submit→result wall time, and is
//! reported as [`Quantiles`] over [`Histogram`]s — the same estimator
//! `vcstat` uses.

use std::io;
use std::time::Instant;

use vc_net::svc::{JobPhase, JobTimes};
use vc_obs::json::Json;
use vc_obs::{Histogram, Quantiles};
use vc_sim::rng::SimRng;

use crate::client::Client;
use crate::job::JobSpec;

/// Submission pacing discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Submit → wait for RESULT → next. Throughput finds its own level.
    Closed,
    /// Submit at a fixed per-client rate, collect results afterwards.
    Open {
        /// SUBMITs per second per client.
        rate_hz: f64,
    },
}

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address.
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Jobs each client submits.
    pub jobs_per_client: usize,
    /// Scenario ids drawn per job (deterministically, from `seed`).
    pub mix: Vec<String>,
    /// Rounds per job.
    pub ticks: u32,
    /// Flags per job ([`vc_net::svc::FLAG_TRACE`]).
    pub flags: u32,
    /// Base seed: client `c`, job `j` derive their own streams from it.
    pub seed: u64,
    /// Pacing discipline.
    pub mode: Mode,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7744".into(),
            clients: 4,
            jobs_per_client: 8,
            mix: vec!["urban-epidemic".into()],
            ticks: 64,
            flags: 0,
            seed: 1,
            mode: Mode::Closed,
        }
    }
}

/// One job's measured outcome.
#[derive(Debug, Clone, Copy)]
struct Sample {
    phase: JobPhase,
    times: JobTimes,
    wall_us: f64,
}

/// Aggregated results of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Total SUBMIT frames sent.
    pub submitted: u64,
    /// SUBMITs admitted.
    pub accepted: u64,
    /// SUBMITs rejected (backpressure or validation).
    pub rejected: u64,
    /// Jobs that reached `Done`.
    pub completed: u64,
    /// Jobs that reached `Failed`.
    pub failed: u64,
    /// Jobs that reached `Cancelled`.
    pub cancelled: u64,
    /// Wall-clock duration of the whole run, seconds.
    pub elapsed_s: f64,
    /// Completed jobs per wall-clock second.
    pub jobs_per_sec: f64,
    /// Server-side queue wait (accepted→started), microseconds.
    pub queue_us: Quantiles,
    /// Server-side execution (started→finished), microseconds.
    pub run_us: Quantiles,
    /// Server-side end-to-end (accepted→finished), microseconds.
    pub e2e_us: Quantiles,
    /// Client-observed submit→result wall time, microseconds.
    pub wall_us: Quantiles,
}

impl LoadReport {
    /// Renders the report with a fixed key set and order — the schema is
    /// deterministic even though the values are wall-clock measurements.
    pub fn to_json(&self, config: &LoadConfig) -> Json {
        let mode = match config.mode {
            Mode::Closed => Json::from("closed"),
            Mode::Open { rate_hz } => {
                Json::object::<&str>(vec![("open_rate_hz", Json::from(rate_hz))])
            }
        };
        Json::object::<&str>(vec![
            (
                "config",
                Json::object::<&str>(vec![
                    ("clients", Json::from(config.clients)),
                    ("jobs_per_client", Json::from(config.jobs_per_client)),
                    ("mix", Json::array(config.mix.iter().map(|s| Json::from(s.as_str())))),
                    ("ticks", Json::from(config.ticks)),
                    ("flags", Json::from(config.flags)),
                    ("seed", Json::from(config.seed)),
                    ("mode", mode),
                ]),
            ),
            ("submitted", Json::from(self.submitted)),
            ("accepted", Json::from(self.accepted)),
            ("rejected", Json::from(self.rejected)),
            ("completed", Json::from(self.completed)),
            ("failed", Json::from(self.failed)),
            ("cancelled", Json::from(self.cancelled)),
            ("elapsed_s", Json::from(self.elapsed_s)),
            ("jobs_per_sec", Json::from(self.jobs_per_sec)),
            ("queue_us", self.queue_us.to_json()),
            ("run_us", self.run_us.to_json()),
            ("e2e_us", self.e2e_us.to_json()),
            ("wall_us", self.wall_us.to_json()),
        ])
    }
}

fn job_spec(config: &LoadConfig, rng: &mut SimRng) -> JobSpec {
    let scenario = config.mix[rng.index(config.mix.len())].clone();
    JobSpec { scenario, seed: rng.next_u64(), ticks: config.ticks, flags: config.flags }
}

/// One client thread's work; returns its samples and submit/reject counts.
fn client_loop(config: &LoadConfig, client_idx: usize) -> io::Result<(Vec<Sample>, u64, u64)> {
    let mut client = Client::connect(&config.addr)?;
    let mut rng = SimRng::seed_from(config.seed ^ (client_idx as u64).wrapping_mul(0x9e37_79b9));
    let mut samples = Vec::new();
    let (mut submitted, mut rejected) = (0u64, 0u64);
    match config.mode {
        Mode::Closed => {
            for _ in 0..config.jobs_per_client {
                let spec = job_spec(config, &mut rng);
                let begin = Instant::now();
                submitted += 1;
                match client.submit(&spec)? {
                    Ok(job) => {
                        let result = client.fetch_result(job)?;
                        samples.push(Sample {
                            phase: result.phase,
                            times: result.times,
                            wall_us: begin.elapsed().as_secs_f64() * 1e6,
                        });
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
        Mode::Open { rate_hz } => {
            let period = std::time::Duration::from_secs_f64(1.0 / rate_hz.max(0.001));
            let start = Instant::now();
            let mut pending = Vec::new();
            for i in 0..config.jobs_per_client {
                let due = period * i as u32;
                if let Some(sleep) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(sleep);
                }
                let spec = job_spec(config, &mut rng);
                submitted += 1;
                match client.submit(&spec)? {
                    Ok(job) => pending.push((job, Instant::now())),
                    Err(_) => rejected += 1,
                }
            }
            for (job, begin) in pending {
                let result = client.fetch_result(job)?;
                samples.push(Sample {
                    phase: result.phase,
                    times: result.times,
                    wall_us: begin.elapsed().as_secs_f64() * 1e6,
                });
            }
        }
    }
    Ok((samples, submitted, rejected))
}

/// Runs the configured load and aggregates every client's measurements.
pub fn run_load(config: &LoadConfig) -> io::Result<LoadReport> {
    let start = Instant::now();
    let handles: Vec<_> = (0..config.clients.max(1))
        .map(|c| {
            let config = config.clone();
            std::thread::spawn(move || client_loop(&config, c))
        })
        .collect();
    let mut samples = Vec::new();
    let (mut submitted, mut rejected) = (0u64, 0u64);
    for h in handles {
        let (s, sub, rej) = h.join().expect("client thread panicked")?;
        samples.extend(s);
        submitted += sub;
        rejected += rej;
    }
    let elapsed_s = start.elapsed().as_secs_f64();

    let mut queue = Histogram::new();
    let mut run = Histogram::new();
    let mut e2e = Histogram::new();
    let mut wall = Histogram::new();
    let (mut completed, mut failed, mut cancelled) = (0u64, 0u64, 0u64);
    for s in &samples {
        match s.phase {
            JobPhase::Done => completed += 1,
            JobPhase::Failed => failed += 1,
            JobPhase::Cancelled => cancelled += 1,
            JobPhase::Queued | JobPhase::Running => {}
        }
        let t = s.times;
        if t.started_ns >= t.accepted_ns && t.started_ns > 0 {
            queue.record((t.started_ns - t.accepted_ns) as f64 / 1_000.0);
        }
        if t.finished_ns >= t.started_ns && t.finished_ns > 0 {
            run.record((t.finished_ns - t.started_ns) as f64 / 1_000.0);
            e2e.record((t.finished_ns - t.accepted_ns) as f64 / 1_000.0);
        }
        wall.record(s.wall_us);
    }
    Ok(LoadReport {
        submitted,
        accepted: samples.len() as u64,
        rejected,
        completed,
        failed,
        cancelled,
        elapsed_s,
        jobs_per_sec: if elapsed_s > 0.0 { completed as f64 / elapsed_s } else { 0.0 },
        queue_us: queue.quantiles().unwrap_or_default(),
        run_us: run.quantiles().unwrap_or_default(),
        e2e_us: e2e.quantiles().unwrap_or_default(),
        wall_us: wall.quantiles().unwrap_or_default(),
    })
}
