//! `service-mixed`: tenants submitting to an in-process `vcloudd` (an open
//! loop from one process, two connections, two workers).
//!
//! Jobs come from the full six-scenario catalog at 200 ticks each, in
//! blocks of ten with the same mix for every seed, and are due at a fixed
//! rate, about 30% of what two workers complete when saturated, so the
//! service keeps up and `throughput_per_s` equals the offered rate until it
//! falls behind. One connection submits each job when
//! it is due; the other fetches results in submission order as they
//! complete. Each job is timed from when it was due, not from when it was
//! actually submitted, so a stall in the generator or the service delays
//! every job behind it and shows; how late the generator ran is reported
//! separately.
//!
//! This is the only workload on the queue, wire and supervisor path. Its
//! 36–48-vehicle fleets sit far under `ShardPlan`'s 512-items-per-shard
//! threshold, so sharding changes leave it as it is.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vc_net::svc::{JobPhase, JobTimes};
use vc_obs::profile::{self, Profiler};
use vc_service::client::{Client, JobResult};
use vc_service::job::{run_job, JobSpec, SCENARIOS};
use vc_service::server::{bind_and_announce, ServerConfig};
use vc_service::supervisor::SupervisorConfig;
use vc_sim::rng::SimRng;

use crate::harness::{self, Layers, Opts, Outcome, MIN_SAMPLES};
use crate::stats::percentile;
use crate::trace::Tracer;

/// Worker threads of the daemon.
const WORKERS: usize = 2;
/// Jobs the daemon may queue before it rejects.
const QUEUE_CAP: usize = 64;
/// Rounds per job.
pub const TICKS: u32 = 200;
/// Jobs due per second: about 30% of the ~193 jobs/s two workers complete
/// when saturated (2-vCPU host, on the commit that introduced the
/// benchmark). At 57% (110 jobs/s) the host's steal pushed both vCPUs into
/// queueing often enough that p50 and p95 moved by 25–30% between runs.
pub const OFFERED_RATE_HZ: f64 = 55.0;
/// Distinct seeds per scenario; results of repeated specs are checked once.
const SEED_POOL: usize = 32;
/// Scenarios of one block of ten jobs, before its seeded shuffle. Every
/// seed gets the same mix, weighted so that the median job is a
/// highway-epidemic one and the 95th percentile a highway-mozo one, each
/// inside a group of similar run times rather than on a boundary between
/// groups.
const BLOCK: [&str; 10] = [
    "urban-epidemic",
    "urban-epidemic",
    "urban-greedy",
    "canyon-greedy",
    "highway-epidemic",
    "highway-epidemic",
    "highway-epidemic",
    "urban-cluster",
    "highway-mozo",
    "highway-mozo",
];

/// The seeded job stream.
pub struct JobGen {
    rng: SimRng,
    seeds: Vec<u64>,
    block: Vec<&'static str>,
}

impl JobGen {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> JobGen {
        let mut pool = SimRng::stream(seed, 0x706f_6f6c);
        JobGen {
            rng: SimRng::stream(seed, 0x6a6f_6273),
            seeds: (0..SEED_POOL).map(|_| pool.next_u64()).collect(),
            block: Vec::new(),
        }
    }

    /// The next job.
    pub fn next_job(&mut self) -> JobSpec {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            self.rng.shuffle(&mut self.block);
        }
        let scenario = self.block.pop().expect("refilled above").to_string();
        let seed = self.seeds[self.rng.index(SEED_POOL)];
        JobSpec { scenario, seed, ticks: TICKS, flags: 0 }
    }
}

/// A running daemon with the benchmark's two connections.
struct Daemon {
    thread: JoinHandle<io::Result<u64>>,
    submit: Client,
    fetch: Client,
}

fn start_daemon() -> io::Result<Daemon> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        pool: SupervisorConfig { workers: WORKERS, queue_cap: QUEUE_CAP },
    };
    let (server, addr): (_, SocketAddr) = bind_and_announce(&config)?;
    let thread = std::thread::spawn(move || server.run());
    let mut submit = Client::connect(addr)?;
    let fetch = Client::connect(addr)?;
    // Warm-up: one job of every scenario, so lazily built state exists
    // before the clock starts.
    for entry in SCENARIOS {
        let spec = JobSpec { scenario: entry.id.into(), seed: 1, ticks: TICKS, flags: 0 };
        let job =
            submit.submit(&spec)?.map_err(|(r, d)| io::Error::other(format!("{r:?}: {d}")))?;
        submit.fetch_result(job)?;
    }
    Ok(Daemon { thread, submit, fetch })
}

fn stop_daemon(d: Daemon) -> io::Result<()> {
    let Daemon { thread, mut submit, fetch } = d;
    drop(fetch);
    submit.shutdown()?;
    drop(submit);
    thread.join().map_err(|_| io::Error::other("server thread panicked"))?.map(|_| ())
}

/// One job as the submitting side saw it.
struct Submitted {
    index: usize,
    due: Instant,
    sent: Instant,
    job: Result<u64, String>,
}

/// One job's full record.
struct Sample {
    index: usize,
    due: Instant,
    sent: Instant,
    /// Submission outcome, then the fetched result.
    result: Result<(JobResult, Instant), String>,
}

/// Everything one open-loop pass produced.
struct Pass {
    samples: Vec<Sample>,
    /// From the first job's due time to the last result, seconds.
    wall_s: f64,
    /// When the last result came back.
    ended: Instant,
    tracer: Tracer,
    daemon: Daemon,
}

/// Submits `jobs[i]` at `start + i / rate` on one connection while another
/// thread fetches results in submission order.
fn open_loop(mut daemon: Daemon, jobs: &[JobSpec], traced: bool) -> Pass {
    let epoch = Instant::now();
    let mut tr = Tracer::new(traced, epoch);
    let (tx, rx) = mpsc::channel::<Submitted>();
    let mut fetch_client = daemon.fetch;
    let fetcher = std::thread::spawn(move || {
        let mut ftr = Tracer::new(traced, epoch);
        let mut samples = Vec::new();
        for s in rx {
            let result = match s.job {
                Ok(job) => {
                    let open = ftr.begin("service.fetch_result", s.index as u64);
                    let r = fetch_client.fetch_result(job);
                    ftr.end(open);
                    r.map(|r| (r, Instant::now())).map_err(|e| format!("fetch: {e}"))
                }
                Err(e) => Err(e),
            };
            samples.push(Sample { index: s.index, due: s.due, sent: s.sent, result });
        }
        (samples, ftr, fetch_client)
    });

    let start = Instant::now();
    let period = Duration::from_secs_f64(1.0 / OFFERED_RATE_HZ);
    for (index, spec) in jobs.iter().enumerate() {
        let due = start + period * index as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let open = tr.begin("service.submit", index as u64);
        let job = match daemon.submit.submit(spec) {
            Ok(Ok(job)) => Ok(job),
            Ok(Err((reason, detail))) => Err(format!("rejected: {reason:?}: {detail}")),
            Err(e) => Err(format!("submit: {e}")),
        };
        tr.end(open);
        if tx.send(Submitted { index, due, sent, job }).is_err() {
            break;
        }
    }
    drop(tx);
    let (samples, ftr, fetch_client) = fetcher.join().expect("fetcher thread panicked");
    let ended = Instant::now();
    let wall_s = samples
        .iter()
        .filter_map(|s| s.result.as_ref().ok().map(|(_, done)| done.duration_since(start)))
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    tr.absorb(ftr);
    daemon.fetch = fetch_client;
    Pass { samples, wall_s, ended, tracer: tr, daemon }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// What checking a pass found.
struct Checked {
    completed: u64,
    failed: u64,
    /// Collapsed stacks the profiler saw in the in-process runs (profiled
    /// checks only): through a crypto frame, and all.
    stacks: (u64, u64),
}

/// Checks every result against an in-process `run_job` of its spec. With
/// `profiled`, each checking thread runs under the program's profiler and
/// the crypto frames it saw are counted: the daemon's workers run the same
/// `run_job`, on threads the benchmark cannot profile.
fn check(jobs: &[JobSpec], samples: &[Sample], profiled: bool, out: &mut Outcome) -> Checked {
    // Expected checksums, one in-process run per distinct spec, on as many
    // threads as the daemon has workers.
    let mut distinct: Vec<&JobSpec> = jobs.iter().collect();
    distinct.sort_by(|a, b| (&a.scenario, a.seed).cmp(&(&b.scenario, b.seed)));
    distinct.dedup();
    let mut expected: BTreeMap<(String, u64), Result<u64, String>> = BTreeMap::new();
    let mut stacks = (0, 0);
    std::thread::scope(|s| {
        let chunk = distinct.len().div_ceil(WORKERS).max(1);
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    if profiled {
                        profile::install(Profiler::new());
                    }
                    let sums = part
                        .iter()
                        .map(|spec| {
                            let sum =
                                run_job(spec, None).map(|o| o.checksum).map_err(|e| e.to_string());
                            ((spec.scenario.clone(), spec.seed), sum)
                        })
                        .collect::<Vec<_>>();
                    (sums, profile::take().map_or((0, 0), |p| harness::crypto_stacks(&p)))
                })
            })
            .collect();
        for h in handles {
            let (sums, (crypto, all)) = h.join().expect("check thread panicked");
            expected.extend(sums);
            stacks = (stacks.0 + crypto, stacks.1 + all);
        }
    });

    let (mut completed, mut failed) = (0u64, 0u64);
    for s in samples {
        let spec = &jobs[s.index];
        match &s.result {
            Ok((r, _)) if r.phase == JobPhase::Done => {
                completed += 1;
                let want = &expected[&(spec.scenario.clone(), spec.seed)];
                if want.as_ref().ok() != Some(&r.checksum) {
                    out.mismatch(format!(
                        "job {} ({} seed {}): checksum {:#x}, in-process {want:?}",
                        s.index, spec.scenario, spec.seed, r.checksum
                    ));
                }
            }
            Ok((r, _)) => {
                failed += 1;
                out.mismatch(format!("job {} ended {:?}: {}", s.index, r.phase, r.detail));
            }
            Err(e) => {
                failed += 1;
                if !e.starts_with("rejected") {
                    out.mismatch(format!("job {}: {e}", s.index));
                }
            }
        }
    }
    if samples.len() != jobs.len() {
        out.mismatch(format!("{} of {} jobs came back", samples.len(), jobs.len()));
    }
    Checked { completed, failed, stacks }
}

/// Jobs a pass of `seconds` in `segments` segments offers.
fn job_count(seconds: f64, segments: usize) -> usize {
    ((seconds * OFFERED_RATE_HZ).ceil() as usize).max(MIN_SAMPLES * segments)
}

fn jobs_for(seed: u64, n: usize) -> Vec<JobSpec> {
    let mut gen = JobGen::new(seed);
    (0..n).map(|_| gen.next_job()).collect()
}

/// Median time from submit to result of the jobs that completed, ms.
fn client_ms(samples: &[Sample]) -> f64 {
    let times: Vec<f64> = samples
        .iter()
        .filter_map(|s| {
            let (_, done) = s.result.as_ref().ok()?;
            Some(done.duration_since(s.sent).as_secs_f64() * 1e3)
        })
        .collect();
    crate::stats::median(&times).unwrap_or(0.0)
}

fn stop(daemon: Daemon, out: &mut Outcome) {
    if let Err(e) = stop_daemon(daemon) {
        out.mismatch(format!("daemon shutdown: {e}"));
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    out.notes.push(format!(
        "workers = {WORKERS}, offered rate = {OFFERED_RATE_HZ} jobs/s, ticks = {TICKS}"
    ));
    let mut setup_secs = Vec::new();
    let mut daemon = None;
    for _ in 0..harness::SETUP_REPEATS {
        if let Some(d) = daemon.take() {
            stop(d, &mut out);
        }
        let t0 = Instant::now();
        match start_daemon() {
            Ok(d) => daemon = Some(d),
            Err(e) => {
                out.mismatch(format!("daemon start: {e}"));
                return out;
            }
        }
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("SETUP_REPEATS >= 1");
    let setup_s = crate::stats::median(&setup_secs).expect("SETUP_REPEATS >= 1");

    let jobs = if opts.trace {
        jobs_for(opts.seed, job_count(opts.seconds / 2.0, 1))
    } else {
        jobs_for(opts.seed, job_count(opts.seconds, harness::SEGMENTS))
    };
    vc_obs::mem::reset_peak();
    let pass = open_loop(daemon, &jobs, false);
    let peak = harness::peak_heap_mb();
    let checked = check(&jobs, &pass.samples, false, &mut out);
    out.attempted = jobs.len() as u64;
    out.failed = checked.failed;

    if !opts.trace {
        stop(pass.daemon, &mut out);
        // Segments by due time: consecutive quarters of the job stream. A
        // job that never came back counts as late until the pass ended.
        let per = jobs.len().div_ceil(harness::SEGMENTS);
        let mut latencies = vec![Vec::new(); harness::SEGMENTS];
        for s in &pass.samples {
            let done = s.result.as_ref().map_or(pass.ended, |(_, done)| *done);
            latencies[s.index / per].push(done.duration_since(s.due).as_secs_f64() * 1e3);
        }
        let throughput = ("jobs_per_s", "jobs/s", checked.completed as f64 / pass.wall_s.max(1e-9));
        harness::end_to_end(&mut out, throughput, &latencies, setup_s, peak);
        return out;
    }

    // Traced pass: the same jobs again on the same daemon, spans on.
    let plain_client_ms = client_ms(&pass.samples);
    let traced = open_loop(pass.daemon, &jobs, true);
    let checked = check(&jobs, &traced.samples, true, &mut out);
    out.failed += checked.failed;
    out.attempted += jobs.len() as u64;
    stop(traced.daemon, &mut out);

    let mut layers = Layers::new();
    layers.spans(&traced.tracer.totals());
    let mut queue = Vec::new();
    let mut run = Vec::new();
    let mut overhead = Vec::new();
    let mut lag = Vec::new();
    let mut per_scenario: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut rejected, mut failed_jobs) = (0u64, 0u64);
    for s in &traced.samples {
        lag.push(s.sent.duration_since(s.due).as_secs_f64() * 1e3);
        match &s.result {
            Ok((r, done)) if r.phase == JobPhase::Done => {
                let JobTimes { accepted_ns, started_ns, finished_ns } = r.times;
                queue.push(ms(started_ns - accepted_ns));
                run.push(ms(finished_ns - started_ns));
                let client = done.duration_since(s.sent).as_secs_f64() * 1e3;
                overhead.push(client - ms(finished_ns - accepted_ns));
                per_scenario
                    .entry(jobs[s.index].scenario.as_str())
                    .or_default()
                    .push(ms(finished_ns - started_ns));
            }
            Ok(_) => failed_jobs += 1,
            Err(e) if e.starts_with("rejected") => rejected += 1,
            Err(_) => failed_jobs += 1,
        }
    }
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
    layers.set("service.queue_wait_ms.p50", p(&queue, 0.5));
    layers.set("service.queue_wait_ms.p95", p(&queue, 0.95));
    layers.set("service.run_ms.p50", p(&run, 0.5));
    layers.set("service.run_ms.p95", p(&run, 0.95));
    layers.set("service.overhead_ms.p50", p(&overhead, 0.5));
    layers.set("service.generator_lag_ms.p95", p(&lag, 0.95));
    layers.set("service.rejected", rejected as f64);
    layers.set("service.failed", failed_jobs as f64);
    for (scenario, runs) in &per_scenario {
        layers.set(&format!("service.run_job.{scenario}.ms"), p(runs, 0.5));
    }
    // The spans wrap the client's calls, so their cost shows in each job's
    // time from submit to result, not in the schedule-bound pass length.
    let traced_client_ms = client_ms(&traced.samples);
    layers.set("obs.trace_overhead_ratio", traced_client_ms / plain_client_ms.max(1e-9));
    let (crypto, all) = checked.stacks;
    out.notes.push(format!("profiled stacks in checks = {all}, through crypto frames = {crypto}"));
    layers.set("obs.crypto_spans", crypto as f64);
    layers.into_outcome(&mut out);
    harness::write_trace(&mut out, "service-mixed", opts.seed, &traced.tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs_other_seed_other_jobs() {
        assert_eq!(jobs_for(2, 200), jobs_for(2, 200));
        assert_ne!(jobs_for(2, 200), jobs_for(3, 200));
    }

    #[test]
    fn every_block_has_the_same_mix_over_the_whole_catalog() {
        let jobs = jobs_for(4, 600);
        assert!(jobs.iter().all(|j| j.validate().is_ok() && j.ticks == TICKS));
        for entry in SCENARIOS {
            assert!(BLOCK.contains(&entry.id), "{} not in the mix", entry.id);
        }
        let mut want = BLOCK.to_vec();
        want.sort_unstable();
        for block in jobs.chunks(BLOCK.len()) {
            let mut got: Vec<&str> = block.iter().map(|j| j.scenario.as_str()).collect();
            got.sort_unstable();
            assert_eq!(got, want);
        }
    }
}
