//! The scenario catalog and the single deterministic job runner.
//!
//! Every way of executing a scenario job — a `vcloudd` worker thread, the
//! `experiments --job` in-process mode, a test — goes through [`run_job`],
//! which is what makes the service's determinism contract checkable: the
//! daemon can only ever return bytes this function produced.

use std::sync::atomic::{AtomicBool, Ordering};

use vc_net::netsim::NetSim;
use vc_net::routing::{ClusterRouting, Epidemic, GreedyGeo, MozoRouting, RoutingProtocol};
use vc_net::svc::fnv1a64;
use vc_obs::json::Json;
use vc_obs::{reborrow, MemSize, Recorder};
use vc_sim::scenario::{Scenario, ScenarioBuilder};

/// Upper bound on `ticks` accepted for a single job.
pub const MAX_TICKS: u32 = 50_000;

/// Per-job deterministic heap budget (bytes): fleet + network-layer state,
/// measured with the [`MemSize`]/`heap_bytes` capacity accounting, so the
/// same job hits (or clears) the budget identically on every host.
pub const MEM_BUDGET_BYTES: u64 = 64 * 1024 * 1024;

/// How often (in rounds) the runner polls the cancel flag and re-measures
/// the heap footprint against [`MEM_BUDGET_BYTES`].
const CHECK_EVERY_ROUNDS: u32 = 16;

/// One entry in the scenario catalog.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioEntry {
    /// Catalog id clients put in SUBMIT frames.
    pub id: &'static str,
    /// Human-readable description for listings.
    pub desc: &'static str,
    /// Vehicle count of the underlying scenario.
    pub vehicles: usize,
    /// Random source/destination packet pairs injected before the run.
    pub packets: usize,
}

/// The jobs `vcloudd` will run. Ticks and seed come from the client; the
/// map, routing protocol, and traffic shape are fixed per catalog id so a
/// `(scenario, seed, ticks, flags)` tuple fully determines the result.
pub const SCENARIOS: &[ScenarioEntry] = &[
    ScenarioEntry {
        id: "urban-epidemic",
        desc: "urban grid with RSUs, epidemic flooding",
        vehicles: 40,
        packets: 24,
    },
    ScenarioEntry {
        id: "urban-greedy",
        desc: "urban grid with RSUs, greedy geographic forwarding",
        vehicles: 40,
        packets: 24,
    },
    ScenarioEntry {
        id: "urban-cluster",
        desc: "urban grid with RSUs, cluster-backbone routing",
        vehicles: 40,
        packets: 24,
    },
    ScenarioEntry {
        id: "highway-epidemic",
        desc: "highway without infrastructure, epidemic flooding",
        vehicles: 48,
        packets: 24,
    },
    ScenarioEntry {
        id: "highway-mozo",
        desc: "highway without infrastructure, moving-zone routing",
        vehicles: 48,
        packets: 24,
    },
    ScenarioEntry {
        id: "canyon-greedy",
        desc: "urban canyon (harsh LOS), greedy geographic forwarding",
        vehicles: 36,
        packets: 16,
    },
];

/// Looks a catalog id up.
pub fn find_scenario(id: &str) -> Option<&'static ScenarioEntry> {
    SCENARIOS.iter().find(|e| e.id == id)
}

/// Everything that identifies a job run. Mirrors the SUBMIT frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Catalog id ([`SCENARIOS`]).
    pub scenario: String,
    /// Deterministic seed.
    pub seed: u64,
    /// Simulation rounds.
    pub ticks: u32,
    /// [`vc_net::svc::FLAG_TRACE`] and future flags.
    pub flags: u32,
}

impl JobSpec {
    /// Validates the spec against the catalog and service limits without
    /// running anything. `Err` carries a human-readable reason.
    pub fn validate(&self) -> Result<(), JobError> {
        if find_scenario(&self.scenario).is_none() {
            return Err(JobError::UnknownScenario(self.scenario.clone()));
        }
        if self.ticks == 0 || self.ticks > MAX_TICKS {
            return Err(JobError::BadRequest("ticks must be in 1..=50000"));
        }
        if self.flags & !vc_net::svc::FLAG_TRACE != 0 {
            return Err(JobError::BadRequest("unknown flag bits set"));
        }
        Ok(())
    }

    /// Whether the client asked for the recorder trace in the result.
    pub fn wants_trace(&self) -> bool {
        self.flags & vc_net::svc::FLAG_TRACE != 0
    }
}

/// The deterministic result payload of a finished job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutput {
    /// Stats JSON (pretty, trailing newline) — byte-stable for a spec.
    pub stats: Vec<u8>,
    /// Recorder JSONL (empty unless the spec set `FLAG_TRACE`).
    pub trace: Vec<u8>,
    /// `fnv1a64` over stats bytes then trace bytes.
    pub checksum: u64,
}

/// Why a job failed to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Scenario id is not in [`SCENARIOS`].
    UnknownScenario(String),
    /// Spec fails a static limit (ticks range, flag bits).
    BadRequest(&'static str),
    /// The deterministic heap footprint crossed [`MEM_BUDGET_BYTES`].
    BudgetExceeded {
        /// Measured footprint at the failing check.
        used: u64,
        /// The budget it crossed.
        budget: u64,
    },
    /// The cancel flag was observed set.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::UnknownScenario(id) => write!(f, "unknown scenario {id:?}"),
            JobError::BadRequest(why) => write!(f, "bad request: {why}"),
            JobError::BudgetExceeded { used, budget } => {
                write!(f, "memory budget exceeded: {used} > {budget} bytes")
            }
            JobError::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

fn build_scenario(entry: &ScenarioEntry, seed: u64) -> Scenario {
    let mut builder = ScenarioBuilder::new();
    builder.seed(seed).vehicles(entry.vehicles);
    match entry.id {
        "highway-epidemic" | "highway-mozo" => builder.highway_no_infra(),
        "canyon-greedy" => builder.urban_canyon(),
        _ => builder.urban_with_rsus(),
    }
}

/// Runs a validated job to completion. `cancel` (when given) is polled
/// every `CHECK_EVERY_ROUNDS` rounds; the same cadence re-measures the
/// deterministic heap footprint against [`MEM_BUDGET_BYTES`], so a
/// cancelled or over-budget job stops within a bounded number of rounds.
///
/// The returned bytes depend only on the spec — not on `VC_SHARDS`, the
/// worker thread, wall-clock time, or anything else the daemon is doing.
pub fn run_job(spec: &JobSpec, cancel: Option<&AtomicBool>) -> Result<JobOutput, JobError> {
    spec.validate()?;
    let entry = find_scenario(&spec.scenario).expect("validated above");
    let mut scenario = build_scenario(entry, spec.seed);
    let mut recorder = spec.wants_trace().then(Recorder::new);
    let stats_json = match entry.id {
        "urban-epidemic" | "highway-epidemic" => {
            drive(spec, entry, &mut scenario, Epidemic, cancel, recorder.as_mut())
        }
        "urban-greedy" | "canyon-greedy" => {
            drive(spec, entry, &mut scenario, GreedyGeo, cancel, recorder.as_mut())
        }
        "urban-cluster" => {
            drive(spec, entry, &mut scenario, ClusterRouting::new(), cancel, recorder.as_mut())
        }
        "highway-mozo" => {
            drive(spec, entry, &mut scenario, MozoRouting::new(), cancel, recorder.as_mut())
        }
        other => unreachable!("catalog id {other} has no protocol mapping"),
    }?;
    Ok(finish(stats_json, recorder))
}

fn drive<P: RoutingProtocol>(
    spec: &JobSpec,
    entry: &ScenarioEntry,
    scenario: &mut Scenario,
    protocol: P,
    cancel: Option<&AtomicBool>,
    mut rec: Option<&mut Recorder>,
) -> Result<Json, JobError> {
    let mut sim = NetSim::new(scenario, protocol);
    sim.send_random_pairs_obs(entry.packets, 256, reborrow(&mut rec));
    let mut remaining = spec.ticks;
    while remaining > 0 {
        let step = remaining.min(CHECK_EVERY_ROUNDS);
        sim.run_rounds_obs(step as usize, reborrow(&mut rec));
        remaining -= step;
        let used = sim.heap_bytes() + sim.scenario_mut().fleet.mem_bytes();
        if used > MEM_BUDGET_BYTES {
            return Err(JobError::BudgetExceeded { used, budget: MEM_BUDGET_BYTES });
        }
        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            return Err(JobError::Cancelled);
        }
    }
    let heap = sim.heap_bytes() + sim.scenario_mut().fleet.mem_bytes();
    let stats = sim.into_stats();
    Ok(Json::object::<&str>(vec![
        ("scenario", Json::from(spec.scenario.as_str())),
        ("seed", Json::from(spec.seed)),
        ("ticks", Json::from(spec.ticks)),
        ("flags", Json::from(spec.flags)),
        ("sent", Json::from(stats.sent)),
        ("delivered", Json::from(stats.delivered)),
        ("transmissions", Json::from(stats.transmissions)),
        ("delivery_ratio", Json::from(stats.delivery_ratio())),
        ("mean_latency_s", Json::from(stats.mean_latency_s())),
        ("mean_hops", Json::from(stats.mean_hops())),
        ("overhead_per_delivery", Json::from(stats.overhead_per_delivery())),
        ("heap_bytes", Json::from(heap)),
    ]))
}

fn finish(stats_json: Json, recorder: Option<Recorder>) -> JobOutput {
    let mut stats = stats_json.to_string_pretty().into_bytes();
    stats.push(b'\n');
    let mut trace = Vec::new();
    if let Some(rec) = recorder {
        rec.write_jsonl(&mut trace).expect("Vec<u8> write cannot fail");
    }
    let checksum = fnv1a64(&[&stats, &trace]);
    JobOutput { stats, trace, checksum }
}
