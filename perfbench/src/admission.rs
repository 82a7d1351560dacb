//! `cloud-admission`: the secure chain of the paper's Fig. 3, one request
//! at a time (a closed loop with one caller).
//!
//! Each request runs `PseudonymWallet::sign` (the vehicle's hello) →
//! `SecurePipeline::admit` (pseudonym verification, replay guard, service
//! token) → `DataPackage::seal_new` (the owner writes a package) →
//! `SecurePipeline::make_proof` → `SecurePipeline::authorize` (the TPD opens
//! the package for the token holder). Every tenth request also runs
//! `validate_reports` on 50 event reports with a seeded liar share, and a
//! seeded share of requests replays the previous hello instead.
//!
//! It uses the crypto layer differently from `v2v-contacts`: single
//! verifications, DH agreement, ChaCha20 and attribute credentials instead
//! of batched multi-exponentiation, and it is the only workload that
//! reaches `vc-access`, `vc-trust` and `vc-cloud`.

use std::time::Instant;

use vc_access::credential::Attributes;
use vc_access::package::DataPackage;
use vc_access::policy::{Action, Context, Expr, Policy, Role};
use vc_auth::pseudonym::PseudonymMessage;
use vc_auth::token::ServiceId;
use vc_cloud::pipeline::{PipelineError, SecurePipeline, VehicleCredentials};
use vc_crypto::schnorr::SigningKey;
use vc_sim::geom::Point;
use vc_sim::node::{SaeLevel, VehicleId};
use vc_sim::rng::SimRng;
use vc_sim::time::{SimDuration, SimTime};
use vc_trust::prelude::Report;
use vc_trust::report::EventKind;

use crate::harness::{self, Budget, Layers, Opts, Outcome};
use crate::trace::Tracer;

/// Provisioned vehicles requests are drawn from.
const VEHICLES: u32 = 32;
/// Share of requests that replay the previous hello.
const REPLAY_SHARE: f64 = 0.05;
/// Every this many requests also validate a batch of reports.
const VALIDATE_EVERY: u64 = 10;
/// Reports per validation.
const REPORTS: u64 = 50;
/// Reporters whose reputation marks them unreliable: every fifth.
const UNRELIABLE_EVERY: u64 = 5;
/// Sim time between requests.
const REQUEST_MS: u64 = 5;
const SERVICE: ServiceId = ServiceId(1);

/// One request, generated from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestPlan {
    /// Which provisioned vehicle asks.
    pub vehicle: u32,
    /// Replays the previous request's hello instead of a fresh one.
    pub replay: bool,
    /// Hello payload.
    pub hello: Vec<u8>,
    /// The package's plaintext.
    pub plaintext: Vec<u8>,
    /// Liar flags of the reports validated with this request, if any.
    pub liars: Option<Vec<bool>>,
}

/// The seeded request stream.
pub struct RequestGen {
    rng: SimRng,
    next: u64,
}

impl RequestGen {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> RequestGen {
        RequestGen { rng: SimRng::stream(seed, 0x6164_6d69), next: 0 }
    }

    /// The next request.
    pub fn next_request(&mut self) -> RequestPlan {
        let i = self.next;
        self.next += 1;
        let rng = &mut self.rng;
        let vehicle = rng.index(VEHICLES as usize) as u32;
        let replay = i > 0 && rng.chance(REPLAY_SHARE);
        let hello = (0..64).map(|_| rng.next_u32() as u8).collect();
        let plaintext = (0..256).map(|_| rng.next_u32() as u8).collect();
        let liars = (i % VALIDATE_EVERY == VALIDATE_EVERY - 1).then(|| {
            let count = rng.range_u64(REPORTS / 10, REPORTS * 3 / 10 + 1) as usize;
            let mut liars = vec![false; REPORTS as usize];
            for r in rng.sample_indices(REPORTS as usize, count) {
                liars[r] = true;
            }
            liars
        });
        RequestPlan { vehicle, replay, hello, plaintext, liars }
    }
}

fn reports(liars: &[bool]) -> Vec<Report> {
    liars
        .iter()
        .enumerate()
        .map(|(r, &liar)| Report {
            reporter: r as u64,
            kind: EventKind::Accident,
            location: Point::new(100.0, 50.0),
            observed_at: SimTime::from_secs(1),
            claim: !liar,
            reporter_pos: Point::new(100.0 + (r % 10) as f64 * 8.0, 60.0),
            reporter_speed: 12.0,
            // Distinct relay paths: every report counts as independent.
            path: vec![VehicleId(1_000 + r as u32)],
        })
        .collect()
}

struct World {
    pipeline: SecurePipeline,
    creds: Vec<VehicleCredentials>,
    owner: SigningKey,
    gen: RequestGen,
    last_hello: Option<PseudonymMessage>,
}

fn build(seed: u64) -> World {
    let mut pipeline =
        SecurePipeline::new(&[b"admission-".as_slice(), &seed.to_be_bytes()].concat());
    let attrs = Attributes {
        role: Role::Storage,
        automation: SaeLevel::L4,
        storage_provider: true,
        compute_provider: true,
    };
    let creds = (0..VEHICLES)
        .map(|v| {
            pipeline
                .provision(VehicleId(v), attrs, SimTime::ZERO)
                .expect("fresh vehicle provisions")
        })
        .collect();
    for r in 0..REPORTS {
        for _ in 0..10 {
            pipeline.record_outcome(r, r % UNRELIABLE_EVERY != 0);
        }
    }
    World {
        pipeline,
        creds,
        owner: SigningKey::from_seed(&[b"owner-".as_slice(), &seed.to_be_bytes()].concat()),
        gen: RequestGen::new(seed),
        last_hello: None,
    }
}

#[derive(Default)]
struct Tally {
    requests: u64,
    replays: u64,
    rejected: u64,
    failed: u64,
    validations: u64,
}

/// Runs one request; returns 1 (one request completed).
fn request(w: &mut World, i: u64, tr: &mut Tracer, tally: &mut Tally, out: &mut Outcome) -> f64 {
    let plan = w.gen.next_request();
    let now = SimTime::from_secs(10) + SimDuration::from_millis(i * REQUEST_MS);
    let creds = &w.creds[plan.vehicle as usize];
    tally.requests += 1;
    let root = tr.begin("cloud.request", i);

    if plan.replay {
        if let Some(old) = &w.last_hello {
            tally.replays += 1;
            let res = tr.span("cloud.admit", i, || w.pipeline.admit(old, SERVICE, now));
            tr.end(root);
            match res {
                Err(PipelineError::Replay) => tally.rejected += 1,
                other => out.mismatch(format!("request {i}: replay admitted: {other:?}")),
            }
            return 1.0;
        }
    }

    let hello = tr.span("auth.wallet_sign", i, || creds.wallet.sign(&plan.hello, now));
    let admitted = tr.span("cloud.admit", i, || w.pipeline.admit(&hello, SERVICE, now));
    w.last_hello = Some(hello);
    let token = match admitted {
        Ok(token) => token,
        Err(e) => {
            tr.end(root);
            tally.failed += 1;
            out.mismatch(format!("request {i}: admission refused: {e}"));
            return 1.0;
        }
    };
    let tpd = w.pipeline.tpd_share();
    let policy = Policy::new().allow(Action::Read, Expr::HasRole(Role::Storage));
    let mut package = tr.span("access.seal_new", i, || {
        DataPackage::seal_new(i, &plan.plaintext, policy, &w.owner, &tpd, i)
    });
    let proof = tr.span("access.make_proof", i, || SecurePipeline::make_proof(creds, i, now));
    let ctx = Context::member_at(Point::new(0.0, 0.0), now);
    let opened = tr.span("cloud.authorize", i, || {
        w.pipeline.authorize(&mut package, Action::Read, &token, SERVICE, &proof, &ctx)
    });
    match opened {
        Ok(data) if data == plan.plaintext => {}
        Ok(_) => out.mismatch(format!("request {i}: authorize returned other bytes")),
        Err(e) => {
            tally.failed += 1;
            out.mismatch(format!("request {i}: authorization refused: {e}"));
        }
    }
    if let Some(liars) = &plan.liars {
        let reports = reports(liars);
        let verdicts =
            tr.span("cloud.validate_reports", i, || w.pipeline.validate_reports(&reports));
        tally.validations += 1;
        // One event and at most 30% liars: even if every liar is reliable
        // and every unreliable reporter honest, the reputation-weighted
        // vote is about 0.63, so the event must be one trusted cluster.
        if verdicts.len() != 1 || !verdicts[0].2 {
            out.mismatch(format!("request {i}: report verdicts {verdicts:?}"));
        }
    }
    tr.end(root);
    1.0
}

fn attempted(t: &Tally) -> u64 {
    t.requests + t.validations
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let lazy_s = harness::force_crypto_tables();
    if !opts.trace {
        let (mut world, setup_s) =
            harness::repeat_setup(harness::SETUP_REPEATS, || build(opts.seed));
        let mut tally = Tally::default();
        let mut tr = Tracer::off();
        vc_obs::mem::reset_peak();
        let segments = harness::timed_segments(harness::segment_time(opts.seconds), |i| {
            request(&mut world, i, &mut tr, &mut tally, &mut out)
        });
        let peak = harness::peak_heap_mb();
        out.attempted = attempted(&tally);
        out.failed = tally.failed;
        out.notes.push(format!(
            "requests = {}, replays rejected = {} of {}, validations = {}",
            tally.requests, tally.rejected, tally.replays, tally.validations
        ));
        let throughput = ("requests_per_s", "requests/s", harness::throughput(&segments));
        let latencies = harness::latencies(&segments);
        harness::end_to_end(&mut out, throughput, &latencies, setup_s + lazy_s, peak);
        return out;
    }

    let mut world = build(opts.seed);
    let mut tally = Tally::default();
    let mut off = Tracer::off();
    let plain = harness::timed_loop(Budget::Time(opts.seconds / 2.0), 0, |i| {
        request(&mut world, i, &mut off, &mut tally, &mut out)
    });
    drop(world);
    let mut world = build(opts.seed);
    let mut tally = Tally::default();
    let mut tr = Tracer::new(true, Instant::now());
    let traced = harness::timed_loop(Budget::Units(plain.latencies_ms.len()), 0, |i| {
        request(&mut world, i, &mut tr, &mut tally, &mut out)
    });
    out.attempted = attempted(&tally);
    out.failed = tally.failed;

    let totals = tr.totals();
    let mut layers = Layers::new();
    layers.spans(&totals);
    layers.set("cloud.admit.rejected", tally.rejected as f64);
    let allocs = |n: &str| totals.get(n).map_or(0.0, |t| t.allocs_per_call());
    layers.set("cloud.validate_reports.allocs_per_call", allocs("cloud.validate_reports"));
    layers.set("cloud.request.allocs_per_call", allocs("cloud.request"));
    layers.set("obs.trace_overhead_ratio", traced.secs / plain.secs);
    layers.into_outcome(&mut out);
    harness::write_trace(&mut out, "cloud-admission", opts.seed, &tr);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(seed: u64, n: usize) -> Vec<RequestPlan> {
        let mut gen = RequestGen::new(seed);
        (0..n).map(|_| gen.next_request()).collect()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        assert_eq!(requests(5, 100), requests(5, 100));
        assert_ne!(requests(5, 100), requests(6, 100));
    }

    #[test]
    fn replays_and_validations_follow_their_shares() {
        let plans = requests(8, 1000);
        assert!(!plans[0].replay);
        let replays = plans.iter().filter(|p| p.replay).count();
        assert!((20..=90).contains(&replays), "replays: {replays}");
        let validations = plans.iter().filter(|p| p.liars.is_some()).count();
        assert_eq!(validations, 100);
        for liars in plans.iter().filter_map(|p| p.liars.as_ref()) {
            assert_eq!(liars.len(), REPORTS as usize);
            let count = liars.iter().filter(|&&l| l).count();
            assert!((5..=15).contains(&count), "liars: {count}");
        }
    }
}
