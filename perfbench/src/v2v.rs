//! `v2v-contacts`: the paper's V2V authentication path (Fig. 5, §IV-B).
//!
//! One receiving vehicle drives through a seeded stream of contact windows
//! at E5 densities (8, 16, 32 or 64 neighbours). In each window every
//! neighbour in range signs a beacon (`vc_net::beacon::sign_beacon`, the
//! write side) and the receiver checks them in one
//! `BeaconStore::ingest_batch` call (the read side). Each window one peer
//! comes into range and runs `vc_auth::handshake::run_handshake_cached`
//! against a CRL of a few thousand seeds before its beacons count.
//!
//! The peer population is three times the receiver's `SessionCache`
//! capacity and arrivals are drawn around a slowly moving cursor over it,
//! so how often an arrival is a recent re-encounter sets the session hit
//! ratio. A seeded share of windows carries one forged beacon (its
//! position altered after signing), and a seeded share of peers is
//! revoked. Almost all the time is `vc-crypto` modular arithmetic.
//!
//! The stream's shape is the same for every seed, so percentiles compare
//! across seeds: densities come in blocks of ten windows, each block a
//! seeded order of one window at 8, one at 16, six at 32 and two at 64.
//! The median window is then a 32-neighbour one and the 95th percentile a
//! 64-neighbour one, and every window runs exactly one handshake. With
//! about one arrival in six resumed, both percentiles fall among windows
//! whose handshake ran in full, not on the boundary between the two.

use std::time::Instant;

use vc_auth::handshake::{run_handshake_cached, HandshakeObsParams, SessionCache};
use vc_auth::identity::{AuthError, RealIdentity, TrustedAuthority};
use vc_auth::pseudonym::{LinkageSeed, PseudonymRegistry, PseudonymWallet};
use vc_crypto::dh::SessionKey;
use vc_crypto::schnorr::{SigningKey, VerifyingKey};
use vc_net::beacon::{sign_beacon, Beacon, BeaconReject, BeaconStore};
use vc_sim::geom::Point;
use vc_sim::node::VehicleId;
use vc_sim::rng::SimRng;
use vc_sim::time::{SimDuration, SimTime};

use crate::harness::{self, Budget, Layers, Opts, Outcome};
use crate::trace::Tracer;

/// Peers the receiver can meet.
pub const POPULATION: u32 = 256;
/// The receiver's session cache capacity: the peers in range plus 16 that
/// left it, so about one arrival in six is a cached re-encounter.
const CACHE_CAPACITY: usize = 80;
/// Authenticated peers in range; a window's senders are the first
/// `density` of them, nearest first.
const IN_RANGE: usize = 64;
/// Width of the id range arrivals are drawn from.
const LOCALITY: u32 = 160;
/// Synthetic revoked seeds on the CRL besides the revoked peers'.
const CRL_SEEDS: usize = 2000;
/// Share of peers whose identity is revoked.
const REVOKED_SHARE: f64 = 0.05;
/// Share of windows carrying one forged beacon.
const FORGED_SHARE: f64 = 0.05;
/// Densities of one block of windows, before its seeded shuffle.
const BLOCK: [usize; 10] = [8, 16, 32, 32, 32, 32, 32, 32, 64, 64];
/// Sim time between windows (10 Hz beaconing).
const WINDOW_MS: u64 = 100;

/// One contact window, generated from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowPlan {
    /// The peer coming into range, which must authenticate first.
    pub arrival: u32,
    /// Peers whose beacons the receiver checks, by id (`0..POPULATION`).
    pub senders: Vec<u32>,
    /// Index into `senders` of the peer whose beacon is forged.
    pub forged: Option<usize>,
    /// Beacon kinematics per sender: position x, y and speed.
    pub kinematics: Vec<(f64, f64, f64)>,
}

/// Which peers are revoked for a seed.
pub fn revoked_peers(seed: u64) -> Vec<bool> {
    let mut rng = SimRng::stream(seed, 0x7265_766f);
    (0..POPULATION).map(|_| rng.chance(REVOKED_SHARE)).collect()
}

/// The seeded stream of contact windows.
pub struct WindowGen {
    rng: SimRng,
    revoked: Vec<bool>,
    /// Authenticated peers in range, nearest first.
    in_range: Vec<u32>,
    cursor: u32,
    block: Vec<usize>,
}

impl WindowGen {
    /// The stream for `seed`. Revoked arrivals never come into range.
    pub fn new(seed: u64, revoked: Vec<bool>) -> WindowGen {
        let rng = SimRng::stream(seed, 0x7632_7620);
        let mut gen =
            WindowGen { rng, revoked, in_range: Vec::new(), cursor: 0, block: Vec::new() };
        while gen.in_range.len() < IN_RANGE {
            let p = gen.draw();
            if !gen.revoked[p as usize] {
                gen.in_range.push(p);
            }
        }
        gen
    }

    /// Peers already in range (and authenticated) when the stream starts.
    pub fn initial(&self) -> &[u32] {
        &self.in_range
    }

    /// A peer near the cursor that is not in range.
    fn draw(&mut self) -> u32 {
        loop {
            let p = (self.cursor + self.rng.range_u64(0, LOCALITY as u64) as u32) % POPULATION;
            if !self.in_range.contains(&p) {
                return p;
            }
        }
    }

    /// The next window.
    pub fn next_window(&mut self) -> WindowPlan {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            self.rng.shuffle(&mut self.block);
        }
        let density = self.block.pop().expect("refilled above");
        let arrival = self.draw();
        self.cursor = (self.cursor + 1) % POPULATION;
        if !self.revoked[arrival as usize] {
            self.in_range.insert(0, arrival);
            self.in_range.truncate(IN_RANGE);
        }
        let senders = self.in_range[..density].to_vec();
        let forged = self.rng.chance(FORGED_SHARE).then(|| self.rng.index(density));
        let kinematics = senders
            .iter()
            .map(|_| {
                (
                    self.rng.range_f64(0.0, 2_000.0),
                    self.rng.range_f64(0.0, 2_000.0),
                    self.rng.range_f64(0.0, 30.0),
                )
            })
            .collect();
        WindowPlan { arrival, senders, forged, kinematics }
    }
}

/// One peer: pseudonym wallet, its own session cache, and beacon key.
struct Peer {
    wallet: PseudonymWallet,
    cache: SessionCache,
    beacon_key: SigningKey,
    beacon_vk: VerifyingKey,
}

/// Everything the windows run against.
struct World {
    ta_key: VerifyingKey,
    crl: Vec<LinkageSeed>,
    ego: PseudonymWallet,
    ego_cache: SessionCache,
    store: BeaconStore,
    peers: Vec<Peer>,
    revoked: Vec<bool>,
    gen: WindowGen,
    /// The receiver's session key with each peer, from its last full
    /// handshake; a resumed session must return the same key.
    keys: Vec<Option<SessionKey>>,
}

const VALID_UNTIL_S: u64 = 1_000_000;

fn build(seed: u64) -> World {
    let mut ta = TrustedAuthority::new(&[b"v2v-ta-".as_slice(), &seed.to_be_bytes()].concat());
    let mut registry = PseudonymRegistry::new();
    let until = SimTime::from_secs(VALID_UNTIL_S);
    let issue = |ta: &mut TrustedAuthority, registry: &mut PseudonymRegistry, v: u32| {
        let id = RealIdentity::for_vehicle(VehicleId(v));
        ta.register(id.clone(), VehicleId(v));
        let key_seed = [seed.to_be_bytes().as_slice(), &v.to_be_bytes()].concat();
        let wallet = registry
            .issue_wallet(ta, &id, 1, SimTime::ZERO, until, &key_seed)
            .expect("registered, unrevoked identity");
        (id, wallet)
    };
    let (_, ego) = issue(&mut ta, &mut registry, POPULATION);
    let revoked = revoked_peers(seed);
    let mut peers = Vec::with_capacity(POPULATION as usize);
    for v in 0..POPULATION {
        let (id, wallet) = issue(&mut ta, &mut registry, v);
        if revoked[v as usize] {
            registry.revoke_identity(&id);
        }
        let beacon_key = SigningKey::from_seed(
            &[b"beacon".as_slice(), &seed.to_be_bytes(), &v.to_be_bytes()].concat(),
        );
        peers.push(Peer {
            wallet,
            cache: SessionCache::new(8, SimDuration::from_secs(600)),
            beacon_vk: beacon_key.verifying_key(),
            beacon_key,
        });
    }
    let mut rng = SimRng::stream(seed, 0x63726c);
    for _ in 0..CRL_SEEDS {
        let mut s = [0u8; 16];
        s[..8].copy_from_slice(&rng.next_u64().to_be_bytes());
        s[8..].copy_from_slice(&rng.next_u64().to_be_bytes());
        registry.inject_revoked_seed(LinkageSeed(s));
    }
    let crl = registry.crl().to_vec();
    let mut ego_cache = SessionCache::new(CACHE_CAPACITY, SimDuration::from_secs(600));
    ego_cache.invalidate_revoked(&crl);
    let mut world = World {
        ta_key: ta.public_key(),
        crl,
        ego,
        ego_cache,
        store: BeaconStore::new(SimDuration::from_secs(1)),
        peers,
        gen: WindowGen::new(seed, revoked.clone()),
        revoked,
        keys: vec![None; POPULATION as usize],
    };
    // Peers already in range authenticated before the stream starts.
    let initial = world.gen.initial().to_vec();
    for (k, p) in initial.into_iter().enumerate() {
        let result = handshake(&mut world, p, SimTime::from_secs(5), k as u64);
        let key = result.expect("unrevoked peer authenticates").0;
        world.keys[p as usize] = Some(key);
    }
    world
}

fn handshake(
    w: &mut World,
    peer: u32,
    now: SimTime,
    entropy: u64,
) -> Result<(SessionKey, bool), AuthError> {
    let params = HandshakeObsParams {
        ta_key: &w.ta_key,
        crl: &w.crl,
        window: SimDuration::from_secs(5),
        hop: SimDuration::from_millis(5),
    };
    let p = &mut w.peers[peer as usize];
    run_handshake_cached(
        &w.ego,
        &p.wallet,
        &mut w.ego_cache,
        &mut p.cache,
        &params,
        now,
        entropy,
        None,
    )
}

/// Counters one pass accumulates.
#[derive(Default)]
struct Tally {
    beacons: u64,
    handshakes: u64,
    resumed: u64,
    forged_windows: u64,
    windows: u64,
    failed: u64,
    /// Per window, by unit index: beacons ingested and whether
    /// `ingest_batch` returned a bad-signature verdict, which it can only
    /// find by falling back from the batch check to single verifications.
    ingests: Vec<(usize, bool)>,
}

/// Runs one window; returns the beacons verified.
fn window(w: &mut World, i: u64, tr: &mut Tracer, tally: &mut Tally, out: &mut Outcome) -> f64 {
    let plan = w.gen.next_window();
    let now = SimTime::from_secs(10) + SimDuration::from_millis(i * WINDOW_MS);
    let root = tr.begin("v2v.window", i);

    // The arriving peer authenticates (or, revoked, is refused).
    let p = plan.arrival;
    let span = tr.begin("auth.handshake", i);
    let result = handshake(w, p, now, (1 << 32) + i);
    let resumed = matches!(result, Ok((_, true)));
    tr.end_as(span, if resumed { "auth.handshake_resume" } else { "auth.handshake_full" });

    // Every sender in range beacons; the receiver checks the window.
    let mut batch = Vec::with_capacity(plan.senders.len());
    for (j, &s) in plan.senders.iter().enumerate() {
        let peer = &w.peers[s as usize];
        let (x, y, v) = plan.kinematics[j];
        let beacon = Beacon {
            sender: VehicleId(s),
            pos: Point::new(x, y),
            vel: Point::new(v, 0.0),
            sent_at: now,
        };
        let mut signed = tr.span("net.sign_beacon", i, || sign_beacon(beacon, &peer.beacon_key));
        if plan.forged == Some(j) {
            signed.beacon.pos.x += 1.0;
        }
        batch.push((signed, peer.beacon_vk));
    }
    w.store.evict_stale(now);
    let verdicts = tr.span("net.ingest_batch", i, || w.store.ingest_batch(&batch, now));
    tr.end(root);

    tally.handshakes += 1;
    let revoked = w.revoked[p as usize];
    if revoked && result.is_ok() {
        out.mismatch(format!("window {i}: revoked peer {p} authenticated"));
    }
    match result {
        Ok((key, true)) => {
            tally.resumed += 1;
            if w.keys[p as usize] != Some(key) {
                out.mismatch(format!("window {i}: resumed key for peer {p} differs"));
            }
        }
        Ok((key, false)) => w.keys[p as usize] = Some(key),
        Err(AuthError::Revoked) if revoked => {}
        Err(e) => {
            tally.failed += 1;
            out.mismatch(format!("window {i}: handshake with peer {p}: {e:?}"));
        }
    }
    tally.windows += 1;
    tally.beacons += batch.len() as u64;
    tally.forged_windows += plan.forged.is_some() as u64;
    let fell_back = verdicts.contains(&Err(BeaconReject::BadSignature));
    tally.ingests.push((batch.len(), fell_back));
    for (k, v) in verdicts.iter().enumerate() {
        let want = if plan.forged == Some(k) { Err(BeaconReject::BadSignature) } else { Ok(()) };
        if *v != want {
            if want.is_ok() {
                tally.failed += 1;
            }
            out.mismatch(format!("window {i}: beacon {k} verdict {v:?}, want {want:?}"));
        }
    }
    batch.len() as f64
}

/// `ingest_batch` time per beacon in windows whose batch fell back, over
/// that in windows whose batch passed: what a bad signature costs the
/// verifier, as a multiple of the batched cost. 0 without both kinds.
fn fallback_ratio(tr: &Tracer, ingests: &[(usize, bool)]) -> f64 {
    // (nanoseconds, beacons) of clean and fallen-back windows.
    let mut sums = [(0u64, 0usize); 2];
    for span in tr.spans().iter().filter(|s| s.name == "net.ingest_batch") {
        let (beacons, fell_back) = ingests[span.unit as usize];
        let sum = &mut sums[fell_back as usize];
        sum.0 += span.dur_ns();
        sum.1 += beacons;
    }
    let [clean, fallback] = sums.map(|(ns, n)| if n == 0 { 0.0 } else { ns as f64 / n as f64 });
    if clean == 0.0 {
        0.0
    } else {
        fallback / clean
    }
}

fn attempted(t: &Tally) -> u64 {
    t.beacons + t.handshakes
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
            window(&mut world, i, &mut tr, &mut tally, &mut out)
        });
        let peak = harness::peak_heap_mb();
        out.attempted = attempted(&tally);
        out.failed = tally.failed;
        out.notes.push(format!(
            "windows = {}, forged windows = {}, handshakes = {}, resumed = {}",
            tally.windows, tally.forged_windows, tally.handshakes, tally.resumed
        ));
        let throughput = ("beacons_per_s", "beacons/s", harness::throughput(&segments));
        let latencies = harness::latencies(&segments);
        harness::end_to_end(&mut out, throughput, &latencies, setup_s + lazy_s, peak);
        return out;
    }

    // Traced run: an untraced pass for half the time, then the same windows
    // from a fresh set-up with spans on.
    let mut world = build(opts.seed);
    let mut tally = Tally::default();
    let mut off = Tracer::off();
    let plain = harness::timed_loop(Budget::Time(opts.seconds / 2.0), 0, |i| {
        window(&mut world, i, &mut off, &mut tally, &mut out)
    });
    drop(world);
    let mut world = build(opts.seed);
    let mut tally = Tally::default();
    let mut tr = Tracer::new(true, Instant::now());
    let traced = harness::timed_loop(Budget::Units(plain.latencies_ms.len()), 0, |i| {
        window(&mut world, i, &mut tr, &mut tally, &mut out)
    });
    out.attempted = attempted(&tally);
    out.failed = tally.failed;

    let totals = tr.totals();
    let mut layers = Layers::new();
    layers.spans(&totals);
    let busy = |n: &str| totals.get(n).map_or(0, |t| t.busy_ns) as f64;
    let crypto = busy("net.sign_beacon")
        + busy("net.ingest_batch")
        + busy("auth.handshake_full")
        + busy("auth.handshake_resume");
    layers.set("obs.v2v_crypto_share", crypto / busy("v2v.window").max(1.0));
    layers.set("net.ingest_batch.fallback_ratio", fallback_ratio(&tr, &tally.ingests));
    layers.set("auth.session_hit_ratio", tally.resumed as f64 / tally.handshakes.max(1) as f64);
    layers.set("obs.trace_overhead_ratio", traced.secs / plain.secs);
    layers.into_outcome(&mut out);
    harness::write_trace(&mut out, "v2v-contacts", opts.seed, &tr);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows(seed: u64, n: usize) -> Vec<WindowPlan> {
        let mut gen = WindowGen::new(seed, revoked_peers(seed));
        (0..n).map(|_| gen.next_window()).collect()
    }

    #[test]
    fn same_seed_same_windows_other_seed_other_windows() {
        assert_eq!(windows(3, 100), windows(3, 100));
        assert_ne!(windows(3, 100), windows(4, 100));
        assert_ne!(revoked_peers(3), revoked_peers(4));
    }

    #[test]
    fn every_block_has_the_same_densities_and_senders_are_unrevoked() {
        let revoked = revoked_peers(9);
        let plans = windows(9, 400);
        for block in plans.chunks(BLOCK.len()) {
            let mut d: Vec<usize> = block.iter().map(|w| w.senders.len()).collect();
            d.sort_unstable();
            assert_eq!(d, BLOCK);
        }
        let mut forged = 0;
        for w in &plans {
            let mut ids = w.senders.clone();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), w.senders.len());
            assert!(w.senders.iter().all(|&s| !revoked[s as usize]));
            forged += w.forged.is_some() as usize;
        }
        assert!(forged > 0 && forged < 60, "forged windows: {forged}");
    }
}
