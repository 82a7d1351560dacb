//! Property-based tests for scheduler conservation laws and replication.

use vc_cloud::prelude::*;
use vc_sim::node::{SaeLevel, VehicleId};
use vc_sim::rng::SimRng;
use vc_sim::time::{SimDuration, SimTime};
use vc_testkit::prop::strategy::{any_u64, any_u8, from_fn, vec, FromFn};
use vc_testkit::{prop, prop_assert, prop_assert_eq, prop_assume};

fn hosts_strategy() -> FromFn<impl Fn(&mut SimRng) -> Vec<HostInfo>> {
    from_fn(|rng| {
        let n = rng.range_u64(1, 12) as usize;
        (0..n)
            .map(|i| HostInfo {
                id: VehicleId(i as u32),
                cpu_gflops: rng.range_f64(10.0, 200.0),
                automation: SaeLevel::L4,
                stay_estimate_s: rng.range_f64(5.0, 500.0),
            })
            .collect()
    })
}

prop! {
    #![cases(64)]

    // Conservation: every submitted task is exactly one of queued, running,
    // completed, expired — and executed work never exceeds offered capacity.
    #[test]
    fn scheduler_conserves_tasks(
        hosts in hosts_strategy(),
        works in vec(10.0f64..2000.0, 1..20),
        churn_seed in any_u64(),
        ticks in 10usize..80,
    ) {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        for (i, w) in works.iter().enumerate() {
            sched.submit(TaskSpec::compute(TaskId(i as u64), *w), SimTime::ZERO);
        }
        let mut rng = SimRng::seed_from(churn_seed);
        let mut now = SimTime::ZERO;
        for _ in 0..ticks {
            now += SimDuration::from_secs(1);
            // Random churn: each host present with 80% probability.
            let present: Vec<HostInfo> =
                hosts.iter().filter(|_| rng.chance(0.8)).copied().collect();
            sched.tick(now, 1.0, &present, None);
        }
        let mut queued = 0u64;
        let mut running = 0u64;
        let mut completed = 0u64;
        let mut expired = 0u64;
        for t in sched.tasks() {
            match t.status {
                TaskStatus::Queued => queued += 1,
                TaskStatus::Running { .. } => running += 1,
                TaskStatus::Completed { .. } => completed += 1,
                TaskStatus::Expired => expired += 1,
            }
        }
        prop_assert_eq!(queued + running + completed + expired, works.len() as u64);
        prop_assert_eq!(completed, sched.stats().completed);
        let stats = sched.stats();
        prop_assert!(stats.executed_gflop <= stats.offered_gflop + 1e-6,
            "executed {} > offered {}", stats.executed_gflop, stats.offered_gflop);
        // Completed tasks really did their work.
        let total_completed_work: f64 = sched
            .tasks()
            .filter(|t| t.is_completed())
            .map(|t| t.spec.work_gflop)
            .sum();
        prop_assert!(stats.executed_gflop + 1e-6 >= total_completed_work);
    }

    // Running tasks always sit on hosts from the current set, one per host.
    #[test]
    fn one_task_per_host_invariant(
        hosts in hosts_strategy(),
        n_tasks in 1usize..30,
        ticks in 1usize..30,
    ) {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        for i in 0..n_tasks {
            sched.submit(TaskSpec::compute(TaskId(i as u64), 500.0), SimTime::ZERO);
        }
        let mut now = SimTime::ZERO;
        for _ in 0..ticks {
            now += SimDuration::from_secs(1);
            sched.tick(now, 1.0, &hosts, None);
            let mut seen = std::collections::BTreeSet::new();
            for t in sched.tasks() {
                if let TaskStatus::Running { host, .. } = t.status {
                    prop_assert!(hosts.iter().any(|h| h.id == host));
                    prop_assert!(seen.insert(host), "host {host} runs two tasks");
                }
            }
        }
    }

    // Replication: holders are always distinct, bounded by the candidate
    // pool, and repair never exceeds the target.
    #[test]
    fn replication_bounds(
        pool in 1usize..40,
        replicas in 1usize..10,
        content in vec(any_u8(), 1..2048),
        seed in any_u64(),
    ) {
        let mut rng = SimRng::seed_from(seed);
        let hosts: Vec<ReplicaHost> = (0..pool)
            .map(|i| ReplicaHost { id: VehicleId(i as u32), stay_estimate_s: (i as f64) * 7.0 })
            .collect();
        let mut mgr = ReplicationManager::new();
        for strategy in [PlacementStrategy::Random, PlacementStrategy::StabilityRanked] {
            let fid = FileId(strategy as u64);
            let file = mgr.publish(fid, &content, replicas, &hosts, strategy, &mut rng);
            prop_assert!(file.holders.len() <= replicas.min(pool));
            let mut distinct = file.holders.clone();
            distinct.sort();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), file.holders.len(), "duplicate holders");
            // Repair to target never overshoots.
            mgr.repair(fid, replicas, &|_| true, &hosts, strategy, &mut rng);
            prop_assert!(mgr.file(fid).unwrap().holders.len() <= replicas.min(pool));
        }
    }

    // Stay estimation: the kinematic exit time is consistent — simulating
    // the straight-line motion exits the disk within ~the predicted time.
    #[test]
    fn kinematic_exit_time_is_accurate(
        px in -90.0f64..90.0, py in -90.0f64..90.0,
        vx in -30.0f64..30.0, vy in -30.0f64..30.0,
    ) {
        use vc_cloud::stay::time_to_exit_disk;
        use vc_sim::geom::Point;
        let pos = Point::new(px, py);
        let vel = Point::new(vx, vy);
        prop_assume!(pos.norm() < 100.0);
        prop_assume!(vel.norm() > 0.5);
        let t = time_to_exit_disk(pos, vel, Point::new(0.0, 0.0), 100.0);
        if t < 3600.0 {
            let before = pos + vel * (t - 0.01).max(0.0);
            let after = pos + vel * (t + 0.01);
            prop_assert!(before.norm() <= 100.0 + 1.0, "inside just before exit");
            prop_assert!(after.norm() >= 100.0 - 1.0, "outside just after exit");
        }
    }
}
