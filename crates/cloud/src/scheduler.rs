//! The v-cloud task scheduler: placement, progress, expiry, and departure
//! handling.
//!
//! Implements the §III-A decision loop: place queued tasks on lender hosts
//! whose *estimated* duration of stay covers the task's remaining runtime,
//! advance running tasks, and react when a host leaves mid-task — either
//! dropping the work (the conventional-cloud reflex the paper criticizes)
//! or handing the checkpoint over to another host.

use crate::task::{TaskId, TaskRecord, TaskSpec, TaskStatus};
use std::collections::BTreeMap;
use vc_sim::node::{SaeLevel, VehicleId};
use vc_sim::time::SimTime;

/// A candidate host as the scheduler sees it this tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostInfo {
    /// The lender vehicle.
    pub id: VehicleId,
    /// Lendable compute, GFLOPS.
    pub cpu_gflops: f64,
    /// SAE automation level.
    pub automation: SaeLevel,
    /// Estimated remaining stay, seconds (an *estimate* — reality may differ).
    pub stay_estimate_s: f64,
}

/// How queued tasks pick among eligible hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// First eligible host in id order.
    FirstFit,
    /// Host with the longest estimated stay first.
    MostStable,
    /// Fastest eligible host first.
    FastestCpu,
}

/// What happens to a running task when its host departs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoverPolicy {
    /// Discard progress and requeue from zero (wastes recomputation — the
    /// behaviour §III-A says conventional clouds get away with).
    Drop,
    /// Ship an encrypted checkpoint to a new host, preserving progress.
    Handover,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// Departure policy.
    pub handover: HandoverPolicy,
    /// Safety factor on stay estimates (place only when
    /// `stay >= runtime * safety`).
    pub stay_safety: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            placement: PlacementPolicy::MostStable,
            handover: HandoverPolicy::Handover,
            stay_safety: 1.0,
        }
    }
}

/// Cumulative scheduler statistics.
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Tasks completed.
    pub completed: u64,
    /// Tasks expired past deadline.
    pub expired: u64,
    /// Successful checkpoint handovers.
    pub handovers: u64,
    /// Work lost and redone due to drops, GFLOP.
    pub recomputed_gflop: f64,
    /// Data moved for inputs/outputs/checkpoints, MB.
    pub network_mb: f64,
    /// Work actually executed, GFLOP (includes recomputation).
    pub executed_gflop: f64,
    /// Capacity offered over time, GFLOP (Σ cpu × dt over online hosts).
    pub offered_gflop: f64,
    /// Sum of turnaround times of completed tasks, seconds.
    pub turnaround_sum_s: f64,
}

impl SchedulerStats {
    /// Utilization: executed work over offered capacity, `[0, 1]`-ish
    /// (recomputation can push the numerator up, never above offered).
    pub fn utilization(&self) -> f64 {
        if self.offered_gflop == 0.0 {
            0.0
        } else {
            self.executed_gflop / self.offered_gflop
        }
    }

    /// Mean turnaround of completed tasks, seconds.
    pub fn mean_turnaround_s(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.turnaround_sum_s / self.completed as f64
        }
    }
}

/// The scheduler.
#[derive(Debug)]
pub struct Scheduler {
    config: SchedulerConfig,
    tasks: BTreeMap<TaskId, TaskRecord>,
    /// host → task running on it.
    assignments: BTreeMap<VehicleId, TaskId>,
    stats: SchedulerStats,
}

impl Scheduler {
    /// Creates a scheduler.
    pub fn new(config: SchedulerConfig) -> Self {
        Scheduler {
            config,
            tasks: BTreeMap::new(),
            assignments: BTreeMap::new(),
            stats: SchedulerStats::default(),
        }
    }

    /// Submits a task.
    pub fn submit(&mut self, spec: TaskSpec, now: SimTime) {
        self.tasks.insert(spec.id, TaskRecord::new(spec, now));
    }

    /// All task records (inspection).
    pub fn tasks(&self) -> impl Iterator<Item = &TaskRecord> {
        self.tasks.values()
    }

    /// One record by id.
    pub fn task(&self, id: TaskId) -> Option<&TaskRecord> {
        self.tasks.get(&id)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// Number of live (queued or running) tasks.
    pub fn live_tasks(&self) -> usize {
        self.tasks.values().filter(|t| t.is_live()).count()
    }

    /// Advances the scheduler by `dt` seconds given this tick's host set.
    /// Hosts absent from `hosts` are treated as departed.
    ///
    /// With a recorder, emits `cloud` scheduler events: `sched.place` (new
    /// or moved assignments), `sched.complete`, `sched.handover`,
    /// `sched.expire`, and `sched.requeue` (progress lost to a drop), plus
    /// `cloud.sched.live` and `cloud.sched.running` gauges. The scheduler is
    /// RNG-free, and the before-state it diffs against is copied only when
    /// a recorder is attached.
    pub fn tick(
        &mut self,
        now: SimTime,
        dt: f64,
        hosts: &[HostInfo],
        rec: Option<&mut vc_obs::Recorder>,
    ) {
        let before = rec.is_some().then(|| (self.assignments.clone(), self.stats.clone()));
        let host_map: BTreeMap<VehicleId, HostInfo> = hosts.iter().map(|h| (h.id, *h)).collect();
        self.stats.offered_gflop += hosts.iter().map(|h| h.cpu_gflops).sum::<f64>() * dt;

        self.handle_departures(&host_map);
        self.progress_running(now, dt, &host_map);
        self.expire_overdue(now);
        self.place_queued(&host_map);

        let (Some(rec), Some((assignments_before, before))) = (rec, before) else {
            return;
        };
        let placed = self
            .assignments
            .iter()
            .filter(|(host, task)| assignments_before.get(host) != Some(task))
            .count();
        if placed > 0 {
            rec.event(now, "cloud", "sched.place", vec![("tasks", placed.into())]);
        }
        let completed = self.stats.completed - before.completed;
        if completed > 0 {
            rec.event(now, "cloud", "sched.complete", vec![("tasks", completed.into())]);
        }
        let handovers = self.stats.handovers - before.handovers;
        if handovers > 0 {
            rec.event(now, "cloud", "sched.handover", vec![("tasks", handovers.into())]);
        }
        let expired = self.stats.expired - before.expired;
        if expired > 0 {
            rec.event(now, "cloud", "sched.expire", vec![("tasks", expired.into())]);
        }
        let recomputed = self.stats.recomputed_gflop - before.recomputed_gflop;
        if recomputed > 0.0 {
            rec.event(now, "cloud", "sched.requeue", vec![("lost_gflop", recomputed.into())]);
        }
        rec.hub_mut().gauge_set("cloud.sched.live", self.live_tasks() as f64);
        rec.hub_mut().gauge_set("cloud.sched.running", self.assignments.len() as f64);
    }

    fn handle_departures(&mut self, host_map: &BTreeMap<VehicleId, HostInfo>) {
        let departed: Vec<(VehicleId, TaskId)> = self
            .assignments
            .iter()
            .filter(|(host, _)| !host_map.contains_key(host))
            .map(|(h, t)| (*h, *t))
            .collect();
        for (host, task_id) in departed {
            self.assignments.remove(&host);
            let config = self.config;
            let free = self.free_hosts(host_map);
            let record = self.tasks.get_mut(&task_id).expect("assigned task exists");
            let done = match record.status {
                TaskStatus::Running { done_gflop, .. } => done_gflop,
                _ => 0.0,
            };
            match config.handover {
                HandoverPolicy::Drop => {
                    record.recomputed_gflop += done;
                    self.stats.recomputed_gflop += done;
                    record.status = TaskStatus::Queued;
                    // Input must be re-shipped on the next placement.
                }
                HandoverPolicy::Handover => {
                    // Find a free eligible host to receive the checkpoint.
                    let spec = record.spec.clone();
                    let target = free
                        .into_iter()
                        .find(|h| eligible(h, &spec, spec.work_gflop - done, config.stay_safety));
                    match target {
                        Some(h) => {
                            // Checkpoint = remaining input + progress state
                            // (modeled as half the input size).
                            self.stats.network_mb += spec.input_mb * 0.5 + spec.input_mb;
                            record.status = TaskStatus::Running { host: h.id, done_gflop: done };
                            record.handovers += 1;
                            self.stats.handovers += 1;
                            self.assignments.insert(h.id, task_id);
                        }
                        None => {
                            // Nobody to hand to: progress dies with the host.
                            record.recomputed_gflop += done;
                            self.stats.recomputed_gflop += done;
                            record.status = TaskStatus::Queued;
                        }
                    }
                }
            }
        }
    }

    fn progress_running(
        &mut self,
        now: SimTime,
        dt: f64,
        host_map: &BTreeMap<VehicleId, HostInfo>,
    ) {
        let running: Vec<TaskId> = self.assignments.values().copied().collect();
        for task_id in running {
            let record = self.tasks.get_mut(&task_id).expect("assigned task exists");
            if let TaskStatus::Running { host, done_gflop } = record.status {
                let cpu = host_map.get(&host).map_or(0.0, |h| h.cpu_gflops);
                let advance = (cpu * dt).min(record.spec.work_gflop - done_gflop);
                self.stats.executed_gflop += advance;
                let new_done = done_gflop + advance;
                if new_done >= record.spec.work_gflop - 1e-9 {
                    record.status = TaskStatus::Completed { at: now };
                    self.stats.completed += 1;
                    self.stats.network_mb += record.spec.output_mb;
                    self.stats.turnaround_sum_s +=
                        now.saturating_since(record.submitted_at).as_secs_f64();
                    self.assignments.remove(&host);
                } else {
                    record.status = TaskStatus::Running { host, done_gflop: new_done };
                }
            }
        }
    }

    fn expire_overdue(&mut self, now: SimTime) {
        let mut freed: Vec<VehicleId> = Vec::new();
        for record in self.tasks.values_mut() {
            if !record.is_live() {
                continue;
            }
            if let Some(deadline) = record.spec.deadline {
                if now > deadline {
                    if let TaskStatus::Running { host, .. } = record.status {
                        freed.push(host);
                    }
                    record.status = TaskStatus::Expired;
                    self.stats.expired += 1;
                }
            }
        }
        for host in freed {
            self.assignments.remove(&host);
        }
    }

    fn place_queued(&mut self, host_map: &BTreeMap<VehicleId, HostInfo>) {
        let _place = vc_obs::profile::frame("sched.place");
        let mut free = self.free_hosts(host_map);
        match self.config.placement {
            PlacementPolicy::FirstFit => free.sort_by_key(|h| h.id),
            PlacementPolicy::MostStable => free.sort_by(|a, b| {
                b.stay_estimate_s
                    .partial_cmp(&a.stay_estimate_s)
                    .expect("finite stays")
                    .then(a.id.cmp(&b.id))
            }),
            PlacementPolicy::FastestCpu => free.sort_by(|a, b| {
                b.cpu_gflops.partial_cmp(&a.cpu_gflops).expect("finite").then(a.id.cmp(&b.id))
            }),
        }
        let queued: Vec<TaskId> = self
            .tasks
            .values()
            .filter(|t| matches!(t.status, TaskStatus::Queued))
            .map(|t| t.spec.id)
            .collect();
        let safety = self.config.stay_safety;
        for task_id in queued {
            let record = self.tasks.get_mut(&task_id).expect("queued task exists");
            let remaining = record.remaining_gflop();
            let Some(idx) = free.iter().position(|h| eligible(h, &record.spec, remaining, safety))
            else {
                continue;
            };
            let host = free.remove(idx);
            record.status = TaskStatus::Running {
                host: host.id,
                done_gflop: record.spec.work_gflop - remaining,
            };
            self.stats.network_mb += record.spec.input_mb;
            self.assignments.insert(host.id, task_id);
        }
    }

    fn free_hosts(&self, host_map: &BTreeMap<VehicleId, HostInfo>) -> Vec<HostInfo> {
        host_map.values().filter(|h| !self.assignments.contains_key(&h.id)).copied().collect()
    }
}

/// Is this host allowed to take this task, per automation floor and stay
/// estimate vs remaining runtime?
fn eligible(host: &HostInfo, spec: &TaskSpec, remaining_gflop: f64, safety: f64) -> bool {
    if host.automation < spec.min_automation {
        return false;
    }
    if host.cpu_gflops <= 0.0 {
        return false;
    }
    let runtime = remaining_gflop / host.cpu_gflops;
    host.stay_estimate_s >= runtime * safety
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(id: u32, cpu: f64, stay: f64) -> HostInfo {
        HostInfo {
            id: VehicleId(id),
            cpu_gflops: cpu,
            automation: SaeLevel::L4,
            stay_estimate_s: stay,
        }
    }

    fn spec(id: u64, work: f64) -> TaskSpec {
        TaskSpec::compute(TaskId(id), work)
    }

    fn run(sched: &mut Scheduler, hosts: &[HostInfo], ticks: usize, dt: f64) -> SimTime {
        let mut now = SimTime::ZERO;
        for _ in 0..ticks {
            now += vc_sim::time::SimDuration::from_secs_f64(dt);
            sched.tick(now, dt, hosts, None);
        }
        now
    }

    #[test]
    fn single_task_completes() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.submit(spec(1, 100.0), SimTime::ZERO);
        let hosts = [host(0, 50.0, 1000.0)];
        run(&mut s, &hosts, 10, 1.0);
        assert_eq!(s.stats().completed, 1);
        assert!(s.task(TaskId(1)).unwrap().is_completed());
        // 100 GFLOP at 50 GFLOPS = 2 s of work + 1 tick placement lag.
        let t = s.task(TaskId(1)).unwrap().turnaround().unwrap().as_secs_f64();
        assert!(t <= 4.0, "turnaround {t}");
    }

    #[test]
    fn placement_respects_automation_floor() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let mut sp = spec(1, 10.0);
        sp.min_automation = SaeLevel::L5;
        s.submit(sp, SimTime::ZERO);
        let hosts = [HostInfo { automation: SaeLevel::L3, ..host(0, 100.0, 1000.0) }];
        run(&mut s, &hosts, 5, 1.0);
        assert_eq!(s.stats().completed, 0, "L3 host must not take an L5 task");
    }

    #[test]
    fn placement_respects_stay_estimate() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.submit(spec(1, 1000.0), SimTime::ZERO); // 100 s on this host
        let hosts = [host(0, 10.0, 30.0)]; // claims to stay only 30 s
        run(&mut s, &hosts, 5, 1.0);
        assert_eq!(s.live_tasks(), 1);
        assert_eq!(s.stats().completed, 0, "stay too short, never placed");
    }

    #[test]
    fn most_stable_placement_prefers_long_stay() {
        let config =
            SchedulerConfig { placement: PlacementPolicy::MostStable, ..Default::default() };
        let mut s = Scheduler::new(config);
        s.submit(spec(1, 10.0), SimTime::ZERO);
        let hosts = [host(0, 100.0, 50.0), host(1, 100.0, 500.0)];
        s.tick(SimTime::from_secs(1), 1.0, &hosts, None);
        match s.task(TaskId(1)).unwrap().status {
            TaskStatus::Running { host: h, .. } => assert_eq!(h, VehicleId(1)),
            ref other => panic!("expected running, got {other:?}"),
        }
    }

    #[test]
    fn fastest_cpu_placement() {
        let config =
            SchedulerConfig { placement: PlacementPolicy::FastestCpu, ..Default::default() };
        let mut s = Scheduler::new(config);
        s.submit(spec(1, 10.0), SimTime::ZERO);
        let hosts = [host(0, 50.0, 1000.0), host(1, 200.0, 1000.0)];
        s.tick(SimTime::from_secs(1), 1.0, &hosts, None);
        if let TaskStatus::Running { host: h, .. } = s.task(TaskId(1)).unwrap().status {
            assert_eq!(h, VehicleId(1));
        } else {
            panic!("not running");
        }
    }

    #[test]
    fn drop_policy_loses_progress() {
        let config = SchedulerConfig { handover: HandoverPolicy::Drop, ..Default::default() };
        let mut s = Scheduler::new(config);
        s.submit(spec(1, 100.0), SimTime::ZERO);
        let both = [host(0, 10.0, 1000.0)];
        // Run 5 s: ~40 GFLOP done (first tick places, 4 ticks execute).
        run(&mut s, &both, 5, 1.0);
        // Host 0 departs; nothing remains.
        s.tick(SimTime::from_secs(6), 1.0, &[], None);
        let rec = s.task(TaskId(1)).unwrap();
        assert_eq!(rec.status, TaskStatus::Queued);
        assert!(rec.recomputed_gflop > 0.0, "progress was lost");
        assert!(s.stats().recomputed_gflop > 0.0);
        assert_eq!(s.stats().handovers, 0);
    }

    #[test]
    fn handover_policy_preserves_progress() {
        let config = SchedulerConfig { handover: HandoverPolicy::Handover, ..Default::default() };
        let mut s = Scheduler::new(config);
        s.submit(spec(1, 100.0), SimTime::ZERO);
        let before = [host(0, 10.0, 1000.0), host(1, 10.0, 1000.0)];
        run(&mut s, &before, 5, 1.0);
        // Host 0 departs, host 1 remains free → checkpoint moves.
        let after = [host(1, 10.0, 1000.0)];
        s.tick(SimTime::from_secs(6), 1.0, &after, None);
        let rec = s.task(TaskId(1)).unwrap();
        if let TaskStatus::Running { host: h, done_gflop } = rec.status {
            assert_eq!(h, VehicleId(1));
            assert!(done_gflop > 0.0, "progress preserved");
        } else {
            panic!("expected running after handover, got {:?}", rec.status);
        }
        assert_eq!(s.stats().handovers, 1);
        assert_eq!(rec.recomputed_gflop, 0.0);
    }

    #[test]
    fn handover_falls_back_to_drop_without_target() {
        let config = SchedulerConfig { handover: HandoverPolicy::Handover, ..Default::default() };
        let mut s = Scheduler::new(config);
        s.submit(spec(1, 100.0), SimTime::ZERO);
        run(&mut s, &[host(0, 10.0, 1000.0)], 5, 1.0);
        s.tick(SimTime::from_secs(6), 1.0, &[], None);
        let rec = s.task(TaskId(1)).unwrap();
        assert_eq!(rec.status, TaskStatus::Queued);
        assert!(rec.recomputed_gflop > 0.0);
    }

    #[test]
    fn deadline_expiry() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        let mut sp = spec(1, 10_000.0);
        sp.deadline = Some(SimTime::from_secs(3));
        s.submit(sp, SimTime::ZERO);
        run(&mut s, &[host(0, 10.0, 10_000.0)], 10, 1.0);
        assert_eq!(s.stats().expired, 1);
        assert_eq!(s.task(TaskId(1)).unwrap().status, TaskStatus::Expired);
        // Host freed for other work.
        s.submit(spec(2, 10.0), SimTime::from_secs(10));
        let mut now = SimTime::from_secs(10);
        for _ in 0..5 {
            now += vc_sim::time::SimDuration::from_secs(1);
            s.tick(now, 1.0, &[host(0, 10.0, 10_000.0)], None);
        }
        assert_eq!(s.stats().completed, 1);
    }

    #[test]
    fn utilization_accounting() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.submit(spec(1, 50.0), SimTime::ZERO);
        run(&mut s, &[host(0, 10.0, 1000.0)], 10, 1.0);
        let st = s.stats();
        assert_eq!(st.completed, 1);
        assert!((st.executed_gflop - 50.0).abs() < 1e-6);
        assert!((st.offered_gflop - 100.0).abs() < 1e-6);
        assert!((st.utilization() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn one_task_per_host() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.submit(spec(1, 1000.0), SimTime::ZERO);
        s.submit(spec(2, 1000.0), SimTime::ZERO);
        s.tick(SimTime::from_secs(1), 1.0, &[host(0, 10.0, 10_000.0)], None);
        let running = s.tasks().filter(|t| matches!(t.status, TaskStatus::Running { .. })).count();
        assert_eq!(running, 1, "a host runs one task at a time");
    }

    #[test]
    fn recorder_changes_no_scheduling_and_emits_lifecycle_events() {
        let run = |rec: Option<&mut vc_obs::Recorder>| {
            let mut s = Scheduler::new(SchedulerConfig::default());
            s.submit(spec(1, 50.0), SimTime::ZERO);
            let mut rec = rec;
            let mut now = SimTime::ZERO;
            for _ in 0..10 {
                now += vc_sim::time::SimDuration::from_secs(1);
                s.tick(now, 1.0, &[host(0, 10.0, 1000.0)], vc_obs::reborrow(&mut rec));
            }
            let tasks: Vec<_> = s.tasks().map(|t| format!("{t:?}")).collect();
            (format!("{:?}", s.stats()), tasks, s.assignments.clone())
        };
        let mut rec = vc_obs::Recorder::new();
        let plain = run(None);
        let traced = run(Some(&mut rec));
        assert_eq!(plain, traced);
        assert_eq!(rec.hub().counter("cloud.sched.place"), 1);
        assert_eq!(rec.hub().counter("cloud.sched.complete"), 1);
        assert_eq!(rec.hub().gauge("cloud.sched.live"), Some(0.0));
    }

    #[test]
    fn network_accounting_includes_io() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.submit(spec(1, 10.0), SimTime::ZERO);
        run(&mut s, &[host(0, 100.0, 1000.0)], 3, 1.0);
        // input 1.0 MB + output 0.5 MB
        assert!((s.stats().network_mb - 1.5).abs() < 1e-9);
    }
}
