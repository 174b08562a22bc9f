//! Host-time and count accumulators for the traced run, and the table
//! that turns them into the per-layer metrics.
//!
//! Every timer wraps one call into a layer's public function from the
//! benchmark's own drivers; no library code is instrumented. Layer names
//! are the crate names (`workloads`, `mem`, `core`, `kernel`, `net`,
//! `ipc`, `trace`, `experiments`, `pool`).

use std::collections::BTreeMap;
use std::time::Instant;

use cor_trace::{BlameBucket, Profile, BUCKET_COUNT};

/// Raw sums collected by one or more traced ops; merged across pool jobs.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
}

/// Host timers whose sum, subtracted from op time, leaves `other_s`.
/// `experiments.fleet_actor_s` is timed outside the ops and is not here.
const OP_TIMERS: [&str; 9] = [
    "workloads.build_s",
    "core.migrate_s",
    "kernel.run_s",
    "kernel.spawn_s",
    "kernel.place_s",
    "net.settle_s",
    "net.inject_s",
    "ipc.parse_s",
    "trace.profile_s",
];

/// The blame buckets as metric names, in [`BlameBucket::ALL`] order.
const BLAME: [&str; BUCKET_COUNT] = [
    "blame.local_service_ms",
    "blame.link_queue_wait_ms",
    "blame.wire_transit_ms",
    "blame.retransmit_backoff_ms",
    "blame.coalesce_park_ms",
    "blame.failover_ms",
    "blame.replication_ms",
];

impl Layers {
    /// Adds `v` to the sum under `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    /// Adds an integer count under `key`.
    pub fn count(&mut self, key: &'static str, n: u64) {
        self.add(key, n as f64);
    }

    /// Runs `f`, charging its host time in seconds to `key`.
    pub fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(key, t.elapsed().as_secs_f64());
        out
    }

    /// The sum under `key` (0 when never charged).
    pub fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: Layers) {
        for (k, v) in other.sums {
            self.add(k, v);
        }
    }

    /// Builds the critical-path profile of `world`'s journals (timed as
    /// `trace.profile_s`), charges its virtual-time blame buckets, and
    /// returns whether every span's buckets sum exactly to its duration.
    pub fn profile(&mut self, world: &cor_kernel::World) -> bool {
        let profile = self.time("trace.profile_s", || {
            Profile::from_journals(&world.journals())
        });
        let total = profile.total_blame();
        for bucket in BlameBucket::ALL {
            self.add(BLAME[bucket.index()], total[bucket.index()] as f64);
        }
        profile.sums_exactly() && total.iter().sum::<u64>() == profile.total_us()
    }

    /// A human-readable table putting the host-time split beside the
    /// virtual-time blame split, each as shares of its own total.
    pub fn split_table(&self) -> String {
        let busy = self.get("busy_s");
        let timed: f64 = OP_TIMERS.iter().map(|k| self.get(k)).sum();
        let blame: f64 = BLAME.iter().map(|k| self.get(k)).sum();
        let share = |v: f64, total: f64| if total > 0.0 { 100.0 * v / total } else { 0.0 };
        let host = OP_TIMERS
            .iter()
            .map(|&k| (k, self.get(k)))
            .chain([("other_s", busy - timed)]);
        let virt = BLAME.iter().map(|&k| (k, self.get(k)));
        let mut out = format!(
            "{:<30} {:>7}   {:<30} {:>7}\n",
            "host time", "%", "virtual blame", "%"
        );
        let (host, virt): (Vec<_>, Vec<_>) = (host.collect(), virt.collect());
        for i in 0..host.len().max(virt.len()) {
            let cell = |row: Option<&(&str, f64)>, total| {
                row.map_or(format!("{:38}", ""), |(k, v)| {
                    format!("{k:<30} {:>7.2}", share(*v, total))
                })
            };
            out.push_str(&format!(
                "{}   {}\n",
                cell(host.get(i), busy),
                cell(virt.get(i), blame)
            ));
        }
        out
    }

    /// The per-layer metrics, as `(name, unit, value)`.
    ///
    /// Host times are seconds per op over the traced ops; counts and
    /// virtual times (charged in µs) are per pass over the workload's cells (they repeat
    /// exactly); `pool.utilization` is op host time over wall time ×
    /// threads; `trace.overhead_frac` is untraced over traced ops/s, less 1.
    pub fn report(
        &self,
        ops: u64,
        passes: u64,
        wall_s: f64,
        threads: usize,
        overhead_frac: f64,
    ) -> Vec<(&'static str, &'static str, f64)> {
        let ops = ops.max(1) as f64;
        let passes = passes.max(1) as f64;
        let per_op = |k: &'static str| (k, "s/op", self.get(k) / ops);
        let per_pass = |k: &'static str, unit: &'static str| (k, unit, self.get(k) / passes);
        // Virtual times are charged in integer µs and reported in ms.
        let sim_ms = |k: &'static str| (k, "sim_ms", self.get(k) / 1_000.0 / passes);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let timed: f64 = OP_TIMERS.iter().map(|k| self.get(k)).sum();
        let mut out = vec![
            per_op("workloads.build_s"),
            per_pass("mem.validated_pages", "count"),
            per_pass("mem.real_pages", "count"),
            per_op("core.migrate_s"),
            per_pass("core.carried_pages", "count"),
            per_pass("core.owed_pages", "count"),
            per_op("kernel.run_s"),
            (
                "kernel.host_us_per_fault",
                "us/fault",
                ratio(
                    self.get("kernel.run_s") * 1e6,
                    self.get("kernel.imag_faults"),
                ),
            ),
            per_pass("kernel.imag_faults", "count"),
            per_pass("kernel.disk_faults", "count"),
            per_pass("kernel.zero_faults", "count"),
            (
                "kernel.prefetch_hit_ratio",
                "ratio",
                ratio(
                    self.get("raw.prefetch_hits"),
                    self.get("raw.prefetched_pages"),
                ),
            ),
            per_op("kernel.spawn_s"),
            per_op("kernel.place_s"),
            per_pass("net.msgs", "count"),
            (
                "net.link_bytes_per_wire_byte",
                "ratio",
                ratio(self.get("raw.link_bytes"), self.get("raw.wire_bytes")),
            ),
            sim_ms("net.link_wait_ms"),
            (
                "net.max_link_share",
                "ratio",
                ratio(self.get("raw.max_link_bytes"), self.get("raw.link_bytes")),
            ),
            per_op("net.settle_s"),
            per_op("net.inject_s"),
            per_op("ipc.parse_s"),
            per_pass("net.batched_replies", "count"),
            (
                "net.coalesce_ratio",
                "ratio",
                ratio(self.get("raw.coalesced"), self.get("raw.requests")),
            ),
            per_pass("net.dedup_hits", "count"),
            per_pass("net.retransmits", "count"),
            per_pass("net.replicated_pages", "count"),
            per_pass("net.failover_fetches", "count"),
            per_pass("kernel.pages_recovered", "count"),
            per_pass("kernel.pages_lost", "count"),
            per_pass("core.drained_pages", "count"),
            (
                "experiments.fleet_actor_s",
                "s/op",
                ratio(
                    self.get("experiments.fleet_actor_s"),
                    self.get("raw.actor_ops"),
                ),
            ),
            (
                "pool.utilization",
                "ratio",
                ratio(
                    self.get("busy_s"),
                    (wall_s - self.get("experiments.fleet_actor_s")) * threads as f64,
                ),
            ),
            per_op("trace.profile_s"),
        ];
        out.extend(BLAME.iter().map(|&k| sim_ms(k)));
        out.push(("trace.overhead_frac", "ratio", overhead_frac));
        out.push(("other_s", "s/op", (self.get("busy_s") - timed) / ops));
        out
    }
}
