//! `fleet-storm`: the two 64-node torus heavy-storm cells (512 concurrent
//! pure-IOU migrations of 8-page processes each), through
//! `fleet::fleet_outcomes_for`, the entry the `fleet` command runs on the
//! lock-step runtime. One op is one storm migration including its
//! post-storm run.
//!
//! Why: builds are trivial here; routing, link accounting, placement and
//! post-storm fault service over the routed fabric dominate.

use std::collections::BTreeSet;
use std::time::Instant;

use cor_experiments::fleet::{self, FleetOutcome, FleetSpec, FLEET_SEED};
use cor_experiments::fleet_actor;
use cor_ipc::NodeId;
use cor_kernel::placement::{LocalityAware, Placement, PlacementCtx, RoundRobin};
use cor_kernel::{CostModel, World};
use cor_mem::{AddressSpace, PageNum, VAddr, PAGE_SIZE};
use cor_migrate::{MigrationManager, Strategy};
use cor_net::{Topology, WireParams};
use cor_pool::Pool;
use cor_sim::JournalLevel;
use cor_trace::LogHistogram;

use crate::layers::Layers;
use crate::{digest, Bench, Checks, Pass, Vt};

/// Pages per fleet process (mirrors `fleet::PROC_PAGES`).
const PROC_PAGES: u64 = 8;

/// The cells' square torus, seeded as `fleet` seeds it.
fn torus(spec: FleetSpec) -> Topology {
    assert_eq!(spec.topology, "torus", "the 64-node storm cells are tori");
    let cols = (1..=spec.nodes)
        .find(|c| c * c >= spec.nodes)
        .expect("at least one node");
    assert_eq!(cols * cols, spec.nodes, "torus cells use square clusters");
    Topology::torus(cols, cols).with_seed(FLEET_SEED)
}

fn placement(name: &str) -> Box<dyn Placement> {
    match name {
        "round-robin" => Box::new(RoundRobin::new()),
        "locality" => Box::new(LocalityAware::new()),
        other => panic!("the 64-node storm cells use no {other} placement"),
    }
}

/// One storm cell driven through the layers' public calls, the way
/// `fleet::run_cell` drives it, timing spawn, placement, migration and
/// post-storm execution. Returns the outcome, the post-storm virtual
/// seconds and the world.
fn mirror_cell(spec: FleetSpec, t: &mut Layers) -> (FleetOutcome, f64, World) {
    let wire = WireParams {
        topology: Some(torus(spec)),
        ..WireParams::default()
    };
    let (mut world, nodes) = World::fleet(spec.nodes, CostModel::default(), wire);
    world.fabric.validate_plans().expect("a well-wired fleet");
    world.enable_journal_at(JournalLevel::Full);
    let managers: Vec<MigrationManager> = nodes
        .iter()
        .map(|&n| MigrationManager::new(&mut world, n))
        .collect();
    let drain_set: BTreeSet<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| n.0 % spec.storm.drain_every == 0)
        .collect();
    for &node in &drain_set {
        for _ in 0..spec.storm.procs_per_node {
            let mut space = AddressSpace::new();
            space
                .validate(VAddr(0), 4 * PROC_PAGES * PAGE_SIZE)
                .expect("fresh space");
            t.count("mem.validated_pages", 4 * PROC_PAGES);
            let mut tb = cor_kernel::Trace::builder();
            for i in 0..PROC_PAGES {
                tb.write(PageNum(i).base(), 64);
            }
            for i in 0..PROC_PAGES / 2 {
                tb.read(PageNum(i * 2).base(), 64);
            }
            t.time("kernel.spawn_s", || {
                let pid = world
                    .create_process(node, "fleet", space, tb.terminate())
                    .expect("spawn");
                world
                    .run_for(node, pid, PROC_PAGES as usize)
                    .expect("write phase");
            });
        }
    }

    let candidates: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| !drain_set.contains(n))
        .collect();
    let mut policy = placement(spec.placement);
    let storm_start = world.clock.now();
    let bytes_before = world.fabric.ledger.total();
    let mut migrations = 0u64;
    for &source in &drain_set {
        for pid in world.resident_pids(source).expect("draining node") {
            let dest = t.time("kernel.place_s", || {
                let loads = world.loads();
                let down = world.fabric.crashed_nodes();
                for &cand in &candidates {
                    if down.contains(&cand) {
                        world.note(|| cor_trace::TraceEvent::PlacementSkip { node: cand, source });
                    }
                }
                let ctx = PlacementCtx {
                    source,
                    candidates: &candidates,
                    loads: &loads,
                    topology: world.fabric.params.topology.as_ref(),
                    down: &down,
                    seed: FLEET_SEED,
                };
                policy.choose(&ctx, pid.0).expect("candidates exist")
            });
            let report = t.time("core.migrate_s", || {
                managers[source.0 as usize]
                    .migrate_to(
                        &mut world,
                        &managers[dest.0 as usize],
                        pid,
                        Strategy::PureIou { prefetch: 1 },
                    )
                    .expect("storm migration")
            });
            t.count("core.carried_pages", report.carried_pages);
            t.count("core.owed_pages", report.owed_pages);
            migrations += 1;
        }
    }
    let storm_end = world.clock.now();
    let storm_elapsed = storm_end.since(storm_start);

    let mut survived = 0u64;
    for &node in &candidates {
        for pid in world.resident_pids(node).expect("candidate node") {
            let report = t.time("kernel.run_s", || {
                world.run(node, pid).expect("post-storm run")
            });
            let stats = &world.process(node, pid).expect("migrant").stats;
            t.count("kernel.imag_faults", stats.imag_faults);
            t.count("kernel.disk_faults", stats.disk_faults);
            t.count("kernel.zero_faults", stats.zero_faults);
            t.count("raw.prefetch_hits", stats.prefetch_hits);
            t.count("raw.prefetched_pages", stats.prefetched_pages);
            if report.finished {
                survived += 1;
            }
        }
    }
    let post_storm_s = world.clock.now().since(storm_end).as_secs_f64();
    let drain_residents_after: u64 = drain_set
        .iter()
        .map(|&n| world.node_load(n).expect("draining node"))
        .sum();

    let mut faults = LogHistogram::new();
    if let Some(journal) = &world.journal {
        for span in journal.spans() {
            if span.name == "imag-fault" {
                if let Some(d) = span.duration() {
                    faults.record_duration(d);
                }
            }
        }
    }
    let links = world.fabric.link_stats();
    let link_bytes: u64 = links.values().map(|s| s.bytes).sum();
    let max_link_bytes = links.values().map(|s| s.bytes).max().unwrap_or(0);
    let link_msgs: u64 = links.values().map(|s| s.msgs).sum();
    let link_wait_us: u64 = links.values().map(|s| s.queue_wait.as_micros()).sum();
    let stats = world.fabric.stats();
    let wire_bytes = world.fabric.ledger.total() - bytes_before;
    t.count("net.msgs", stats.msgs_total);
    t.count("raw.link_bytes", link_bytes);
    t.count("raw.wire_bytes", wire_bytes);
    t.count("raw.max_link_bytes", max_link_bytes);
    t.count("net.link_wait_ms", link_wait_us);
    t.count("net.dedup_hits", world.fabric.reliability.dedup_hits.get());
    t.count(
        "net.retransmits",
        world.fabric.reliability.retransmissions.get(),
    );
    let outcome = FleetOutcome {
        spec,
        migrations,
        survived,
        drain_residents_after,
        storm_elapsed,
        throughput: migrations as f64 / storm_elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        fault_p50_us: faults.p50(),
        fault_p99_us: faults.p99(),
        faults: faults.count(),
        wire_bytes,
        link_bytes,
        max_link_bytes,
        mean_hops: link_msgs as f64 / stats.msgs_remote.max(1) as f64,
    };
    (outcome, post_storm_s, world)
}

/// The outcome's `fleet-csv` row.
fn row(o: &FleetOutcome) -> String {
    fleet::csv_for(std::slice::from_ref(o))
        .lines()
        .nth(1)
        .expect("one data row")
        .to_string()
}

/// Whether a cell keeps the storm laws: every migrant ran to termination
/// and every draining node ended empty.
fn lawful(o: &FleetOutcome) -> bool {
    o.survived == o.migrations && o.drain_residents_after == 0
}

pub struct FleetStorm {
    specs: Vec<FleetSpec>,
    expected: Vec<String>,
    migrations: u64,
    digest: u64,
    vt: Vt,
}

impl Bench for FleetStorm {
    fn setup(_seed: u64, pool: Pool, checks: &mut Checks) -> Self {
        let specs: Vec<FleetSpec> = fleet::cells()
            .into_iter()
            .filter(|c| c.nodes == 64)
            .collect();
        let library = fleet::fleet_outcomes_for(specs.clone(), &pool);
        let mirrored = pool.run(
            specs
                .iter()
                .map(|&s| {
                    move || {
                        let (o, post_s, world) = mirror_cell(s, &mut Layers::default());
                        (o, post_s, world.fabric.stats().cpu_total.as_secs_f64())
                    }
                })
                .collect(),
        );
        let expected: Vec<String> = library.iter().map(row).collect();
        let mut vt = Vt::default();
        let (mut survived, mut migrations, mut faults, mut post_s) = (0, 0, 0, 0.0);
        for ((lib, want), (m, post, cpu)) in library.iter().zip(&expected).zip(&mirrored) {
            let label = format!("{} {}", lib.spec.topology, lib.spec.placement);
            checks.require(row(m) == *want, || {
                format!("{label}: traced driver row differs")
            });
            checks.require(lawful(lib), || format!("{label}: storm law broken: {want}"));
            vt.e2e_s += lib.storm_elapsed.as_secs_f64();
            vt.wire_bytes += lib.wire_bytes;
            vt.msg_cpu_s += cpu;
            survived += lib.survived;
            migrations += lib.migrations;
            faults += lib.faults;
            post_s += post;
        }
        vt.capacity_fps = faults as f64 / post_s;
        vt.survived_frac = survived as f64 / migrations as f64;
        FleetStorm {
            specs,
            digest: digest(&expected),
            expected,
            migrations,
            vt,
        }
    }

    fn pass(&self, pool: Pool) -> Pass {
        let outcomes = fleet::fleet_outcomes_for(self.specs.clone(), &pool);
        let rows: Vec<String> = outcomes.iter().map(row).collect();
        let failed = outcomes
            .iter()
            .zip(rows.iter().zip(&self.expected))
            .filter(|(o, (got, want))| !lawful(o) || got != want)
            .map(|(o, _)| o.migrations)
            .sum();
        Pass {
            ops: outcomes.iter().map(|o| o.migrations).sum(),
            failed,
            digest: digest(&rows),
        }
    }

    fn traced_pass(&self, pool: Pool, layers: &mut Layers) -> Pass {
        let results = pool.run(
            self.specs
                .iter()
                .map(|&s| {
                    move || {
                        let mut t = Layers::default();
                        let start = Instant::now();
                        let (o, _, world) = mirror_cell(s, &mut t);
                        let exact = t.profile(&world);
                        t.add("busy_s", start.elapsed().as_secs_f64());
                        (o, exact, t)
                    }
                })
                .collect(),
        );
        let mut rows = Vec::new();
        let mut failed = 0;
        let mut ops = 0;
        for ((o, exact, t), want) in results.into_iter().zip(&self.expected) {
            let r = row(&o);
            if !exact || !lawful(&o) || r != *want {
                failed += o.migrations;
            }
            ops += o.migrations;
            rows.push(r);
            layers.merge(t);
        }
        // The same cells on the sharded actor executor, one shard per
        // core, once per traced window; its rows must match the lock-step
        // ones. Its time is kept out of the traced ops' wall.
        let first = layers.get("raw.actor_ops") == 0.0;
        for (&spec, want) in self.specs.iter().zip(&self.expected).filter(|_| first) {
            let o = layers.time("experiments.fleet_actor_s", || {
                fleet_actor::run_cell_actor(spec, &pool, crate::nproc())
            });
            layers.count("raw.actor_ops", o.migrations);
            if row(&o) != *want {
                failed += o.migrations;
            }
        }
        Pass {
            ops,
            failed,
            digest: digest(&rows),
        }
    }

    fn ops_per_pass(&self) -> u64 {
        self.migrations
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn vt(&self) -> Vt {
        self.vt
    }

    fn sizes(&self) -> String {
        let cells: Vec<String> = self
            .specs
            .iter()
            .map(|s| format!("{}-node {} {}", s.nodes, s.topology, s.placement))
            .collect();
        format!(
            "{} storm migrations per pass of {PROC_PAGES}-page processes ({})",
            self.migrations,
            cells.join(", ")
        )
    }
}
