//! `crash-recovery`: `survivability::survival_outcomes` (crash delay ×
//! strategy × drain rate) plus `replication::replication_outcomes`
//! (factor × mode × crash delay × strategy) on Minprog. One op is one
//! cell; each cell also runs its crash-free twin for the checksum law.
//!
//! Why: the only workload that drives the recovery ladder, the drain,
//! replica write-through and failover reads — exactly the cells the
//! sharded fleet executor keeps on lock-step.

use std::time::Instant;

use cor_experiments::replication::{self, ReplicationOutcome, FACTOR_MODES};
use cor_experiments::survivability::{self, SurvivalOutcome, DRAIN_RATES};
use cor_kernel::{CostModel, DrainPolicy, KernelError, World};
use cor_migrate::{Drainer, MigrationManager, Strategy};
use cor_net::{CrashPlan, ReplicationParams, WireParams};
use cor_pool::Pool;
use cor_sim::{JournalLevel, SimDuration};
use cor_workloads::Workload;

use crate::layers::Layers;
use crate::{digest, Bench, Checks, Pass, Vt};

/// Mirrors of the sweeps' private crash-injection seeds.
const SURVIVAL_SEED: u64 = 0xC4A5;
const REPLICATION_SEED: u64 = 0x9EB1;

/// The strategies both sweeps compare (mirrors their private lists).
const STRATEGIES: [Strategy; 3] = [
    Strategy::PureCopy,
    Strategy::PureIou { prefetch: 0 },
    Strategy::ResidentSet { prefetch: 0 },
];

/// One crash cell: which sweep, and its coordinates.
#[derive(Debug, Clone, Copy)]
enum Cell {
    Survival {
        delay_ms: u64,
        strategy: Strategy,
        drain_rate: u64,
    },
    Replication {
        factor: u64,
        mode: &'static str,
        delay_ms: u64,
        strategy: Strategy,
    },
}

/// Every cell, in the order the two library sweeps report them.
fn cells() -> Vec<Cell> {
    let mut v = Vec::new();
    for delay_ms in survivability::CRASH_DELAYS_MS {
        for strategy in STRATEGIES {
            for drain_rate in DRAIN_RATES {
                v.push(Cell::Survival {
                    delay_ms,
                    strategy,
                    drain_rate,
                });
            }
        }
    }
    for (factor, mode) in FACTOR_MODES {
        for delay_ms in replication::CRASH_DELAYS_MS {
            for strategy in STRATEGIES {
                v.push(Cell::Replication {
                    factor,
                    mode,
                    delay_ms,
                    strategy,
                });
            }
        }
    }
    v
}

/// What one run of a cell (crashed or crash-free twin) produced.
struct Run {
    /// The outcome row, as the library renders it (`Debug`).
    row: String,
    survived: bool,
    /// Touched-page checksum when the process survived.
    checksum: Option<u64>,
    /// Whether a non-surviving run ended in a typed `OrphanedProcess`.
    orphaned: bool,
    remote_s: f64,
    wire_bytes: u64,
    msg_cpu_s: f64,
    imag_faults: u64,
    blame_exact: bool,
}

/// Runs one twin of `cell` the way the library sweep's `run_cell` does:
/// build, migrate, then execute under the crash plan (drained for
/// survival cells, replicated for replication cells), timing build,
/// migration and execution. With `traced`, the journal is at Full and
/// the blame buckets are charged.
fn run_twin(w: &Workload, cell: Cell, crash: bool, traced: bool, t: &mut Layers) -> Run {
    let (wire, spare_nodes, seed) = match cell {
        Cell::Survival { .. } => (WireParams::default(), 0, SURVIVAL_SEED),
        Cell::Replication { factor, mode, .. } => {
            let replication = match (factor, mode) {
                (0, _) => None,
                (f, "quorum") => Some(ReplicationParams::quorum(f, REPLICATION_SEED)),
                (f, _) => Some(ReplicationParams::primary_backup(f, REPLICATION_SEED)),
            };
            let wire = WireParams {
                replication,
                ..WireParams::default()
            };
            (wire, 2, REPLICATION_SEED)
        }
    };
    let (strategy, delay_ms) = match cell {
        Cell::Survival {
            strategy, delay_ms, ..
        }
        | Cell::Replication {
            strategy, delay_ms, ..
        } => (strategy, delay_ms),
    };
    let mut world = World::new(CostModel::default(), wire);
    if traced {
        world.enable_journal_at(JournalLevel::Full);
    }
    let a = world.add_node();
    let b = world.add_node();
    for _ in 0..spare_nodes {
        world.add_node();
    }
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = t.time("workloads.build_s", || {
        w.build(&mut world, a).expect("workload build")
    });
    let st = world.process(a, pid).expect("built process").space.stats();
    t.count("mem.validated_pages", st.total_bytes() / cor_mem::PAGE_SIZE);
    t.count("mem.real_pages", st.real_bytes / cor_mem::PAGE_SIZE);
    let report = t.time("core.migrate_s", || {
        src.migrate_to(&mut world, &dst, pid, strategy)
            .expect("migration")
    });
    t.count("core.carried_pages", report.carried_pages);
    t.count("core.owed_pages", report.owed_pages);
    world.reset_touch_tracking(b, pid).expect("tracking reset");
    let migration_end = world.clock.now();
    if crash {
        let delay = SimDuration::from_millis(delay_ms);
        world.fabric.params.crashes = Some(CrashPlan::at_time(seed, a, migration_end + delay));
    }
    let run = t.time("kernel.run_s", || match cell {
        Cell::Survival { drain_rate, .. } => Drainer::new(DrainPolicy::flush(drain_rate))
            .with_interleave(1)
            .run(&mut world, b, pid)
            .map(|r| r.finished),
        Cell::Replication { .. } => world.run(b, pid).map(|r| r.finished),
    });
    let rel = world.fabric.reliability.clone();
    let remote_elapsed = world.clock.now().since(migration_end);
    let (survived, orphaned) = match run {
        Ok(finished) => (finished, false),
        Err(KernelError::OrphanedProcess { .. }) => (false, true),
        Err(_) => (false, false),
    };
    let checksum = if survived {
        Some(world.touched_checksum(b, pid).expect("checksum"))
    } else {
        None
    };
    let imag_faults = world.process(b, pid).map_or(0, |p| p.stats.imag_faults);
    // The row fields the library fills from the crashed run; the checksum
    // law is settled against the twin by the caller.
    let row = match cell {
        Cell::Survival {
            delay_ms,
            strategy,
            drain_rate,
        } => format!(
            "{:?}",
            SurvivalOutcome {
                delay: SimDuration::from_millis(delay_ms),
                strategy,
                drain_rate,
                survived,
                checksum_match: false,
                pages_lost: rel.pages_lost.get(),
                pages_recovered: rel.pages_recovered.get(),
                drained_pages: rel.drained_pages.get(),
                drain_bytes: world
                    .fabric
                    .ledger
                    .total_for(cor_sim::LedgerCategory::Drain),
                remote_elapsed,
            }
        ),
        Cell::Replication {
            factor,
            mode,
            delay_ms,
            strategy,
        } => format!(
            "{:?}",
            ReplicationOutcome {
                factor,
                mode,
                delay: SimDuration::from_millis(delay_ms),
                strategy,
                survived,
                checksum_match: false,
                pages_lost: rel.pages_lost.get(),
                replicated_pages: rel.replicated_pages.get(),
                replica_reads: rel.replica_reads.get(),
                failover_fetches: rel.failover_fetches.get(),
                failover_pages: rel.failover_pages.get(),
                failover_time: rel.failover_time,
                replicate_bytes: world
                    .fabric
                    .ledger
                    .total_for(cor_sim::LedgerCategory::Replicate),
                remote_elapsed,
            }
        ),
    };
    t.count("kernel.imag_faults", imag_faults);
    t.count("net.msgs", world.fabric.stats().msgs_total);
    t.count("net.retransmits", rel.retransmissions.get());
    t.count("net.replicated_pages", rel.replicated_pages.get());
    t.count("net.failover_fetches", rel.failover_fetches.get());
    t.count("kernel.pages_recovered", rel.pages_recovered.get());
    t.count("kernel.pages_lost", rel.pages_lost.get());
    t.count("core.drained_pages", rel.drained_pages.get());
    t.count("net.dedup_hits", rel.dedup_hits.get());
    let blame_exact = !traced || t.profile(&world);
    Run {
        row,
        survived,
        checksum,
        orphaned,
        remote_s: remote_elapsed.as_secs_f64(),
        wire_bytes: world.fabric.ledger.total(),
        msg_cpu_s: world.fabric.stats().cpu_total.as_secs_f64(),
        imag_faults,
        blame_exact,
    }
}

/// A cell's crashed run, its `Debug` row with the checksum law settled,
/// and whether it keeps the two-outcome law: survived with matching
/// memory, or ended in a typed `OrphanedProcess`. Both twins charge `t`.
fn run_cell(w: &Workload, cell: Cell, traced: bool, t: &mut Layers) -> (Run, bool) {
    let clean = run_twin(w, cell, false, traced, t);
    let mut crashed = run_twin(w, cell, true, traced, t);
    let matched = crashed.checksum.is_some() && crashed.checksum == clean.checksum;
    crashed.row = crashed.row.replacen(
        "checksum_match: false",
        &format!("checksum_match: {matched}"),
        1,
    );
    let lawful = clean.blame_exact
        && crashed.blame_exact
        && if crashed.survived {
            matched
        } else {
            crashed.orphaned
        };
    (crashed, lawful)
}

/// The library's rows for one pass, in cell order.
fn library_rows(workloads: &[Workload], pool: Pool) -> (Vec<String>, Vec<bool>) {
    let survival = survivability::survival_outcomes(workloads, &pool);
    let replication = replication::replication_outcomes(workloads, &pool);
    let lawful = survival
        .iter()
        .map(|o| o.checksum_match || !o.survived)
        .chain(replication.iter().map(|o| o.checksum_match || !o.survived))
        .collect();
    let rows = survival
        .iter()
        .map(|o| format!("{o:?}"))
        .chain(replication.iter().map(|o| format!("{o:?}")))
        .collect();
    (rows, lawful)
}

pub struct CrashRecovery {
    /// The sweeps pick Minprog from this list.
    workloads: Vec<Workload>,
    cells: Vec<Cell>,
    expected: Vec<String>,
    digest: u64,
    vt: Vt,
}

impl CrashRecovery {
    /// Runs every cell through [`run_cell`], one pool batch per sweep as
    /// the library does, so traced and untraced passes balance alike.
    fn mirror_pass(&self, traced: bool, pool: Pool) -> Vec<(Run, bool, Layers)> {
        let w = &self.workloads[0];
        let (survival, replication): (Vec<Cell>, Vec<Cell>) = self
            .cells
            .iter()
            .partition(|c| matches!(c, Cell::Survival { .. }));
        let batch = |cells: Vec<Cell>| {
            pool.run(
                cells
                    .into_iter()
                    .map(|cell| {
                        move || {
                            let mut t = Layers::default();
                            let start = Instant::now();
                            let (run, lawful) = run_cell(w, cell, traced, &mut t);
                            t.add("busy_s", start.elapsed().as_secs_f64());
                            (run, lawful, t)
                        }
                    })
                    .collect(),
            )
        };
        let mut out = batch(survival);
        out.extend(batch(replication));
        out
    }
}

impl Bench for CrashRecovery {
    fn setup(_seed: u64, pool: Pool, checks: &mut Checks) -> Self {
        let mut bench = CrashRecovery {
            workloads: vec![cor_workloads::minprog::workload()],
            cells: cells(),
            expected: Vec::new(),
            digest: 0,
            vt: Vt::default(),
        };
        let (rows, lib_lawful) = library_rows(&bench.workloads, pool);
        let mirrored = bench.mirror_pass(false, pool);
        checks.require(rows.len() == bench.cells.len(), || {
            format!(
                "{} library cells, {} mirrored",
                rows.len(),
                bench.cells.len()
            )
        });
        let (mut survived, mut faults) = (0u64, 0u64);
        for (k, ((run, lawful, _), row)) in mirrored.iter().zip(&rows).enumerate() {
            let cell = bench.cells[k];
            checks.require(run.row == *row, || {
                format!(
                    "{cell:?}: traced driver row differs:\n  {}\n  {row}",
                    run.row
                )
            });
            checks.require(*lawful && lib_lawful[k], || {
                format!("{cell:?}: two-outcome law broken")
            });
            bench.vt.e2e_s += run.remote_s;
            bench.vt.wire_bytes += run.wire_bytes;
            bench.vt.msg_cpu_s += run.msg_cpu_s;
            survived += run.survived as u64;
            faults += run.imag_faults;
        }
        bench.vt.capacity_fps = faults as f64 / bench.vt.e2e_s;
        bench.vt.survived_frac = survived as f64 / bench.cells.len() as f64;
        bench.digest = digest(&rows);
        bench.expected = rows;
        bench
    }

    fn pass(&self, pool: Pool) -> Pass {
        let (rows, lawful) = library_rows(&self.workloads, pool);
        let failed = rows
            .iter()
            .zip(&self.expected)
            .zip(&lawful)
            .filter(|((got, want), ok)| got != want || !**ok)
            .count();
        Pass {
            ops: rows.len() as u64,
            failed: failed as u64,
            digest: digest(&rows),
        }
    }

    fn traced_pass(&self, pool: Pool, layers: &mut Layers) -> Pass {
        let mut rows = Vec::with_capacity(self.cells.len());
        let mut failed = 0;
        for ((run, lawful, t), want) in self.mirror_pass(true, pool).into_iter().zip(&self.expected)
        {
            if !lawful || run.row != *want {
                failed += 1;
            }
            rows.push(run.row);
            layers.merge(t);
        }
        Pass {
            ops: rows.len() as u64,
            failed,
            digest: digest(&rows),
        }
    }

    fn ops_per_pass(&self) -> u64 {
        self.cells.len() as u64
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn vt(&self) -> Vt {
        self.vt
    }

    fn sizes(&self) -> String {
        format!(
            "{} crash cells per pass on Minprog (survival {} + replication {}), each with a crash-free twin",
            self.cells.len(),
            self.cells
                .iter()
                .filter(|c| matches!(c, Cell::Survival { .. }))
                .count(),
            self.cells
                .iter()
                .filter(|c| matches!(c, Cell::Replication { .. }))
                .count(),
        )
    }
}
