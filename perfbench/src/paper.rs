//! `paper-matrix`: the 7 calibrated representatives × 11 paper strategies
//! (the 77 cells of `experiments csv`) plus a seeded family of synthetic
//! processes, one `runner::run_trial` per op.
//!
//! Why: the two-node wire has no routing or link contention, so host
//! time goes to the sparse address-space build, excise/insert and the
//! remote pager — the paper's own cost story.

use std::collections::HashSet;

use cor_experiments::runner::{run_trial, Matrix, Trial};
use cor_kernel::{CostModel, World};
use cor_mem::PageNum;
use cor_migrate::{MigrationManager, Strategy};
use cor_net::WireParams;
use cor_pool::Pool;
use cor_sim::{JournalLevel, LedgerCategory, Pcg32};
use cor_workloads::synth::SynthSpec;
use cor_workloads::Workload;

use crate::layers::Layers;
use crate::{digest, Bench, Checks, Pass, Vt, DEFAULT_SEED};

/// The 77 paper rows: a byte copy of `results/matrix.csv`.
const PAPER_REFERENCE: &str = include_str!("../reference/matrix.csv");

/// The synthetic family's rows at [`DEFAULT_SEED`].
const SYNTH_REFERENCE: &str = include_str!("../reference/synth-seed-1.csv");

/// Names of the synthetic family's members (the spec wants `'static`).
const SYNTH_NAMES: [&str; 6] = [
    "synth-0", "synth-1", "synth-2", "synth-3", "synth-4", "synth-5",
];

/// Strategies each synthetic process runs under: eager, lazy with a
/// little prefetch, and resident-set with more.
const SYNTH_STRATEGIES: [Strategy; 3] = [
    Strategy::PureCopy,
    Strategy::PureIou { prefetch: 1 },
    Strategy::ResidentSet { prefetch: 3 },
];

/// The synthetic family drawn from `seed`. Every member writes (so CoW
/// writes sit beside reads); even members get a frame budget below the
/// touched set, odd ones above it. Members are small (a few percent of
/// the matrix's wire bytes), so the seed moves the totals only slightly.
fn synth_family(seed: u64) -> Vec<Workload> {
    let mut rng = Pcg32::with_stream(seed, 0x5E7D);
    SYNTH_NAMES
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let real_pages = rng.range(160, 320);
            let touched_fraction = 0.3 + 0.4 * rng.next_f64();
            let touched = ((real_pages as f64 * touched_fraction).round() as u64).max(1);
            let resident_pages = if i % 2 == 0 {
                (touched / 2).max(1)
            } else {
                touched + (real_pages - touched) / 2 + 1
            };
            SynthSpec {
                name,
                seed: rng.next_u64(),
                real_pages,
                realzero_pages: rng.range(0, 2 * real_pages),
                runs: rng.range(1, 32),
                resident_pages,
                touched_fraction,
                locality: rng.next_f64(),
                compute_ms: rng.range(300, 1_200),
                write_fraction: 0.1 + 0.4 * rng.next_f64(),
            }
            .build()
        })
        .collect()
}

/// One migrated trial driven through the layers' public calls.
struct Mirrored {
    trial: Trial,
    checksum: u64,
    blame_exact: bool,
}

/// Drives one trial the way `runner::run_trial` does on the lock-step
/// runtime — `World::new` → `Workload::build` → `migrate_to` →
/// `World::run` — timing each call, and returns the same [`Trial`] plus
/// the migrated process's touched-page checksum. With `traced`, the
/// journal is at Full and the blame buckets are charged.
fn mirror_trial(w: &Workload, strategy: Strategy, traced: bool, t: &mut Layers) -> Mirrored {
    let mut world = World::new(CostModel::default(), WireParams::default());
    world.enable_journal_at(if traced {
        JournalLevel::Full
    } else {
        JournalLevel::Summary
    });
    let a = world.add_node();
    let b = world.add_node();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = t.time("workloads.build_s", || {
        w.build(&mut world, a).expect("workload build")
    });
    let process = world.process(a, pid).expect("built process");
    let st = process.space.stats();
    t.count("mem.validated_pages", st.total_bytes() / cor_mem::PAGE_SIZE);
    t.count("mem.real_pages", st.real_bytes / cor_mem::PAGE_SIZE);
    let real_set: HashSet<PageNum> = process.space.materialized_pages().map(|(p, _)| p).collect();
    let resident_set: HashSet<PageNum> = process.space.resident_pages().into_iter().collect();
    let total_pages = st.total_bytes() / cor_mem::PAGE_SIZE;
    let migration = t.time("core.migrate_s", || {
        src.migrate_to(&mut world, &dst, pid, strategy)
            .expect("migration")
    });
    t.count("core.carried_pages", migration.carried_pages);
    t.count("core.owed_pages", migration.owed_pages);
    let exec = t.time("kernel.run_s", || {
        world.run(b, pid).expect("remote execution")
    });
    let stats = world
        .process(b, pid)
        .expect("migrated process")
        .stats
        .clone();
    t.count("kernel.imag_faults", stats.imag_faults);
    t.count("kernel.disk_faults", stats.disk_faults);
    t.count("kernel.zero_faults", stats.zero_faults);
    t.count("raw.prefetch_hits", stats.prefetch_hits);
    t.count("raw.prefetched_pages", stats.prefetched_pages);
    let touched_real: HashSet<PageNum> = stats.touched.intersection(&real_set).copied().collect();
    let rs_union = resident_set.union(&touched_real).count() as u64;
    let fabric = world.fabric.stats().clone();
    t.count("net.msgs", fabric.msgs_total);
    t.count("net.dedup_hits", world.fabric.reliability.dedup_hits.get());
    t.count(
        "net.retransmits",
        world.fabric.reliability.retransmissions.get(),
    );
    let trial = Trial {
        workload: w.name().to_string(),
        strategy,
        migration,
        exec_elapsed: exec.elapsed,
        total_bytes: world.fabric.ledger.total(),
        bulk_bytes: world.fabric.ledger.total_for(LedgerCategory::Bulk),
        fault_bytes: world.fabric.ledger.total_for(LedgerCategory::FaultSupport),
        msg_cpu: fabric.cpu_total,
        msgs: fabric.msgs_total,
        imag_faults: stats.imag_faults,
        disk_faults: stats.disk_faults,
        zero_faults: stats.zero_faults,
        prefetch_hit_ratio: stats.prefetch_hit_ratio(),
        touched_real_pages: touched_real.len() as u64,
        real_pages: real_set.len() as u64,
        total_pages,
        rs_union_pages: rs_union,
        retransmit_bytes: world.fabric.ledger.total_for(LedgerCategory::Retransmit),
        reliability: world.fabric.reliability.clone(),
        ledger: world.fabric.ledger.clone(),
        end_time: world.clock.now(),
    };
    let checksum = world.touched_checksum(b, pid).expect("checksum");
    let blame_exact = !traced || t.profile(&world);
    Mirrored {
        trial,
        checksum,
        blame_exact,
    }
}

/// The touched-page checksum of `w` run where it was built, unmigrated.
fn unmigrated_checksum(w: &Workload) -> u64 {
    let (mut world, a, _) = World::testbed();
    let pid = w.build(&mut world, a).expect("workload build");
    world.run(a, pid).expect("local execution");
    world.touched_checksum(a, pid).expect("checksum")
}

/// Cell rows of a reference CSV (header and blank lines dropped).
fn reference_rows(csv: &str) -> Vec<&str> {
    csv.lines().skip(1).filter(|l| !l.is_empty()).collect()
}

pub struct PaperMatrix {
    workloads: Vec<Workload>,
    cells: Vec<(usize, Strategy)>,
    /// Unmigrated checksum per workload.
    checksums: Vec<u64>,
    expected: Vec<String>,
    digest: u64,
    vt: Vt,
}

fn cells_for(workloads: &[Workload]) -> Vec<(usize, Strategy)> {
    let paper = Matrix::paper_strategies();
    let paper_count = cor_workloads::all().len();
    workloads
        .iter()
        .enumerate()
        .flat_map(|(i, _)| {
            let strategies = if i < paper_count {
                paper.clone()
            } else {
                SYNTH_STRATEGIES.to_vec()
            };
            strategies.into_iter().map(move |s| (i, s))
        })
        .collect()
}

fn mirror_pass(
    workloads: &[Workload],
    cells: &[(usize, Strategy)],
    traced: bool,
    pool: Pool,
) -> Vec<(Mirrored, Layers)> {
    let jobs: Vec<_> = cells
        .iter()
        .map(|&(i, s)| {
            let w = &workloads[i];
            move || {
                let mut t = Layers::default();
                let start = std::time::Instant::now();
                let m = mirror_trial(w, s, traced, &mut t);
                t.add("busy_s", start.elapsed().as_secs_f64());
                (m, t)
            }
        })
        .collect();
    pool.run(jobs)
}

/// The synthetic family's CSV rows at `seed`, with the matrix header.
pub fn synth_reference(seed: u64, pool: Pool) -> String {
    let workloads = synth_family(seed);
    let cells: Vec<(usize, Strategy)> = (0..workloads.len())
        .flat_map(|i| SYNTH_STRATEGIES.map(|s| (i, s)))
        .collect();
    let mut out = String::from(Trial::csv_header());
    out.push('\n');
    for (m, _) in mirror_pass(&workloads, &cells, false, pool) {
        out.push_str(&m.trial.csv_row());
        out.push('\n');
    }
    out
}

impl Bench for PaperMatrix {
    fn setup(seed: u64, pool: Pool, checks: &mut Checks) -> Self {
        let mut workloads = cor_workloads::all();
        let paper_count = workloads.len();
        workloads.extend(synth_family(seed));
        let cells = cells_for(&workloads);
        let checksums = pool.run(
            workloads
                .iter()
                .map(|w| move || unmigrated_checksum(w))
                .collect(),
        );

        let mirrored = mirror_pass(&workloads, &cells, false, pool);
        let library = PaperMatrix {
            workloads,
            cells,
            checksums,
            expected: Vec::new(),
            digest: 0,
            vt: Vt::default(),
        };
        let rows = library.library_rows(pool);

        let mut reference: Vec<&str> = reference_rows(PAPER_REFERENCE);
        let paper_cells = reference.len();
        checks.require(paper_cells == paper_count * 11, || {
            format!("reference/matrix.csv holds {paper_cells} cells, expected 77")
        });
        if seed == DEFAULT_SEED {
            reference.extend(reference_rows(SYNTH_REFERENCE));
        }
        let drift = reference
            .iter()
            .zip(&rows)
            .filter(|(want, got)| **want != got.as_str())
            .count();
        checks.require(drift == 0, || {
            format!(
                "{drift} of {} rows drift from perfbench/reference",
                reference.len()
            )
        });
        checks.require(reference.len() <= rows.len(), || {
            "reference longer than the matrix".into()
        });

        let mut vt = Vt {
            survived_frac: 1.0,
            ..Vt::default()
        };
        let (mut faults, mut exec_s) = (0u64, 0.0);
        for (k, ((m, _), row)) in mirrored.iter().zip(&rows).enumerate() {
            let (i, s) = library.cells[k];
            let name = library.workloads[i].name();
            checks.require(m.trial.csv_row() == *row, || {
                format!("{name} {s}: traced driver row differs from run_trial")
            });
            checks.require(m.checksum == library.checksums[i], || {
                format!("{name} {s}: migrated checksum differs from the unmigrated run")
            });
            vt.e2e_s += m.trial.end_to_end().as_secs_f64();
            vt.wire_bytes += m.trial.total_bytes;
            vt.msg_cpu_s += m.trial.msg_cpu.as_secs_f64();
            faults += m.trial.imag_faults;
            exec_s += m.trial.exec_elapsed.as_secs_f64();
        }
        vt.capacity_fps = faults as f64 / exec_s;
        PaperMatrix {
            digest: digest(&rows),
            expected: rows,
            vt,
            ..library
        }
    }

    fn pass(&self, pool: Pool) -> Pass {
        let rows = self.library_rows(pool);
        Pass {
            ops: rows.len() as u64,
            failed: rows
                .iter()
                .zip(&self.expected)
                .filter(|(got, want)| got != want)
                .count() as u64,
            digest: digest(&rows),
        }
    }

    fn traced_pass(&self, pool: Pool, layers: &mut Layers) -> Pass {
        let mut rows = Vec::with_capacity(self.cells.len());
        let mut failed = 0;
        for (k, (m, t)) in mirror_pass(&self.workloads, &self.cells, true, pool)
            .into_iter()
            .enumerate()
        {
            let row = m.trial.csv_row();
            let (i, _) = self.cells[k];
            if row != self.expected[k] || m.checksum != self.checksums[i] || !m.blame_exact {
                failed += 1;
            }
            rows.push(row);
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
        let paper_count = cor_workloads::all().len();
        let synth: Vec<String> = self.workloads[paper_count..]
            .iter()
            .map(|w| {
                let b = &w.blueprint;
                format!("{}:{}p/{}f", b.name, b.install_order.len(), b.frame_budget)
            })
            .collect();
        format!(
            "{} trials per pass ({} paper cells + {} synthetic: {})",
            self.cells.len(),
            paper_count * 11,
            self.cells.len() - paper_count * 11,
            synth.join(" ")
        )
    }
}

impl PaperMatrix {
    fn library_rows(&self, pool: Pool) -> Vec<String> {
        let jobs: Vec<_> = self
            .cells
            .iter()
            .map(|&(i, s)| {
                let w = &self.workloads[i];
                move || run_trial(w, s).csv_row()
            })
            .collect();
        pool.run(jobs)
    }
}
