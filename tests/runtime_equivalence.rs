//! Sharded-executor equivalence laws: running a fleet storm cell
//! through `cor_experiments::fleet_actor` must be invisible in every
//! observable output.
//!
//! The sharded executor splits a cell's per-process chains across
//! private worlds and merges them through the link-schedule replay. It
//! is required to reproduce the lock-step cell *exactly*: identical CSV
//! bytes, identical blame tables, flamegraphs and span exports — across
//! topologies, placements, shard counts and thread counts.

use cor_experiments::fleet::{cells, csv_for, fleet_csv, run_cell, FleetSpec, STORM_LOW};
use cor_experiments::fleet_actor::run_cell_actor;
use cor_pool::Pool;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Law: a fleet storm cell rendered to CSV is byte-identical between
    /// the lock-step loop and the sharded parallel executor, for any
    /// shard count and any pool width ∈ {1, 2, 4, 8}.
    #[test]
    fn fleet_cells_are_runtime_invariant(
        nidx in 0usize..2,
        tidx in 0usize..3,
        pidx in 0usize..3,
        shards in 1usize..8,
        thidx in 0usize..4,
    ) {
        let spec = FleetSpec {
            nodes: [9, 16][nidx],
            topology: ["full-mesh", "ring", "torus"][tidx],
            placement: ["round-robin", "least-loaded", "locality"][pidx],
            storm: STORM_LOW,
        };
        let threads = [1usize, 2, 4, 8][thidx];
        let lockstep = csv_for(&[run_cell(spec)]);
        let actor = csv_for(&[run_cell_actor(spec, &Pool::new(threads), shards)]);
        prop_assert_eq!(lockstep, actor, "shards={} threads={}", shards, threads);
    }
}

/// Law: the profiled fleet cell — blame CSV, folded flamegraph, span
/// JSONL — is byte-identical between the lock-step executor and the
/// sharded parallel executor at every pool width ∈ {1, 2, 4, 8}.
#[test]
fn fleet_profiles_are_runtime_invariant() {
    use cor_experiments::fleet::{blame_cell_spec, run_cell_profiled};
    use cor_experiments::fleet_actor::run_cell_actor_profiled;

    let spec = blame_cell_spec();
    let (_, l_prof, l_links) = run_cell_profiled(spec);
    assert!(l_prof.sums_exactly());
    for threads in [1usize, 2, 4, 8] {
        let pool = Pool::new(threads);
        let (_, a_prof, a_links) = run_cell_actor_profiled(spec, &pool, threads.max(2));
        assert_eq!(
            l_prof.blame_csv(&l_links),
            a_prof.blame_csv(&a_links),
            "threads={threads}"
        );
        assert_eq!(l_prof.folded(), a_prof.folded(), "threads={threads}");
        assert_eq!(l_prof.jsonl(), a_prof.jsonl(), "threads={threads}");
    }
}

/// Law: the full fleet sweep rendered through the sharded executor, with
/// shards = threads ∈ {1, 4, 8}, is byte-identical to the `fleet-csv`
/// artifact.
#[test]
fn fleet_sweep_is_shard_invariant() {
    let reference = fleet_csv(&Pool::serial());
    for threads in [1usize, 4, 8] {
        let pool = Pool::new(threads);
        let outcomes: Vec<_> = cells()
            .into_iter()
            .map(|spec| run_cell_actor(spec, &pool, threads))
            .collect();
        assert_eq!(csv_for(&outcomes), reference, "threads={threads}");
    }
}
