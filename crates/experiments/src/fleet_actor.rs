//! The sharded fleet executor.
//!
//! [`crate::fleet::run_cell`] drives a storm cell on one world: one
//! thread, every migration strictly sequential on the virtual clock.
//! This module executes the *same cell* as a conservative parallel
//! simulation:
//!
//! 1. **Plan (serial).** A dry pre-pass replays the storm's control
//!    decisions without simulating anything: pid assignment in spawn
//!    order, and one placement decision per migrant against the evolving
//!    load counts — exactly the sequence the lock-step driver makes,
//!    reproducible because every placement policy is deterministic over
//!    `(loads, topology, seed, pid)`. The result is the cell's full
//!    chain list: `(pid, source, dest)` per migrating process.
//! 2. **Shard (parallel).** Chains are partitioned into shards; each
//!    shard executes its chains on a private world (same topology, same
//!    seeds) in three epochs — spawn in chain order, storm in chain
//!    order, post-storm run in `(dest, pid)` order — the lock-step order
//!    restricted to the shard. Each chain unit (one migration, one
//!    post-storm run) executes with link occupancy cleared at its start
//!    and records its routed transmissions
//!    ([`cor_net::replay::WireSend`]), so what the shard measures is the
//!    unit's *nominal* schedule, independent of which shard ran it or
//!    what ran before it.
//! 3. **Merge (deterministic).** Byte counts, link tables, and survivor
//!    counts are order-independent sums. The *timing* couplings the
//!    isolated units could not see — a unit's first messages queueing
//!    behind link residue left by the previous unit's tail in the
//!    lock-step schedule — are re-imposed exactly by a serial
//!    [`cor_net::replay::LinkReplay`] pass over the recorded wire
//!    schedules in global order, which re-runs only the per-link
//!    `route_and_charge` arithmetic (microseconds of work per cell).
//!    The corrected migration durations and imag-fault spans — and
//!    therefore the rendered CSV — are byte-identical to the lock-step
//!    cell at every shard and thread count.
//!
//! Only wire couplings are replayed. [`parallel_eligible`] names the
//! configurations that would couple chains beyond the wire (injected
//! faults, crash plans, replication write-through, the
//! batched/coalesced hot path). A [`FleetSpec`] carries no wire knobs,
//! so every fleet cell is eligible by construction; the shard only
//! asserts it. `docs/RUNTIME.md` gives the full determinism argument.

use std::collections::{BTreeMap, BTreeSet};

use cor_ipc::NodeId;
use cor_kernel::placement::PlacementCtx;
use cor_kernel::{CostModel, World, FABRIC_SPAN_BASE};
use cor_migrate::{MigrationManager, Strategy};
use cor_net::replay::{LinkReplay, SendDelta, UnitSend};
use cor_net::WireParams;
use cor_pool::Pool;
use cor_sim::{JournalLevel, SimDuration, SimTime};
use cor_trace::{LogHistogram, ProfSpan, Profile, SpanId};

use crate::fleet::{
    placement_for, spawn_proc, topology_for, FleetOutcome, FleetSpec, LinkWaits, FLEET_SEED,
};

/// Whether a wire configuration admits the parallel chain-sharded
/// executor. Anything that lets one chain's traffic perturb another
/// beyond link occupancy — injected faults (time- and count-triggered
/// plans observe global message order), node crashes, replication
/// write-through, or the batched/coalesced hot path (cross-request state
/// at the NMS) — would need the lock-step [`crate::fleet::run_cell`]
/// instead.
pub fn parallel_eligible(w: &WireParams) -> bool {
    w.faults.is_none()
        && w.crashes.is_none()
        && w.replication.is_none()
        && !w.batch_replies
        && !w.coalesce
}

/// One migrating process's lifecycle, planned by the pre-pass.
#[derive(Debug, Clone, Copy)]
struct Chain {
    /// Global pid, as the lock-step world would assign it.
    pid: u64,
    source: NodeId,
    dest: NodeId,
}

/// The planned cell: every control decision the storm will make, in
/// lock-step order.
struct CellPlan {
    drain_set: BTreeSet<NodeId>,
    /// Chains in storm order (source ascending, pid ascending) — which
    /// is also spawn order.
    chains: Vec<Chain>,
}

/// Replays the storm's placement decisions without simulating: the same
/// candidate list, the same evolving load counts, the same seeded
/// stateless tie-breaks ([`cor_kernel::placement`]), the same policy
/// cursor state. Pure control flow — no world is built.
fn plan_cell(spec: FleetSpec) -> CellPlan {
    let nodes: Vec<NodeId> = (0..spec.nodes).map(NodeId).collect();
    let topo = topology_for(spec.topology, spec.nodes);
    let drain_set: BTreeSet<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| n.0 % spec.storm.drain_every == 0)
        .collect();
    let candidates: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| !drain_set.contains(n))
        .collect();

    // Pid assignment mirrors spawn order: drain nodes ascending, then
    // spawn index; the lock-step world hands out sequential pids.
    let mut loads: BTreeMap<NodeId, u64> = nodes.iter().map(|&n| (n, 0)).collect();
    let mut spawned: BTreeMap<NodeId, Vec<u64>> = BTreeMap::new();
    let mut next_pid = 0u64;
    for &node in &drain_set {
        for _ in 0..spec.storm.procs_per_node {
            spawned.entry(node).or_default().push(next_pid);
            *loads.get_mut(&node).unwrap() += 1;
            next_pid += 1;
        }
    }

    // The storm: one placement decision per process against live loads.
    let down = BTreeSet::new();
    let mut policy = placement_for(spec.placement);
    let mut chains = Vec::with_capacity(next_pid as usize);
    for (&source, pids) in &spawned {
        for &pid in pids {
            let ctx = PlacementCtx {
                source,
                candidates: &candidates,
                loads: &loads,
                topology: Some(&topo),
                down: &down,
                seed: FLEET_SEED,
            };
            let dest = policy.choose(&ctx, pid).expect("candidates exist");
            *loads.get_mut(&source).unwrap() -= 1;
            *loads.get_mut(&dest).unwrap() += 1;
            chains.push(Chain { pid, source, dest });
        }
    }
    CellPlan { drain_set, chains }
}

/// One chain unit's nominal measurement: its length, its recorded wire
/// schedule, and (for run units) its imag-fault spans, all relative to
/// the unit's start on idle links.
struct UnitTrace {
    len: SimDuration,
    sends: Vec<UnitSend>,
    /// `(start offset, nominal duration)` per imag-fault span.
    spans: Vec<(SimDuration, SimDuration)>,
    /// Full journal capture of the unit (profiled runs only).
    cap: Option<UnitSpans>,
}

/// Where a captured span's parent lives, in unit-local coordinates:
/// the i-th world span or j-th fabric span *of the same unit*. Every
/// parent edge stays inside its unit — units start and end with both
/// journals' open stacks empty — which is what lets the merge rebuild
/// the global forest from per-unit captures.
#[derive(Debug, Clone, Copy)]
enum CapParent {
    None,
    World(usize),
    Fabric(usize),
}

/// One journal span captured at a unit boundary, times rebased to the
/// unit's start. `birth`/`death` are the journal's global creation and
/// close stamps (shared counter across both journals), which encode
/// "open at" relations the merge's queue-wait correction needs.
#[derive(Debug, Clone, Copy)]
struct CapturedSpan {
    name: &'static str,
    node: Option<NodeId>,
    start: SimDuration,
    end: Option<SimDuration>,
    parent: CapParent,
    birth: u64,
    death: u64,
}

/// Both journals' spans for one unit, in creation order.
struct UnitSpans {
    world: Vec<CapturedSpan>,
    fabric: Vec<CapturedSpan>,
}

/// A spawn-epoch unit: purely node-local (no wire schedule), captured
/// only for its length and spans.
struct SpawnUnit {
    len: SimDuration,
    spans: UnitSpans,
}

/// Current span counts of both journals — the cursors a unit capture
/// starts from.
fn journal_cursors(world: &World) -> (usize, usize) {
    let w = world.journal.as_ref().map_or(0, |j| j.spans().len());
    let f = world.fabric.journal.as_ref().map_or(0, |j| j.spans().len());
    (w, f)
}

/// Captures every span both journals minted since the cursors, rebased
/// to `started`. Unit boundaries must leave no span open; parents are
/// decoded from raw span ids (world ids count from 1, fabric ids from
/// `FABRIC_SPAN_BASE + 1`) into unit-local coordinates.
fn capture_unit(world: &World, started: SimTime, wcur: usize, fcur: usize) -> UnitSpans {
    let wj = world.journal.as_ref().expect("journal enabled");
    let fj = world.fabric.journal.as_ref().expect("journal enabled");
    assert_eq!(wj.open_len(), 0, "world spans close at unit boundaries");
    assert_eq!(fj.open_len(), 0, "fabric spans close at unit boundaries");
    let decode = |p: SpanId| -> CapParent {
        if p.is_none() {
            CapParent::None
        } else if p.0 > FABRIC_SPAN_BASE {
            let g = (p.0 - FABRIC_SPAN_BASE - 1) as usize;
            assert!(g >= fcur, "parent edge crosses a unit boundary");
            CapParent::Fabric(g - fcur)
        } else {
            let g = (p.0 - 1) as usize;
            assert!(g >= wcur, "parent edge crosses a unit boundary");
            CapParent::World(g - wcur)
        }
    };
    let grab = |j: &cor_trace::Journal, cur: usize| -> Vec<CapturedSpan> {
        let spans = &j.spans()[cur..];
        let births = &j.births()[cur..];
        let deaths = &j.deaths()[cur..];
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| CapturedSpan {
                name: s.name,
                node: s.node,
                start: s.start.since(started),
                end: s.end.map(|e| e.since(started)),
                parent: decode(s.parent),
                birth: births[i],
                death: deaths[i],
            })
            .collect()
    };
    UnitSpans {
        world: grab(wj, wcur),
        fabric: grab(fj, fcur),
    }
}

/// What one shard measured about its chains. Counters are deltas that
/// merge by plain summation; unit traces are keyed by global chain
/// index, so gathering them across shards reconstructs the full global
/// schedule regardless of the partition.
struct ShardResult {
    /// World-construction spans before any chain unit (profiled runs
    /// only; identical in every shard, the merge keeps one).
    prologue: Option<(SimDuration, UnitSpans)>,
    /// Spawn-epoch unit per chain (profiled runs only).
    spawn_units: Vec<(usize, SpawnUnit)>,
    /// Storm-phase unit per chain: `(global chain index, trace)`.
    mig_units: Vec<(usize, UnitTrace)>,
    /// Post-storm run unit per chain.
    run_units: Vec<(usize, UnitTrace)>,
    survived: u64,
    drain_residents: u64,
    wire_bytes: u64,
    /// Per-link `(from, to) -> (msgs, bytes)` deltas.
    links: BTreeMap<(u32, u32), (u64, u64)>,
    remote_msgs: u64,
}

/// Executes `chains` (a subset of the plan, in global order) on a
/// private world and harvests per-chain measurements.
///
/// The world is full-size — all `spec.nodes` nodes and managers exist,
/// so node ids, routes, and placement geometry are identical to the
/// lock-step cell — but only this shard's processes are spawned.
fn run_shard(
    spec: FleetSpec,
    chains: Vec<(usize, Chain)>,
    drain_set: &BTreeSet<NodeId>,
    capture: bool,
) -> ShardResult {
    let topo = topology_for(spec.topology, spec.nodes);
    let wire = WireParams {
        topology: Some(topo),
        ..WireParams::default()
    };
    debug_assert!(parallel_eligible(&wire));
    let (mut world, nodes) = World::fleet(spec.nodes, CostModel::default(), wire);
    world.fabric.validate_plans().expect("a well-wired fleet");
    world.enable_journal_at(JournalLevel::Full);
    world.fabric.record_wire_sends(true);
    let managers: Vec<MigrationManager> = nodes
        .iter()
        .map(|&n| MigrationManager::new(&mut world, n))
        .collect();

    let mut pids = Vec::with_capacity(chains.len());
    let mut mig_units: Vec<(usize, UnitTrace)> = Vec::with_capacity(chains.len());
    let mut run_units: Vec<(usize, UnitTrace)> = Vec::with_capacity(chains.len());
    let mut spawn_units: Vec<(usize, SpawnUnit)> = Vec::new();
    let mut survived = 0u64;

    // Everything the world build minted before the first chain unit is
    // the prologue — identical in every shard (all managers exist in
    // all shards), so the merge keeps one copy at absolute time zero.
    let prologue = capture.then(|| {
        let len = world.clock.now().since(SimTime::ZERO);
        (len, capture_unit(&world, SimTime::ZERO, 0, 0))
    });

    // Epoch 1: spawns, in chain order — the lock-step spawn order
    // restricted to this shard, so pids come out in the same relative
    // order.
    for &(global, c) in &chains {
        let started = world.clock.now();
        let cursors = capture.then(|| journal_cursors(&world));
        pids.push(spawn_proc(&mut world, c.source));
        if let Some((wc, fc)) = cursors {
            let len = world.clock.now().since(started);
            spawn_units.push((
                global,
                SpawnUnit {
                    len,
                    spans: capture_unit(&world, started, wc, fc),
                },
            ));
        }
    }

    // Spawning is purely node-local: nothing has touched a link yet, so
    // the absolute link/remote-message counters harvested below are
    // pure storm+run deltas, the same accounting the lock-step cell's
    // post-spawn snapshot performs.
    let bytes_before = world.fabric.ledger.total();
    assert!(
        world.fabric.link_stats().is_empty() && world.fabric.stats().msgs_remote == 0,
        "spawn epoch must not touch the fabric"
    );

    // Epoch 2: the storm. One migration unit per chain, in global storm
    // order. Links are cleared at each unit start so the recorded
    // schedule is nominal.
    for (local, &(global, c)) in chains.iter().enumerate() {
        world.fabric.clear_link_busy();
        let started = world.clock.now();
        let cursors = capture.then(|| journal_cursors(&world));
        managers[c.source.0 as usize]
            .migrate_to(
                &mut world,
                &managers[c.dest.0 as usize],
                pids[local],
                Strategy::PureIou { prefetch: 1 },
            )
            .expect("storm migration");
        let len = world.clock.now().since(started);
        let sends = world
            .fabric
            .take_wire_sends()
            .into_iter()
            .map(|s| s.rebase(started))
            .collect();
        let cap = cursors.map(|(wc, fc)| capture_unit(&world, started, wc, fc));
        mig_units.push((
            global,
            UnitTrace {
                len,
                sends,
                spans: Vec::new(),
                cap,
            },
        ));
    }

    // Epoch 3: post-storm runs, in the lock-step order (destination
    // ascending, then pid): the read phase faults pages back. The
    // journal cursor attributes each unit's imag-fault spans.
    let mut run_order: Vec<usize> = (0..chains.len()).collect();
    run_order.sort_by_key(|&l| (chains[l].1.dest, chains[l].1.pid));
    for local in run_order {
        let (global, c) = chains[local];
        world.fabric.clear_link_busy();
        let started = world.clock.now();
        let spans_seen = world.journal.as_ref().map_or(0, |j| j.spans().len());
        let fcur = capture.then(|| world.fabric.journal.as_ref().map_or(0, |j| j.spans().len()));
        let report = world.run(c.dest, pids[local]).expect("post-storm run");
        if report.finished {
            survived += 1;
        }
        let len = world.clock.now().since(started);
        let sends = world
            .fabric
            .take_wire_sends()
            .into_iter()
            .map(|s| s.rebase(started))
            .collect();
        let mut spans = Vec::new();
        if let Some(journal) = &world.journal {
            for span in &journal.spans()[spans_seen..] {
                if span.name == "imag-fault" {
                    if let Some(d) = span.duration() {
                        spans.push((span.start.since(started), d));
                    }
                }
            }
        }
        let cap = fcur.map(|fc| capture_unit(&world, started, spans_seen, fc));
        run_units.push((
            global,
            UnitTrace {
                len,
                sends,
                spans,
                cap,
            },
        ));
    }

    let drain_residents = drain_set.iter().map(|&n| world.node_load(n).unwrap()).sum();
    let links = world
        .fabric
        .link_stats()
        .iter()
        .map(|(&(a, b), s)| ((a.0, b.0), (s.msgs, s.bytes)))
        .collect();
    ShardResult {
        prologue,
        spawn_units,
        mig_units,
        run_units,
        survived,
        drain_residents,
        wire_bytes: world.fabric.ledger.total() - bytes_before,
        links,
        remote_msgs: world.fabric.stats().msgs_remote,
    }
}

/// A unit's spans with absolute times and queue-wait corrections
/// applied, awaiting global index assignment.
struct MergedSpan {
    name: &'static str,
    node: Option<NodeId>,
    start: SimTime,
    end: Option<SimTime>,
    parent: CapParent,
    birth: u64,
    death: u64,
}

/// Places one unit's captured spans at its absolute start and re-imposes
/// the queue waits the replay found. The k-th non-detached send's
/// surplus `delta` pairs 1:1 with the unit's k-th `link-queue` span;
/// the lock-step world would have discovered that wait at the span's
/// close, so, per surplus:
///
/// * spans born *after* the link-queue span shift whole (start and
///   end) — the kernel past that instant is time-shift invariant;
/// * the link-queue span itself, and any span born before it but still
///   open when it closed (`death` later), ends `delta` later;
/// * spans already closed are untouched.
///
/// Surpluses compose in call order, exactly as the sequential world
/// accumulates them.
fn correct_unit(
    cap: &UnitSpans,
    start: SimTime,
    deltas: &[SendDelta],
) -> (Vec<MergedSpan>, Vec<MergedSpan>) {
    let lift = |s: &CapturedSpan| MergedSpan {
        name: s.name,
        node: s.node,
        start: start + s.start,
        end: s.end.map(|e| start + e),
        parent: s.parent,
        birth: s.birth,
        death: s.death,
    };
    let mut world: Vec<MergedSpan> = cap.world.iter().map(&lift).collect();
    let mut fabric: Vec<MergedSpan> = cap.fabric.iter().map(&lift).collect();
    let queues: Vec<usize> = cap
        .fabric
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "link-queue")
        .map(|(i, _)| i)
        .collect();
    let blocking: Vec<SimDuration> = deltas
        .iter()
        .filter(|d| !d.detached)
        .map(|d| d.delta)
        .collect();
    assert_eq!(
        queues.len(),
        blocking.len(),
        "one link-queue span per non-detached routed send"
    );
    for (k, &delta) in blocking.iter().enumerate() {
        if delta == SimDuration::ZERO {
            continue;
        }
        let lq_birth = cap.fabric[queues[k]].birth;
        let lq_death = cap.fabric[queues[k]].death;
        for s in world.iter_mut().chain(fabric.iter_mut()) {
            if s.birth > lq_birth {
                s.start += delta;
                if let Some(e) = &mut s.end {
                    *e += delta;
                }
            } else if s.birth == lq_birth || s.death > lq_death {
                if let Some(e) = &mut s.end {
                    *e += delta;
                }
            }
        }
    }
    (world, fabric)
}

/// Assembles corrected units (in lock-step journal order) into one
/// profile, re-creating exactly the layout `Profile::from_journals`
/// produces on the lock-step world: all world spans first (unit by
/// unit), then all fabric spans, with parent edges remapped from
/// unit-local coordinates to dense global indices.
fn assemble(units: Vec<(Vec<MergedSpan>, Vec<MergedSpan>)>) -> Profile {
    let mut w_off = Vec::with_capacity(units.len());
    let mut f_off = Vec::with_capacity(units.len());
    let (mut wt, mut ft) = (0usize, 0usize);
    for (w, f) in &units {
        w_off.push(wt);
        wt += w.len();
        f_off.push(ft);
        ft += f.len();
    }
    let remap = |p: CapParent, u: usize| match p {
        CapParent::None => None,
        CapParent::World(i) => Some(w_off[u] + i),
        CapParent::Fabric(j) => Some(wt + f_off[u] + j),
    };
    let mut spans = Vec::with_capacity(wt + ft);
    for (u, (w, _)) in units.iter().enumerate() {
        for s in w {
            spans.push(ProfSpan {
                source: "world",
                name: s.name,
                node: s.node,
                start: s.start,
                end: s.end,
                parent: remap(s.parent, u),
            });
        }
    }
    for (u, (_, f)) in units.iter().enumerate() {
        for s in f {
            spans.push(ProfSpan {
                source: "fabric",
                name: s.name,
                node: s.node,
                start: s.start,
                end: s.end,
                parent: remap(s.parent, u),
            });
        }
    }
    Profile::from_spans(spans)
}

/// Merges shard measurements into the cell outcome. Counters merge by
/// addition and a max over merged per-link sums. Timings go through the
/// [`LinkReplay`]: unit traces are gathered by global index and replayed
/// in the lock-step schedule order — all migrations in storm order, then
/// all runs in run order, one carried link table throughout — so every
/// cross-unit queue wait lands on exactly the duration the sequential
/// world charges. No step depends on shard count or merge order, which
/// is what makes the CSV byte-identical at every thread count. With
/// `with_profile`, the same replay pass also rebuilds the lock-step
/// span forest from the per-unit captures ([`correct_unit`] /
/// [`assemble`]).
fn merge_full(
    spec: FleetSpec,
    chains: &[Chain],
    shards: Vec<ShardResult>,
    with_profile: bool,
) -> (FleetOutcome, Option<(Profile, LinkWaits)>) {
    let mut survived = 0u64;
    let mut drain_residents_after = 0u64;
    let mut wire_bytes = 0u64;
    let mut links: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
    let mut remote_msgs = 0u64;
    let mut prologue: Option<(SimDuration, UnitSpans)> = None;
    let mut spawn: BTreeMap<usize, SpawnUnit> = BTreeMap::new();
    let mut mig: BTreeMap<usize, UnitTrace> = BTreeMap::new();
    let mut run: BTreeMap<usize, UnitTrace> = BTreeMap::new();
    for s in shards {
        if prologue.is_none() {
            prologue = s.prologue;
        }
        for (g, u) in s.spawn_units {
            spawn.insert(g, u);
        }
        for (g, t) in s.mig_units {
            mig.insert(g, t);
        }
        for (g, t) in s.run_units {
            run.insert(g, t);
        }
        survived += s.survived;
        drain_residents_after += s.drain_residents;
        wire_bytes += s.wire_bytes;
        for (link, (msgs, bytes)) in s.links {
            let e = links.entry(link).or_default();
            e.0 += msgs;
            e.1 += bytes;
        }
        remote_msgs += s.remote_msgs;
    }

    // The lock-step schedule: migrations in storm order (ascending
    // global index), then runs in (destination, pid) order, links
    // carried across every boundary — including storm → run. When
    // profiling, the cursor is first walked through the prologue and
    // the spawn units so every later unit's spans land at the lock-step
    // world's absolute instants (spawns touch no links, so this cannot
    // perturb the waits the replay finds — CSV outputs are unchanged).
    let topo = topology_for(spec.topology, spec.nodes);
    let per_byte_ns = WireParams::default().per_byte_ns;
    let mut replay = LinkReplay::new(&topo, per_byte_ns);
    let mut units: Vec<(Vec<MergedSpan>, Vec<MergedSpan>)> = Vec::new();
    if with_profile {
        let (plen, pcap) = prologue.as_ref().expect("profiled shards capture spans");
        units.push(correct_unit(pcap, SimTime::ZERO, &[]));
        replay.replay_unit(*plen, &[]);
        for su in spawn.values() {
            let start = replay.cursor();
            units.push(correct_unit(&su.spans, start, &[]));
            replay.replay_unit(su.len, &[]);
        }
    }
    let migrations = mig.len() as u64;
    let mut storm_elapsed = SimDuration::ZERO;
    for t in mig.values() {
        let start = replay.cursor();
        let corr = replay.replay_unit(t.len, &t.sends);
        storm_elapsed += t.len + corr.shift;
        if with_profile {
            let cap = t.cap.as_ref().expect("profiled shards capture spans");
            units.push(correct_unit(cap, start, &corr.deltas));
        }
    }
    let mut run_order: Vec<usize> = run.keys().copied().collect();
    run_order.sort_by_key(|&g| (chains[g].dest, chains[g].pid));
    let mut faults = LogHistogram::new();
    for g in run_order {
        let t = &run[&g];
        let start = replay.cursor();
        let corr = replay.replay_unit(t.len, &t.sends);
        for &(start_off, nominal) in &t.spans {
            faults.record_duration(nominal + corr.span_delta(start_off, start_off + nominal));
        }
        if with_profile {
            let cap = t.cap.as_ref().expect("profiled shards capture spans");
            units.push(correct_unit(cap, start, &corr.deltas));
        }
    }

    let profiled = if with_profile {
        let link_waits = replay
            .link_waits()
            .iter()
            .map(|(&l, &w)| (l, w.as_micros()))
            .collect();
        Some((assemble(units), link_waits))
    } else {
        None
    };

    let link_bytes: u64 = links.values().map(|&(_, b)| b).sum();
    let max_link_bytes = links.values().map(|&(_, b)| b).max().unwrap_or(0);
    let link_msgs: u64 = links.values().map(|&(m, _)| m).sum();
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
        mean_hops: link_msgs as f64 / remote_msgs.max(1) as f64,
    };
    (outcome, profiled)
}

/// Runs one cell sharded, fanning `shards` worlds across `pool`.
/// Byte-identical to [`crate::fleet::run_cell`] for any `shards >= 1` at
/// any thread count.
pub fn run_cell_actor(spec: FleetSpec, pool: &Pool, shards: usize) -> FleetOutcome {
    run_cell_actor_inner(spec, pool, shards, false).0
}

/// Runs one cell sharded with full span capture: returns the outcome
/// plus the merged critical-path profile and the per-directed-link queue
/// waits (µs) — all three byte-identical to
/// [`crate::fleet::run_cell_profiled`], for any shard partition at any
/// thread count.
pub fn run_cell_actor_profiled(
    spec: FleetSpec,
    pool: &Pool,
    shards: usize,
) -> (FleetOutcome, Profile, LinkWaits) {
    let (outcome, profiled) = run_cell_actor_inner(spec, pool, shards, true);
    let (profile, links) = profiled.expect("capture was requested");
    (outcome, profile, links)
}

fn run_cell_actor_inner(
    spec: FleetSpec,
    pool: &Pool,
    shards: usize,
    capture: bool,
) -> (FleetOutcome, Option<(Profile, LinkWaits)>) {
    let plan = plan_cell(spec);
    let shards = shards.clamp(1, plan.chains.len().max(1));
    // Round-robin chains over shards, preserving global order inside
    // each shard; the replay makes the outcome partition-invariant.
    let mut parts: Vec<Vec<(usize, Chain)>> = vec![Vec::new(); shards];
    for (i, &c) in plan.chains.iter().enumerate() {
        parts[i % shards].push((i, c));
    }
    let drain_set = &plan.drain_set;
    let jobs: Vec<_> = parts
        .into_iter()
        .map(|part| move || run_shard(spec, part, drain_set, capture))
        .collect();
    let results = pool.run(jobs);
    merge_full(spec, &plan.chains, results, capture)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{csv_for, gate_cells, run_cell, STORM_LOW};

    fn spec16(placement: &'static str) -> FleetSpec {
        FleetSpec {
            nodes: 16,
            topology: "torus",
            placement,
            storm: STORM_LOW,
        }
    }

    #[test]
    fn plan_matches_lockstep_destinations() {
        // The pre-pass must predict exactly the destinations the
        // lock-step storm picks; the least-loaded policy is the most
        // state-sensitive (live load counts feed every choice).
        for placement in ["round-robin", "least-loaded", "locality"] {
            let spec = spec16(placement);
            let plan = plan_cell(spec);
            let lockstep = run_cell(spec);
            assert_eq!(plan.chains.len() as u64, lockstep.migrations, "{placement}");
        }
    }

    #[test]
    fn single_shard_actor_cell_matches_lockstep_bytes() {
        let spec = spec16("least-loaded");
        let actor = csv_for(&[run_cell_actor(spec, &Pool::serial(), 1)]);
        let lockstep = csv_for(&[run_cell(spec)]);
        assert_eq!(actor, lockstep);
    }

    #[test]
    fn sharded_actor_cell_is_byte_identical_to_lockstep() {
        for placement in ["round-robin", "locality"] {
            let spec = spec16(placement);
            let lockstep = csv_for(&[run_cell(spec)]);
            for shards in [2, 3, 7] {
                let actor = csv_for(&[run_cell_actor(spec, &Pool::new(2), shards)]);
                assert_eq!(actor, lockstep, "{placement} at {shards} shards");
            }
        }
    }

    #[test]
    fn ring_cell_with_cross_chain_queueing_is_byte_identical() {
        // The ring/least-loaded cell is the regression that motivated
        // the link replay: lock-step charges one fault a ~20ms queue
        // wait behind the previous chain's reply still serializing on a
        // shared ring link. Isolated shards cannot see that wait; the
        // merge's replay must re-impose it exactly.
        let spec = FleetSpec {
            nodes: 16,
            topology: "ring",
            placement: "least-loaded",
            storm: STORM_LOW,
        };
        let lockstep = csv_for(&[run_cell(spec)]);
        for shards in [1, 2, 5] {
            let actor = csv_for(&[run_cell_actor(spec, &Pool::new(2), shards)]);
            assert_eq!(actor, lockstep, "{shards} shards");
        }
    }

    #[test]
    fn actor_gate_cells_match_lockstep_at_every_thread_count() {
        let lockstep = csv_for(&crate::fleet::fleet_outcomes_for(
            gate_cells(),
            &Pool::serial(),
        ));
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let outcomes: Vec<FleetOutcome> = gate_cells()
                .into_iter()
                .map(|spec| run_cell_actor(spec, &pool, threads))
                .collect();
            let actor = csv_for(&outcomes);
            assert_eq!(actor, lockstep, "{threads} threads");
        }
    }

    #[test]
    fn actor_profile_is_byte_identical_to_lockstep() {
        // The full observability surface — blame tables (with per-link
        // queue waits), folded flamegraph, and the exported span set —
        // must come out byte-for-byte the same whether the cell ran
        // lock-step or sharded. The ring/least-loaded cell exercises
        // the queue-wait correction (non-zero surpluses shift and
        // stretch spans); the torus cells exercise multi-hop routes.
        for (topology, placement) in [("ring", "least-loaded"), ("torus", "round-robin")] {
            let spec = FleetSpec {
                nodes: 16,
                topology,
                placement,
                storm: STORM_LOW,
            };
            let (l_out, l_prof, l_links) = crate::fleet::run_cell_profiled(spec);
            assert!(l_prof.sums_exactly());
            let l_csv = csv_for(&[l_out]);
            for shards in [1, 2, 5] {
                let (a_out, a_prof, a_links) =
                    run_cell_actor_profiled(spec, &Pool::new(2), shards);
                let tag = format!("{topology}/{placement} at {shards} shards");
                assert_eq!(csv_for(&[a_out]), l_csv, "{tag}");
                assert_eq!(a_links, l_links, "{tag}");
                assert_eq!(
                    a_prof.blame_csv(&a_links),
                    l_prof.blame_csv(&l_links),
                    "{tag}"
                );
                assert_eq!(a_prof.folded(), l_prof.folded(), "{tag}");
                assert_eq!(a_prof.jsonl(), l_prof.jsonl(), "{tag}");
            }
        }
    }

    #[test]
    fn eligibility_gate_rejects_coupled_configurations() {
        let mut w = WireParams::default();
        assert!(parallel_eligible(&w));
        w.batch_replies = true;
        assert!(!parallel_eligible(&w));
    }
}
