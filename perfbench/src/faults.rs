//! `fault-service`: the saturation ladder through `saturation::run_cell`
//! — closed loop, the open-loop scan ladder and the relayed hot ladder,
//! each in the base and hot-path configurations — with every cell's
//! request count scaled by [`REQUEST_SCALE`]. The open loop offers fixed
//! virtual rates below and past the knee, so past it the backlog grows.
//! One op is one served fault.
//!
//! Why: no build and no migration; all the work is NetMsgServer fault
//! service (batching, pending-interest coalescing, reply dedup).

use std::time::Instant;

use cor_experiments::saturation::{self, SatOutcome, SatSpec, SAT_SEED};
use cor_ipc::message::{Message, MsgItem, MsgKind};
use cor_ipc::port::PortId;
use cor_ipc::protocol::{self, ProtocolMsg};
use cor_ipc::NodeId;
use cor_kernel::{CostModel, World};
use cor_mem::page::{frame_pool, page_from_bytes, Frame};
use cor_mem::space::SegmentId;
use cor_net::WireParams;
use cor_pool::Pool;
use cor_sim::{JournalLevel, Pcg32, SimDuration, SimTime};
use cor_trace::LogHistogram;

use crate::layers::Layers;
use crate::{digest, Bench, Checks, Pass, Vt};

/// Multiplier on every cell's `requests`, so one pass is long enough to
/// time and past-knee backlogs grow well beyond the batch window.
const REQUEST_SCALE: u64 = 32;

/// Mirrors of `saturation`'s private constants: pages cached at the
/// server, the hot-set size, and the harness's sequence-number base.
const SEG_PAGES: u64 = 64;
const HOT_PAGES: u64 = 4;
const SEQ_BASE: u64 = 1_000_000;

/// Acceptance ratio for the capacity ladder: achieved ≥ 95 % of offered.
const KEEP_UP: f64 = 0.95;

struct Rig {
    world: World,
    client: NodeId,
    target_port: PortId,
    target_seg: SegmentId,
    reply_port: PortId,
}

/// Builds the serving world as `saturation::build` does.
fn rig(spec: SatSpec, traced: bool) -> Rig {
    let wire = if spec.optimized {
        WireParams::default().hot_path()
    } else {
        WireParams::default()
    };
    let n = if spec.relay { 3 } else { 2 };
    let (mut world, nodes) = World::fleet(n, CostModel::default(), wire);
    if traced {
        world.enable_journal_at(JournalLevel::Full);
    }
    let client = nodes[0];
    let server = *nodes.last().expect("nodes exist");
    if spec.optimized {
        world.fabric.ledger.set_coarse(true);
    }
    let server_nms = world.fabric.nms_port(server).expect("server registered");
    let frames: Vec<Frame> = (0..SEG_PAGES)
        .map(|i| Frame::new(page_from_bytes(&i.to_le_bytes())))
        .collect();
    let seg = world.segs.create(server_nms, SEG_PAGES);
    world.segs.add_refs(seg, SEG_PAGES).expect("fresh segment");
    world
        .fabric
        .install_cache(server, seg, frames)
        .expect("server registered");
    let reply_port = world.ports.allocate(client);
    let (target_port, target_seg) = if spec.relay {
        let relay = nodes[1];
        let scratch = world.ports.allocate(relay);
        let iou = Message::new(MsgKind::User(0x5A7), scratch)
            .push(MsgItem::Iou {
                base_page: 0,
                seg,
                seg_offset: 0,
                pages: SEG_PAGES,
            })
            .with_no_ious(true);
        world.send_from(server, iou).expect("iou delivery");
        let delivered = world
            .ports
            .dequeue(scratch)
            .expect("scratch port exists")
            .expect("iou delivered");
        let stand_in = match delivered.items.first() {
            Some(MsgItem::Iou { seg, .. }) => *seg,
            other => panic!("expected a rewritten IOU, got {other:?}"),
        };
        (
            world.fabric.nms_port(relay).expect("relay registered"),
            stand_in,
        )
    } else {
        (server_nms, seg)
    };
    Rig {
        world,
        client,
        target_port,
        target_seg,
        reply_port,
    }
}

/// One cell driven as `saturation::run_cell` drives it, with the request
/// injection (`Fabric::send_detached`, or `World::send_from` in the
/// closed loop), service rounds (`World::settle`) and reply parsing
/// (`protocol::parse_owned`) timed. Returns the outcome, the virtual
/// seconds from first arrival to last completion, and the world.
fn mirror_cell(spec: SatSpec, traced: bool, t: &mut Layers) -> (SatOutcome, f64, World) {
    let mut b = rig(spec, traced);
    let mut rng = Pcg32::with_stream(SAT_SEED, 0x10AD);
    let offsets: Vec<u64> = (0..spec.requests)
        .map(|i| match spec.pattern {
            "hot" => rng.range(0, HOT_PAGES),
            _ => i % SEG_PAGES,
        })
        .collect();
    let (mut inject, mut settle, mut parse) = (0.0, 0.0, 0.0);
    let timed = |acc: &mut f64, start: Instant| *acc += start.elapsed().as_secs_f64();
    let mut hist = LogHistogram::new();
    let t0 = b.world.clock.now();
    let mut served = 0u64;
    let mut last_completion = t0;
    let arrival_span;
    if spec.mode == "closed" {
        for (i, &offset) in offsets.iter().enumerate() {
            let start = b.world.clock.now();
            let req =
                protocol::imag_read_request(b.target_port, b.reply_port, b.target_seg, offset, 1)
                    .with_seq(SEQ_BASE + i as u64)
                    .with_no_ious(true);
            let s = Instant::now();
            b.world.send_from(b.client, req).expect("request send");
            timed(&mut inject, s);
            let s = Instant::now();
            b.world.settle().expect("service round");
            timed(&mut settle, s);
            let reply = b
                .world
                .ports
                .dequeue(b.reply_port)
                .expect("reply port exists")
                .expect("closed-loop reply arrived");
            let s = Instant::now();
            let parsed = protocol::parse_owned(reply);
            timed(&mut parse, s);
            match parsed {
                Ok(ProtocolMsg::ImagReadReply { frames, .. }) => frame_pool::give(frames),
                other => panic!("expected a read reply, got {other:?}"),
            }
            last_completion = b.world.clock.now();
            hist.record_duration(last_completion.since(start));
            served += 1;
        }
        arrival_span = last_completion.since(t0);
    } else {
        let interval = SimDuration::from_micros(1_000_000 / spec.offered_fps.max(1));
        arrival_span = interval.saturating_mul(spec.requests.saturating_sub(1));
        let arrival = |i: u64| -> SimTime { t0 + interval.saturating_mul(i) };
        let mut next = 0u64;
        let mut outstanding: Vec<(u64, SimTime)> = Vec::new();
        while served < spec.requests {
            while next < spec.requests && arrival(next) <= b.world.clock.now() {
                let offset = offsets[next as usize];
                let req = protocol::imag_read_request(
                    b.target_port,
                    b.reply_port,
                    b.target_seg,
                    offset,
                    1,
                )
                .with_seq(SEQ_BASE + next)
                .with_no_ious(true);
                let s = Instant::now();
                b.world
                    .fabric
                    .send_detached(
                        &mut b.world.clock,
                        &mut b.world.ports,
                        &mut b.world.segs,
                        b.client,
                        req,
                    )
                    .expect("request injection");
                timed(&mut inject, s);
                outstanding.push((offset, arrival(next)));
                next += 1;
            }
            if outstanding.is_empty() {
                let at = arrival(next);
                let now = b.world.clock.now();
                if at > now {
                    b.world.clock.advance(at.since(now));
                }
                continue;
            }
            let s = Instant::now();
            b.world.settle().expect("service round");
            timed(&mut settle, s);
            while let Some(msg) = b.world.ports.dequeue(b.reply_port).expect("reply port") {
                let s = Instant::now();
                let parsed = protocol::parse_owned(msg);
                timed(&mut parse, s);
                let Ok(ProtocolMsg::ImagReadReply {
                    seg: rseg,
                    offset: ro,
                    frames,
                    ..
                }) = parsed
                else {
                    panic!("unexpected message on the reply port");
                };
                let n = frames.len() as u64;
                frame_pool::give(frames);
                let now = b.world.clock.now();
                outstanding.retain(|&(o, at)| {
                    let covered = rseg == b.target_seg && o >= ro && o < ro + n;
                    if covered {
                        hist.record_duration(now.since(at));
                        served += 1;
                        last_completion = now;
                    }
                    !covered
                });
            }
        }
    }
    t.add("net.inject_s", inject);
    t.add("net.settle_s", settle);
    t.add("ipc.parse_s", parse);
    let stats = b.world.fabric.stats().clone();
    t.count("net.msgs", stats.msgs_total);
    t.count("net.batched_replies", stats.batched_replies);
    t.count("raw.coalesced", stats.coalesced_requests);
    t.count("raw.requests", spec.requests);
    t.count(
        "net.dedup_hits",
        b.world.fabric.reliability.dedup_hits.get(),
    );
    t.count(
        "net.retransmits",
        b.world.fabric.reliability.retransmissions.get(),
    );
    let span_s = last_completion.since(t0).as_secs_f64();
    let outcome = SatOutcome {
        spec,
        served,
        offered_fps: if spec.mode == "closed" {
            served as f64 / arrival_span.as_secs_f64().max(f64::MIN_POSITIVE)
        } else {
            spec.offered_fps as f64
        },
        achieved_fps: served as f64 / span_s.max(f64::MIN_POSITIVE),
        p50_us: hist.p50(),
        p95_us: hist.p95(),
        p99_us: hist.p99(),
        batched_replies: stats.batched_replies,
        batched_pages: stats.batched_pages,
        coalesced: stats.coalesced_requests,
        wire_bytes: b.world.fabric.ledger.total(),
    };
    (outcome, span_s, b.world)
}

/// The outcome's `saturation-csv` row.
fn row(o: &SatOutcome) -> String {
    saturation::csv_for(std::slice::from_ref(o))
        .lines()
        .nth(1)
        .expect("one data row")
        .to_string()
}

fn scaled_cells() -> Vec<SatSpec> {
    saturation::cells()
        .into_iter()
        .map(|c| SatSpec {
            requests: c.requests * REQUEST_SCALE,
            ..c
        })
        .collect()
}

/// The highest offered rate on the default-wire open scan ladder at
/// which the server keeps up (achieved ≥ [`KEEP_UP`] × offered). Built
/// from counts only, not from histogram percentiles.
fn capacity(outcomes: &[SatOutcome]) -> f64 {
    outcomes
        .iter()
        .filter(|o| o.spec.mode == "open" && o.spec.pattern == "scan" && !o.spec.optimized)
        .filter(|o| o.achieved_fps >= KEEP_UP * o.offered_fps)
        .map(|o| o.offered_fps)
        .fold(0.0, f64::max)
}

pub struct FaultService {
    specs: Vec<SatSpec>,
    expected: Vec<String>,
    requests: u64,
    digest: u64,
    vt: Vt,
}

impl Bench for FaultService {
    fn setup(_seed: u64, pool: Pool, checks: &mut Checks) -> Self {
        let specs = scaled_cells();
        let library = saturation::saturation_outcomes_for(specs.clone(), &pool);
        let mirrored = pool.run(
            specs
                .iter()
                .map(|&s| {
                    move || {
                        let (o, span_s, world) = mirror_cell(s, false, &mut Layers::default());
                        (o, span_s, world.fabric.stats().cpu_total.as_secs_f64())
                    }
                })
                .collect(),
        );
        let expected: Vec<String> = library.iter().map(row).collect();
        let mut vt = Vt::default();
        let (mut served, mut requests) = (0, 0);
        for ((lib, want), (m, span_s, cpu)) in library.iter().zip(&expected).zip(&mirrored) {
            let label = lib.spec.label();
            checks.require(row(m) == *want, || {
                format!("{label}: traced driver row differs")
            });
            checks.require(lib.served == lib.spec.requests, || {
                format!("{label}: served {} of {}", lib.served, lib.spec.requests)
            });
            vt.e2e_s += span_s;
            vt.wire_bytes += lib.wire_bytes;
            vt.msg_cpu_s += cpu;
            served += lib.served;
            requests += lib.spec.requests;
        }
        vt.capacity_fps = capacity(&library);
        vt.survived_frac = served as f64 / requests as f64;
        FaultService {
            specs,
            digest: digest(&expected),
            expected,
            requests,
            vt,
        }
    }

    fn pass(&self, pool: Pool) -> Pass {
        let outcomes = saturation::saturation_outcomes_for(self.specs.clone(), &pool);
        let rows: Vec<String> = outcomes.iter().map(row).collect();
        let failed = outcomes
            .iter()
            .zip(rows.iter().zip(&self.expected))
            .filter(|(o, (got, want))| o.served != o.spec.requests || got != want)
            .map(|(o, _)| o.spec.requests)
            .sum();
        Pass {
            ops: outcomes.iter().map(|o| o.served).sum(),
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
                        let (o, _, world) = mirror_cell(s, true, &mut t);
                        let exact = t.profile(&world);
                        t.add("busy_s", start.elapsed().as_secs_f64());
                        (o, exact, t)
                    }
                })
                .collect(),
        );
        let mut rows = Vec::new();
        let (mut ops, mut failed) = (0, 0);
        for ((o, exact, t), want) in results.into_iter().zip(&self.expected) {
            let r = row(&o);
            if !exact || o.served != o.spec.requests || r != *want {
                failed += o.spec.requests;
            }
            ops += o.served;
            rows.push(r);
            layers.merge(t);
        }
        Pass {
            ops,
            failed,
            digest: digest(&rows),
        }
    }

    fn ops_per_pass(&self) -> u64 {
        self.requests
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn vt(&self) -> Vt {
        self.vt
    }

    fn sizes(&self) -> String {
        format!(
            "{} faults per pass over {} ladder cells (requests x{REQUEST_SCALE})",
            self.requests,
            self.specs.len()
        )
    }
}
