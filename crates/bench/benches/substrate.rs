//! Substrate microbenchmarks: the primitive operations every experiment
//! rests on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cor_ipc::protocol;
use cor_ipc::{Message, MsgItem, MsgKind, NodeId, PortId, PortRegistry};
use cor_kernel::{CostModel, World};
use cor_mem::page::{page_from_bytes, Frame};
use cor_mem::resident::ResidentTracker;
use cor_mem::SegmentId;
use cor_mem::{AddressSpace, Disk, PageNum, VAddr, PAGE_SIZE};
use cor_net::{Topology, WireParams};
use cor_sim::Pcg32;

fn bench_rng(c: &mut Criterion) {
    c.bench_function("pcg32_next_u32", |b| {
        let mut rng = Pcg32::new(42);
        b.iter(|| black_box(rng.next_u32()));
    });
    c.bench_function("pcg32_shuffle_1k", |b| {
        let mut rng = Pcg32::new(42);
        let mut v: Vec<u32> = (0..1024).collect();
        b.iter(|| {
            rng.shuffle(&mut v);
            black_box(v[0])
        });
    });
}

/// Lisp-T's frame budget (Table 4-2: 372 resident pages).
const LISP_FRAME_BUDGET: usize = 372;

/// ~4200 materialized pages scattered like the Lisp heap, 4 GB validated.
/// Under `budget`, every install past it pages the LRU page out to the
/// returned disk, as the Lisp builds do.
fn lisp_sized_space(budget: Option<usize>) -> (AddressSpace, Disk) {
    let mut space = AddressSpace::new();
    space.set_frame_budget(budget);
    let mut disk = Disk::new();
    space.validate(VAddr(0), 4_228_129_280).unwrap();
    let mut rng = Pcg32::new(7);
    let mut page = 10_000u64;
    for _ in 0..600 {
        page += rng.range(3, 40);
        for i in 0..7 {
            space.install_page(PageNum(page + i), Frame::zeroed(), &mut disk);
        }
        page += 7;
    }
    (space, disk)
}

fn bench_amap(c: &mut Criterion) {
    let (space, _disk) = lisp_sized_space(None);
    c.bench_function("amap_construction_lisp_sized", |b| {
        b.iter(|| black_box(space.amap().len()));
    });
    let amap = space.amap();
    c.bench_function("amap_lookup", |b| {
        let mut rng = Pcg32::new(9);
        b.iter(|| {
            let p = PageNum(rng.range(0, 2_000_000));
            black_box(amap.lookup(p))
        });
    });
}

/// The mem- and core-layer halves of a Lisp-T trial: building the sparse
/// space under its frame budget (install, LRU touch, page-out), and
/// excising it from one node and inserting it on the other (AMap walk,
/// RIMAS collapse, run-by-run reinstall).
fn bench_lisp(c: &mut Criterion) {
    use cor_migrate::{excise_process, insert_process};
    c.bench_function("lisp_t_build", |b| {
        b.iter(|| {
            let (space, disk) = lisp_sized_space(Some(LISP_FRAME_BUDGET));
            black_box((space.pageouts(), disk.blocks_in_use()))
        });
    });
    c.bench_function("lisp_t_excise_insert", |b| {
        b.iter_batched(
            || {
                let (mut world, a, b) = World::testbed();
                let (space, disk) = lisp_sized_space(Some(LISP_FRAME_BUDGET));
                world.node_mut(a).unwrap().disk = disk;
                let trace =
                    cor_kernel::program::Trace::new(vec![cor_kernel::program::Op::Terminate]);
                let pid = world.create_process(a, "lisp", space, trace).unwrap();
                let dest = world.ports.allocate(b);
                (world, a, b, pid, dest)
            },
            |(mut world, a, b, pid, dest)| {
                let (excised, _) = excise_process(&mut world, a, pid, dest).unwrap();
                let (_, report) = insert_process(&mut world, b, excised).unwrap();
                black_box(report.carried_pages)
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_space_ops(c: &mut Criterion) {
    c.bench_function("fill_zero_fault_service", |b| {
        b.iter_batched(
            || {
                let mut s = AddressSpace::new();
                s.validate(VAddr(0), 4096 * PAGE_SIZE).unwrap();
                (s, Disk::new(), 0u64)
            },
            |(mut s, mut d, _)| {
                for i in 0..256 {
                    s.fill_zero(PageNum(i), &mut d).unwrap();
                }
                black_box(s.stats().real_bytes)
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("cow_write_after_share", |b| {
        b.iter_batched(
            || {
                let mut s = AddressSpace::new();
                let mut d = Disk::new();
                let frames: Vec<Frame> = (0..64)
                    .map(|i| Frame::new(page_from_bytes(&[i as u8])))
                    .collect();
                let aliases = frames.clone();
                for (i, f) in frames.into_iter().enumerate() {
                    s.install_page(PageNum(i as u64), f, &mut d);
                }
                (s, aliases)
            },
            |(mut s, _aliases)| {
                for i in 0..64u64 {
                    s.check_write(PageNum(i)).unwrap();
                    s.write(PageNum(i).base(), b"dirty").unwrap();
                }
                black_box(s.cow_copies())
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("lru_tracker_touch", |b| {
        let mut rs = ResidentTracker::with_capacity(256);
        let mut rng = Pcg32::new(3);
        b.iter(|| {
            let victim = rs.touch(PageNum(rng.range(0, 4096)));
            black_box(victim)
        });
    });
}

fn bench_ipc(c: &mut Criterion) {
    c.bench_function("port_enqueue_dequeue", |b| {
        let mut ports = PortRegistry::new();
        let p = ports.allocate(NodeId(0));
        b.iter(|| {
            ports.enqueue(p, Message::new(MsgKind::User(1), p)).unwrap();
            black_box(ports.dequeue(p).unwrap().is_some())
        });
    });
    c.bench_function("settle_64_node_torus", |b| {
        let (mut w, faulter, pager, seg) = torus_fault_world();
        let backing = w.segs.backing_port(seg).unwrap();
        let mut offset = 0;
        b.iter(|| {
            offset = (offset + 1) % 64;
            let req = protocol::imag_read_request(backing, pager, seg, offset, 1)
                .with_seq(offset + 1)
                .with_no_ious(true);
            w.send_from(faulter, req).unwrap();
            w.settle().unwrap();
            black_box(w.ports.dequeue(pager).unwrap().is_some())
        });
    });
    c.bench_function("protocol_roundtrip", |b| {
        b.iter(|| {
            let m = protocol::imag_read_request(PortId(1), PortId(2), cor_mem::SegmentId(7), 99, 4);
            black_box(protocol::parse(&m).is_some())
        });
    });
    c.bench_function("rimas_message_wire_size_877_pages", |b| {
        let frames: Vec<Frame> = (0..877).map(|_| Frame::zeroed()).collect();
        let msg = Message::new(MsgKind::Rimas, PortId(0)).push(MsgItem::Pages {
            base_page: 0,
            frames,
        });
        b.iter(|| black_box(msg.wire_size()));
    });
}

/// A 64-node torus world whose node 0 has a pager port and owes pages of
/// a segment cached at node 27's NetMsgServer (four hops away): the
/// dispatch layer of one remote imaginary fault, without a whole storm.
fn torus_fault_world() -> (World, NodeId, PortId, SegmentId) {
    let wire = WireParams {
        topology: Some(Topology::torus(8, 8)),
        ..WireParams::default()
    };
    let (mut w, nodes) = World::fleet(64, CostModel::default(), wire);
    let (faulter, home) = (nodes[0], nodes[27]);
    let nms = w.fabric.nms_port(home).unwrap();
    let seg = w.segs.create(nms, 64);
    let frames = (0..64).map(|_| Frame::zeroed()).collect();
    w.fabric.install_cache(home, seg, frames).unwrap();
    let pager = w.ports.allocate(faulter);
    (w, faulter, pager, seg)
}

/// Pool scaling on a real matrix cell: one Minprog IOU trial per worker,
/// serial vs pooled. Perfect scaling holds per-replica time flat as the
/// replica count grows with the thread count.
fn bench_pool_scaling(c: &mut Criterion) {
    use cor_bench::full_trial;
    use cor_migrate::Strategy;
    let mut g = c.benchmark_group("pool_scaling");
    g.sample_size(10);
    let w = cor_workloads::minprog::workload();
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    for (name, n) in [("serial_1x", 1), ("pooled_nx", threads)] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(full_trial(&w, Strategy::PureIou { prefetch: 1 }, n)))
        });
    }
    g.finish();
}

criterion_group!(
    substrate,
    bench_rng,
    bench_amap,
    bench_lisp,
    bench_space_ops,
    bench_ipc,
    bench_pool_scaling
);
criterion_main!(substrate);
