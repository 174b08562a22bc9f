//! Fault-path microbenchmarks: the per-page cost of servicing faults
//! under the *copy* regime (512-byte `PageData` moves at every hop) and
//! the *zero-copy* regime (interned zero frames and refcount-shared
//! transfer, this repo's default).
//!
//! Three fault shapes, each in both regimes:
//!
//! - `fill_zero_fault`: a local FillZero fault materializes a fresh zero
//!   page. Copy allocates and installs a new 512-byte frame; zero-copy
//!   installs a clone of the interned [`Frame::zeroed`] singleton.
//! - `cor_fetch_single`: a COR fetch of one imaginary page — the home
//!   node assembles an `ImagReadReply` carrying the page, the faulting
//!   node installs it. Copy snapshots the source frame into the message
//!   and copies again into a fresh frame at install
//!   ([`AddressSpace::satisfy_imaginary`]); zero-copy shares one frame
//!   end to end ([`AddressSpace::satisfy_imaginary_frame`]).
//! - `cor_fetch_prefetch4`: the same round trip carrying the faulting
//!   page plus 4 prefetched neighbours per reply.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cor_ipc::{Message, MsgItem, MsgKind, PortId};
use cor_mem::page::page_from_bytes;
use cor_mem::{AddressSpace, Disk, Frame, PageNum, PageRange, SegmentId, VAddr};

const FAULTS: u64 = 256;

/// A faulting-side space with `n` imaginary pages backed by segment 7.
fn imaginary_space(n: u64) -> (AddressSpace, Disk) {
    let mut space = AddressSpace::new();
    let mut disk = Disk::new();
    space.validate(VAddr(0), n * cor_mem::PAGE_SIZE).unwrap();
    space.map_imaginary(
        PageRange::new(PageNum(0), PageNum(n)),
        SegmentId(7),
        0,
        &mut disk,
    );
    (space, disk)
}

/// A home-node space holding `n` resident content pages.
fn home_space(n: u64) -> (AddressSpace, Disk) {
    let mut space = AddressSpace::new();
    let mut disk = Disk::new();
    for p in 0..n {
        let frame = Frame::new(page_from_bytes(&p.to_le_bytes()));
        space.install_page(PageNum(p), frame, &mut disk);
    }
    (space, disk)
}

fn bench_fill_zero(c: &mut Criterion) {
    let mut g = c.benchmark_group("fill_zero_fault");
    g.bench_function("copy", |b| {
        b.iter_batched(
            || imaginary_space(FAULTS),
            |(mut space, mut disk)| {
                for p in 0..FAULTS {
                    // The copy regime: materialize by allocating a fresh
                    // zeroed 512-byte frame per fault.
                    space.install_page(
                        PageNum(p),
                        Frame::new(cor_mem::page::zero_page()),
                        &mut disk,
                    );
                }
                black_box(space.resident_pages().len())
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("zero_copy", |b| {
        b.iter_batched(
            || imaginary_space(FAULTS),
            |(mut space, mut disk)| {
                for p in 0..FAULTS {
                    // The real FillZero service path: clone the interned
                    // zero frame, defer the copy to first write.
                    space.install_page(PageNum(p), Frame::zeroed(), &mut disk);
                }
                black_box(space.resident_pages().len())
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// One COR round trip: the home node assembles a reply message carrying
/// `batch` pages starting at `page`, and the faulting node installs them.
/// `share` selects the regime: frame sharing versus snapshot-and-copy.
fn cor_round_trip(
    home: &AddressSpace,
    home_disk: &mut Disk,
    dest: &mut AddressSpace,
    dest_disk: &mut Disk,
    page: u64,
    batch: u64,
    share: bool,
) {
    let frames: Vec<Frame> = (page..page + batch)
        .map(|p| {
            let f = home.peek_frame(PageNum(p), home_disk).expect("home page");
            if share {
                f
            } else {
                Frame::new(f.snapshot())
            }
        })
        .collect();
    let mut msg = Message::new(MsgKind::ImagReadReply, PortId(9));
    msg.items.push(MsgItem::Pages {
        base_page: page,
        frames,
    });
    for item in msg.items {
        let MsgItem::Pages { base_page, frames } = item else {
            continue;
        };
        for (i, frame) in frames.into_iter().enumerate() {
            let p = PageNum(base_page + i as u64);
            if share {
                dest.satisfy_imaginary_frame(p, frame, dest_disk).unwrap();
            } else {
                dest.satisfy_imaginary(p, frame.snapshot(), dest_disk).unwrap();
            }
        }
    }
}

fn bench_cor_fetch(c: &mut Criterion, group: &str, batch: u64) {
    let mut g = c.benchmark_group(group);
    for (regime, share) in [("copy", false), ("zero_copy", true)] {
        g.bench_function(regime, |b| {
            b.iter_batched(
                || {
                    let (home, home_disk) = home_space(FAULTS);
                    let dest = imaginary_space(FAULTS);
                    (home, home_disk, dest)
                },
                |(home, mut home_disk, (mut dest, mut dest_disk))| {
                    let mut p = 0;
                    while p < FAULTS {
                        let n = batch.min(FAULTS - p);
                        cor_round_trip(
                            &home,
                            &mut home_disk,
                            &mut dest,
                            &mut dest_disk,
                            p,
                            n,
                            share,
                        );
                        p += n;
                    }
                    black_box(dest.resident_pages().len())
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn bench_cor_single(c: &mut Criterion) {
    bench_cor_fetch(c, "cor_fetch_single", 1);
}

fn bench_cor_prefetch(c: &mut Criterion) {
    // The faulting page plus 4 prefetched neighbours per reply.
    bench_cor_fetch(c, "cor_fetch_prefetch4", 5);
}

criterion_group!(
    benches,
    bench_fill_zero,
    bench_cor_single,
    bench_cor_prefetch
);
criterion_main!(benches);
