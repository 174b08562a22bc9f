//! Property tests on the virtual-memory substrate: AMap invariants,
//! data-path roundtrips, LRU and disk model conformance.

use std::collections::{BTreeMap, HashMap, HashSet};

use proptest::prelude::*;

use cor_mem::amap::Access;
use cor_mem::page::PAGE_SIZE;
use cor_mem::resident::ResidentTracker;
use cor_mem::{AddressSpace, Disk, DiskAddr, Fault, PageNum, PageRange, SegmentId, VAddr};

/// Drives a page to readiness like a minimal pager (no imaginary service).
fn ready(space: &mut AddressSpace, disk: &mut Disk, page: PageNum) {
    loop {
        match space.check_write(page) {
            Ok(()) => return,
            Err(Fault::FillZero { page }) => space.fill_zero(page, disk).unwrap(),
            Err(Fault::DiskIn { page, .. }) => space.page_in(page, disk).unwrap(),
            Err(f) => panic!("unexpected fault {f:?}"),
        }
    }
}

#[derive(Debug, Clone)]
enum SpaceOp {
    Validate(u64, u64),
    Touch(u64),
    PageOut(u64),
    MapImag(u64, u64),
}

fn space_ops() -> impl Strategy<Value = Vec<SpaceOp>> {
    let op = prop_oneof![
        (0u64..256, 1u64..32).prop_map(|(p, n)| SpaceOp::Validate(p, n)),
        (0u64..256).prop_map(SpaceOp::Touch),
        (0u64..256).prop_map(SpaceOp::PageOut),
        (0u64..256, 1u64..8).prop_map(|(p, n)| SpaceOp::MapImag(p, n)),
    ];
    prop::collection::vec(op, 1..80)
}

/// The stamp-based LRU tracker the linked-list tracker replaced: a
/// page -> recency-stamp table plus its inverse index. Kept as the model
/// the production tracker must agree with.
#[derive(Default)]
struct StampTracker {
    stamps: HashMap<PageNum, u64>,
    order: BTreeMap<u64, PageNum>,
    next_stamp: u64,
    capacity: Option<usize>,
}

impl StampTracker {
    fn touch(&mut self, page: PageNum) -> Option<PageNum> {
        self.refresh(page);
        let cap = self.capacity?;
        if self.stamps.len() <= cap {
            return None;
        }
        let (&stamp, &victim) = self.order.iter().next()?;
        self.order.remove(&stamp);
        self.stamps.remove(&victim);
        Some(victim)
    }

    fn refresh(&mut self, page: PageNum) {
        if let Some(old) = self.stamps.insert(page, self.next_stamp) {
            self.order.remove(&old);
        }
        self.order.insert(self.next_stamp, page);
        self.next_stamp += 1;
    }

    fn remove(&mut self, page: PageNum) -> bool {
        match self.stamps.remove(&page) {
            Some(stamp) => {
                self.order.remove(&stamp);
                true
            }
            None => false,
        }
    }

    fn clear(&mut self) {
        self.stamps.clear();
        self.order.clear();
    }

    fn pages(&self) -> Vec<PageNum> {
        let mut v: Vec<PageNum> = self.stamps.keys().copied().collect();
        v.sort_unstable();
        v
    }

    fn pages_lru_order(&self) -> Vec<PageNum> {
        self.order.values().copied().collect()
    }
}

#[derive(Debug, Clone)]
enum TrackerOp {
    Touch(u64),
    Refresh(u64),
    Remove(u64),
    SetCapacity(Option<usize>),
    Clear,
}

fn tracker_ops() -> impl Strategy<Value = Vec<TrackerOp>> {
    let op = prop_oneof![
        (0u64..48).prop_map(TrackerOp::Touch),
        (0u64..48).prop_map(TrackerOp::Touch),
        (0u64..48).prop_map(TrackerOp::Refresh),
        (0u64..48).prop_map(TrackerOp::Remove),
        (0usize..12).prop_map(|c| TrackerOp::SetCapacity((c > 0).then_some(c))),
        (0u8..16).prop_map(|_| TrackerOp::Clear),
    ];
    prop::collection::vec(op, 1..300)
}

#[derive(Debug, Clone)]
enum DiskOp {
    WriteNew(u8),
    Write(u64, u8),
    Read(u64),
    ReadFrame(u64),
    TakeFrame(u64),
    Free(u64),
}

fn disk_ops() -> impl Strategy<Value = Vec<DiskOp>> {
    // Addresses range past the allocation cursor, so misses are exercised.
    let op = prop_oneof![
        any::<u8>().prop_map(DiskOp::WriteNew),
        (0u64..48, any::<u8>()).prop_map(|(a, b)| DiskOp::Write(a, b)),
        (0u64..48).prop_map(DiskOp::Read),
        (0u64..48).prop_map(DiskOp::ReadFrame),
        (0u64..48).prop_map(DiskOp::TakeFrame),
        (0u64..48).prop_map(DiskOp::Free),
    ];
    prop::collection::vec(op, 1..200)
}

proptest! {
    /// The linked-list tracker nominates the same victims, and lists the
    /// same pages in the same orders, as the stamp-based model over any
    /// mix of touches, refreshes, removals, budget changes and clears.
    #[test]
    fn tracker_matches_stamp_model(ops in tracker_ops()) {
        let mut tracker = ResidentTracker::unbounded();
        let mut model = StampTracker::default();
        for op in ops {
            match op {
                TrackerOp::Touch(p) => {
                    prop_assert_eq!(tracker.touch(PageNum(p)), model.touch(PageNum(p)));
                }
                TrackerOp::Refresh(p) => {
                    tracker.refresh(PageNum(p));
                    model.refresh(PageNum(p));
                }
                TrackerOp::Remove(p) => {
                    prop_assert_eq!(tracker.remove(PageNum(p)), model.remove(PageNum(p)));
                }
                TrackerOp::SetCapacity(c) => {
                    tracker.set_capacity(c);
                    model.capacity = c;
                }
                TrackerOp::Clear => {
                    tracker.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(tracker.len(), model.stamps.len());
            prop_assert_eq!(tracker.pages_lru_order(), model.pages_lru_order());
        }
        prop_assert_eq!(tracker.pages(), model.pages());
        for p in 0..48u64 {
            prop_assert_eq!(tracker.contains(PageNum(p)), model.stamps.contains_key(&PageNum(p)));
        }
    }

    /// The slab disk returns the same data, misses and counts as a
    /// `BTreeMap` keyed by address with a monotonic allocation cursor.
    #[test]
    fn disk_matches_btreemap_model(ops in disk_ops()) {
        use cor_mem::page::page_from_bytes;
        let mut disk = Disk::new();
        let mut model: BTreeMap<u64, u8> = BTreeMap::new();
        let (mut next, mut reads, mut writes) = (0u64, 0u64, 0u64);
        let first = |data: Option<cor_mem::PageData>| data.map(|d| d[0]);
        for op in ops {
            match op {
                DiskOp::WriteNew(b) => {
                    prop_assert_eq!(disk.write_new(page_from_bytes(&[b])), DiskAddr(next));
                    model.insert(next, b);
                    next += 1;
                    writes += 1;
                }
                DiskOp::Write(a, b) => {
                    let hit = model.get_mut(&a).map(|v| *v = b).is_some();
                    prop_assert_eq!(disk.write(DiskAddr(a), page_from_bytes(&[b])), hit);
                    writes += u64::from(hit);
                }
                DiskOp::Read(a) => {
                    let want = model.get(&a).copied();
                    prop_assert_eq!(first(disk.read(DiskAddr(a))), want);
                    reads += u64::from(want.is_some());
                }
                DiskOp::ReadFrame(a) => {
                    let want = model.get(&a).copied();
                    let got = disk.read_frame(DiskAddr(a)).map(|f| f.snapshot()[0]);
                    prop_assert_eq!(got, want);
                    reads += u64::from(want.is_some());
                }
                DiskOp::TakeFrame(a) => {
                    let want = model.remove(&a);
                    let got = disk.take_frame(DiskAddr(a)).map(|f| f.snapshot()[0]);
                    prop_assert_eq!(got, want);
                    reads += u64::from(want.is_some());
                }
                DiskOp::Free(a) => {
                    prop_assert_eq!(disk.free(DiskAddr(a)), model.remove(&a).is_some());
                }
            }
            prop_assert_eq!(disk.blocks_in_use(), model.len());
            prop_assert_eq!(disk.bytes_in_use(), model.len() as u64 * PAGE_SIZE);
            prop_assert_eq!(disk.reads(), reads);
            prop_assert_eq!(disk.writes(), writes);
        }
    }

    /// After any sequence of operations, the constructed AMap satisfies
    /// its structural invariants and agrees with per-page classification.
    #[test]
    fn amap_always_valid_and_consistent(ops in space_ops()) {
        let mut space = AddressSpace::new();
        let mut disk = Disk::new();
        let mut seg_count = 0u64;
        for op in ops {
            match op {
                SpaceOp::Validate(p, n) => {
                    space.validate_pages(PageRange::new(PageNum(p), PageNum(p + n)));
                }
                SpaceOp::Touch(p) => {
                    if space.classify(PageNum(p)) == Access::RealZero {
                        ready(&mut space, &mut disk, PageNum(p));
                    }
                }
                SpaceOp::PageOut(p) => space.page_out(PageNum(p), &mut disk),
                SpaceOp::MapImag(p, n) => {
                    seg_count += 1;
                    space.map_imaginary(
                        PageRange::new(PageNum(p), PageNum(p + n)),
                        SegmentId(seg_count),
                        0,
                        &mut disk,
                    );
                }
            }
        }
        let amap = space.amap();
        prop_assert!(amap.verify().is_ok(), "{:?}", amap.verify());
        for p in 0..300u64 {
            let page = PageNum(p);
            prop_assert_eq!(amap.lookup(page).0, space.classify(page), "page {}", p);
        }
        // Byte accounting agrees between the AMap and the space stats.
        let st = space.stats();
        prop_assert_eq!(amap.bytes_of(Access::Real), st.real_bytes);
        prop_assert_eq!(amap.bytes_of(Access::RealZero), st.realzero_bytes);
        prop_assert_eq!(amap.bytes_of(Access::Imag), st.imag_bytes);
    }

    /// Arbitrary writes followed by reads return the written bytes, across
    /// page boundaries, page-outs and page-ins.
    #[test]
    fn write_read_roundtrip_survives_paging(
        writes in prop::collection::vec((0u64..30 * 512, 1usize..200, any::<u8>()), 1..20),
        budget in 2usize..8,
    ) {
        let mut space = AddressSpace::with_frame_budget(budget);
        let mut disk = Disk::new();
        space.validate(VAddr(0), 32 * PAGE_SIZE).unwrap();
        let mut model: Vec<u8> = vec![0; 32 * PAGE_SIZE as usize];
        for &(addr, len, byte) in &writes {
            let range = PageRange::covering(VAddr(addr), len as u64);
            for p in range.iter() {
                ready(&mut space, &mut disk, p);
            }
            let data = vec![byte; len];
            space.write(VAddr(addr), &data).unwrap();
            model[addr as usize..addr as usize + len].fill(byte);
        }
        // Read everything back (through disk for paged-out pages).
        for &(addr, len, _) in &writes {
            let range = PageRange::covering(VAddr(addr), len as u64);
            for p in range.iter() {
                ready(&mut space, &mut disk, p);
            }
            let mut buf = vec![0u8; len];
            space.read(VAddr(addr), &mut buf).unwrap();
            prop_assert_eq!(&buf[..], &model[addr as usize..addr as usize + len]);
        }
    }

    /// The LRU tracker behaves exactly like a naive reference model.
    #[test]
    fn lru_matches_reference_model(
        touches in prop::collection::vec(0u64..64, 1..300),
        cap in 1usize..16,
    ) {
        let mut tracker = ResidentTracker::with_capacity(cap);
        let mut model: Vec<u64> = Vec::new(); // LRU order, front = oldest
        for &p in &touches {
            model.retain(|&q| q != p);
            model.push(p);
            let expect_evict = if model.len() > cap {
                Some(model.remove(0))
            } else {
                None
            };
            let got = tracker.touch(PageNum(p));
            prop_assert_eq!(got, expect_evict.map(PageNum));
            prop_assert_eq!(tracker.len(), model.len());
        }
        let mut expected: Vec<PageNum> = model.iter().map(|&p| PageNum(p)).collect();
        prop_assert_eq!(tracker.pages_lru_order(), expected.clone());
        expected.sort_unstable();
        prop_assert_eq!(tracker.pages(), expected);
    }

    /// Copy-on-write: writes through one mapping never leak into aliases.
    #[test]
    fn cow_isolation(pages in 1usize..16, dirty in prop::collection::vec(any::<bool>(), 16)) {
        use cor_mem::page::{page_from_bytes, Frame};
        let mut space = AddressSpace::new();
        let mut disk = Disk::new();
        let frames: Vec<Frame> = (0..pages)
            .map(|i| Frame::new(page_from_bytes(&[i as u8 + 1; 8])))
            .collect();
        let aliases = frames.clone();
        for (i, f) in frames.into_iter().enumerate() {
            space.install_page(PageNum(i as u64), f, &mut disk);
        }
        let mut dirtied = HashSet::new();
        for (i, &d) in dirty.iter().take(pages).enumerate() {
            if d {
                let page = PageNum(i as u64);
                space.check_write(page).unwrap();
                space.write(page.base(), &[0xEE; 8]).unwrap();
                dirtied.insert(i);
            }
        }
        prop_assert_eq!(space.cow_copies(), dirtied.len() as u64);
        for (i, alias) in aliases.iter().enumerate() {
            alias.with(|d| {
                // The alias always sees the original bytes.
                assert_eq!(d[0], i as u8 + 1, "alias {i} corrupted");
            });
        }
    }

    /// Zero-fill interning: every FillZero page aliases the one canonical
    /// zero frame; any write diverges it privately; the interned frame is
    /// never mutated; and RealZero byte accounting is exactly what the
    /// copying implementation reported.
    #[test]
    fn interned_zero_diverges_on_write(
        total in 4u64..32,
        fills in prop::collection::vec(0u64..32, 1..32),
        writes in prop::collection::vec((0u64..32, 1u8..=255), 0..32),
    ) {
        use cor_mem::page::Frame;
        let mut space = AddressSpace::new();
        let mut disk = Disk::new();
        space.validate(VAddr(0), total * PAGE_SIZE).unwrap();
        let mut filled = HashSet::new();
        for &p in fills.iter().filter(|&&p| p < total) {
            if filled.insert(p) {
                space.fill_zero(PageNum(p), &mut disk).unwrap();
            }
        }
        // Materialized-but-unwritten zero pages are Real; the rest of the
        // validated range stays RealZero — interning must not change the
        // paper's RealZeroMem accounting.
        let st = space.stats();
        prop_assert_eq!(st.realzero_bytes, (total - filled.len() as u64) * PAGE_SIZE);
        prop_assert_eq!(st.real_bytes, filled.len() as u64 * PAGE_SIZE);
        let mut written = HashSet::new();
        for &(p, byte) in &writes {
            if !filled.contains(&p) {
                continue;
            }
            space.check_write(PageNum(p)).unwrap();
            space.write(PageNum(p).base(), &[byte]).unwrap();
            written.insert(p);
        }
        // The canonical zero frame never sees any of those writes.
        Frame::zeroed().with(|d| {
            assert!(d.iter().all(|&b| b == 0), "interned zero frame corrupted");
        });
        // Unwritten zero-filled pages still read back zero, written ones
        // diverged (first byte is the nonzero write).
        for &p in &filled {
            let mut buf = [0xAAu8; 1];
            space.read(PageNum(p).base(), &mut buf).unwrap();
            prop_assert_eq!(buf[0] == 0, !written.contains(&p), "page {}", p);
        }
        prop_assert_eq!(st.realzero_bytes, space.stats().realzero_bytes);
    }

    /// Wire sharing: frames delivered by reference count to several
    /// receivers — one of them twice, modelling a retransmitted reply
    /// deduplicated into the same frame — diverge privately on write.
    /// The sender's frames and every other receiver keep the original
    /// bytes.
    #[test]
    fn shared_delivery_diverges_privately(
        pages in 1usize..12,
        writers in prop::collection::vec((0usize..3, 0usize..12), 1..24),
    ) {
        use cor_mem::page::{page_from_bytes, Frame};
        let sender: Vec<Frame> = (0..pages)
            .map(|i| Frame::new(page_from_bytes(&[0x5A, i as u8])))
            .collect();
        let mut receivers = Vec::new();
        for r in 0..3usize {
            let mut space = AddressSpace::new();
            let mut disk = Disk::new();
            for (i, f) in sender.iter().enumerate() {
                space.install_page(PageNum(i as u64), f.clone(), &mut disk);
                if r == 2 {
                    // Duplicate delivery: the dedup cache hands the same
                    // frame back for a retransmitted reply.
                    space.install_page(PageNum(i as u64), f.clone(), &mut disk);
                }
            }
            receivers.push((space, disk));
        }
        let mut wrote: Vec<HashSet<usize>> = vec![HashSet::new(); 3];
        for &(r, p) in &writers {
            let page = PageNum((p % pages) as u64);
            let (space, _) = &mut receivers[r];
            space.check_write(page).unwrap();
            space.write(page.base(), &[0x80 + r as u8]).unwrap();
            wrote[r].insert(p % pages);
        }
        // The sender's view is untouched by any receiver's writes.
        for (i, f) in sender.iter().enumerate() {
            f.with(|d| {
                assert_eq!((d[0], d[1]), (0x5A, i as u8), "sender frame {i} mutated");
            });
        }
        // Each receiver sees exactly its own writes, nobody else's.
        for (r, (space, _)) in receivers.iter().enumerate() {
            for i in 0..pages {
                let mut buf = [0u8; 1];
                space.read(PageNum(i as u64).base(), &mut buf).unwrap();
                let expect = if wrote[r].contains(&i) { 0x80 + r as u8 } else { 0x5A };
                prop_assert_eq!(buf[0], expect, "receiver {} page {}", r, i);
            }
        }
    }
}
