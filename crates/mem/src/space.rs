//! Sparse process address spaces.
//!
//! An [`AddressSpace`] supports the Accent idioms the paper's evaluation
//! depends on:
//!
//! * **Sparse validation** — validating a range is O(regions), not O(pages):
//!   Lisp validates its full 4 GB at birth (Table 4-1) yet the page table
//!   only ever holds touched pages. Untouched validated pages are
//!   *RealZeroMem* and are materialized by a [`Fault::FillZero`].
//! * **Copy-on-write** — resident pages are reference-counted [`Frame`]s; a
//!   write to a shared frame performs the deferred 512-byte copy.
//! * **Imaginary mappings** — pages may map to a [`SegmentId`] (an IOU for
//!   data behind a backing port); touching one raises [`Fault::Imaginary`].
//! * **Limited physical memory** — an LRU [`ResidentTracker`] pages the
//!   least recently used page out to the local [`Disk`] when a configured
//!   frame budget is exceeded, giving each process a meaningful resident
//!   set at migration time (Table 4-2).

use std::collections::BTreeMap;
use std::fmt;

use crate::amap::{AMap, Access};
use crate::disk::{Disk, DiskAddr};
use crate::error::MemError;
use crate::fault::Fault;
use crate::page::{Frame, PageData, PageNum, PageRange, VAddr, PAGE_SIZE};
use crate::resident::ResidentTracker;

/// Identifies an imaginary segment (a memory object served through a
/// backing IPC port). Allocation and the backing protocol live in
/// `cor-ipc`; the address space only records which segment a page owes its
/// data to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u64);

/// Where one materialized page's data currently lives.
#[derive(Debug, Clone)]
pub enum PageState {
    /// In physical memory. The frame may be shared copy-on-write.
    Resident(Frame),
    /// Paged out to the local disk.
    OnDisk(DiskAddr),
    /// Owed by an imaginary segment: the page's data is `offset` pages into
    /// segment `seg` and must be fetched through its backing port.
    Imaginary {
        /// The owing segment.
        seg: SegmentId,
        /// Page offset within the segment.
        offset: u64,
    },
}

/// Byte-level composition of an address space, as reported in Table 4-1 of
/// the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpaceStats {
    /// Allocated, non-zero data (*RealMem*): resident plus paged-out bytes.
    pub real_bytes: u64,
    /// Allocated but never touched (*RealZeroMem*).
    pub realzero_bytes: u64,
    /// Bytes owed by imaginary segments (*ImagMem*).
    pub imag_bytes: u64,
    /// Bytes currently resident in physical memory.
    pub resident_bytes: u64,
}

impl SpaceStats {
    /// Total validated bytes.
    pub fn total_bytes(&self) -> u64 {
        self.real_bytes + self.realzero_bytes + self.imag_bytes
    }

    /// RealZeroMem share of the total, as a percentage.
    pub fn realzero_pct(&self) -> f64 {
        if self.total_bytes() == 0 {
            0.0
        } else {
            100.0 * self.realzero_bytes as f64 / self.total_bytes() as f64
        }
    }
}

/// A sparse virtual address space.
pub struct AddressSpace {
    /// Sorted, disjoint, non-adjacent validated page ranges.
    regions: Vec<(u64, u64)>,
    /// Materialized pages only; a validated page absent from this map is
    /// RealZeroMem.
    pages: BTreeMap<PageNum, PageState>,
    resident: ResidentTracker,
    zero_fills: u64,
    cow_copies: u64,
    pageouts: u64,
}

impl AddressSpace {
    /// Creates an empty space with unbounded physical memory.
    pub fn new() -> Self {
        AddressSpace {
            regions: Vec::new(),
            pages: BTreeMap::new(),
            resident: ResidentTracker::unbounded(),
            zero_fills: 0,
            cow_copies: 0,
            pageouts: 0,
        }
    }

    /// Creates an empty space whose resident set is bounded to
    /// `frame_budget` pages (LRU page-out beyond that).
    pub fn with_frame_budget(frame_budget: usize) -> Self {
        let mut s = AddressSpace::new();
        s.resident = ResidentTracker::with_capacity(frame_budget);
        s
    }

    /// Adjusts the frame budget (`None` = unbounded).
    pub fn set_frame_budget(&mut self, frames: Option<usize>) {
        self.resident.set_capacity(frames);
    }

    /// The current frame budget (`None` = unbounded).
    pub fn frame_budget(&self) -> Option<usize> {
        self.resident.capacity()
    }

    // ----- validation ------------------------------------------------------

    /// Validates (allocates) the pages covering `[addr, addr+len)`.
    /// Validation is idempotent and merges with adjacent regions; it is
    /// conceptually a zero-fill, deferred until first touch (paper §2.3).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::EmptyRange`] when `len` is zero.
    pub fn validate(&mut self, addr: VAddr, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Err(MemError::EmptyRange);
        }
        let r = PageRange::covering(addr, len);
        self.validate_pages(r);
        Ok(())
    }

    /// Validates a page range directly. O(log regions) and allocation-free
    /// when one region already covers `r`; otherwise the regions
    /// overlapping or adjacent to `r` are spliced into one in place.
    pub fn validate_pages(&mut self, r: PageRange) {
        if r.is_empty() {
            return;
        }
        let (start, end) = (r.start.0, r.end.0);
        // Regions are sorted and disjoint, so those overlapping or adjacent
        // to [start, end) form the contiguous index range lo..hi.
        let lo = self.regions.partition_point(|&(_, e)| e < start);
        if let Some(&(s, e)) = self.regions.get(lo) {
            if s <= start && end <= e {
                return;
            }
        }
        let hi = lo + self.regions[lo..].partition_point(|&(s, _)| s <= end);
        let merged = if lo < hi {
            (
                start.min(self.regions[lo].0),
                end.max(self.regions[hi - 1].1),
            )
        } else {
            (start, end)
        };
        self.regions.splice(lo..hi, std::iter::once(merged));
    }

    /// Whether `page` lies in a validated region.
    pub fn is_validated(&self, page: PageNum) -> bool {
        let idx = self.regions.partition_point(|&(_, e)| e <= page.0);
        self.regions.get(idx).is_some_and(|&(s, _)| s <= page.0)
    }

    /// The validated regions as page ranges.
    pub fn regions(&self) -> Vec<PageRange> {
        self.regions
            .iter()
            .map(|&(s, e)| PageRange::new(PageNum(s), PageNum(e)))
            .collect()
    }

    // ----- classification --------------------------------------------------

    /// Classifies a page into its accessibility class.
    pub fn classify(&self, page: PageNum) -> Access {
        match self.pages.get(&page) {
            Some(PageState::Resident(_)) | Some(PageState::OnDisk(_)) => Access::Real,
            Some(PageState::Imaginary { .. }) => Access::Imag,
            None if self.is_validated(page) => Access::RealZero,
            None => Access::Bad,
        }
    }

    /// Builds the accessibility map for the whole space: a walk of the
    /// regions and the page table, coalescing as it goes. This is the
    /// operation whose cost dominates `ExciseProcess` for sparse spaces
    /// (Table 4-4); its *cost model* lives in the kernel crate, keyed on
    /// [`AddressSpace::map_complexity`].
    pub fn amap(&self) -> AMap {
        let mut b = AMap::builder();
        for &(rs, re) in &self.regions {
            let mut cursor = rs;
            for (&p, state) in self.pages.range(PageNum(rs)..PageNum(re)) {
                if cursor < p.0 {
                    b.push(
                        PageRange::new(PageNum(cursor), p),
                        Access::RealZero,
                        None,
                        0,
                    );
                }
                let one = PageRange::new(p, PageNum(p.0 + 1));
                match state {
                    PageState::Resident(_) | PageState::OnDisk(_) => {
                        b.push(one, Access::Real, None, 0)
                    }
                    PageState::Imaginary { seg, offset } => {
                        b.push(one, Access::Imag, Some(*seg), *offset)
                    }
                }
                cursor = p.0 + 1;
            }
            if cursor < re {
                b.push(
                    PageRange::new(PageNum(cursor), PageNum(re)),
                    Access::RealZero,
                    None,
                    0,
                );
            }
        }
        b.finish()
    }

    /// A complexity measure for the AMap construction cost model: the
    /// number of validated regions plus materialized page-table entries the
    /// kernel must walk.
    pub fn map_complexity(&self) -> u64 {
        self.regions.len() as u64 + self.pages.len() as u64
    }

    // ----- access checks (fault detection) ---------------------------------

    /// Checks whether `page` can be read right now; on failure returns the
    /// fault that must be serviced first. A successful check refreshes the
    /// page's LRU recency.
    pub fn check_read(&mut self, page: PageNum) -> Result<(), Fault> {
        match self.pages.get(&page) {
            Some(PageState::Resident(_)) => {
                self.resident.refresh(page);
                Ok(())
            }
            Some(PageState::OnDisk(addr)) => Err(Fault::DiskIn { page, addr: *addr }),
            Some(PageState::Imaginary { seg, offset }) => Err(Fault::Imaginary {
                page,
                seg: *seg,
                offset: *offset,
            }),
            None if self.is_validated(page) => Err(Fault::FillZero { page }),
            None => Err(Fault::Addressing { addr: page.base() }),
        }
    }

    /// Checks whether `page` can be written right now. Performs the
    /// deferred copy-on-write duplication if the page is resident but
    /// shared (counted in [`AddressSpace::cow_copies`]); other states fault
    /// exactly as [`AddressSpace::check_read`].
    ///
    /// Diverging an interned-zero alias is *not* counted as a CoW copy: it
    /// is the deferred materialization of a zero-fill (the pre-interning
    /// pager allocated that page at fault time), not a copy forced by
    /// sharing with another mapping.
    pub fn check_write(&mut self, page: PageNum) -> Result<(), Fault> {
        self.check_read(page)?;
        if let Some(PageState::Resident(frame)) = self.pages.get_mut(&page) {
            if frame.is_shared() {
                let materializing_zero = frame.is_interned_zero();
                *frame = frame.deep_copy();
                if !materializing_zero {
                    self.cow_copies += 1;
                }
            }
        }
        Ok(())
    }

    // ----- data access (requires residency) --------------------------------

    /// Reads `buf.len()` bytes starting at `addr`. Every covered page must
    /// be resident (callers service faults from `check_read` first).
    ///
    /// # Errors
    ///
    /// [`MemError::NotResident`] if any covered page is not resident.
    pub fn read(&self, addr: VAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let mut cursor = addr;
        let mut filled = 0usize;
        while filled < buf.len() {
            let page = cursor.page();
            let off = cursor.page_offset() as usize;
            let n = ((PAGE_SIZE as usize) - off).min(buf.len() - filled);
            match self.pages.get(&page) {
                Some(PageState::Resident(frame)) => {
                    frame.with(|d| buf[filled..filled + n].copy_from_slice(&d[off..off + n]));
                }
                _ => return Err(MemError::NotResident(page)),
            }
            filled += n;
            cursor = cursor.offset(n as u64);
        }
        Ok(())
    }

    /// Writes `data` starting at `addr`. Every covered page must be
    /// resident and unshared (callers run `check_write` first).
    ///
    /// # Errors
    ///
    /// [`MemError::NotResident`] if a covered page is not resident;
    /// [`MemError::BadState`] if one is still copy-on-write shared.
    pub fn write(&mut self, addr: VAddr, data: &[u8]) -> Result<(), MemError> {
        let mut cursor = addr;
        let mut written = 0usize;
        while written < data.len() {
            let page = cursor.page();
            let off = cursor.page_offset() as usize;
            let n = ((PAGE_SIZE as usize) - off).min(data.len() - written);
            match self.pages.get(&page) {
                Some(PageState::Resident(frame)) => {
                    if frame.is_shared() {
                        return Err(MemError::BadState(page, "copy-on-write shared"));
                    }
                    frame
                        .with_mut(|d| d[off..off + n].copy_from_slice(&data[written..written + n]));
                }
                _ => return Err(MemError::NotResident(page)),
            }
            written += n;
            cursor = cursor.offset(n as u64);
        }
        Ok(())
    }

    // ----- fault service mutators (called by the pager) --------------------

    /// Services a FillZero fault: materializes `page` as an alias of the
    /// interned zero frame (no allocation; a later write diverges it). May
    /// page out an LRU victim to `disk`.
    ///
    /// # Errors
    ///
    /// [`MemError::NotValidated`] if the page is outside every region;
    /// [`MemError::BadState`] if it is already materialized.
    pub fn fill_zero(&mut self, page: PageNum, disk: &mut Disk) -> Result<(), MemError> {
        if !self.is_validated(page) {
            return Err(MemError::NotValidated(page.base()));
        }
        if self.pages.contains_key(&page) {
            return Err(MemError::BadState(page, "already materialized"));
        }
        self.zero_fills += 1;
        self.install_frame(page, Frame::zeroed(), disk);
        Ok(())
    }

    /// Services a DiskIn fault: brings `page` back from `disk` (freeing the
    /// block) and makes it resident. May page out an LRU victim.
    ///
    /// # Errors
    ///
    /// [`MemError::BadState`] if the page is not in the on-disk state or
    /// the disk block vanished.
    pub fn page_in(&mut self, page: PageNum, disk: &mut Disk) -> Result<(), MemError> {
        let addr = match self.pages.get(&page) {
            Some(PageState::OnDisk(a)) => *a,
            _ => return Err(MemError::BadState(page, "not on disk")),
        };
        // Zero-copy: take over the disk's reference to the frame; no bytes
        // move in either direction of the page-out/page-in roundtrip.
        let frame = disk
            .take_frame(addr)
            .ok_or(MemError::BadState(page, "disk block missing"))?;
        self.pages.remove(&page);
        self.install_frame(page, frame, disk);
        Ok(())
    }

    /// Services an imaginary fault: installs fetched `data` for `page`,
    /// replacing its imaginary mapping. May page out an LRU victim.
    ///
    /// # Errors
    ///
    /// [`MemError::BadState`] if the page is not imaginary.
    pub fn satisfy_imaginary(
        &mut self,
        page: PageNum,
        data: PageData,
        disk: &mut Disk,
    ) -> Result<(), MemError> {
        match self.pages.get(&page) {
            Some(PageState::Imaginary { .. }) => {}
            _ => return Err(MemError::BadState(page, "not imaginary")),
        }
        self.pages.remove(&page);
        self.install_frame(page, Frame::new(data), disk);
        Ok(())
    }

    /// Services an imaginary fault with an already-framed page, sharing
    /// the frame by reference count instead of copying 512 bytes. The
    /// fetch path hands the reply message's frame straight in; a later
    /// write performs the deferred copy through the normal copy-on-write
    /// machinery ([`AddressSpace::check_write`]).
    ///
    /// # Errors
    ///
    /// [`MemError::BadState`] if the page is not imaginary.
    pub fn satisfy_imaginary_frame(
        &mut self,
        page: PageNum,
        frame: Frame,
        disk: &mut Disk,
    ) -> Result<(), MemError> {
        match self.pages.get(&page) {
            Some(PageState::Imaginary { .. }) => {}
            _ => return Err(MemError::BadState(page, "not imaginary")),
        }
        self.pages.remove(&page);
        self.install_frame(page, frame, disk);
        Ok(())
    }

    /// Installs `frame` for `page` unconditionally (used when building
    /// processes and reconstructing them at insertion). The page is
    /// validated if it was not already; a replaced on-disk mapping's block
    /// is freed. May page out an LRU victim.
    pub fn install_page(&mut self, page: PageNum, frame: Frame, disk: &mut Disk) {
        self.validate_pages(PageRange::new(page, PageNum(page.0 + 1)));
        self.install_frame(page, frame, disk);
    }

    /// Installs `data` for `page` directly in the on-disk state (used to
    /// model memory-mapped files whose pages have not been read yet: they
    /// are RealMem, accessible at local-disk cost, but not resident). The
    /// page is validated if needed. A replaced mapping is released (see
    /// [`AddressSpace::map_imaginary`]).
    pub fn install_on_disk(&mut self, page: PageNum, data: PageData, disk: &mut Disk) {
        self.validate_pages(PageRange::new(page, PageNum(page.0 + 1)));
        let addr = disk.write_new(data);
        let old = self.pages.insert(page, PageState::OnDisk(addr));
        self.release(page, old, disk);
    }

    /// Maps `range` to imaginary segment `seg`, with the range's first page
    /// at `base_offset` pages into the segment. The range is validated if
    /// needed. Existing materialized pages in the range are replaced (their
    /// data is owed by the segment now): a replaced resident page leaves the
    /// resident set and a replaced on-disk page's block is freed on `disk`,
    /// which must be the disk the space pages to.
    pub fn map_imaginary(
        &mut self,
        range: PageRange,
        seg: SegmentId,
        base_offset: u64,
        disk: &mut Disk,
    ) {
        self.validate_pages(range);
        for (i, page) in range.iter().enumerate() {
            let old = self.pages.insert(
                page,
                PageState::Imaginary {
                    seg,
                    offset: base_offset + i as u64,
                },
            );
            self.release(page, old, disk);
        }
    }

    /// Releases what a replaced mapping of `page` held: its resident-set
    /// entry or its disk block.
    fn release(&mut self, page: PageNum, old: Option<PageState>, disk: &mut Disk) {
        match old {
            Some(PageState::Resident(_)) => {
                self.resident.remove(page);
            }
            Some(PageState::OnDisk(addr)) => {
                disk.free(addr);
            }
            Some(PageState::Imaginary { .. }) | None => {}
        }
    }

    /// Maps `page` to `frame` and marks it most recently used, paging out
    /// the LRU victim if that exceeds the budget. A replaced on-disk
    /// mapping's block is freed; a replaced resident page keeps its
    /// resident-set entry, refreshed by the touch.
    fn install_frame(&mut self, page: PageNum, frame: Frame, disk: &mut Disk) {
        if let Some(PageState::OnDisk(addr)) = self.pages.insert(page, PageState::Resident(frame)) {
            disk.free(addr);
        }
        if let Some(victim) = self.resident.touch(page) {
            self.page_out(victim, disk);
        }
    }

    /// Forces `page` out to disk (used by tests and by explicit flush
    /// policies). The frame moves to the disk by reference — no byte copy.
    /// No-op unless the page is resident.
    pub fn page_out(&mut self, page: PageNum, disk: &mut Disk) {
        if let Some(state) = self.pages.get_mut(&page) {
            if let PageState::Resident(frame) = state {
                // One page-table lookup: the entry is rewritten in place.
                *state = PageState::OnDisk(disk.write_new_frame(frame.clone()));
                self.resident.remove(page);
                self.pageouts += 1;
            }
        }
    }

    // ----- inspection -------------------------------------------------------

    /// A copy of `page`'s current contents regardless of where they live
    /// (resident or on disk); `None` for RealZero (all zeros by definition),
    /// imaginary, or invalid pages. Does not refresh LRU recency — this is
    /// the kernel peeking (excision, backing service), not the process
    /// touching memory.
    pub fn peek_page(&self, page: PageNum, disk: &mut Disk) -> Option<PageData> {
        match self.pages.get(&page)? {
            PageState::Resident(frame) => Some(frame.snapshot()),
            PageState::OnDisk(addr) => disk.read(*addr),
            PageState::Imaginary { .. } => None,
        }
    }

    /// Like [`AddressSpace::peek_page`] but shares the frame instead of
    /// copying its bytes — the read-only inspection path for checksums and
    /// transfer assembly. Same disk-read accounting as `peek_page`.
    pub fn peek_frame(&self, page: PageNum, disk: &mut Disk) -> Option<Frame> {
        match self.pages.get(&page)? {
            PageState::Resident(frame) => Some(frame.clone()),
            PageState::OnDisk(addr) => disk.read_frame(*addr),
            PageState::Imaginary { .. } => None,
        }
    }

    /// The page's raw state, if materialized.
    pub fn page_state(&self, page: PageNum) -> Option<&PageState> {
        self.pages.get(&page)
    }

    /// All materialized pages in ascending order.
    pub fn materialized_pages(&self) -> impl Iterator<Item = (PageNum, &PageState)> {
        self.pages.iter().map(|(&p, s)| (p, s))
    }

    /// The materialized pages inside `range`, in ascending order: one
    /// page-table seek, then a sequential walk.
    pub fn materialized_range(
        &self,
        range: PageRange,
    ) -> impl Iterator<Item = (PageNum, &PageState)> {
        self.pages
            .range(range.start..range.end)
            .map(|(&p, s)| (p, s))
    }

    /// The resident pages in ascending page order.
    pub fn resident_pages(&self) -> Vec<PageNum> {
        self.resident.pages()
    }

    /// Composition statistics (Table 4-1 quantities).
    pub fn stats(&self) -> SpaceStats {
        let mut real = 0u64;
        let mut imag = 0u64;
        let mut res = 0u64;
        for state in self.pages.values() {
            match state {
                PageState::Resident(_) => {
                    real += PAGE_SIZE;
                    res += PAGE_SIZE;
                }
                PageState::OnDisk(_) => real += PAGE_SIZE,
                PageState::Imaginary { .. } => imag += PAGE_SIZE,
            }
        }
        let total: u64 = self.regions.iter().map(|&(s, e)| (e - s) * PAGE_SIZE).sum();
        SpaceStats {
            real_bytes: real,
            imag_bytes: imag,
            realzero_bytes: total - real - imag,
            resident_bytes: res,
        }
    }

    /// Deferred copy-on-write copies performed so far.
    pub fn cow_copies(&self) -> u64 {
        self.cow_copies
    }

    /// FillZero faults serviced so far.
    pub fn zero_fills(&self) -> u64 {
        self.zero_fills
    }

    /// Pages paged out so far.
    pub fn pageouts(&self) -> u64 {
        self.pageouts
    }

    /// Destructively extracts every materialized page and validated region
    /// (process excision). The space is left empty.
    pub fn drain(&mut self) -> (Vec<(u64, u64)>, BTreeMap<PageNum, PageState>) {
        self.resident.clear();
        (
            std::mem::take(&mut self.regions),
            std::mem::take(&mut self.pages),
        )
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        AddressSpace::new()
    }
}

impl fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.stats();
        f.debug_struct("AddressSpace")
            .field("regions", &self.regions.len())
            .field("materialized", &self.pages.len())
            .field("real_bytes", &st.real_bytes)
            .field("total_bytes", &st.total_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> PageNum {
        PageNum(n)
    }

    fn ready(space: &mut AddressSpace, disk: &mut Disk, page: PageNum) {
        // Service faults until the page is readable, like a tiny pager.
        loop {
            match space.check_write(page) {
                Ok(()) => return,
                Err(Fault::FillZero { page }) => space.fill_zero(page, disk).unwrap(),
                Err(Fault::DiskIn { page, .. }) => space.page_in(page, disk).unwrap(),
                Err(f) => panic!("unexpected fault {f:?}"),
            }
        }
    }

    #[test]
    fn validation_merging() {
        let mut s = AddressSpace::new();
        s.validate(VAddr(0), 1024).unwrap();
        s.validate(VAddr(4096), 512).unwrap();
        s.validate(VAddr(1024), 3072).unwrap(); // bridges the gap
        assert_eq!(s.regions().len(), 1);
        assert_eq!(s.regions()[0], PageRange::new(p(0), p(9)));
        assert!(s.validate(VAddr(0), 0).is_err());
    }

    #[test]
    fn classification_lifecycle() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        s.validate(VAddr(0), 4 * PAGE_SIZE).unwrap();
        assert_eq!(s.classify(p(0)), Access::RealZero);
        assert_eq!(s.classify(p(4)), Access::Bad);
        ready(&mut s, &mut d, p(0));
        assert_eq!(s.classify(p(0)), Access::Real);
        s.map_imaginary(PageRange::new(p(2), p(3)), SegmentId(7), 5, &mut d);
        assert_eq!(s.classify(p(2)), Access::Imag);
    }

    #[test]
    fn first_touch_is_fillzero_then_reads_zeros() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        s.validate(VAddr(0), PAGE_SIZE).unwrap();
        match s.check_read(p(0)) {
            Err(Fault::FillZero { page }) => assert_eq!(page, p(0)),
            other => panic!("expected FillZero, got {other:?}"),
        }
        s.fill_zero(p(0), &mut d).unwrap();
        assert!(s.check_read(p(0)).is_ok());
        let mut buf = [1u8; 16];
        s.read(VAddr(100), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(s.zero_fills(), 1);
    }

    #[test]
    fn write_read_roundtrip_across_pages() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        s.validate(VAddr(0), 3 * PAGE_SIZE).unwrap();
        for i in 0..3 {
            ready(&mut s, &mut d, p(i));
        }
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        s.write(VAddr(300), &data).unwrap(); // spans pages 0..3
        let mut back = vec![0u8; 1000];
        s.read(VAddr(300), &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn unresident_data_access_errors() {
        let mut s = AddressSpace::new();
        s.validate(VAddr(0), PAGE_SIZE).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(s.read(VAddr(0), &mut buf), Err(MemError::NotResident(p(0))));
        assert_eq!(s.write(VAddr(0), &buf), Err(MemError::NotResident(p(0))));
    }

    #[test]
    fn addressing_error_on_unvalidated() {
        let mut s = AddressSpace::new();
        match s.check_read(p(9)) {
            Err(Fault::Addressing { addr }) => assert_eq!(addr, p(9).base()),
            other => panic!("expected Addressing, got {other:?}"),
        }
    }

    #[test]
    fn cow_write_copies_shared_frame() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        let frame = Frame::new(crate::page::page_from_bytes(b"shared"));
        let alias = frame.clone();
        s.install_page(p(0), frame, &mut d);
        assert!(s.check_read(p(0)).is_ok(), "shared frames are readable");
        assert_eq!(s.cow_copies(), 0);
        s.check_write(p(0)).unwrap();
        assert_eq!(s.cow_copies(), 1);
        s.write(VAddr(0), b"WRITED").unwrap();
        // The alias (the "sender's copy") is untouched: deferred copy done.
        alias.with(|d| assert_eq!(&d[..6], b"shared"));
        let mut buf = [0u8; 6];
        s.read(VAddr(0), &mut buf).unwrap();
        assert_eq!(&buf, b"WRITED");
    }

    #[test]
    fn write_to_shared_frame_without_check_is_rejected() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        let frame = Frame::zeroed();
        let _alias = frame.clone();
        s.install_page(p(0), frame, &mut d);
        assert!(matches!(
            s.write(VAddr(0), b"x"),
            Err(MemError::BadState(_, _))
        ));
    }

    #[test]
    fn frame_budget_pages_out_lru_and_pages_back_in() {
        let mut s = AddressSpace::with_frame_budget(2);
        let mut d = Disk::new();
        s.validate(VAddr(0), 3 * PAGE_SIZE).unwrap();
        for i in 0..3 {
            ready(&mut s, &mut d, p(i));
            s.write(p(i).base(), &[i as u8 + 1; 8]).unwrap();
        }
        // Page 0 was LRU and went to disk.
        assert_eq!(s.classify(p(0)), Access::Real);
        assert!(matches!(s.page_state(p(0)), Some(PageState::OnDisk(_))));
        assert_eq!(s.pageouts(), 1);
        match s.check_read(p(0)) {
            Err(Fault::DiskIn { .. }) => {}
            other => panic!("expected DiskIn, got {other:?}"),
        }
        ready(&mut s, &mut d, p(0));
        let mut buf = [0u8; 8];
        s.read(VAddr(0), &mut buf).unwrap();
        assert_eq!(buf, [1u8; 8], "contents survive the disk round trip");
    }

    #[test]
    fn imaginary_fault_and_satisfaction() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        let seg = SegmentId(3);
        s.map_imaginary(PageRange::new(p(10), p(12)), seg, 100, &mut d);
        match s.check_read(p(11)) {
            Err(Fault::Imaginary {
                page,
                seg: got,
                offset,
            }) => {
                assert_eq!((page, got, offset), (p(11), seg, 101));
            }
            other => panic!("expected Imaginary, got {other:?}"),
        }
        s.satisfy_imaginary(p(11), crate::page::page_from_bytes(b"owed"), &mut d)
            .unwrap();
        assert!(s.check_read(p(11)).is_ok());
        let mut buf = [0u8; 4];
        s.read(p(11).base(), &mut buf).unwrap();
        assert_eq!(&buf, b"owed");
        // Page 10 is still imaginary.
        assert_eq!(s.classify(p(10)), Access::Imag);
    }

    #[test]
    fn satisfy_imaginary_frame_shares_until_written() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        s.map_imaginary(PageRange::new(p(0), p(1)), SegmentId(1), 0, &mut d);
        let frame = Frame::new(crate::page::page_from_bytes(b"wire"));
        let senders_copy = frame.clone();
        s.satisfy_imaginary_frame(p(0), frame, &mut d).unwrap();
        let mut buf = [0u8; 4];
        s.check_read(p(0)).unwrap();
        s.read(p(0).base(), &mut buf).unwrap();
        assert_eq!(&buf, b"wire", "no byte copy needed to read");
        assert_eq!(s.cow_copies(), 0, "install itself copies nothing");
        // A write triggers the deferred copy; the sender's cache survives.
        s.check_write(p(0)).unwrap();
        assert_eq!(s.cow_copies(), 1);
        s.write(p(0).base(), b"MINE").unwrap();
        senders_copy.with(|d| assert_eq!(&d[..4], b"wire"));
        // Non-imaginary pages are rejected just like satisfy_imaginary.
        assert!(matches!(
            s.satisfy_imaginary_frame(p(0), Frame::zeroed(), &mut d),
            Err(MemError::BadState(_, _))
        ));
    }

    #[test]
    fn stats_track_composition() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        s.validate(VAddr(0), 10 * PAGE_SIZE).unwrap();
        ready(&mut s, &mut d, p(0));
        ready(&mut s, &mut d, p(1));
        s.page_out(p(0), &mut d);
        s.map_imaginary(PageRange::new(p(5), p(7)), SegmentId(1), 0, &mut d);
        let st = s.stats();
        assert_eq!(st.real_bytes, 2 * PAGE_SIZE);
        assert_eq!(st.resident_bytes, PAGE_SIZE);
        assert_eq!(st.imag_bytes, 2 * PAGE_SIZE);
        assert_eq!(st.realzero_bytes, 6 * PAGE_SIZE);
        assert_eq!(st.total_bytes(), 10 * PAGE_SIZE);
        assert!((st.realzero_pct() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn amap_reflects_space() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        s.validate(VAddr(0), 8 * PAGE_SIZE).unwrap();
        ready(&mut s, &mut d, p(2));
        ready(&mut s, &mut d, p(3));
        s.map_imaginary(PageRange::new(p(5), p(6)), SegmentId(9), 4, &mut d);
        let m = s.amap();
        assert!(m.verify().is_ok());
        assert_eq!(m.lookup(p(0)).0, Access::RealZero);
        assert_eq!(m.lookup(p(2)).0, Access::Real);
        assert_eq!(m.lookup(p(3)).0, Access::Real);
        assert_eq!(m.lookup(p(5)), (Access::Imag, Some((SegmentId(9), 4))));
        assert_eq!(m.lookup(p(7)).0, Access::RealZero);
        assert_eq!(m.lookup(p(8)).0, Access::Bad);
        assert_eq!(m.bytes_of(Access::Real), 2 * PAGE_SIZE);
        // Real pages at 2,3 coalesce into one run.
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn peek_reads_without_lru_effect() {
        let mut s = AddressSpace::with_frame_budget(2);
        let mut d = Disk::new();
        s.validate(VAddr(0), 4 * PAGE_SIZE).unwrap();
        ready(&mut s, &mut d, p(0));
        s.write(VAddr(0), b"zero").unwrap();
        ready(&mut s, &mut d, p(1));
        // Peeking page 0 must NOT make it recently-used...
        assert_eq!(&s.peek_page(p(0), &mut d).unwrap()[..4], b"zero");
        // ...so materializing page 2 evicts page 0, not page 1.
        ready(&mut s, &mut d, p(2));
        assert!(matches!(s.page_state(p(0)), Some(PageState::OnDisk(_))));
        // And peek still reads it from disk.
        assert_eq!(&s.peek_page(p(0), &mut d).unwrap()[..4], b"zero");
        assert_eq!(s.peek_page(p(3), &mut d), None, "RealZero has no data");
    }

    #[test]
    fn install_on_disk_models_unread_file_pages() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        s.install_on_disk(p(4), crate::page::page_from_bytes(b"file"), &mut d);
        assert_eq!(s.classify(p(4)), Access::Real);
        assert_eq!(s.stats().resident_bytes, 0);
        match s.check_read(p(4)) {
            Err(Fault::DiskIn { .. }) => {}
            other => panic!("expected DiskIn, got {other:?}"),
        }
        ready(&mut s, &mut d, p(4));
        let mut buf = [0u8; 4];
        s.read(p(4).base(), &mut buf).unwrap();
        assert_eq!(&buf, b"file");
    }

    fn on_disk_pages(s: &AddressSpace) -> usize {
        s.materialized_pages()
            .filter(|(_, st)| matches!(st, PageState::OnDisk(_)))
            .count()
    }

    #[test]
    fn replacing_an_on_disk_page_frees_its_block() {
        let mut s = AddressSpace::with_frame_budget(2);
        let mut d = Disk::new();
        for i in 0..4 {
            s.install_page(
                p(i),
                Frame::new(crate::page::page_from_bytes(&[i as u8])),
                &mut d,
            );
        }
        // Pages 0 and 1 were paged out to make room for 2 and 3.
        assert_eq!(on_disk_pages(&s), 2);
        assert_eq!(d.blocks_in_use(), 2);
        // Re-installing a paged-out page releases its block; the install
        // pages out the LRU page (2) in turn.
        s.install_page(p(0), Frame::zeroed(), &mut d);
        assert_eq!(on_disk_pages(&s), 2);
        assert_eq!(d.blocks_in_use(), on_disk_pages(&s));
        // Installing on disk over an on-disk page replaces its block.
        s.install_on_disk(p(1), crate::page::page_from_bytes(b"file"), &mut d);
        assert_eq!(d.blocks_in_use(), on_disk_pages(&s));
        // Mapping imaginary over an on-disk page frees its block, and over
        // a resident page drops it from the resident set.
        s.map_imaginary(PageRange::new(p(1), p(4)), SegmentId(1), 0, &mut d);
        assert_eq!(on_disk_pages(&s), 0);
        assert_eq!(d.blocks_in_use(), 0);
        assert_eq!(s.resident_pages(), vec![p(0)]);
        // Every replaced block was freed exactly once; none was read.
        assert_eq!(d.reads(), 0);
    }

    #[test]
    fn validation_inside_a_region_is_a_no_op() {
        let mut s = AddressSpace::new();
        s.validate_pages(PageRange::new(p(10), p(20)));
        s.validate_pages(PageRange::new(p(30), p(40)));
        s.validate_pages(PageRange::new(p(12), p(18)));
        s.validate_pages(PageRange::new(p(30), p(40)));
        assert_eq!(
            s.regions(),
            vec![PageRange::new(p(10), p(20)), PageRange::new(p(30), p(40))]
        );
        // Adjacent on both sides: the three ranges splice into one.
        s.validate_pages(PageRange::new(p(20), p(30)));
        assert_eq!(s.regions(), vec![PageRange::new(p(10), p(40))]);
        s.validate_pages(PageRange::new(p(0), p(5)));
        s.validate_pages(PageRange::new(p(50), p(60)));
        assert_eq!(s.regions().len(), 3);
    }

    #[test]
    fn drain_empties_space() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        s.validate(VAddr(0), 2 * PAGE_SIZE).unwrap();
        ready(&mut s, &mut d, p(0));
        let (regions, pages) = s.drain();
        assert_eq!(regions.len(), 1);
        assert_eq!(pages.len(), 1);
        assert_eq!(s.stats().total_bytes(), 0);
        assert_eq!(s.classify(p(0)), Access::Bad);
    }
}
