//! A fixed host-speed probe.
//!
//! A shared host's speed drifts by tens of percent over seconds to
//! minutes as its other tenants come and go. The probe is a small,
//! fixed piece of work shaped like the simulator's two staples, tables
//! and messages: hash-map, tree and sort work, then message buffers
//! allocated, filled, queued and read back. It uses no code of the
//! simulator, so no change to the simulator moves it. It is
//! read right before and right after each measured interval; dividing
//! the interval's time by [`slowdown`] gives the time it would have
//! taken on a host where a reading takes exactly [`REF_S`].

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// The probe's reference time: roughly one probe on a quiet 2-vCPU
/// Xeon VM. Normalised times are expressed against it.
pub const REF_S: f64 = 0.002;

/// Slices per probe reading; the reading is their median.
const SLICES: usize = 3;

/// Times one probe reading (the median of [`SLICES`] slices), in seconds.
pub fn read() -> f64 {
    let mut t: Vec<f64> = (0..SLICES).map(|_| slice()).collect();
    t.sort_by(f64::total_cmp);
    t[SLICES / 2]
}

/// How much slower than the reference host the host ran over an
/// interval bracketed by the readings `before` and `after`: their mean
/// over [`REF_S`]. Divide the interval's time by it, or multiply its rate.
pub fn slowdown(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / REF_S
}

/// One fixed slice of work; returns its wall seconds.
fn slice() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        // splitmix64
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut tree: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..5_000u64 {
        let k = next() % 8192;
        *map.entry(k).or_insert(0) += i;
        tree.entry(k & 1023).or_default().push(i);
        if let Some(v) = map.get(&(next() % 8192)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut v: Vec<u64> = (0..5_000).map(|_| next()).collect();
    v.sort_unstable();
    acc = acc.wrapping_add(v[v.len() / 2]);
    acc = acc.wrapping_add(tree.values().map(|l| l.len() as u64).sum::<u64>());
    // Messages: a header and a 64-320 byte body, queued 64 deep.
    let mut queue: VecDeque<Vec<u8>> = VecDeque::new();
    for i in 0..8_000u32 {
        let mut m = Vec::with_capacity(64 + (i as usize % 5) * 64);
        m.extend_from_slice(&i.to_le_bytes());
        m.extend_from_slice(&i.wrapping_mul(2_654_435_761).to_le_bytes());
        m.resize(m.capacity(), i as u8);
        queue.push_back(m);
        if queue.len() > 64 {
            let m = queue.pop_front().expect("queue is not empty");
            let a = u32::from_le_bytes(m[0..4].try_into().expect("4-byte header"));
            let b = u32::from_le_bytes(m[4..8].try_into().expect("4-byte header"));
            acc = acc.wrapping_add(u64::from(a ^ b) + m.iter().map(|&x| u64::from(x)).sum::<u64>());
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}
