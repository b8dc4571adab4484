//! Deterministic, seed-reproducible fault injection for the starsense
//! measurement pipeline.
//!
//! Every fault decision is a *pure function* of `(seed, domain, integer
//! keys)` computed with a splitmix64-style avalanche hash — there is no
//! stateful RNG that must be consumed in order. This gives the two
//! properties the chaos harness relies on:
//!
//! - **Bit-reproducibility**: the same seed produces the identical fault
//!   schedule on every run, regardless of thread count or the order in
//!   which components ask about faults.
//! - **Isolation**: consulting the plan never perturbs any other RNG
//!   stream, so a fault-free plan leaves the host component's output
//!   bit-identical to a build without fault injection at all.
//!
//! The injectable fault channels mirror the messy inputs field
//! measurement campaigns actually see: dropped / stale / partially
//! corrupted obstruction-map frames from the dish gRPC endpoint, TLE
//! feed corruption (checksum flips, truncation, NaN-producing fields),
//! and probe loss / jitter bursts in the network emulator.
//!
//! Two failures are deliberately not injectable. SGP4 is a deterministic
//! function of a TLE, so a real propagation failure (decay, an
//! eccentricity out of range) recurs at every epoch and the catalog
//! already reads it as an absent satellite; a per-slot coin flip would
//! model a failure that does not happen. And every campaign work unit is
//! a pure function of its inputs, so nothing could ride an injected
//! worker failure out; a real worker panic ends the run, and resuming
//! from the last durable checkpoint is the recovery.

/// Hash-domain tags keeping the per-channel decision streams independent.
const DOMAIN_FRAME: u64 = 0x4652_414d_4500_0001;
const DOMAIN_TLE: u64 = 0x544c_4500_0000_0002;
const DOMAIN_BURST: u64 = 0x4255_5253_5400_0004;
const DOMAIN_JITTER: u64 = 0x4a49_5454_4500_0005;
const DOMAIN_STREAM: u64 = 0x5354_5245_414d_0006;

/// splitmix64 finalizer: a full-avalanche bijection on `u64`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fold a key into a running hash state.
fn fold(h: u64, k: u64) -> u64 {
    mix(h ^ k)
}

/// Map a hash to a uniform draw in `[0, 1)` using the top 53 bits.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Clamp a user-supplied probability into `[0, 1]`; NaN becomes 0.
fn clamp01(p: f64) -> f64 {
    if p.is_finite() {
        p.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Per-channel fault probabilities, each in `[0, 1]`.
///
/// The frame rates partition one draw: a frame is dropped with
/// probability `frame_drop`, stale with `frame_stale`, corrupted with
/// `frame_corrupt`, and clean otherwise, so their sum should stay at or
/// below 1 (the constructor clamps each individually; an oversubscribed
/// sum simply saturates toward the earlier outcomes).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability an obstruction-frame fetch attempt returns nothing.
    pub frame_drop: f64,
    /// Probability a frame fetch returns the previous slot's bitmap.
    pub frame_stale: f64,
    /// Probability a fetched frame has a burst of flipped pixels.
    pub frame_corrupt: f64,
    /// Probability a TLE record in a catalog feed is corrupted.
    pub tle_corrupt: f64,
    /// Probability a probe slot carries a loss or jitter burst.
    pub probe_burst: f64,
}

impl FaultRates {
    /// All channels at probability zero.
    pub const fn none() -> Self {
        FaultRates {
            frame_drop: 0.0,
            frame_stale: 0.0,
            frame_corrupt: 0.0,
            tle_corrupt: 0.0,
            probe_burst: 0.0,
        }
    }

    /// Every channel at the same probability `p` — the knob the chaos
    /// tiers sweep to escalate pressure uniformly. The three frame
    /// channels share the single per-frame draw, so each gets `p / 3` to
    /// keep the *total* frame-fault probability at `p`.
    pub fn uniform(p: f64) -> Self {
        let p = clamp01(p);
        FaultRates {
            frame_drop: p / 3.0,
            frame_stale: p / 3.0,
            frame_corrupt: p / 3.0,
            tle_corrupt: p,
            probe_burst: p,
        }
    }

    fn clamped(self) -> Self {
        FaultRates {
            frame_drop: clamp01(self.frame_drop),
            frame_stale: clamp01(self.frame_stale),
            frame_corrupt: clamp01(self.frame_corrupt),
            tle_corrupt: clamp01(self.tle_corrupt),
            probe_burst: clamp01(self.probe_burst),
        }
    }

    fn any(&self) -> bool {
        self.frame_drop > 0.0
            || self.frame_stale > 0.0
            || self.frame_corrupt > 0.0
            || self.tle_corrupt > 0.0
            || self.probe_burst > 0.0
    }
}

/// Outcome of one obstruction-frame fetch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// The fetch succeeded with a clean, current bitmap.
    None,
    /// The fetch returned nothing (the caller may retry).
    Dropped,
    /// The fetch returned the bitmap as it stood *before* this slot's
    /// trail was painted.
    Stale,
    /// The fetch succeeded but a burst of pixels is flipped; `salt`
    /// seeds the corruption stream so the flipped pixels are themselves
    /// reproducible.
    Corrupt {
        /// Seed for the [`FaultRng`] that picks the flipped pixels.
        salt: u64,
    },
}

/// Kind of corruption applied to one TLE record in a catalog feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TleFault {
    /// The record is left intact.
    None,
    /// The line-1 checksum digit is flipped (detectable: `BadChecksum`).
    ChecksumFlip,
    /// Line 2 is truncated to `keep` bytes (detectable: `LineTooShort`).
    Truncate {
        /// Number of leading bytes of line 2 that survive.
        keep: usize,
    },
    /// The line-2 mean-motion field is replaced by `NaN` *with the
    /// checksum recomputed to match*, so only semantic field validation
    /// can reject it.
    NanField,
}

/// Kind of probe-level burst injected into the network emulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstKind {
    /// Probes inside the burst window are lost outright.
    Loss,
    /// Probes inside the burst window pick up extra latency.
    Jitter,
}

/// A contiguous burst covering part of one scheduling slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeBurst {
    /// Whether covered probes are lost or delayed.
    pub kind: BurstKind,
    /// Burst start as a fraction of the slot, in `[0, 1)`.
    pub start: f64,
    /// Burst end as a fraction of the slot, in `(start, 1]`.
    pub end: f64,
    /// Peak extra latency for jitter bursts, in milliseconds.
    pub magnitude_ms: f64,
}

impl ProbeBurst {
    /// Whether a probe at slot-fraction `frac` falls inside the burst.
    pub fn covers(&self, frac: f64) -> bool {
        frac >= self.start && frac < self.end
    }
}

/// A small deterministic generator for streams of derived values (for
/// example the pixel coordinates of a corrupted frame). Seeded from a
/// [`FrameFault::Corrupt`] salt or any other hash, it is a plain
/// splitmix64 sequence — cheap, reproducible, and independent of every
/// other RNG in the system.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Build a stream from a salt (already-mixed hash material).
    pub fn from_salt(salt: u64) -> Self {
        FaultRng { state: fold(DOMAIN_STREAM, salt) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state)
    }

    /// Next uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit(self.next_u64())
    }

    /// Next value in `[0, n)`; returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// A seeded, immutable fault schedule.
///
/// All decision methods are pure functions of the plan and their
/// integer keys; two plans built from the same `(seed, rates)` agree on
/// every decision, and a plan with all-zero rates reports no faults
/// anywhere (see [`FaultPlan::enabled`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// Build a plan from a seed and per-channel rates (clamped to
    /// `[0, 1]`; NaN rates become 0).
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        FaultPlan { seed, rates: rates.clamped() }
    }

    /// The fault-free plan: no channel ever fires.
    pub const fn none() -> Self {
        FaultPlan { seed: 0, rates: FaultRates::none() }
    }

    /// Whether any channel has a nonzero rate. Hosts use this to skip
    /// fault bookkeeping entirely on the fault-free path, which keeps
    /// that path bit-identical to a build without fault injection.
    pub fn enabled(&self) -> bool {
        self.rates.any()
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The (clamped) per-channel rates.
    pub fn rates(&self) -> &FaultRates {
        &self.rates
    }

    fn draw(&self, domain: u64, k1: u64, k2: u64, k3: u64) -> u64 {
        fold(fold(fold(fold(self.seed, domain), k1), k2), k3)
    }

    /// Fault decision for one obstruction-frame fetch `attempt`
    /// (0-based; retries re-draw with a fresh attempt key) by terminal
    /// `terminal` at scheduling slot `slot`.
    pub fn frame_fault(&self, terminal: u64, slot: i64, attempt: u32) -> FrameFault {
        if !self.enabled() {
            return FrameFault::None;
        }
        let h = self.draw(DOMAIN_FRAME, terminal, slot as u64, u64::from(attempt));
        let u = unit(h);
        let r = &self.rates;
        if u < r.frame_drop {
            FrameFault::Dropped
        } else if u < r.frame_drop + r.frame_stale {
            FrameFault::Stale
        } else if u < r.frame_drop + r.frame_stale + r.frame_corrupt {
            FrameFault::Corrupt { salt: mix(h) }
        } else {
            FrameFault::None
        }
    }

    /// Corruption decision for the `index`-th TLE record of a feed.
    pub fn tle_fault(&self, index: u64) -> TleFault {
        if !self.enabled() {
            return TleFault::None;
        }
        let h = self.draw(DOMAIN_TLE, index, 0, 0);
        if unit(h) >= self.rates.tle_corrupt {
            return TleFault::None;
        }
        match mix(h) % 3 {
            0 => TleFault::ChecksumFlip,
            1 => TleFault::Truncate { keep: 10 + (fold(h, 1) % 50) as usize },
            _ => TleFault::NanField,
        }
    }

    /// The probe burst (if any) affecting terminal `terminal` during
    /// scheduling slot `slot`.
    pub fn probe_burst(&self, terminal: u64, slot: i64) -> Option<ProbeBurst> {
        if !self.enabled() {
            return None;
        }
        let h = self.draw(DOMAIN_BURST, terminal, slot as u64, 0);
        if unit(h) >= self.rates.probe_burst {
            return None;
        }
        let kind = if mix(h) & 1 == 0 { BurstKind::Loss } else { BurstKind::Jitter };
        let start = unit(fold(h, 1)) * 0.8;
        let dur = 0.05 + unit(fold(h, 2)) * 0.3;
        let end = (start + dur).min(1.0);
        let magnitude_ms = 20.0 + unit(fold(h, 3)) * 180.0;
        Some(ProbeBurst { kind, start, end, magnitude_ms })
    }

    /// Extra latency for probe `seq` inside a jitter burst: a per-probe
    /// wiggle in `[0.25, 1.0)` of the burst magnitude, so bursts are
    /// visibly bursty rather than a flat offset.
    pub fn burst_jitter_ms(&self, burst: &ProbeBurst, terminal: u64, slot: i64, seq: u64) -> f64 {
        let h = self.draw(DOMAIN_JITTER, terminal, slot as u64, seq);
        burst.magnitude_ms * (0.25 + 0.75 * unit(h))
    }

    /// Apply the plan's TLE channel to a whole catalog feed: each
    /// `line 1` / `line 2` record pair (title lines pass through
    /// untouched) is corrupted per [`FaultPlan::tle_fault`] of its
    /// 0-based record index. Returns the corrupted feed text.
    pub fn corrupt_catalog_text(&self, text: &str) -> String {
        if !self.enabled() {
            return text.to_string();
        }
        let lines: Vec<&str> = text.lines().collect();
        let mut out: Vec<String> = Vec::with_capacity(lines.len());
        let mut record = 0u64;
        let mut i = 0;
        while i < lines.len() {
            let line = lines[i];
            let is_pair =
                line.starts_with("1 ") && i + 1 < lines.len() && lines[i + 1].starts_with("2 ");
            if !is_pair {
                out.push(line.to_string());
                i += 1;
                continue;
            }
            let (l1, l2) = corrupt_record(line, lines[i + 1], self.tle_fault(record));
            out.push(l1);
            out.push(l2);
            record += 1;
            i += 2;
        }
        let mut joined = out.join("\n");
        if text.ends_with('\n') {
            joined.push('\n');
        }
        joined
    }
}

/// Produce a copy of a snapshot with a single bit flipped at a
/// deterministic position drawn from `rng` — the classic torn-sector /
/// cosmic-ray model the checkpoint checksums must detect. An empty
/// input comes back empty.
pub fn bit_flipped_copy(bytes: &[u8], rng: &mut FaultRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return out;
    }
    let bit = rng.below(out.len() as u64 * 8);
    out[(bit / 8) as usize] ^= 1u8 << (bit % 8);
    out
}

/// Mod-10 TLE checksum over the first 68 bytes: digits count their
/// value, `-` counts 1, everything else 0. Mirrors the wire format used
/// by `starsense-sgp4` (kept local so this crate stays dependency-free).
fn tle_checksum(line: &str) -> u32 {
    line.bytes()
        .take(68)
        .map(|b| match b {
            b'0'..=b'9' => u32::from(b - b'0'),
            b'-' => 1,
            _ => 0,
        })
        .sum::<u32>()
        % 10
}

/// Apply one [`TleFault`] to a record pair.
fn corrupt_record(l1: &str, l2: &str, fault: TleFault) -> (String, String) {
    match fault {
        TleFault::None => (l1.to_string(), l2.to_string()),
        TleFault::ChecksumFlip => {
            let mut bytes: Vec<u8> = l1.bytes().collect();
            if let Some(b) = bytes.get_mut(68) {
                *b = if b.is_ascii_digit() { b'0' + (*b - b'0' + 1) % 10 } else { b'0' };
            }
            (String::from_utf8_lossy(&bytes).into_owned(), l2.to_string())
        }
        TleFault::Truncate { keep } => {
            let cut = l2.get(..keep.min(l2.len())).unwrap_or(l2);
            (l1.to_string(), cut.to_string())
        }
        TleFault::NanField => {
            // Replace the line-2 mean-motion field (columns 52..63) with
            // NaN and recompute the checksum so only semantic field
            // validation can catch the defect.
            let mut bytes: Vec<u8> = l2.bytes().collect();
            if bytes.len() >= 69 {
                bytes[52..63].copy_from_slice(b"        NaN");
                let body = String::from_utf8_lossy(&bytes[..68]).into_owned();
                bytes[68] = b'0' + tle_checksum(&body) as u8;
            }
            (l1.to_string(), String::from_utf8_lossy(&bytes).into_owned())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, p: f64) -> FaultPlan {
        FaultPlan::new(seed, FaultRates::uniform(p))
    }

    #[test]
    fn fault_free_plan_is_silent_everywhere() {
        let p = FaultPlan::none();
        assert!(!p.enabled());
        for t in 0..10u64 {
            for s in 0..50i64 {
                assert_eq!(p.frame_fault(t, s, 0), FrameFault::None);
                assert!(p.probe_burst(t, s).is_none());
            }
        }
        for i in 0..200u64 {
            assert_eq!(p.tle_fault(i), TleFault::None);
        }
    }

    #[test]
    fn decisions_are_reproducible_across_plan_instances() {
        let a = plan(99, 0.3);
        let b = plan(99, 0.3);
        for t in 0..8u64 {
            for s in -5..40i64 {
                for attempt in 0..3u32 {
                    assert_eq!(a.frame_fault(t, s, attempt), b.frame_fault(t, s, attempt));
                }
                assert_eq!(a.probe_burst(t, s), b.probe_burst(t, s));
            }
        }
        for i in 0..500u64 {
            assert_eq!(a.tle_fault(i), b.tle_fault(i));
        }
    }

    #[test]
    fn seed_changes_the_schedule() {
        let a = plan(1, 0.3);
        let b = plan(2, 0.3);
        let differs = (0..200u64).any(|t| a.frame_fault(t, 7, 0) != b.frame_fault(t, 7, 0));
        assert!(differs, "seeds 1 and 2 produced identical frame schedules");
    }

    #[test]
    fn decisions_are_thread_order_invariant() {
        let p = plan(1234, 0.25);
        let serial: Vec<FrameFault> = (0..64i64).map(|s| p.frame_fault(3, s, 0)).collect();
        let mut from_threads = vec![FrameFault::None; 64];
        std::thread::scope(|scope| {
            let chunks: Vec<(usize, &mut [FrameFault])> =
                from_threads.chunks_mut(16).enumerate().collect();
            for (c, chunk) in chunks {
                let p = &p;
                scope.spawn(move || {
                    // Walk the chunk backwards: order must not matter.
                    for (j, out) in chunk.iter_mut().enumerate().rev() {
                        *out = p.frame_fault(3, (c * 16 + j) as i64, 0);
                    }
                });
            }
        });
        assert_eq!(serial, from_threads);
    }

    #[test]
    fn empirical_rates_track_configured_rates() {
        let p = plan(7, 0.2);
        let n = 20_000u64;
        let tle = (0..n).filter(|&i| p.tle_fault(i) != TleFault::None).count();
        let got = tle as f64 / n as f64;
        assert!((got - 0.2).abs() < 0.02, "TLE corruption rate {got} vs 0.2");
        let frame_faulty = (0..n).filter(|&t| p.frame_fault(t, 5, 0) != FrameFault::None).count();
        let got = frame_faulty as f64 / n as f64;
        assert!((got - 0.2).abs() < 0.02, "frame fault rate {got} vs 0.2");
    }

    #[test]
    fn fault_sets_are_monotone_in_rate() {
        // Same seed, higher rate: every key that faults at the low rate
        // also faults at the high rate (the unit draw per key is fixed).
        for &(lo, hi) in &[(0.05, 0.1), (0.1, 0.4), (0.3, 0.9)] {
            let a = plan(5, lo);
            let b = plan(5, hi);
            for id in 0..2000u32 {
                if a.tle_fault(u64::from(id)) != TleFault::None {
                    assert_ne!(b.tle_fault(u64::from(id)), TleFault::None);
                }
                if a.probe_burst(u64::from(id), 3).is_some() {
                    assert!(b.probe_burst(u64::from(id), 3).is_some());
                }
            }
        }
    }

    #[test]
    fn rates_are_clamped() {
        let p = FaultPlan::new(
            1,
            FaultRates {
                frame_drop: 7.0,
                tle_corrupt: -3.0,
                probe_burst: f64::NAN,
                ..FaultRates::none()
            },
        );
        assert_eq!(p.rates().frame_drop, 1.0);
        assert_eq!(p.rates().tle_corrupt, 0.0);
        assert_eq!(p.rates().probe_burst, 0.0);
        // frame_drop == 1.0 ⇒ every fetch attempt drops.
        for t in 0..50u64 {
            assert_eq!(p.frame_fault(t, 0, 0), FrameFault::Dropped);
        }
    }

    #[test]
    fn burst_geometry_is_well_formed() {
        let p = plan(21, 1.0);
        let mut found = 0;
        for t in 0..100u64 {
            if let Some(b) = p.probe_burst(t, 9) {
                found += 1;
                assert!(b.start >= 0.0 && b.start < 1.0);
                assert!(b.end > b.start && b.end <= 1.0);
                assert!(b.magnitude_ms >= 20.0 && b.magnitude_ms <= 200.0);
                assert!(!b.covers(b.end));
                assert!(b.covers(b.start));
                let j = p.burst_jitter_ms(&b, t, 9, 17);
                assert!(j >= 0.25 * b.magnitude_ms && j < b.magnitude_ms);
            }
        }
        assert_eq!(found, 100, "probe_burst rate 1.0 must always fire");
    }

    #[test]
    fn bit_flipped_copy_is_deterministic_and_flips_one_bit() {
        let bytes: Vec<u8> = (0..257u32).map(|i| (i % 251) as u8).collect();
        let mut r1 = FaultRng::from_salt(9);
        let mut r2 = FaultRng::from_salt(9);
        let f1 = bit_flipped_copy(&bytes, &mut r1);
        let f2 = bit_flipped_copy(&bytes, &mut r2);
        assert_eq!(f1, f2);
        assert_eq!(f1.len(), bytes.len());
        let flipped: usize =
            f1.iter().zip(&bytes).map(|(a, b)| (a ^ b).count_ones() as usize).sum();
        assert_eq!(flipped, 1, "exactly one bit must differ");

        assert!(bit_flipped_copy(&[], &mut r1).is_empty());
    }

    #[test]
    fn fault_rng_streams_are_reproducible_and_uniform() {
        let mut a = FaultRng::from_salt(42);
        let mut b = FaultRng::from_salt(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = FaultRng::from_salt(43);
        let mut acc = 0.0;
        for _ in 0..1000 {
            let u = c.unit();
            assert!((0.0..1.0).contains(&u));
            acc += u;
        }
        assert!((acc / 1000.0 - 0.5).abs() < 0.05);
        assert_eq!(FaultRng::from_salt(1).below(0), 0);
        assert!(FaultRng::from_salt(1).below(7) < 7);
    }
}
