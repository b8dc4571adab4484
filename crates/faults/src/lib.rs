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
//! SGP4 propagation failures with quarantine of repeat offenders, and
//! probe loss / jitter bursts in the network emulator.

/// Hash-domain tags keeping the per-channel decision streams independent.
const DOMAIN_FRAME: u64 = 0x4652_414d_4500_0001;
const DOMAIN_TLE: u64 = 0x544c_4500_0000_0002;
const DOMAIN_PROP: u64 = 0x5052_4f50_0000_0003;
const DOMAIN_BURST: u64 = 0x4255_5253_5400_0004;
const DOMAIN_JITTER: u64 = 0x4a49_5454_4500_0005;
const DOMAIN_STREAM: u64 = 0x5354_5245_414d_0006;
const DOMAIN_WORKER: u64 = 0x574f_524b_4552_0007;

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
    /// Probability SGP4 propagation of a satellite fails for one slot.
    pub propagation_fail: f64,
    /// Probability a probe slot carries a loss or jitter burst.
    pub probe_burst: f64,
    /// Probability a shard worker attempt panics mid-segment. Worker
    /// channels are **not** part of [`FaultRates::uniform`]: the chaos
    /// soak's golden fingerprints predate them, and worker faults only
    /// perturb the supervision layer, never the measurement stream.
    pub worker_panic: f64,
    /// Probability a shard worker attempt overruns its virtual deadline.
    pub worker_overrun: f64,
}

impl FaultRates {
    /// All channels at probability zero.
    pub const fn none() -> Self {
        FaultRates {
            frame_drop: 0.0,
            frame_stale: 0.0,
            frame_corrupt: 0.0,
            tle_corrupt: 0.0,
            propagation_fail: 0.0,
            probe_burst: 0.0,
            worker_panic: 0.0,
            worker_overrun: 0.0,
        }
    }

    /// Every *measurement* channel at the same probability `p` — the
    /// knob the chaos soak sweeps to escalate pressure uniformly. The
    /// three frame channels share the single per-frame draw, so each
    /// gets `p / 3` to keep the *total* frame-fault probability at `p`.
    /// The worker channels stay at zero: they must be opted into
    /// explicitly so the existing soak tiers keep their fingerprints.
    pub fn uniform(p: f64) -> Self {
        let p = clamp01(p);
        FaultRates {
            frame_drop: p / 3.0,
            frame_stale: p / 3.0,
            frame_corrupt: p / 3.0,
            tle_corrupt: p,
            propagation_fail: p,
            probe_burst: p,
            worker_panic: 0.0,
            worker_overrun: 0.0,
        }
    }

    fn clamped(self) -> Self {
        FaultRates {
            frame_drop: clamp01(self.frame_drop),
            frame_stale: clamp01(self.frame_stale),
            frame_corrupt: clamp01(self.frame_corrupt),
            tle_corrupt: clamp01(self.tle_corrupt),
            propagation_fail: clamp01(self.propagation_fail),
            probe_burst: clamp01(self.probe_burst),
            worker_panic: clamp01(self.worker_panic),
            worker_overrun: clamp01(self.worker_overrun),
        }
    }

    fn any(&self) -> bool {
        self.frame_drop > 0.0
            || self.frame_stale > 0.0
            || self.frame_corrupt > 0.0
            || self.tle_corrupt > 0.0
            || self.propagation_fail > 0.0
            || self.probe_burst > 0.0
            || self.worker_panic > 0.0
            || self.worker_overrun > 0.0
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

/// Injected failure of one shard-worker execution attempt.
///
/// Both outcomes are aimed at the supervision layer of
/// `starsense-core`'s resumable campaign engine: a `Panic` is raised
/// *inside* the worker's `catch_unwind` boundary and an `Overrun` is
/// reported as a virtual deadline miss (no wall clock is consulted), so
/// either way the retry / quarantine state machine — not the
/// measurement stream — absorbs the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// The attempt completes normally.
    None,
    /// The attempt panics mid-segment.
    Panic,
    /// The attempt exceeds its virtual deadline budget.
    Overrun,
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

    /// Fault decision for one shard-worker execution attempt
    /// (0-based; each retry re-draws with a fresh attempt key) of work
    /// unit `unit` whose segment starts at absolute slot `first_slot`.
    /// The two worker rates partition a single draw exactly like the
    /// frame channels, so a key that panics at a low `worker_panic`
    /// still panics when the rate rises.
    pub fn worker_fault(&self, unit_id: u64, first_slot: i64, attempt: u32) -> WorkerFault {
        if !self.enabled() {
            return WorkerFault::None;
        }
        let h = self.draw(DOMAIN_WORKER, unit_id, first_slot as u64, u64::from(attempt));
        let u = unit(h);
        let r = &self.rates;
        if u < r.worker_panic {
            WorkerFault::Panic
        } else if u < r.worker_panic + r.worker_overrun {
            WorkerFault::Overrun
        } else {
            WorkerFault::None
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

    /// Whether SGP4 propagation of satellite `norad_id` fails at
    /// scheduling slot `slot`.
    pub fn propagation_fails(&self, norad_id: u32, slot: i64) -> bool {
        if !self.enabled() {
            return false;
        }
        let h = self.draw(DOMAIN_PROP, u64::from(norad_id), slot as u64, 0);
        unit(h) < self.rates.propagation_fail
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

/// Produce a torn copy of a snapshot: the byte stream is cut at a
/// deterministic point drawn from `rng`, anywhere from the empty prefix
/// to one byte short of complete. Used by the crash harness to model a
/// writer killed mid-`write` (which the checkpoint layer's atomic
/// rename normally prevents, and its checksums must catch regardless).
pub fn truncated_copy(bytes: &[u8], rng: &mut FaultRng) -> Vec<u8> {
    if bytes.is_empty() {
        return Vec::new();
    }
    let keep = rng.below(bytes.len() as u64) as usize;
    bytes[..keep].to_vec()
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

/// Precomputed propagation-fault schedule for a whole campaign window,
/// including quarantine of satellites that fail repeatedly.
///
/// Built serially *before* any parallel phase runs, the schedule is a
/// pure function of `(plan, sat_ids, first_slot, slots)`, which is what
/// keeps fault-injected campaigns invariant under thread count: the
/// parallel visibility phase only ever *reads* the schedule.
#[derive(Debug, Clone)]
pub struct PropagationSchedule {
    slots: usize,
    words_per_sat: usize,
    masked: Vec<u64>,
    quarantined_from: Vec<usize>,
    raw_faults: usize,
}

impl PropagationSchedule {
    /// Build the schedule for `sat_ids` over `slots` slots starting at
    /// absolute slot number `first_slot`. A satellite accumulating
    /// `quarantine_after` propagation faults is masked for every later
    /// slot as well (`quarantine_after == 0` disables quarantine).
    pub fn build(
        plan: &FaultPlan,
        sat_ids: &[u32],
        first_slot: i64,
        slots: usize,
        quarantine_after: u32,
    ) -> Self {
        let words_per_sat = slots.div_ceil(64).max(1);
        let mut masked = vec![0u64; words_per_sat * sat_ids.len()];
        let mut quarantined_from = vec![slots; sat_ids.len()];
        let mut raw_faults = 0usize;
        for (s, &id) in sat_ids.iter().enumerate() {
            let words = &mut masked[s * words_per_sat..(s + 1) * words_per_sat];
            let mut fails = 0u32;
            for k in 0..slots {
                let mut hit = plan.propagation_fails(id, first_slot + k as i64);
                if hit {
                    raw_faults += 1;
                    fails += 1;
                    if quarantine_after > 0 && fails >= quarantine_after && quarantined_from[s] > k
                    {
                        quarantined_from[s] = k;
                    }
                }
                hit = hit || k >= quarantined_from[s];
                if hit {
                    words[k / 64] |= 1u64 << (k % 64);
                }
            }
        }
        PropagationSchedule { slots, words_per_sat, masked, quarantined_from, raw_faults }
    }

    /// Whether satellite index `sat` (position in the `sat_ids` slice
    /// the schedule was built from) is masked at relative slot `k`.
    /// Out-of-range queries report `false`.
    pub fn masked(&self, sat: usize, k: usize) -> bool {
        if k >= self.slots || sat >= self.quarantined_from.len() {
            return false;
        }
        let word = self.masked[sat * self.words_per_sat + k / 64];
        word >> (k % 64) & 1 == 1
    }

    /// Whether satellite index `sat` ever enters quarantine.
    pub fn quarantined(&self, sat: usize) -> bool {
        self.quarantined_from.get(sat).is_some_and(|&q| q < self.slots)
    }

    /// Number of satellites that entered quarantine.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined_from.iter().filter(|&&q| q < self.slots).count()
    }

    /// Number of raw propagation faults (before quarantine widening).
    pub fn raw_fault_count(&self) -> usize {
        self.raw_faults
    }

    /// Total masked `(satellite, slot)` pairs, quarantine included.
    pub fn masked_slot_count(&self) -> usize {
        self.masked.iter().map(|w| w.count_ones() as usize).sum()
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
            assert!(!p.propagation_fails(44000 + i as u32, i as i64));
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
        let prop = (0..n).filter(|&i| p.propagation_fails(i as u32, 11)).count();
        let got = prop as f64 / n as f64;
        assert!((got - 0.2).abs() < 0.02, "propagation rate {got} vs 0.2");
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
                if a.propagation_fails(id, 3) {
                    assert!(b.propagation_fails(id, 3));
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
                propagation_fail: f64::NAN,
                ..FaultRates::none()
            },
        );
        assert_eq!(p.rates().frame_drop, 1.0);
        assert_eq!(p.rates().tle_corrupt, 0.0);
        assert_eq!(p.rates().propagation_fail, 0.0);
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
    fn worker_channels_are_opt_in_only() {
        // uniform() must never arm the worker channels: the chaos-soak
        // golden fingerprints were frozen before they existed.
        let u = FaultRates::uniform(0.9);
        assert_eq!(u.worker_panic, 0.0);
        assert_eq!(u.worker_overrun, 0.0);
        let p = FaultPlan::new(3, u);
        for unit_id in 0..200u64 {
            assert_eq!(p.worker_fault(unit_id, 5, 0), WorkerFault::None);
        }
    }

    #[test]
    fn worker_faults_are_deterministic_and_partitioned() {
        let rates = FaultRates { worker_panic: 0.3, worker_overrun: 0.3, ..FaultRates::none() };
        let a = FaultPlan::new(11, rates);
        let b = FaultPlan::new(11, rates);
        let mut panics = 0;
        let mut overruns = 0;
        for unit_id in 0..3000u64 {
            for attempt in 0..3u32 {
                let f = a.worker_fault(unit_id, 42, attempt);
                assert_eq!(f, b.worker_fault(unit_id, 42, attempt));
                match f {
                    WorkerFault::Panic => panics += 1,
                    WorkerFault::Overrun => overruns += 1,
                    WorkerFault::None => {}
                }
            }
        }
        let n = 9000.0;
        assert!((panics as f64 / n - 0.3).abs() < 0.03, "panic rate {}", panics as f64 / n);
        assert!((overruns as f64 / n - 0.3).abs() < 0.03, "overrun rate {}", overruns as f64 / n);
        // A plan armed only with worker faults still reports enabled().
        assert!(a.enabled());
        // Retries re-draw: some unit that panics at attempt 0 succeeds later.
        let recovers = (0..500u64).any(|unit_id| {
            a.worker_fault(unit_id, 42, 0) == WorkerFault::Panic
                && a.worker_fault(unit_id, 42, 1) == WorkerFault::None
        });
        assert!(recovers, "no panicking unit ever recovered on retry");
    }

    #[test]
    fn worker_faults_do_not_perturb_measurement_channels() {
        let quiet = FaultPlan::none();
        let armed = FaultPlan::new(
            0,
            FaultRates { worker_panic: 1.0, worker_overrun: 0.0, ..FaultRates::none() },
        );
        // Arming the worker channel flips enabled(), but every
        // measurement draw must still be fault-free because its own
        // rate is zero — the streams are domain-separated.
        for t in 0..50u64 {
            assert_eq!(armed.frame_fault(t, 3, 0), quiet.frame_fault(t, 3, 0));
            assert_eq!(armed.probe_burst(t, 3), quiet.probe_burst(t, 3));
            assert_eq!(armed.tle_fault(t), quiet.tle_fault(t));
            assert!(!armed.propagation_fails(44000 + t as u32, 3));
        }
    }

    #[test]
    fn snapshot_corruptors_are_deterministic_and_bounded() {
        let bytes: Vec<u8> = (0..257u32).map(|i| (i % 251) as u8).collect();
        let mut r1 = FaultRng::from_salt(9);
        let mut r2 = FaultRng::from_salt(9);
        let t1 = truncated_copy(&bytes, &mut r1);
        let t2 = truncated_copy(&bytes, &mut r2);
        assert_eq!(t1, t2);
        assert!(t1.len() < bytes.len(), "truncation must remove at least one byte");
        assert_eq!(t1[..], bytes[..t1.len()]);

        let f1 = bit_flipped_copy(&bytes, &mut r1);
        let f2 = bit_flipped_copy(&bytes, &mut r2);
        assert_eq!(f1, f2);
        assert_eq!(f1.len(), bytes.len());
        let flipped: usize =
            f1.iter().zip(&bytes).map(|(a, b)| (a ^ b).count_ones() as usize).sum();
        assert_eq!(flipped, 1, "exactly one bit must differ");

        assert!(truncated_copy(&[], &mut r1).is_empty());
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
