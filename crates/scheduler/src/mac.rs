//! The on-satellite medium-access-control (MAC) scheduler.
//!
//! §3: "within the 15-second time interval, latency measurements \[from\] the
//! user terminal frequently form parallel bands that are a few milliseconds
//! apart. These bands reflect evidence that radio frames are allocated to
//! user terminals by an on-satellite controller in a round-robin fashion."
//! The controller matches the "medium access control scheduler" described
//! in SpaceX's patent filing (US 11,540,301).
//!
//! [`MacScheduler`] models exactly that: uplink time is divided into fixed
//! radio frames; the terminals attached to a satellite own frames in
//! round-robin order; a packet arriving at the terminal waits for the next
//! frame its terminal owns. With an `n`-terminal cycle and frame length
//! `f`, the added queueing delay is quantized to the grid `{0, f, 2f, …,
//! (n−1)·f}` sampled by the probe phase — which is precisely what paints
//! the parallel RTT bands of Figure 2.

/// Round-robin frame scheduler for one satellite.
#[derive(Debug, Clone, PartialEq)]
pub struct MacScheduler {
    frame_ms: f64,
    attached: Vec<usize>,
}

impl MacScheduler {
    /// Creates a scheduler with the given radio-frame length (milliseconds)
    /// and an initially empty attachment set.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive frame length.
    pub fn new(frame_ms: f64) -> MacScheduler {
        assert!(frame_ms > 0.0, "frame length must be positive");
        MacScheduler { frame_ms, attached: Vec::new() }
    }

    /// Frame length in milliseconds.
    pub fn frame_ms(&self) -> f64 {
        self.frame_ms
    }

    /// Currently attached terminals, in round-robin order.
    pub fn attached(&self) -> &[usize] {
        &self.attached
    }

    /// Replaces the attachment set (a global-scheduler reallocation).
    pub fn set_attached(&mut self, terminals: Vec<usize>) {
        self.attached = terminals;
        self.attached.dedup();
    }

    /// Cycle length in milliseconds: one frame per attached terminal.
    pub fn cycle_ms(&self) -> f64 {
        self.frame_ms * self.attached.len().max(1) as f64
    }

    /// Queueing delay (ms) for a packet from `terminal` arriving at offset
    /// `t_ms` within the slot: time until the *next* frame boundary owned
    /// by that terminal (a frame already in progress cannot be joined).
    ///
    /// Returns `None` when the terminal is not attached (its traffic is not
    /// served by this satellite at all).
    pub fn wait_ms(&self, terminal: usize, t_ms: f64) -> Option<f64> {
        let n = self.attached.len();
        let pos = self.attached.iter().position(|&t| t == terminal)?;
        debug_assert!(n > 0);

        let current = (t_ms / self.frame_ms).floor() as i64;
        // Next frame index ≥ current+1 whose owner is `pos`.
        let n = n as i64;
        let rem = (current + 1).rem_euclid(n);
        let skip = (pos as i64 - rem).rem_euclid(n);
        let next_owned = current + 1 + skip;
        Some(next_owned as f64 * self.frame_ms - t_ms)
    }

    /// The discrete set of steady-state extra delays a probe train with
    /// period `probe_ms` experiences — the predicted band offsets.
    /// Sorted ascending; empty when the terminal is not attached.
    pub fn band_offsets_ms(&self, terminal: usize, probe_ms: f64, probes: usize) -> Vec<f64> {
        let mut seen: Vec<f64> = Vec::new();
        for k in 0..probes {
            if let Some(w) = self.wait_ms(terminal, k as f64 * probe_ms) {
                // Quantize to sub-microsecond to dedup float noise.
                let q = (w * 1e4).round() / 1e4;
                if !seen.contains(&q) {
                    seen.push(q);
                }
            }
        }
        seen.sort_by(f64::total_cmp);
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(n: usize) -> MacScheduler {
        let mut m = MacScheduler::new(1.5);
        m.set_attached((0..n).collect());
        m
    }

    #[test]
    fn unattached_terminal_gets_none() {
        let m = mac(3);
        assert!(m.wait_ms(99, 0.0).is_none());
        assert!(m.band_offsets_ms(99, 20.0, 10).is_empty());
    }

    #[test]
    fn wait_is_bounded_by_one_cycle() {
        let m = mac(4);
        for k in 0..200 {
            let t = k as f64 * 0.37;
            let w = m.wait_ms(2, t).unwrap();
            assert!(w > 0.0, "must wait for the *next* boundary (t={t})");
            assert!(w <= m.cycle_ms() + 1e-9, "wait {w} exceeds cycle (t={t})");
        }
    }

    #[test]
    fn single_terminal_waits_at_most_one_frame() {
        let m = mac(1);
        for k in 0..50 {
            let t = k as f64 * 0.21;
            let w = m.wait_ms(0, t).unwrap();
            assert!(w <= m.frame_ms() + 1e-9);
        }
    }

    #[test]
    fn round_robin_order_is_fair() {
        // Over one full cycle of arrivals at frame starts, each terminal's
        // wait pattern is a rotation of the others'.
        let m = mac(3);
        let waits: Vec<f64> = (0..3).map(|k| m.wait_ms(k, 0.0).unwrap()).collect();
        let mut sorted = waits.clone();
        sorted.sort_by(f64::total_cmp);
        // Terminal 1 owns frame 1 (starting at 1.5ms), terminal 2 frame 2, etc.
        assert_eq!(sorted, vec![1.5, 3.0, 4.5]);
    }

    #[test]
    fn wait_lands_exactly_on_owned_frame_boundary() {
        let m = mac(5);
        for term in 0..5 {
            for k in 0..40 {
                let t = k as f64 * 1.1;
                let w = m.wait_ms(term, t).unwrap();
                let land = t + w;
                let frame = (land / m.frame_ms()).round() as i64;
                assert!((land - frame as f64 * m.frame_ms()).abs() < 1e-9);
                assert_eq!(frame.rem_euclid(5) as usize, term);
            }
        }
    }

    #[test]
    fn probe_train_sees_discrete_bands() {
        // 4 attached terminals, 1.5 ms frames → 6 ms cycle; 20 ms probes
        // sample phases 20k mod 6 ∈ {0, 2, 4} ms: exactly 3 bands.
        let m = mac(4);
        let bands = m.band_offsets_ms(1, 20.0, 120);
        assert_eq!(bands.len(), 3, "bands: {bands:?}");
        for w in bands.windows(2) {
            assert!((w[1] - w[0] - 2.0).abs() < 1e-6, "bands 2 ms apart: {bands:?}");
        }
    }

    #[test]
    fn more_attached_terminals_stretch_the_cycle() {
        assert!(mac(8).cycle_ms() > mac(2).cycle_ms());
        let w8 = mac(8).band_offsets_ms(0, 20.0, 200);
        let w2 = mac(2).band_offsets_ms(0, 20.0, 200);
        let max8 = w8.last().copied().unwrap();
        let max2 = w2.last().copied().unwrap();
        assert!(max8 > max2, "more sharing → longer worst-case wait");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frame_panics() {
        let _ = MacScheduler::new(0.0);
    }
}
