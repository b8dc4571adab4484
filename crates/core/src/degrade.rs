//! Graceful degradation: what a campaign knows when it does *not* know
//! the serving satellite.
//!
//! The paper's pipeline silently skipped slots it could not identify.
//! Under fault injection that is no longer acceptable: a chaos campaign
//! needs to distinguish "the scheduler served nobody" from "the frame
//! fetch failed" from "the match was too close to call". Every
//! [`SlotObservation`](crate::campaign::SlotObservation) therefore
//! carries a [`SlotOutcome`], and [`DegradationStats`] aggregates them
//! into the health metrics the chaos harness asserts on.

/// Why a slot produced no identification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The scheduler allocated no satellite to the terminal this slot.
    Outage,
    /// Every obstruction-frame fetch attempt failed, retries included.
    FrameDropped {
        /// Fetch attempts made before giving up.
        attempts: u32,
    },
    /// The fetched frame predated this slot's trail (a late gRPC reply
    /// serving the previous map state), so differencing found nothing.
    StaleFrame,
    /// The frame was captured right after a map reset: there is no
    /// previous map it can be differenced against.
    AfterReset,
    /// No usable previous capture — the campaign just started, or the
    /// previous slot's frame was dropped.
    MissingBaseline,
    /// The XOR of consecutive frames left no trail.
    EmptyTrail,
    /// The isolated trail was too short to be a trajectory.
    TinyTrail,
    /// No published-TLE candidate was in view.
    NoCandidates,
    /// The pipeline named a satellite that is not in the slot's
    /// available list (a confident misidentification).
    UnmatchedIdentity,
}

/// How one slot's observation resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlotOutcome {
    /// The serving satellite was established. In identified mode
    /// `confidence` is the DTW margin of the winning match (in `[0, 1]`);
    /// in oracle mode it is `1.0` — the scheduler was read directly.
    Observed {
        /// Margin of the winning match, or `1.0` for oracle reads.
        confidence: f64,
    },
    /// A best match exists but fell below the campaign's margin
    /// threshold; reporting it as fact would be a guess.
    Ambiguous {
        /// The sub-threshold best margin.
        margin: f64,
    },
    /// No identification at all, with the cause.
    NoData(DegradeReason),
}

impl SlotOutcome {
    /// Whether the slot produced a usable identification.
    pub fn is_observed(&self) -> bool {
        matches!(self, SlotOutcome::Observed { .. })
    }
}

/// Aggregate degradation over a run (or several merged runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// Slot observations counted.
    pub slots: usize,
    /// Slots with a usable identification.
    pub observed: usize,
    /// Slots whose best match fell below the margin threshold.
    pub ambiguous: usize,
    /// Slots with no identification at all.
    pub no_data: usize,
    /// `no_data` slots caused by exhausted frame fetches.
    pub frame_dropped: usize,
    /// `no_data` slots caused by stale frames.
    pub stale_frames: usize,
    /// `no_data` slots where the scheduler served nobody.
    pub outages: usize,
}

impl DegradationStats {
    /// Tallies the outcomes of an observation stream.
    pub fn collect(observations: &[crate::campaign::SlotObservation]) -> DegradationStats {
        let mut stats = DegradationStats { slots: observations.len(), ..Default::default() };
        for obs in observations {
            match obs.outcome {
                SlotOutcome::Observed { .. } => stats.observed += 1,
                SlotOutcome::Ambiguous { .. } => stats.ambiguous += 1,
                SlotOutcome::NoData(reason) => {
                    stats.no_data += 1;
                    match reason {
                        DegradeReason::FrameDropped { .. } => stats.frame_dropped += 1,
                        DegradeReason::StaleFrame => stats.stale_frames += 1,
                        DegradeReason::Outage => stats.outages += 1,
                        _ => {}
                    }
                }
            }
        }
        stats
    }

    /// Fraction of slots with a usable identification (`1.0` when empty).
    pub fn observed_rate(&self) -> f64 {
        if self.slots == 0 {
            return 1.0;
        }
        self.observed as f64 / self.slots as f64
    }

    /// Accumulates another run's counters into this one (for seed-sweep
    /// aggregation in the chaos harness).
    pub fn merge(&mut self, other: &DegradationStats) {
        self.slots += other.slots;
        self.observed += other.observed;
        self.ambiguous += other.ambiguous;
        self.no_data += other.no_data;
        self.frame_dropped += other.frame_dropped;
        self.stale_frames += other.stale_frames;
        self.outages += other.outages;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::SlotObservation;
    use starsense_astro::time::JulianDate;

    fn obs(outcome: SlotOutcome) -> SlotObservation {
        SlotObservation {
            terminal_id: 0,
            slot: 1,
            slot_start: JulianDate::J2000,
            local_hour: 12.0,
            available: Vec::new(),
            chosen: None,
            truth_id: None,
            outcome,
        }
    }

    #[test]
    fn collect_buckets_every_outcome() {
        let stream = vec![
            obs(SlotOutcome::Observed { confidence: 0.4 }),
            obs(SlotOutcome::Observed { confidence: 1.0 }),
            obs(SlotOutcome::Ambiguous { margin: 0.01 }),
            obs(SlotOutcome::NoData(DegradeReason::FrameDropped { attempts: 3 })),
            obs(SlotOutcome::NoData(DegradeReason::StaleFrame)),
            obs(SlotOutcome::NoData(DegradeReason::Outage)),
            obs(SlotOutcome::NoData(DegradeReason::EmptyTrail)),
        ];
        let s = DegradationStats::collect(&stream);
        assert_eq!(s.slots, 7);
        assert_eq!(s.observed, 2);
        assert_eq!(s.ambiguous, 1);
        assert_eq!(s.no_data, 4);
        assert_eq!(s.frame_dropped, 1);
        assert_eq!(s.stale_frames, 1);
        assert_eq!(s.outages, 1);
        assert!((s.observed_rate() - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_healthy() {
        let s = DegradationStats::collect(&[]);
        assert_eq!(s.observed_rate(), 1.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = DegradationStats::collect(&[obs(SlotOutcome::Observed { confidence: 1.0 })]);
        let b = DegradationStats::collect(&[
            obs(SlotOutcome::Ambiguous { margin: 0.02 }),
            obs(SlotOutcome::NoData(DegradeReason::Outage)),
        ]);
        a.merge(&b);
        assert_eq!(a.slots, 3);
        assert_eq!(a.observed, 1);
        assert_eq!(a.ambiguous, 1);
        assert_eq!(a.no_data, 1);
        assert_eq!(a.outages, 1);
    }

    #[test]
    fn outcome_predicates_partition() {
        let outcomes = [
            SlotOutcome::Observed { confidence: 0.5 },
            SlotOutcome::Ambiguous { margin: 0.0 },
            SlotOutcome::NoData(DegradeReason::TinyTrail),
        ];
        assert!(outcomes[0].is_observed());
        assert!(outcomes[1..].iter().all(|o| !o.is_observed()));
    }
}
