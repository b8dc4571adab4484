//! The end-to-end emulator: hidden scheduler + MAC + bent pipe + loss.

use crate::clock::ClockModel;
use crate::groundstation::PopSite;
use crate::loss::GilbertElliott;
use crate::path::bent_pipe_rtt_ms;
use crate::trace::{LossCause, ProbeRecord, RttTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use starsense_astro::time::JulianDate;
use starsense_astro::vec3::Vec3;
use starsense_constellation::{Constellation, Satellite};
use starsense_faults::{BurstKind, FaultPlan};
use starsense_scheduler::slots::slot_index;
use starsense_scheduler::{Allocation, GlobalScheduler, MacScheduler};
use starsense_sgp4::Sgp4Batch;

/// Emulator tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulatorConfig {
    /// Probe period, ms (the paper: 1 packet / 20 ms).
    pub probe_period_ms: f64,
    /// MAC radio-frame length, ms.
    pub frame_ms: f64,
    /// Gaussian RTT jitter sigma, ms.
    pub jitter_ms: f64,
    /// Loss chain parameters.
    pub loss: GilbertElliott,
    /// Extra loss probability during the handover window at the start of
    /// each slot.
    pub handover_loss_prob: f64,
    /// Length of the handover window, ms.
    pub handover_window_ms: f64,
    /// Minimum satellite elevation from a ground station, degrees.
    pub min_gs_elevation_deg: f64,
    /// Largest number of terminals sharing a satellite's MAC cycle.
    pub max_mac_share: usize,
    /// Deterministic fault-injection plan. The default
    /// ([`FaultPlan::none`]) disables injection entirely and leaves probe
    /// traces bit-identical to a plan-less emulator: fault decisions come
    /// from counter-based hashes, never from the emulator's RNG stream.
    pub faults: FaultPlan,
}

impl Default for EmulatorConfig {
    fn default() -> Self {
        EmulatorConfig {
            probe_period_ms: 20.0,
            frame_ms: 1.5,
            jitter_ms: 0.18,
            loss: GilbertElliott::starlink_nominal(),
            handover_loss_prob: 0.35,
            handover_window_ms: 120.0,
            min_gs_elevation_deg: 25.0,
            max_mac_share: 6,
            faults: FaultPlan::none(),
        }
    }
}

/// One slot of the iPerf-style capacity measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputRecord {
    /// Global slot index.
    pub slot: i64,
    /// Slot start.
    pub slot_start: JulianDate,
    /// Serving satellite (`None` = outage).
    pub serving_sat: Option<u32>,
    /// Capacity figures for the slot (`None` = outage).
    pub throughput: Option<crate::throughput::SlotThroughput>,
}

/// The measurement-path emulator.
///
/// Owns the hidden [`GlobalScheduler`] and drives it slot by slot while
/// generating probe traffic, exactly mirroring the paper's setup: the
/// prober cannot see the scheduler; it only sees RTTs.
pub struct Emulator<'a> {
    constellation: &'a Constellation,
    scheduler: GlobalScheduler,
    /// PoP (with ground stations) for each terminal, by terminal id.
    terminal_pops: Vec<PopSite>,
    config: EmulatorConfig,
    clocks: Vec<ClockModel>,
    rng: StdRng,
    loss_chains: Vec<GilbertElliott>,
}

impl<'a> Emulator<'a> {
    /// Creates an emulator. `terminal_pops[i]` must be the PoP serving
    /// `scheduler.terminals()[i]`.
    ///
    /// # Panics
    ///
    /// Panics when the PoP list length does not match the terminal count.
    pub fn new(
        constellation: &'a Constellation,
        scheduler: GlobalScheduler,
        terminal_pops: Vec<PopSite>,
        config: EmulatorConfig,
        seed: u64,
    ) -> Emulator<'a> {
        assert_eq!(terminal_pops.len(), scheduler.terminals().len(), "one PoP per terminal");
        let n = scheduler.terminals().len();
        let clocks = (0..n).map(|i| ClockModel::ntp_nominal(seed ^ i as u64)).collect();
        let loss_chains = (0..n).map(|_| config.loss).collect();
        Emulator {
            constellation,
            scheduler,
            terminal_pops,
            config,
            clocks,
            rng: StdRng::seed_from_u64(seed),
            loss_chains,
        }
    }

    /// Read access to the scheduler (for oracle analyses in tests/benches).
    pub fn scheduler(&self) -> &GlobalScheduler {
        &self.scheduler
    }

    /// Runs probes from every terminal simultaneously for `duration_s`
    /// seconds starting at `from`, returning one trace per terminal.
    ///
    /// The global scheduler fires exactly once per 15-second slot for all
    /// terminals together, matching the paper's key observation that
    /// reallocation is globally synchronized.
    ///
    /// Probes are driven as **slot cohorts**: everything a slot's probes
    /// share — the allocation, each terminal's MAC cycle, the resolved
    /// catalog entry of every distinct serving satellite — is computed once
    /// at the slot boundary, and each probe instant propagates a serving
    /// satellite once no matter how many terminals it carries. Only the
    /// per-terminal draws (loss chain, handover, jitter) stay in the inner
    /// loop, in the historical order, so traces are byte-identical to the
    /// old per-probe engine (pinned by the golden-fingerprint tests).
    pub fn probe_all(&mut self, from: JulianDate, duration_s: f64) -> Vec<RttTrace> {
        let n_terminals = self.scheduler.terminals().len();
        let mut traces: Vec<RttTrace> = (0..n_terminals)
            .map(|terminal_id| RttTrace { terminal_id, records: Vec::new() })
            .collect();

        let n_probes = (duration_s * 1_000.0 / self.config.probe_period_ms).floor() as u64;
        let mut current_slot: Option<i64> = None;
        let mut cohort = SlotCohort {
            allocations: Vec::new(),
            macs: Vec::new(),
            serving: Vec::new(),
            batch: Sgp4Batch::default(),
        };
        // Reusable per-probe buffer: this instant's TEME position of each
        // cohort satellite.
        let mut teme: Vec<Option<Vec3>> = Vec::new();

        for seq in 0..n_probes {
            let at = from.plus_seconds(seq as f64 * self.config.probe_period_ms / 1_000.0);
            let slot = slot_index(at);
            if current_slot != Some(slot) {
                cohort = self.build_cohort(at);
                current_slot = Some(slot);
            }

            // Serving satellites move ~150 km within a slot, so positions
            // are per-probe — but the cohort's distinct satellites are
            // propagated as one SoA batch per probe instant, bit-identical
            // to satellite-by-satellite [`Satellite::true_position`] calls.
            cohort.batch.positions_into(at, &mut teme);

            for (t, trace) in traces.iter_mut().enumerate() {
                trace.records.push(self.probe_in_cohort(t, seq, at, &cohort, &teme));
            }
        }
        traces
    }

    /// Runs the iPerf side of the measurement: per-slot uplink capacity for
    /// one terminal over `slots` consecutive slots. Capacity steps at every
    /// 15-second boundary are the throughput twin of Figure 2's RTT
    /// regimes: the serving satellite's elevation sets the link rate and
    /// the MAC share divides it.
    pub fn throughput_trace(
        &mut self,
        terminal_id: usize,
        from: JulianDate,
        slots: usize,
    ) -> Vec<ThroughputRecord> {
        let mut out = Vec::with_capacity(slots);
        let first_mid = starsense_scheduler::slots::slot_start(from)
            .plus_seconds(starsense_scheduler::slots::SLOT_PERIOD_SECONDS / 2.0);
        for k in 0..slots {
            let at =
                first_mid.plus_seconds(k as f64 * starsense_scheduler::slots::SLOT_PERIOD_SECONDS);
            let allocs = self.scheduler.allocate(self.constellation, at);
            let alloc = &allocs[terminal_id];
            let throughput = alloc.chosen.as_ref().map(|chosen| {
                crate::throughput::slot_throughput(
                    &chosen.look,
                    self.mac_share(chosen.norad_id, alloc.slot),
                )
            });
            out.push(ThroughputRecord {
                slot: alloc.slot,
                slot_start: alloc.slot_start,
                serving_sat: alloc.chosen_id(),
                throughput,
            });
        }
        out
    }

    /// Convenience wrapper returning a single terminal's trace (the whole
    /// system is still simulated — allocation is global).
    pub fn probe_trace(
        &mut self,
        terminal_id: usize,
        from: JulianDate,
        duration_s: f64,
    ) -> RttTrace {
        let mut traces = self.probe_all(from, duration_s);
        traces.swap_remove(terminal_id)
    }

    /// Number of terminals sharing the MAC cycle of satellite `sat_id`
    /// during `slot` (including the queried terminal), derived from the
    /// hidden background load.
    fn mac_share(&self, sat_id: u32, slot: i64) -> usize {
        let load = self.scheduler.load_model().utilization(sat_id, slot);
        1 + (load * (self.config.max_mac_share - 1) as f64).round() as usize
    }

    /// Builds the serving satellite's MAC cycle for one terminal's
    /// allocation: our terminal plus `share - 1` background terminals, at a
    /// deterministic position in the round-robin order. The share itself is
    /// resolved by the caller ([`Emulator::build_cohort`] memoizes it per
    /// distinct serving satellite).
    fn build_mac(&self, alloc: &Allocation, share: usize) -> Option<(MacScheduler, usize)> {
        let chosen = alloc.chosen.as_ref()?;
        let position = (mix(chosen.norad_id as u64, alloc.slot as u64) as usize) % share;

        let marker = usize::MAX - alloc.terminal_id; // avoid clashing with bg ids
        let mut attached: Vec<usize> = (0..share - 1).map(|k| 10_000 + k).collect();
        attached.insert(position, marker);
        let mut mac = MacScheduler::new(self.config.frame_ms);
        mac.set_attached(attached);
        Some((mac, marker))
    }

    /// Resolves everything a slot's probes share: the allocation, each
    /// terminal's MAC cycle, and — once, not per probe — the catalog entry
    /// of every distinct serving satellite. The per-probe
    /// `Constellation::get` linear scans this replaces dominated the old
    /// engine's probe loop at terminal scale.
    fn build_cohort(&mut self, at: JulianDate) -> SlotCohort {
        let allocations = self.scheduler.allocate(self.constellation, at);
        let mut macs = Vec::with_capacity(allocations.len());
        let mut serving = Vec::with_capacity(allocations.len());
        let mut sats: Vec<&'a Satellite> = Vec::new();
        // `mac_share` is a pure hash of (satellite, slot) and every
        // allocation in the cohort shares the slot, so the share is
        // memoized per distinct serving satellite rather than rehashed for
        // every terminal the satellite carries.
        let mut shares: Vec<(u32, usize)> = Vec::new();
        for alloc in &allocations {
            let share = alloc.chosen.as_ref().map(|chosen| {
                match shares.iter().find(|&&(id, _)| id == chosen.norad_id) {
                    Some(&(_, share)) => share,
                    None => {
                        let share = self.mac_share(chosen.norad_id, alloc.slot);
                        shares.push((chosen.norad_id, share));
                        share
                    }
                }
            });
            macs.push(share.and_then(|share| self.build_mac(alloc, share)));
            serving.push(alloc.chosen_id().and_then(|id| {
                match sats.iter().position(|s| s.norad_id == id) {
                    Some(k) => Some(k),
                    None => {
                        let sat = self.constellation.get(id)?;
                        sats.push(sat);
                        Some(sats.len() - 1)
                    }
                }
            }));
        }
        // Transpose the distinct serving set into an SoA batch once per
        // slot; every probe instant then propagates all cohort satellites
        // in one 3-pass sweep.
        let batch = Sgp4Batch::from_propagators(sats.iter().map(|s| s.truth_propagator()));
        SlotCohort { allocations, macs, serving, batch }
    }

    /// Emulates one probe from one terminal against its slot cohort.
    ///
    /// `teme[k]` must hold the position of `cohort.sats[k]` at `at`. The
    /// RNG-consuming steps (loss chain, handover draw, jitter) run in the
    /// exact order of the historical per-probe engine; only the pure
    /// lookups moved to the cohort.
    fn probe_in_cohort(
        &mut self,
        terminal_id: usize,
        seq: u64,
        at: JulianDate,
        cohort: &SlotCohort,
        teme: &[Option<Vec3>],
    ) -> ProbeRecord {
        let alloc = &cohort.allocations[terminal_id];
        let slot = alloc.slot;
        let serving_sat = alloc.chosen_id();
        let lost = |cause: LossCause| ProbeRecord {
            at,
            seq,
            rtt_ms: None,
            owd_up_ms: None,
            slot,
            serving_sat,
            loss: Some(cause),
        };

        // Outage: no satellite assigned.
        let (Some(_), Some((mac, marker))) =
            (alloc.chosen.as_ref(), cohort.macs[terminal_id].as_ref())
        else {
            return lost(LossCause::Outage);
        };

        // Loss chain + handover burst. These draws stay first and
        // unconditional so the RNG stream matches the historical engine
        // regardless of any fault plan.
        let in_handover =
            at.seconds_since(alloc.slot_start) * 1_000.0 < self.config.handover_window_ms;
        let chain_lost = self.loss_chains[terminal_id].step(&mut self.rng);
        let handover_lost =
            in_handover && self.rng.random_range(0.0..1.0) < self.config.handover_loss_prob;
        if chain_lost {
            return lost(LossCause::Chain);
        }
        if handover_lost {
            return lost(LossCause::Handover);
        }

        // Injected probe bursts: decisions come from counter-based hashes
        // keyed by (terminal, slot, seq), never from `self.rng`, so a
        // fault-free plan leaves the trace bit-identical.
        let slot_frac =
            at.seconds_since(alloc.slot_start) / starsense_scheduler::slots::SLOT_PERIOD_SECONDS;
        let burst = self.config.faults.probe_burst(terminal_id as u64, slot);
        if let Some(b) = &burst {
            if b.kind == BurstKind::Loss && b.covers(slot_frac) {
                return lost(LossCause::FaultBurst);
            }
        }

        // Current satellite position, propagated once per probe instant at
        // the cohort level.
        let Some(si) = cohort.serving[terminal_id] else { return lost(LossCause::Outage) };
        let Some(sat_teme) = teme[si] else { return lost(LossCause::Outage) };

        // Bent-pipe geometry through the best ground station.
        let pop = &self.terminal_pops[terminal_id];
        let Some((_gs, gs_range)) =
            pop.best_ground_station(sat_teme, at, self.config.min_gs_elevation_deg)
        else {
            // The satellite cannot reach any of the PoP's gateways.
            return lost(LossCause::NoGateway);
        };

        let terminal = &self.scheduler.terminals()[terminal_id];
        let base = bent_pipe_rtt_ms(terminal.location, sat_teme, gs_range, at);

        // MAC round-robin queueing for the uplink.
        let t_in_slot_ms = at.seconds_since(alloc.slot_start) * 1_000.0;
        let wait = mac.wait_ms(*marker, t_in_slot_ms).unwrap_or(0.0);

        let jitter = gauss(&mut self.rng) * self.config.jitter_ms;
        let fault_jitter = match &burst {
            Some(b) if b.kind == BurstKind::Jitter && b.covers(slot_frac) => {
                self.config.faults.burst_jitter_ms(b, terminal_id as u64, slot, seq)
            }
            _ => 0.0,
        };
        let rtt = (base + wait + jitter + fault_jitter).max(0.1);

        // One-way delay as iRTT reports it: uplink share plus clock offset.
        let owd = rtt * 0.55 + self.clocks[terminal_id].offset_ms(at);

        ProbeRecord {
            at,
            seq,
            rtt_ms: Some(rtt),
            owd_up_ms: Some(owd),
            slot,
            serving_sat,
            loss: None,
        }
    }
}

/// Per-slot cohort state: everything about a slot that is shared by all of
/// its probes, hoisted out of the per-probe loop.
struct SlotCohort {
    /// The slot's allocations, in terminal order.
    allocations: Vec<Allocation>,
    /// MAC cycle (and the terminal's marker in it) per terminal.
    macs: Vec<Option<(MacScheduler, usize)>>,
    /// For each terminal, lane in `batch` of its serving satellite
    /// (`None` = outage, or a catalog id the constellation does not know).
    serving: Vec<Option<usize>>,
    /// The slot's distinct serving satellites' truth propagators,
    /// catalog-resolved once and transposed to struct-of-arrays:
    /// `batch.positions_into(at, ..)` fills one lane per satellite,
    /// bit-identical to per-satellite propagation.
    batch: Sgp4Batch,
}

fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 31)
}

fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundstation::paper_pops;
    use starsense_astro::frames::Geodetic;
    use starsense_constellation::ConstellationBuilder;
    use starsense_scheduler::{SchedulerPolicy, Terminal};
    use starsense_stats::mann_whitney_u;

    fn setup(constellation: &Constellation) -> Emulator<'_> {
        let terminals = vec![
            Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2)),
            Terminal::new(1, "Madrid", Geodetic::new(40.42, -3.70, 0.65)),
        ];
        let pops = paper_pops();
        let scheduler = GlobalScheduler::new(SchedulerPolicy::default(), terminals, 77);
        Emulator::new(
            constellation,
            scheduler,
            vec![pops[0].clone(), pops[2].clone()],
            EmulatorConfig::default(),
            77,
        )
    }

    #[test]
    fn traces_have_realistic_rtts_and_low_loss() {
        let c = ConstellationBuilder::starlink_gen1().seed(77).build();
        let mut emu = setup(&c);
        let from = JulianDate::from_ymd_hms(2023, 6, 1, 15, 0, 0.0);
        let traces = emu.probe_all(from, 45.0);
        assert_eq!(traces.len(), 2);
        for t in &traces {
            let rtts = t.rtts();
            assert!(rtts.len() > 1_500, "got {} samples", rtts.len());
            let mean = rtts.iter().sum::<f64>() / rtts.len() as f64;
            assert!((10.0..60.0).contains(&mean), "mean rtt {mean}");
            assert!(t.loss_rate() < 0.15, "loss {}", t.loss_rate());
        }
    }

    #[test]
    fn windows_change_every_15_seconds() {
        let c = ConstellationBuilder::starlink_gen1().seed(77).build();
        let mut emu = setup(&c);
        let from = JulianDate::from_ymd_hms(2023, 6, 1, 15, 0, 0.0);
        let trace = emu.probe_trace(0, from, 61.0);
        let windows = trace.windows();
        // 61 s spans 4-6 slot windows (first and last partial).
        assert!((4..=6).contains(&windows.len()), "{} windows", windows.len());
        // Full windows hold ~750 probes at 20 ms.
        let full = &windows[1];
        assert!(full.rtts.len() + full.lost > 700, "window size {}", full.rtts.len());
    }

    #[test]
    fn consecutive_windows_are_statistically_distinct() {
        // The §3 Mann-Whitney result, reproduced against the emulator.
        let c = ConstellationBuilder::starlink_gen1().seed(77).build();
        let mut emu = setup(&c);
        let from = JulianDate::from_ymd_hms(2023, 6, 1, 15, 0, 0.0);
        let trace = emu.probe_trace(0, from, 120.0);
        let windows = trace.windows();
        let mut significant = 0;
        let mut tested = 0;
        for pair in windows.windows(2) {
            if pair[0].rtts.len() > 100 && pair[1].rtts.len() > 100 {
                if pair[0].serving_sat == pair[1].serving_sat {
                    continue; // hysteresis kept the satellite: same regime
                }
                tested += 1;
                if let Some(t) = mann_whitney_u(&pair[0].rtts, &pair[1].rtts) {
                    if t.is_significant(0.05) {
                        significant += 1;
                    }
                }
            }
        }
        assert!(tested >= 3, "need several window pairs, got {tested}");
        assert!(
            significant * 10 >= tested * 8,
            "only {significant}/{tested} window pairs distinct"
        );
    }

    #[test]
    fn same_seed_reproduces_traces() {
        let c = ConstellationBuilder::starlink_gen1().seed(77).build();
        let from = JulianDate::from_ymd_hms(2023, 6, 1, 15, 0, 0.0);
        let a = setup(&c).probe_trace(0, from, 10.0);
        let b = setup(&c).probe_trace(0, from, 10.0);
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.rtt_ms, y.rtt_ms);
            assert_eq!(x.serving_sat, y.serving_sat);
        }
    }

    #[test]
    fn throughput_trace_steps_with_the_scheduler() {
        let c = ConstellationBuilder::starlink_gen1().seed(77).build();
        let mut emu = setup(&c);
        let from = JulianDate::from_ymd_hms(2023, 6, 1, 15, 0, 0.0);
        let recs = emu.throughput_trace(0, from, 20);
        assert_eq!(recs.len(), 20);
        // Slots are consecutive and mostly served.
        for w in recs.windows(2) {
            assert_eq!(w[1].slot, w[0].slot + 1);
        }
        let served: Vec<&ThroughputRecord> =
            recs.iter().filter(|r| r.throughput.is_some()).collect();
        assert!(served.len() >= 18, "served {}", served.len());
        for r in &served {
            let t = r.throughput.unwrap();
            assert!(t.terminal_share_mbps > 0.0);
            assert!(t.terminal_share_mbps <= t.link_capacity_mbps);
            assert!((1..=6).contains(&t.mac_share));
        }
        // Capacity steps at reallocations: consecutive slots with different
        // satellites should usually change the share.
        let mut changes = 0;
        for w in served.windows(2) {
            if w[0].serving_sat != w[1].serving_sat
                && w[0].throughput.unwrap().terminal_share_mbps
                    != w[1].throughput.unwrap().terminal_share_mbps
            {
                changes += 1;
            }
        }
        assert!(changes >= 5, "capacity steps: {changes}");
    }

    #[test]
    fn zero_length_probe_windows_yield_empty_traces() {
        let c = ConstellationBuilder::starlink_mini().seed(42).build();
        let mut emu = setup(&c);
        let from = JulianDate::from_ymd_hms(2023, 6, 1, 15, 0, 0.0);
        for duration in [0.0, -5.0, 0.01] {
            let traces = emu.probe_all(from, duration);
            assert_eq!(traces.len(), 2);
            assert!(
                traces.iter().all(|t| t.records.is_empty()),
                "duration {duration} produced probes"
            );
        }
        // A window of exactly one probe period carries exactly one probe.
        let traces = emu.probe_all(from, EmulatorConfig::default().probe_period_ms / 1_000.0);
        assert!(traces.iter().all(|t| t.records.len() == 1));
    }

    fn setup_with_faults(constellation: &Constellation, plan: FaultPlan) -> Emulator<'_> {
        let terminals = vec![
            Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2)),
            Terminal::new(1, "Madrid", Geodetic::new(40.42, -3.70, 0.65)),
        ];
        let pops = paper_pops();
        let scheduler = GlobalScheduler::new(SchedulerPolicy::default(), terminals, 77);
        let config = EmulatorConfig { faults: plan, ..EmulatorConfig::default() };
        Emulator::new(constellation, scheduler, vec![pops[0].clone(), pops[2].clone()], config, 77)
    }

    #[test]
    fn fault_free_plan_is_bit_identical_to_no_plan() {
        use starsense_faults::FaultRates;
        let c = ConstellationBuilder::starlink_mini().seed(42).build();
        let from = JulianDate::from_ymd_hms(2023, 6, 1, 15, 0, 0.0);
        let plain = setup(&c).probe_all(from, 45.0);
        // A seeded plan whose rates are all zero must not perturb a single
        // bit: fault decisions never touch the emulator's RNG stream.
        let faulted =
            setup_with_faults(&c, FaultPlan::new(12345, FaultRates::none())).probe_all(from, 45.0);
        for (a, b) in plain.iter().zip(&faulted) {
            assert_eq!(a.records.len(), b.records.len());
            for (x, y) in a.records.iter().zip(&b.records) {
                assert_eq!(x.rtt_ms.map(f64::to_bits), y.rtt_ms.map(f64::to_bits));
                assert_eq!(x.owd_up_ms.map(f64::to_bits), y.owd_up_ms.map(f64::to_bits));
                assert_eq!(x.loss, y.loss);
            }
        }
    }

    #[test]
    fn probe_bursts_inject_marked_loss_and_jitter() {
        use starsense_faults::FaultRates;
        let c = ConstellationBuilder::starlink_mini().seed(42).build();
        let from = JulianDate::from_ymd_hms(2023, 6, 1, 15, 0, 0.0);
        let plan = FaultPlan::new(5, FaultRates { probe_burst: 1.0, ..FaultRates::none() });
        let baseline = setup(&c).probe_all(from, 90.0);
        let chaotic = setup_with_faults(&c, plan).probe_all(from, 90.0);

        // Every lost probe carries a cause; every answered probe none.
        let mut burst_losses = 0usize;
        for t in &chaotic {
            for r in &t.records {
                assert_eq!(r.loss.is_some(), r.rtt_ms.is_none());
            }
            burst_losses += t.losses_by_cause(LossCause::FaultBurst);
        }
        // Burst rate 1.0 puts a burst in every (terminal, slot); about
        // half are loss bursts, so injected losses must show up.
        assert!(burst_losses > 50, "only {burst_losses} fault-burst losses");

        // Aggregate loss strictly exceeds the organic baseline.
        let lossrate = |ts: &[RttTrace]| {
            let total: usize = ts.iter().map(|t| t.records.len()).sum();
            let lost: usize =
                ts.iter().map(|t| t.records.iter().filter(|r| r.rtt_ms.is_none()).count()).sum();
            lost as f64 / total as f64
        };
        assert!(lossrate(&chaotic) > lossrate(&baseline));

        // Jitter bursts inflate the upper tail without touching loss.
        let max_rtt = |ts: &[RttTrace]| ts.iter().flat_map(|t| t.rtts()).fold(0.0_f64, f64::max);
        assert!(max_rtt(&chaotic) > max_rtt(&baseline) + 10.0, "no jitter burst visible");

        // And the whole chaotic run reproduces bit for bit.
        let again = setup_with_faults(&c, plan).probe_all(from, 90.0);
        for (a, b) in chaotic.iter().zip(&again) {
            for (x, y) in a.records.iter().zip(&b.records) {
                assert_eq!(x.rtt_ms.map(f64::to_bits), y.rtt_ms.map(f64::to_bits));
                assert_eq!(x.loss, y.loss);
            }
        }
    }

    #[test]
    fn mac_bands_are_visible_within_a_window() {
        let c = ConstellationBuilder::starlink_gen1().seed(77).build();
        let mut emu = setup(&c);
        let from = JulianDate::from_ymd_hms(2023, 6, 1, 15, 0, 0.0);
        let trace = emu.probe_trace(0, from, 120.0);
        // Find a full window whose serving satellite has a shared MAC cycle
        // (RTT spread > one frame) and verify multimodality: the gaps
        // between sorted unique RTT levels should show steps ≈ frame size.
        let windows = trace.windows();
        let mut found_banded = false;
        for w in &windows {
            if w.rtts.len() < 300 {
                continue;
            }
            let mut sorted = w.rtts.clone();
            sorted.sort_by(f64::total_cmp);
            let spread = sorted[sorted.len() - 10] - sorted[10];
            if spread > 2.0 {
                found_banded = true;
            }
        }
        assert!(found_banded, "no window showed multi-band structure");
    }
}
