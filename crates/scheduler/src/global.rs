//! The hidden global scheduler.
//!
//! Every 15 seconds (§3's :12/:27/:42/:57 boundaries) the global scheduler
//! assigns one satellite to every terminal, scoring each *eligible*
//! candidate by the preferences the paper later infers:
//!
//! * **angle of elevation** — higher is better (RF power falls with
//!   distance; §5.1's rationale), with a much steeper fall-off for *dark*
//!   satellites, which are only worth their battery drain when nearly
//!   overhead (§5.3's rationale),
//! * **GSO exclusion** — a hard constraint; the northward azimuth skew of
//!   Figure 5 emerges from this geometry rather than from a weight,
//! * **launch date** — newer satellites are slightly preferred
//!   (constellation-lifetime leveling; §5.2's rationale, explicitly "low
//!   absolute values" — the weight is small),
//! * **sunlit status** — sunlit satellites preferred (§5.3),
//! * **background load** — lightly loaded satellites preferred; load is
//!   invisible to the measurement side, reproducing §6's stated accuracy
//!   ceiling,
//! * **hysteresis** — a small bonus for keeping the current satellite.
//!
//! Selection is a softmax draw over scores rather than a hard argmax: the
//! real scheduler serves a whole population under constraints we do not
//! model, and the paper's measured distributions (e.g. "80% of picks from
//! the 45–90° band", not 100%) show exactly the graded preference a
//! temperature parameter captures.
//!
//! # One slot as a pure step
//!
//! A terminal's assignment depends on four inputs only: its fixed
//! [`SiteGeometry`], its [`TerminalSchedState`] (RNG stream position and
//! previous satellite), the policy with its [`LoadModel`], and the slot's
//! sky. One slot is therefore a step over borrowed state — select
//! ([`cohort_fields_of_view`]) → score → pick ([`allocate_slot`]) — that
//! advances a slice of states in place. [`GlobalScheduler`] is a thin
//! owner of the sites, the states and the scratch buffers for callers that
//! want one object.
//!
//! # Per-terminal randomness and shard invariance
//!
//! Every terminal draws from its **own** RNG stream, seeded from
//! `(scheduler seed, terminal id)` by a splitmix-style mix. Combined with
//! per-terminal hysteresis state and the pure-hash [`LoadModel`], one
//! terminal's allocation sequence is a function of `(seed, terminal id,
//! sky)` alone — independent of which other terminals are co-scheduled.
//! That is what lets the campaign engine split the terminal population
//! into contiguous shards, step each shard's slice of sites and states in
//! parallel, and merge results bit-identical to one step over all
//! terminals (tested below in `sharded_sub_schedulers_match_monolith`).
//!
//! # The cohort fast path
//!
//! Every terminal in a slot queries the *same* sky, so the hot engine
//! shares satellite-side work across terminals without changing a single
//! output bit:
//!
//! * [`cohort_fields_of_view`] groups terminals by the visibility index's
//!   own grid cells and computes one conservative candidate superset per
//!   cohort (cap at the smallest member radius, widened by the exact
//!   anchor→member angle), then narrows it per member with an exact
//!   cap-cosine prefilter before the exact elevation test;
//! * [`allocate_slot`] runs the segment-pruned GSO tests, one fused query
//!   per candidate.
//!
//! The tests below hold both to test-only oracles: the field of view over
//! every catalog index per terminal, and the per-candidate reference
//! allocator with its exhaustive GSO tests.

use crate::gso::GsoExclusion;
use crate::load::LoadModel;
use crate::slots::{slot_index, slot_start};
use crate::terminal::Terminal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use starsense_astro::frames::geodetic_to_ecef;
use starsense_astro::time::JulianDate;
use starsense_astro::vec3::Vec3;
use starsense_constellation::{Constellation, Snapshot, VisibleSat};

/// Pad (degrees) added to a cohort's measured anchor→member widening
/// angle, dominating the rounding of the `acos` that measures it so the
/// widened cap provably contains every member's own cap.
const COHORT_WIDEN_PAD_DEG: f64 = 1e-7;

/// Slack subtracted from the per-member cap-cosine prefilter threshold,
/// dominating the rounding of the unit-vector dot product it is compared
/// against (the cap itself already carries the index's 0.02° guard).
const CAP_COS_GUARD: f64 = 1e-12;

/// Tunable preferences of the hidden scheduler. Zeroing a weight removes
/// the corresponding preference — the knobs the ablation benches turn.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerPolicy {
    /// Minimum connection elevation, degrees (25 for Starlink terminals).
    pub min_elevation_deg: f64,
    /// Weight of normalized elevation in the score.
    pub w_elevation: f64,
    /// Penalty a *dark* satellite pays per unit of sky below the zenith:
    /// its score loses `w_dark_low_elevation · (1 − el_norm)`. A dark
    /// satellite is battery-limited, and the RF power needed grows with
    /// slant range, so darkness only costs little when the satellite is
    /// nearly overhead (§5.3's rationale). The same term makes equally
    /// placed sunlit satellites preferable everywhere below the zenith,
    /// and steepens the elevation preference when the whole sky is dark.
    pub w_dark_low_elevation: f64,
    /// Weight of (newer) launch date.
    pub w_age: f64,
    /// Additive bonus for sunlit satellites.
    pub w_sunlit: f64,
    /// Weight of (1 − background load).
    pub w_load: f64,
    /// Additive bonus for keeping the previously assigned satellite.
    pub w_hysteresis: f64,
    /// GSO protection half-angle, degrees; `None` disables the zone.
    pub gso_half_angle_deg: Option<f64>,
    /// Weight of the angular margin to the GSO arc (normalized by 90°).
    ///
    /// Beyond the hard exclusion, the scheduler prefers links that keep
    /// interference margin from the protected belt — for a northern
    /// mid-latitude terminal the belt fills the southern sky, so this is
    /// what produces Figure 5's northward skew.
    pub w_gso_margin: f64,
    /// Softmax temperature; lower = more deterministic.
    pub temperature: f64,
    /// Age normalization horizon, days (≈ the 5-year design life).
    pub max_age_days: f64,
}

impl Default for SchedulerPolicy {
    fn default() -> Self {
        SchedulerPolicy {
            min_elevation_deg: 25.0,
            w_elevation: 1.9,
            w_dark_low_elevation: 1.2,
            w_age: 0.25,
            w_sunlit: 0.1,
            w_load: 0.9,
            w_hysteresis: 0.15,
            gso_half_angle_deg: Some(12.0),
            w_gso_margin: 0.9,
            temperature: 0.35,
            max_age_days: 5.0 * 365.25,
        }
    }
}

/// The outcome of one slot's allocation for one terminal.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Terminal this allocation is for.
    pub terminal_id: usize,
    /// Global slot index.
    pub slot: i64,
    /// Slot start time.
    pub slot_start: JulianDate,
    /// Every satellite above the minimum elevation ("available" in the
    /// paper's §5 terminology — environmental obstruction and the GSO zone
    /// do *not* remove a satellite from this list).
    pub available: Vec<VisibleSat>,
    /// Catalog ids of the available satellites that were actually eligible
    /// (not sky-masked, not GSO-excluded).
    pub eligible_ids: Vec<u32>,
    /// The chosen satellite, `None` on outage (no eligible candidate).
    pub chosen: Option<VisibleSat>,
}

impl Allocation {
    /// Convenience: the chosen satellite's catalog id.
    pub fn chosen_id(&self) -> Option<u32> {
        self.chosen.as_ref().map(|s| s.norad_id)
    }
}

/// Reusable buffers for [`allocate_slot`], so that scoring a terminal
/// allocates nothing: candidate indices and scores live here across
/// terminals and slots, and the softmax overwrites the score buffer in
/// place instead of building a separate weight vector.
///
/// Scratch contents never outlive one terminal's scoring pass, so carrying
/// the buffers across calls cannot change results — only where the
/// intermediate values are stored.
#[derive(Debug, Clone, Default)]
pub struct AllocScratch {
    /// Indices into the current terminal's `available` list that survived
    /// the sky mask and the GSO exclusion.
    eligible: Vec<usize>,
    /// GSO separation (degrees) for each eligible candidate, filled by the
    /// same fused query that decided the exclusion — aligned with
    /// `eligible`.
    gso_sep: Vec<f64>,
    /// Scores for the eligible candidates; the softmax draw overwrites
    /// them with their weights in place.
    scores: Vec<f64>,
}

/// The immutable half of one terminal's scheduler state: the terminal and
/// the geometry every slot re-reads — its ECEF position, the unit
/// direction (for cohort grouping, widening angles and the cap-cosine
/// prefilter), the geocentric radius the cap bound is evaluated at, and
/// its GSO exclusion zone.
///
/// A pure function of the terminal and the policy's GSO half-angle, so a
/// campaign builds it once per run and shares it by reference across
/// shards and segments.
#[derive(Debug, Clone)]
pub struct SiteGeometry {
    terminal: Terminal,
    ecef: Vec3,
    unit: Vec3,
    r_km: f64,
    gso: GsoExclusion,
}

impl SiteGeometry {
    /// Builds `terminal`'s geometry under `policy`'s GSO zone. The zone
    /// is most of the cost: 720 belt samples through one observer frame,
    /// look angles for the samples near or above the horizon, and the
    /// segment caps over them.
    pub fn new(terminal: Terminal, policy: &SchedulerPolicy) -> SiteGeometry {
        let gso = match policy.gso_half_angle_deg {
            Some(half) => GsoExclusion::for_site(terminal.location, half),
            None => GsoExclusion::disabled(),
        };
        let ecef = geodetic_to_ecef(terminal.location);
        SiteGeometry { terminal, ecef, unit: ecef.unit(), r_km: ecef.norm(), gso }
    }
}

/// Derives the per-terminal RNG stream seed from the scheduler seed and a
/// terminal's stable id (a splitmix64-style finalizer — the same family
/// the [`LoadModel`] hashes with). Using the terminal *id* rather than its
/// position makes the stream a property of the terminal itself, so any
/// partition of the terminal set into shards reproduces it.
fn stream_seed(seed: u64, terminal_id: u64) -> u64 {
    let mut z = seed ^ terminal_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Softmax draw over candidate scores; returns the winning index.
///
/// Overwrites `scores` with the softmax weights in place — exp and the
/// weight total fold into one pass over the buffer, with no intermediate
/// weight vector. Consumes one RNG draw when there is at least one
/// candidate, none otherwise.
fn sample_in_place(rng: &mut StdRng, temperature: f64, scores: &mut [f64]) -> Option<usize> {
    if scores.is_empty() {
        return None;
    }
    let tau = temperature.max(1e-6);
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut total = 0.0;
    for s in scores.iter_mut() {
        *s = ((*s - max) / tau).exp();
        total += *s;
    }
    let mut draw = rng.random_range(0.0..total);
    for (i, w) in scores.iter().enumerate() {
        draw -= w;
        if draw <= 0.0 {
            return Some(i);
        }
    }
    Some(scores.len() - 1)
}

/// The mutable half of one terminal's scheduler state, and its only
/// representation: the RNG stream position and the previous assignment.
///
/// Everything else a slot reads — the [`SiteGeometry`], the
/// [`LoadModel`], the scratch buffers — is either a pure function of
/// `(policy, terminal, seed)` or results-neutral caching, so this pair is
/// the complete state that carries a terminal from one slot to the next.
/// [`allocate_slot`] advances it in place; a campaign checkpoint stores it
/// as is, and a copy continues the allocation sequence bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TerminalSchedState {
    /// Stable id of the terminal this state belongs to.
    pub terminal_id: usize,
    /// xoshiro256++ state of the terminal's softmax RNG stream.
    pub rng_state: [u64; 4],
    /// Satellite assigned in the previous slot (hysteresis key), if any.
    pub previous: Option<u32>,
}

impl TerminalSchedState {
    /// The state of terminal `terminal_id` before its first slot under
    /// scheduler seed `seed`: its RNG stream at the start, no previous
    /// assignment.
    pub fn initial(seed: u64, terminal_id: usize) -> TerminalSchedState {
        TerminalSchedState {
            terminal_id,
            rng_state: StdRng::seed_from_u64(stream_seed(seed, terminal_id as u64)).state(),
            previous: None,
        }
    }

    /// The softmax draw from this terminal's stream (see
    /// [`sample_in_place`]), advancing the stream position.
    fn draw(&mut self, temperature: f64, scores: &mut [f64]) -> Option<usize> {
        let mut rng = StdRng::from_state(self.rng_state);
        let pick = sample_in_place(&mut rng, temperature, scores);
        self.rng_state = rng.state();
        pick
    }
}

/// Select: per-site field-of-view lists for one prepared snapshot, in site
/// order, answered through **terminal cohorts**. Sites are grouped by the
/// grid cell of the snapshot's [`VisibilityIndex`] their geocentric
/// direction falls into, each cohort shares one conservative candidate
/// superset (the cap bound at the smallest member radius, widened by the
/// largest exact anchor→member angle — a provable superset by the
/// triangle inequality, see [`VisibilityIndex::cohort_candidates_into`]),
/// and each member then narrows the shared list with its own exact
/// cap-cosine prefilter before running the exact elevation test. Every
/// satellite above a member's cutoff survives both conservative stages,
/// so the result is bit-identical to [`Constellation::field_of_view`] over
/// every catalog index (equality-tested below; the superset is
/// property-tested in the constellation crate).
///
/// Cohort membership is a pure function of site position and the
/// snapshot, so results are invariant under site order and sharding —
/// the campaign engine's merge guarantees carry over.
///
/// [`VisibilityIndex`]: starsense_constellation::VisibilityIndex
/// [`VisibilityIndex::cohort_candidates_into`]: starsense_constellation::VisibilityIndex::cohort_candidates_into
pub fn cohort_fields_of_view(
    sites: &[SiteGeometry],
    min_elevation_deg: f64,
    constellation: &Constellation,
    snapshot: &Snapshot,
) -> Vec<Vec<VisibleSat>> {
    let mut out: Vec<Vec<VisibleSat>> = sites.iter().map(|_| Vec::new()).collect();
    if sites.is_empty() {
        return out;
    }
    let index = snapshot.visibility_index();

    // Cohorts are runs of equal cell key after sorting (cell, site
    // position) pairs; results land in `out[position]`, so the cell-major
    // visit order never shows downstream.
    let mut order: Vec<(u32, u32)> =
        sites.iter().enumerate().map(|(i, g)| (index.cell_key(g.ecef), i as u32)).collect();
    order.sort_unstable();

    let mut candidates: Vec<u32> = Vec::new();
    let mut dirs: Vec<(u32, Vec3)> = Vec::new();
    let mut filtered: Vec<u32> = Vec::new();
    let mut start = 0usize;
    while start < order.len() {
        let cell = order[start].0;
        let mut end = start + 1;
        while end < order.len() && order[end].0 == cell {
            end += 1;
        }
        let members = &order[start..end];

        // Anchor on the first member; evaluate the cap at the smallest
        // member radius (the bound is decreasing in observer radius) and
        // widen it by the largest exact anchor→member angle.
        let anchor = &sites[members[0].1 as usize];
        let mut min_r = f64::INFINITY;
        let mut widen = 0.0f64;
        for &(_, ti) in members {
            let g = &sites[ti as usize];
            min_r = min_r.min(g.r_km);
            widen = widen.max(anchor.unit.dot(g.unit).clamp(-1.0, 1.0).acos().to_degrees());
        }
        index.cohort_candidates_into(
            anchor.ecef,
            min_r,
            widen + COHORT_WIDEN_PAD_DEG,
            min_elevation_deg,
            &mut candidates,
        );

        // Unit directions of the present candidates, shared by every
        // member's prefilter.
        dirs.clear();
        let entries = snapshot.entries();
        for &si in &candidates {
            if let Some(entry) = &entries[si as usize] {
                dirs.push((si, entry.ecef.unit()));
            }
        }

        for &(_, ti) in members {
            let g = &sites[ti as usize];
            filtered.clear();
            match index.cap_cos(g.r_km, min_elevation_deg) {
                Some(cap_cos) => {
                    let thr = cap_cos - CAP_COS_GUARD;
                    filtered.extend(
                        dirs.iter().filter(|(_, d)| g.unit.dot(*d) >= thr).map(|&(si, _)| si),
                    );
                }
                None => filtered.extend(dirs.iter().map(|&(si, _)| si)),
            }
            out[ti as usize] = constellation.field_of_view(
                snapshot,
                g.terminal.location,
                min_elevation_deg,
                &filtered,
            );
        }
        start = end;
    }
    out
}

/// Score → pick: scoring, the softmax draw and the hysteresis update for
/// one slot, over per-site availability lists computed elsewhere (by
/// [`cohort_fields_of_view`], possibly filtered). `states[i]` is site
/// `i`'s state and advances in place; call once per slot, in slot order.
/// Returns one [`Allocation`] per site, in site order.
///
/// Scoring runs the fast path: the GSO geometry goes through the
/// segment-pruned tests — every term and its summation order matches the
/// per-candidate reference score exactly, so the emitted allocations and
/// consumed RNG streams are bit-identical to the reference allocator the
/// tests below keep as the oracle.
///
/// # Panics
///
/// Panics when `states` or `available` does not have one entry per site.
pub fn allocate_slot(
    policy: &SchedulerPolicy,
    load: &LoadModel,
    sites: &[SiteGeometry],
    states: &mut [TerminalSchedState],
    scratch: &mut AllocScratch,
    at: JulianDate,
    available: Vec<Vec<VisibleSat>>,
) -> Vec<Allocation> {
    assert_eq!(states.len(), sites.len(), "one state per site");
    assert_eq!(available.len(), sites.len(), "one availability list per site");
    let slot = slot_index(at);
    let start = slot_start(at);
    let p = policy;
    let mut out = Vec::with_capacity(sites.len());

    for ((site, state), available) in sites.iter().zip(states.iter_mut()).zip(available) {
        // One fused GSO query per candidate decides the exclusion and
        // yields the separation the scoring loop needs — where the
        // reference path pays a full exclusion scan and then a second
        // full separation scan per eligible candidate.
        scratch.eligible.clear();
        scratch.gso_sep.clear();
        for (i, v) in available.iter().enumerate() {
            if site.terminal.mask.blocks(v.look.elevation_deg, v.look.azimuth_deg) {
                continue;
            }
            let Some(sep) = site.gso.separation_if_clear(&v.look) else { continue };
            scratch.eligible.push(i);
            scratch.gso_sep.push(sep);
        }

        let mut eligible_ids = Vec::with_capacity(scratch.eligible.len());
        eligible_ids.extend(scratch.eligible.iter().map(|&i| available[i].norad_id));

        scratch.scores.clear();
        for (ei, &i) in scratch.eligible.iter().enumerate() {
            let sat = &available[i];
            let age_norm = 1.0 - (sat.age_days / p.max_age_days).clamp(0.0, 1.0);
            let el_norm = ((sat.look.elevation_deg - p.min_elevation_deg)
                / (90.0 - p.min_elevation_deg))
                .clamp(0.0, 1.0);
            let dark_penalty =
                if sat.sunlit { 0.0 } else { p.w_dark_low_elevation * (1.0 - el_norm) };
            let gso_margin = (scratch.gso_sep[ei] / 90.0).clamp(0.0, 1.0);
            let hyst = if state.previous == Some(sat.norad_id) { p.w_hysteresis } else { 0.0 };
            // Same terms, same left-to-right association as `score`.
            scratch.scores.push(
                p.w_elevation * el_norm - dark_penalty
                    + p.w_age * age_norm
                    + if sat.sunlit { p.w_sunlit } else { 0.0 }
                    + p.w_load * (1.0 - load.utilization(sat.norad_id, slot))
                    + p.w_gso_margin * gso_margin
                    + hyst,
            );
        }
        let chosen = state
            .draw(p.temperature, &mut scratch.scores)
            .map(|i| available[scratch.eligible[i]].clone());
        state.previous = chosen.as_ref().map(|c| c.norad_id);

        out.push(Allocation {
            terminal_id: site.terminal.id,
            slot,
            slot_start: start,
            available,
            eligible_ids,
            chosen,
        });
    }
    out
}

/// The global scheduler as one object: owns the [`SiteGeometry`] and the
/// [`TerminalSchedState`] of every terminal, the background load model and
/// the scratch buffers, and runs the slot step over all of them.
#[derive(Debug, Clone)]
pub struct GlobalScheduler {
    policy: SchedulerPolicy,
    load: LoadModel,
    /// The served terminals, contiguous for [`GlobalScheduler::terminals`]
    /// (each site holds its own copy).
    terminals: Vec<Terminal>,
    sites: Vec<SiteGeometry>,
    states: Vec<TerminalSchedState>,
    scratch: AllocScratch,
}

impl GlobalScheduler {
    /// Creates a scheduler for a set of terminals.
    ///
    /// Terminal ids seed the per-terminal RNG streams, so a scheduler over
    /// any subset of a terminal population allocates for those terminals
    /// exactly as a scheduler over the whole population would (given the
    /// same `seed`).
    pub fn new(policy: SchedulerPolicy, terminals: Vec<Terminal>, seed: u64) -> GlobalScheduler {
        let sites = terminals.iter().map(|t| SiteGeometry::new(t.clone(), &policy)).collect();
        let states = terminals.iter().map(|t| TerminalSchedState::initial(seed, t.id)).collect();
        GlobalScheduler {
            policy,
            load: LoadModel::for_scheduler(seed),
            terminals,
            sites,
            states,
            scratch: AllocScratch::default(),
        }
    }

    /// The terminals this scheduler serves.
    pub fn terminals(&self) -> &[Terminal] {
        &self.terminals
    }

    /// The policy in force.
    pub fn policy(&self) -> &SchedulerPolicy {
        &self.policy
    }

    /// The (hidden) background load model. The network emulator reads it
    /// to size each serving satellite's MAC cycle, so probe RTTs carry the
    /// load; the measurement analyses see it only through those RTTs.
    pub fn load_model(&self) -> &LoadModel {
        &self.load
    }

    /// Allocates a satellite to every terminal for the slot containing
    /// `at`. Returns one [`Allocation`] per terminal, in terminal order.
    ///
    /// Runs through the cohort field-of-view path and the precomputed
    /// scoring table — both bit-identical to the per-terminal reference
    /// the equality tests below hold them to.
    pub fn allocate(&mut self, constellation: &Constellation, at: JulianDate) -> Vec<Allocation> {
        // One propagation pass per slot, shared by every terminal.
        let snapshot = constellation.snapshot(slot_start(at));
        let available = self.fields_of_view_cohort(constellation, &snapshot);
        self.allocate_from_available(at, available)
    }

    /// [`cohort_fields_of_view`] over this scheduler's terminals — the
    /// field-of-view half of `allocate`.
    pub fn fields_of_view_cohort(
        &self,
        constellation: &Constellation,
        snapshot: &Snapshot,
    ) -> Vec<Vec<VisibleSat>> {
        cohort_fields_of_view(&self.sites, self.policy.min_elevation_deg, constellation, snapshot)
    }

    /// [`allocate_slot`] over this scheduler's terminals and states — the
    /// stateful half of `allocate`, consuming per-terminal availability
    /// lists that were computed elsewhere (in slot order: each terminal's
    /// RNG stream and previous-assignment state advance per call).
    ///
    /// # Panics
    ///
    /// Panics when `available` does not have one entry per terminal.
    pub fn allocate_from_available(
        &mut self,
        at: JulianDate,
        available: Vec<Vec<VisibleSat>>,
    ) -> Vec<Allocation> {
        allocate_slot(
            &self.policy,
            &self.load,
            &self.sites,
            &mut self.states,
            &mut self.scratch,
            at,
            available,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starsense_astro::frames::Geodetic;
    use starsense_constellation::ConstellationBuilder;
    use starsense_obstruction::SkyMask;

    fn constellation() -> Constellation {
        ConstellationBuilder::starlink_gen1().seed(11).build()
    }

    fn terminals() -> Vec<Terminal> {
        vec![
            Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2)),
            Terminal::new(1, "Ithaca", Geodetic::new(42.44, -76.50, 0.3))
                .with_mask(SkyMask::ithaca_trees()),
        ]
    }

    fn at() -> JulianDate {
        JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 5.0)
    }

    /// Test-only reference engine and helpers over the scheduler's
    /// private state.
    impl GlobalScheduler {
        /// The per-terminal reference for
        /// [`GlobalScheduler::allocate_from_available`]: per-candidate
        /// `GlobalScheduler::score` evaluation and the exhaustive-fold GSO
        /// tests, exactly as the pre-cohort engine ran them — the oracle the
        /// fast path is equality-tested against.
        ///
        /// # Panics
        ///
        /// Panics when `available` does not have one entry per terminal.
        fn allocate_from_available_reference(
            &mut self,
            at: JulianDate,
            available: Vec<Vec<VisibleSat>>,
        ) -> Vec<Allocation> {
            assert_eq!(available.len(), self.sites.len(), "one availability list per terminal");
            let slot = slot_index(at);
            let start = slot_start(at);
            let mut out = Vec::with_capacity(self.sites.len());
            let mut scratch = std::mem::take(&mut self.scratch);

            for (ti, available) in available.into_iter().enumerate() {
                let site = &self.sites[ti];
                scratch.eligible.clear();
                scratch.eligible.extend(available.iter().enumerate().filter_map(|(i, v)| {
                    let open = !site.terminal.mask.blocks(v.look.elevation_deg, v.look.azimuth_deg)
                        && !site.gso.excludes(&v.look);
                    open.then_some(i)
                }));

                let mut eligible_ids = Vec::with_capacity(scratch.eligible.len());
                eligible_ids.extend(scratch.eligible.iter().map(|&i| available[i].norad_id));

                scratch.scores.clear();
                scratch
                    .scores
                    .extend(scratch.eligible.iter().map(|&i| self.score(ti, slot, &available[i])));
                let state = &mut self.states[ti];
                let chosen = state
                    .draw(self.policy.temperature, &mut scratch.scores)
                    .map(|i| available[scratch.eligible[i]].clone());
                state.previous = chosen.as_ref().map(|c| c.norad_id);

                out.push(Allocation {
                    terminal_id: self.sites[ti].terminal.id,
                    slot,
                    slot_start: start,
                    available,
                    eligible_ids,
                    chosen,
                });
            }
            self.scratch = scratch;
            out
        }

        /// Runs `slots` consecutive allocations starting from the slot
        /// containing `from`, returning all allocations flattened
        /// (slot-major, terminal-minor).
        fn allocate_range(
            &mut self,
            constellation: &Constellation,
            from: JulianDate,
            slots: usize,
        ) -> Vec<Allocation> {
            let mut out = Vec::with_capacity(slots * self.terminals.len());
            // Query mid-slot so float rounding can never straddle a boundary.
            let period = crate::slots::SLOT_PERIOD_SECONDS;
            let first_mid = slot_start(from).plus_seconds(period / 2.0);
            for k in 0..slots {
                out.extend(self.allocate(constellation, first_mid.plus_seconds(k as f64 * period)));
            }
            out
        }

        /// Scores one candidate for the terminal at position `ti` — the
        /// reference expression the fast path's table-driven scoring mirrors
        /// term for term (the `w_age·age_norm` and `w_load·(1−load)` products
        /// depend only on `(satellite, slot)` and are what the slot term table
        /// caches).
        fn score(&self, ti: usize, slot: i64, sat: &VisibleSat) -> f64 {
            let p = &self.policy;
            let el_norm = ((sat.look.elevation_deg - p.min_elevation_deg)
                / (90.0 - p.min_elevation_deg))
                .clamp(0.0, 1.0);
            let dark_penalty =
                if sat.sunlit { 0.0 } else { p.w_dark_low_elevation * (1.0 - el_norm) };
            let age_norm = 1.0 - (sat.age_days / p.max_age_days).clamp(0.0, 1.0);
            let load = self.load.utilization(sat.norad_id, slot);
            let gso_margin = (self.sites[ti].gso.separation_deg(&sat.look) / 90.0).clamp(0.0, 1.0);
            let hyst =
                if self.states[ti].previous == Some(sat.norad_id) { p.w_hysteresis } else { 0.0 };
            p.w_elevation * el_norm - dark_penalty
                + p.w_age * age_norm
                + if sat.sunlit { p.w_sunlit } else { 0.0 }
                + p.w_load * (1.0 - load)
                + p.w_gso_margin * gso_margin
                + hyst
        }
    }

    /// The field-of-view oracle: the catalog query over every catalog
    /// index, per terminal, in terminal order.
    fn scan_fields_of_view(
        g: &GlobalScheduler,
        c: &Constellation,
        snap: &Snapshot,
    ) -> Vec<Vec<VisibleSat>> {
        let all: Vec<u32> = (0..c.len() as u32).collect();
        g.terminals
            .iter()
            .map(|t| c.field_of_view(snap, t.location, g.policy.min_elevation_deg, &all))
            .collect()
    }

    #[test]
    fn allocate_returns_one_allocation_per_terminal() {
        let c = constellation();
        let mut g = GlobalScheduler::new(SchedulerPolicy::default(), terminals(), 3);
        let allocs = g.allocate(&c, at());
        assert_eq!(allocs.len(), 2);
        assert_eq!(allocs[0].terminal_id, 0);
        assert_eq!(allocs[1].terminal_id, 1);
        for a in &allocs {
            assert!(!a.available.is_empty(), "full constellation always has FOV");
            assert!(a.chosen.is_some(), "clear-ish sky should always allocate");
            let id = a.chosen_id().unwrap();
            assert!(a.eligible_ids.contains(&id), "chosen must be eligible");
        }
    }

    #[test]
    fn chosen_is_above_minimum_elevation() {
        let c = constellation();
        let mut g = GlobalScheduler::new(SchedulerPolicy::default(), terminals(), 3);
        for a in g.allocate_range(&c, at(), 10) {
            if let Some(ch) = &a.chosen {
                assert!(ch.look.elevation_deg >= 25.0);
            }
        }
    }

    #[test]
    fn chosen_respects_sky_mask() {
        let c = constellation();
        let mut g = GlobalScheduler::new(SchedulerPolicy::default(), terminals(), 3);
        for a in g.allocate_range(&c, at(), 20) {
            if a.terminal_id == 1 {
                if let Some(ch) = &a.chosen {
                    assert!(
                        !SkyMask::ithaca_trees().blocks(ch.look.elevation_deg, ch.look.azimuth_deg),
                        "picked a tree-blocked satellite: {:?}",
                        ch.look
                    );
                }
            }
        }
    }

    #[test]
    fn chosen_respects_gso_zone() {
        let c = constellation();
        let mut g = GlobalScheduler::new(SchedulerPolicy::default(), terminals(), 3);
        let zone = GsoExclusion::for_site(Geodetic::new(41.66, -91.53, 0.2), 12.0);
        for a in g.allocate_range(&c, at(), 20) {
            if a.terminal_id == 0 {
                if let Some(ch) = &a.chosen {
                    assert!(!zone.excludes(&ch.look), "picked inside the GSO zone");
                }
            }
        }
    }

    #[test]
    fn same_seed_reproduces_allocations() {
        let c = constellation();
        let run = |seed| {
            let mut g = GlobalScheduler::new(SchedulerPolicy::default(), terminals(), seed);
            g.allocate_range(&c, at(), 8).iter().map(|a| a.chosen_id()).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should eventually differ");
    }

    #[test]
    fn allocations_change_across_slots() {
        let c = constellation();
        let mut g = GlobalScheduler::new(SchedulerPolicy::default(), terminals(), 3);
        let allocs = g.allocate_range(&c, at(), 12);
        let iowa: Vec<Option<u32>> =
            allocs.iter().filter(|a| a.terminal_id == 0).map(|a| a.chosen_id()).collect();
        let distinct: std::collections::HashSet<_> = iowa.iter().collect();
        assert!(distinct.len() > 3, "reallocation every 15 s should churn: {iowa:?}");
    }

    #[test]
    fn elevation_preference_is_visible_in_aggregate() {
        let c = constellation();
        let mut g = GlobalScheduler::new(SchedulerPolicy::default(), terminals(), 3);
        let allocs = g.allocate_range(&c, at(), 60);
        let mut chosen_el = Vec::new();
        let mut avail_el = Vec::new();
        for a in &allocs {
            if let Some(ch) = &a.chosen {
                chosen_el.push(ch.look.elevation_deg);
            }
            avail_el.extend(a.available.iter().map(|v| v.look.elevation_deg));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&chosen_el) > mean(&avail_el) + 10.0,
            "chosen {:.1} vs available {:.1}",
            mean(&chosen_el),
            mean(&avail_el)
        );
    }

    #[test]
    fn zero_weights_remove_elevation_preference() {
        let c = constellation();
        let flat = SchedulerPolicy {
            w_elevation: 0.0,
            w_dark_low_elevation: 0.0,
            w_age: 0.0,
            w_sunlit: 0.0,
            w_load: 0.0,
            w_hysteresis: 0.0,
            gso_half_angle_deg: None,
            w_gso_margin: 0.0,
            temperature: 5.0,
            ..SchedulerPolicy::default()
        };
        let mut g = GlobalScheduler::new(flat, terminals(), 3);
        let allocs = g.allocate_range(&c, at(), 60);
        let mut chosen_el = Vec::new();
        let mut avail_el = Vec::new();
        for a in &allocs {
            if let Some(ch) = &a.chosen {
                chosen_el.push(ch.look.elevation_deg);
            }
            avail_el.extend(a.available.iter().map(|v| v.look.elevation_deg));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            (mean(&chosen_el) - mean(&avail_el)).abs() < 8.0,
            "flat policy should pick ~uniformly: chosen {:.1} vs avail {:.1}",
            mean(&chosen_el),
            mean(&avail_el)
        );
    }

    #[test]
    fn stronger_hysteresis_reduces_handovers() {
        let c = constellation();
        let churn = |w_hysteresis: f64| {
            let policy = SchedulerPolicy { w_hysteresis, ..SchedulerPolicy::default() };
            let mut g = GlobalScheduler::new(policy, terminals(), 3);
            let allocs = g.allocate_range(&c, at(), 80);
            let iowa: Vec<Option<u32>> =
                allocs.iter().filter(|a| a.terminal_id == 0).map(|a| a.chosen_id()).collect();
            iowa.windows(2).filter(|w| w[0] != w[1]).count()
        };
        let sticky = churn(3.0);
        let free = churn(0.0);
        assert!(
            sticky < free,
            "hysteresis 3.0 changed satellite {sticky} times vs {free} with none"
        );
    }

    /// Clustered + isolated sites: the clusters land in shared visibility
    /// grid cells (~4° at gen1 shells), exercising true multi-member
    /// cohorts; the polar pair straddles the longitude wrap.
    fn cohort_terminals() -> Vec<Terminal> {
        let sites = [
            (41.66, -91.53),
            (41.9, -91.2),
            (42.1, -91.8),
            (42.44, -76.50),
            (-33.86, 151.21),
            (-33.5, 151.0),
            (69.65, 18.96),
            (85.0, 179.5),
            (85.2, -179.6),
            (0.0, 0.0),
            (0.3, 0.4),
        ];
        sites
            .iter()
            .enumerate()
            .map(|(i, &(lat, lon))| {
                let t = Terminal::new(i, format!("t{i}"), Geodetic::new(lat, lon, 0.1));
                if i == 3 {
                    t.with_mask(SkyMask::ithaca_trees())
                } else {
                    t
                }
            })
            .collect()
    }

    #[test]
    fn cohort_terminals_share_cells() {
        // Sanity for the fixtures below: the clustered sites really do
        // fall into shared grid cells, so the cohort tests exercise
        // multi-member supersets rather than degenerating to singletons.
        let c = constellation();
        let snap = c.snapshot(at());
        let index = snap.visibility_index();
        let keys: Vec<u32> = cohort_terminals()
            .iter()
            .map(|t| index.cell_key(starsense_astro::frames::geodetic_to_ecef(t.location)))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() < keys.len(), "no two terminals shared a cell: {keys:?}");
    }

    #[test]
    fn cohort_fov_is_bit_identical_to_per_terminal() {
        // The cohort path is the campaign's only field-of-view path and
        // the full-catalog scan per terminal is its oracle. Many slot epochs (a
        // consecutive run plus epochs spread over a day) and extra masked
        // and polar sites stand in for whole-campaign A/B runs: the fields
        // of view must match bit for bit, and so must the allocations two
        // same-seed schedulers draw from them, masks and hysteresis
        // included.
        let wrap_mask = SkyMask::new(vec![starsense_obstruction::MaskSector {
            az_from_deg: 300.0,
            az_to_deg: 30.0,
            max_blocked_elevation_deg: 55.0,
        }]);
        let extra = [
            (41.7, -91.6, Some(wrap_mask)),
            (-33.7, 151.1, Some(SkyMask::ithaca_trees())),
            (89.95, 45.0, None),
            (-89.9, -120.0, None),
            (-85.1, 179.9, None),
            (0.1, -179.95, Some(SkyMask::ithaca_trees())),
        ];
        let mut sites = cohort_terminals();
        for (lat, lon, mask) in extra {
            let id = sites.len();
            let t = Terminal::new(id, format!("t{id}"), Geodetic::new(lat, lon, 0.1));
            sites.push(match mask {
                Some(mask) => t.with_mask(mask),
                None => t,
            });
        }
        let c = constellation();
        let mut cohort_sched = GlobalScheduler::new(SchedulerPolicy::default(), sites, 3);
        let mut per_sched = cohort_sched.clone();
        let epochs = (0..24)
            .map(|k| at().plus_seconds(15.0 * k as f64))
            .chain((1..12).map(|h| at().plus_seconds(7_200.0 * h as f64 + 37.0 * h as f64)));
        for (k, t) in epochs.enumerate() {
            let snap = c.snapshot(crate::slots::slot_start(t));
            let cohort = cohort_sched.fields_of_view_cohort(&c, &snap);
            let per = scan_fields_of_view(&per_sched, &c, &snap);
            assert_eq!(cohort.len(), per.len());
            for (ti, (a, b)) in cohort.iter().zip(&per).enumerate() {
                assert_eq!(a.len(), b.len(), "terminal {ti} epoch {k} FOV size");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.norad_id, y.norad_id);
                    assert_eq!(x.look.elevation_deg.to_bits(), y.look.elevation_deg.to_bits());
                    assert_eq!(x.look.azimuth_deg.to_bits(), y.look.azimuth_deg.to_bits());
                    assert_eq!(x.look.range_km.to_bits(), y.look.range_km.to_bits());
                    assert_eq!(x.age_days.to_bits(), y.age_days.to_bits());
                    assert_eq!(x.sunlit, y.sunlit);
                }
            }
            let a = cohort_sched.allocate_from_available(t, cohort);
            let b = per_sched.allocate_from_available(t, per);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.chosen_id(), y.chosen_id(), "epoch {k} terminal {}", x.terminal_id);
                assert_eq!(x.eligible_ids, y.eligible_ids, "epoch {k}");
            }
        }
        assert_eq!(cohort_sched.states, per_sched.states);
    }

    #[test]
    fn fast_allocate_matches_reference_engine_bit_for_bit() {
        // The full fast engine (cohort FOV + table-driven scoring + pruned
        // GSO) against the reference engine (full-catalog FOV per terminal
        // + per-candidate score): identical allocations, identical RNG
        // stream consumption, across consecutive slots with hysteresis in
        // play.
        let c = constellation();
        let mut fast = GlobalScheduler::new(SchedulerPolicy::default(), cohort_terminals(), 3);
        let mut reference = fast.clone();
        for k in 0..8 {
            let t = at().plus_seconds(15.0 * k as f64);
            let snap = c.snapshot(crate::slots::slot_start(t));
            let fov_fast = fast.fields_of_view_cohort(&c, &snap);
            let fov_ref = scan_fields_of_view(&reference, &c, &snap);
            let a = fast.allocate_from_available(t, fov_fast);
            let b = reference.allocate_from_available_reference(t, fov_ref);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.terminal_id, y.terminal_id, "slot {k}");
                assert_eq!(x.chosen_id(), y.chosen_id(), "slot {k} terminal {}", x.terminal_id);
                assert_eq!(x.eligible_ids, y.eligible_ids, "slot {k}");
                assert_eq!(x.slot_start.0.to_bits(), y.slot_start.0.to_bits());
                assert_eq!(x.available.len(), y.available.len());
            }
        }
    }

    #[test]
    fn precomputed_score_expression_matches_score_bit_for_bit() {
        // The fast path's score expression, reconstructed term for term
        // (table terms + fused GSO margin), against the reference
        // `score` — with and without hysteresis engaged.
        let c = constellation();
        let mut g = GlobalScheduler::new(SchedulerPolicy::default(), cohort_terminals(), 3);
        for k in 0..4 {
            let t = at().plus_seconds(15.0 * k as f64);
            let slot = slot_index(t);
            let snap = c.snapshot(slot_start(t));
            let fov = g.fields_of_view_cohort(&c, &snap);
            for (ti, available) in fov.iter().enumerate() {
                for sat in available {
                    let reference = g.score(ti, slot, sat);
                    let p = &g.policy;
                    let age_term =
                        p.w_age * (1.0 - (sat.age_days / p.max_age_days).clamp(0.0, 1.0));
                    let load_term = p.w_load * (1.0 - g.load.utilization(sat.norad_id, slot));
                    let el_norm = ((sat.look.elevation_deg - p.min_elevation_deg)
                        / (90.0 - p.min_elevation_deg))
                        .clamp(0.0, 1.0);
                    let dark_penalty =
                        if sat.sunlit { 0.0 } else { p.w_dark_low_elevation * (1.0 - el_norm) };
                    // The production GSO query: `None` marks a satellite
                    // inside the zone, which the fast path never scores.
                    let Some(sep) = g.sites[ti].gso.separation_if_clear(&sat.look) else {
                        assert!(g.sites[ti].gso.excludes(&sat.look));
                        continue;
                    };
                    let gso_margin = (sep / 90.0).clamp(0.0, 1.0);
                    let hyst = if g.states[ti].previous == Some(sat.norad_id) {
                        p.w_hysteresis
                    } else {
                        0.0
                    };
                    let fast = p.w_elevation * el_norm - dark_penalty
                        + age_term
                        + if sat.sunlit { p.w_sunlit } else { 0.0 }
                        + load_term
                        + p.w_gso_margin * gso_margin
                        + hyst;
                    assert_eq!(
                        fast.to_bits(),
                        reference.to_bits(),
                        "terminal {ti} sat {} slot {k}",
                        sat.norad_id
                    );
                }
            }
            // Advance hysteresis state so later slots test the engaged path.
            let fov = g.fields_of_view_cohort(&c, &snap);
            g.allocate_from_available(t, fov);
        }
    }

    #[test]
    fn sharded_sub_schedulers_match_monolith() {
        // A scheduler over any partition of the terminal population must
        // allocate for each terminal exactly as the monolithic scheduler
        // does: per-terminal RNG streams, hysteresis and load are all
        // functions of (seed, terminal id) alone.
        let c = constellation();
        let pop = vec![
            Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2)),
            Terminal::new(1, "Ithaca", Geodetic::new(42.44, -76.50, 0.3))
                .with_mask(SkyMask::ithaca_trees()),
            Terminal::new(2, "Austin", Geodetic::new(30.27, -97.74, 0.15)),
            Terminal::new(3, "Berlin", Geodetic::new(52.52, 13.40, 0.03)),
        ];
        let seed = 3;
        let mut whole = GlobalScheduler::new(SchedulerPolicy::default(), pop.clone(), seed);

        for split in [1usize, 2, 3] {
            let (left, right) = pop.split_at(split);
            let mut a = GlobalScheduler::new(SchedulerPolicy::default(), left.to_vec(), seed);
            let mut b = GlobalScheduler::new(SchedulerPolicy::default(), right.to_vec(), seed);
            let mut whole_run = GlobalScheduler::new(SchedulerPolicy::default(), pop.clone(), seed);
            for k in 0..6 {
                let t = at().plus_seconds(15.0 * k as f64);
                let mut merged = a.allocate(&c, t);
                merged.extend(b.allocate(&c, t));
                let mono = whole_run.allocate(&c, t);
                assert_eq!(merged.len(), mono.len());
                for (x, y) in merged.iter().zip(&mono) {
                    assert_eq!(x.terminal_id, y.terminal_id, "split {split} slot {k}");
                    assert_eq!(x.chosen_id(), y.chosen_id(), "split {split} slot {k}");
                    assert_eq!(x.eligible_ids, y.eligible_ids, "split {split} slot {k}");
                }
            }
        }

        // And the monolith agrees with itself across runs (sanity).
        let again = whole.allocate(&c, at());
        let mut fresh = GlobalScheduler::new(SchedulerPolicy::default(), pop, seed);
        let fresh_run = fresh.allocate(&c, at());
        for (x, y) in again.iter().zip(&fresh_run) {
            assert_eq!(x.chosen_id(), y.chosen_id());
        }
    }

    #[test]
    fn terminal_stream_is_independent_of_coscheduled_terminals() {
        // Dropping every other terminal must not change a terminal's
        // allocation sequence.
        let c = constellation();
        let seed = 9;
        let solo = vec![Terminal::new(1, "Ithaca", Geodetic::new(42.44, -76.50, 0.3))
            .with_mask(SkyMask::ithaca_trees())];
        let mut alone = GlobalScheduler::new(SchedulerPolicy::default(), solo, seed);
        let mut crowd = GlobalScheduler::new(SchedulerPolicy::default(), terminals(), seed);
        for k in 0..8 {
            let t = at().plus_seconds(15.0 * k as f64);
            let a = alone.allocate(&c, t);
            let b = crowd.allocate(&c, t);
            let b_ithaca =
                b.iter().find(|x| x.terminal_id == 1).expect("Ithaca allocated every slot");
            assert_eq!(a[0].chosen_id(), b_ithaca.chosen_id(), "slot {k}");
            assert_eq!(a[0].eligible_ids, b_ithaca.eligible_ids, "slot {k}");
        }
    }

    /// One slot stepped the way a campaign shard runs it: select → score →
    /// pick over borrowed sites and states.
    fn step(
        c: &Constellation,
        sites: &[SiteGeometry],
        states: &mut [TerminalSchedState],
        scratch: &mut AllocScratch,
        seed: u64,
        t: JulianDate,
    ) -> Vec<Allocation> {
        let policy = SchedulerPolicy::default();
        let snap = c.snapshot(slot_start(t));
        let fov = cohort_fields_of_view(sites, policy.min_elevation_deg, c, &snap);
        allocate_slot(&policy, &LoadModel::for_scheduler(seed), sites, states, scratch, t, fov)
    }

    #[test]
    fn copied_states_resume_allocation_stream_bit_identically() {
        // Run 5 slots, copy the states, then step freshly built sites over
        // the copy next to the live scheduler for 6 more slots: the step
        // must emit exactly the allocations the original does, hysteresis
        // and RNG included.
        let c = constellation();
        let mut live = GlobalScheduler::new(SchedulerPolicy::default(), cohort_terminals(), 3);
        // A fresh scheduler's state is the geometry-free initial state.
        let initial: Vec<TerminalSchedState> =
            cohort_terminals().iter().map(|t| TerminalSchedState::initial(3, t.id)).collect();
        assert_eq!(live.states, initial);
        for k in 0..5 {
            live.allocate(&c, at().plus_seconds(15.0 * k as f64));
        }
        let mut states = live.states.clone();
        let sites: Vec<SiteGeometry> = cohort_terminals()
            .into_iter()
            .map(|t| SiteGeometry::new(t, &SchedulerPolicy::default()))
            .collect();
        let mut scratch = AllocScratch::default();
        for k in 5..11 {
            let t = at().plus_seconds(15.0 * k as f64);
            let a = live.allocate(&c, t);
            let b = step(&c, &sites, &mut states, &mut scratch, 3, t);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.terminal_id, y.terminal_id, "slot {k}");
                assert_eq!(x.chosen_id(), y.chosen_id(), "slot {k}");
                assert_eq!(x.eligible_ids, y.eligible_ids, "slot {k}");
            }
        }
        // And the copied streams stay aligned.
        assert_eq!(live.states, states);
    }

    #[test]
    fn shard_steps_slice_of_whole_population_states() {
        // A shard stepping sites [2..4] continues from the matching slice
        // of the whole population's states.
        let c = constellation();
        let pop = vec![
            Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2)),
            Terminal::new(1, "Ithaca", Geodetic::new(42.44, -76.50, 0.3)),
            Terminal::new(2, "Austin", Geodetic::new(30.27, -97.74, 0.15)),
            Terminal::new(3, "Berlin", Geodetic::new(52.52, 13.40, 0.03)),
        ];
        let mut whole = GlobalScheduler::new(SchedulerPolicy::default(), pop, 7);
        for k in 0..4 {
            whole.allocate(&c, at().plus_seconds(15.0 * k as f64));
        }
        let sites = whole.sites[2..].to_vec();
        let mut states = whole.states[2..].to_vec();
        let mut scratch = AllocScratch::default();
        for k in 4..8 {
            let t = at().plus_seconds(15.0 * k as f64);
            let mono = whole.allocate(&c, t);
            let part = step(&c, &sites, &mut states, &mut scratch, 7, t);
            for (x, y) in mono[2..].iter().zip(&part) {
                assert_eq!(x.terminal_id, y.terminal_id, "slot {k}");
                assert_eq!(x.chosen_id(), y.chosen_id(), "slot {k}");
            }
        }
    }

    #[test]
    fn empty_fov_yields_outage() {
        // A terminal whose whole sky is masked can never be assigned.
        let blocked = Terminal::new(0, "Bunker", Geodetic::new(41.66, -91.53, 0.2)).with_mask(
            SkyMask::new(vec![starsense_obstruction::MaskSector {
                az_from_deg: 0.0,
                az_to_deg: 360.0,
                max_blocked_elevation_deg: 90.0,
            }]),
        );
        let c = constellation();
        let mut g = GlobalScheduler::new(SchedulerPolicy::default(), vec![blocked], 3);
        let allocs = g.allocate(&c, at());
        assert!(allocs[0].chosen.is_none());
        assert!(allocs[0].eligible_ids.is_empty());
        assert!(!allocs[0].available.is_empty(), "available ignores the mask");
    }
}
