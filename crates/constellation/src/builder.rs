//! Constellation generation.

use crate::catalog::{Constellation, LaunchBatch, Satellite};
use crate::shell::Shell;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use starsense_astro::time::JulianDate;
use starsense_sgp4::{Elements, Tle};

/// Start of the synthetic launch history, 2020-01-15 00:00 UTC (the left
/// end of Figure 6's x-axis). Launch batches are spread evenly from here
/// to [`LAUNCH_END`].
const LAUNCH_START: JulianDate = JulianDate(2_458_863.5);

/// End of the synthetic launch history, 2023-01-15 00:00 UTC.
const LAUNCH_END: JulianDate = JulianDate(2_459_959.5);

/// Builds a synthetic constellation: Walker shells → satellites with truth
/// elements, published (stale + noisy) TLEs, and launch batches.
///
/// All randomness comes from an explicit seed, so a given builder
/// configuration always produces the identical constellation — experiments
/// are exactly reproducible.
#[derive(Debug, Clone)]
pub struct ConstellationBuilder {
    shells: Vec<Shell>,
    epoch: JulianDate,
    seed: u64,
    staleness_hours: (f64, f64),
    fit_noise: f64,
    /// Satellites per launch batch: 60 for full scale, 12 for
    /// [`ConstellationBuilder::starlink_mini`].
    batch_size: u32,
    first_norad_id: u32,
}

impl ConstellationBuilder {
    /// Starts an empty builder with the defaults used across the
    /// reproduction: truth epoch 2023-06-01 00:00 UTC, published-TLE
    /// staleness uniform in 0–6 h (CelesTrak's refresh cadence per §4),
    /// launches spread 2020-01 … 2023-01 (Figure 6's x-axis range).
    pub fn new() -> ConstellationBuilder {
        ConstellationBuilder {
            shells: Vec::new(),
            epoch: JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0),
            seed: 0,
            staleness_hours: (0.0, 6.0),
            fit_noise: 1.0,
            batch_size: 60,
            first_norad_id: 44_000,
        }
    }

    /// Full-scale Starlink Gen-1-like constellation (~4200 satellites across
    /// four shells, per SpaceX's public filings).
    pub fn starlink_gen1() -> ConstellationBuilder {
        ConstellationBuilder::new()
            .add_shell(Shell {
                name: "shell-1 (53.0°/550km)".into(),
                inclination_deg: 53.0,
                altitude_km: 550.0,
                planes: 72,
                sats_per_plane: 22,
                phasing: 39,
            })
            .add_shell(Shell {
                name: "shell-2 (53.2°/540km)".into(),
                inclination_deg: 53.2,
                altitude_km: 540.0,
                planes: 72,
                sats_per_plane: 22,
                phasing: 17,
            })
            .add_shell(Shell {
                name: "shell-3 (70.0°/570km)".into(),
                inclination_deg: 70.0,
                altitude_km: 570.0,
                planes: 36,
                sats_per_plane: 20,
                phasing: 11,
            })
            .add_shell(Shell {
                name: "shell-4 (97.6°/560km)".into(),
                inclination_deg: 97.6,
                altitude_km: 560.0,
                planes: 6,
                sats_per_plane: 58,
                phasing: 1,
            })
    }

    /// A ~1/11-scale constellation (≈380 satellites) with the same shell
    /// structure, for unit tests and quick examples.
    pub fn starlink_mini() -> ConstellationBuilder {
        ConstellationBuilder { batch_size: 12, ..ConstellationBuilder::new() }
            .add_shell(Shell {
                name: "mini-1 (53.0°/550km)".into(),
                inclination_deg: 53.0,
                altitude_km: 550.0,
                planes: 18,
                sats_per_plane: 8,
                phasing: 5,
            })
            .add_shell(Shell {
                name: "mini-2 (53.2°/540km)".into(),
                inclination_deg: 53.2,
                altitude_km: 540.0,
                planes: 18,
                sats_per_plane: 8,
                phasing: 7,
            })
            .add_shell(Shell {
                name: "mini-3 (70.0°/570km)".into(),
                inclination_deg: 70.0,
                altitude_km: 570.0,
                planes: 9,
                sats_per_plane: 6,
                phasing: 2,
            })
            .add_shell(Shell {
                name: "mini-4 (97.6°/560km)".into(),
                inclination_deg: 97.6,
                altitude_km: 560.0,
                planes: 3,
                sats_per_plane: 14,
                phasing: 1,
            })
    }

    /// Adds a Walker shell.
    pub fn add_shell(mut self, shell: Shell) -> Self {
        self.shells.push(shell);
        self
    }

    /// Sets the truth element epoch (also the natural simulation start).
    pub fn epoch(mut self, epoch: JulianDate) -> Self {
        self.epoch = epoch;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the published-TLE epoch staleness range in hours (uniform).
    pub fn staleness_hours(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo >= 0.0 && hi >= lo, "staleness range must be ordered and non-negative");
        self.staleness_hours = (lo, hi);
        self
    }

    /// Scales the published-TLE element fit noise (1.0 = nominal, 0 = exact
    /// elements, just stale).
    pub fn fit_noise(mut self, scale: f64) -> Self {
        assert!(scale >= 0.0);
        self.fit_noise = scale;
        self
    }

    /// Generates the constellation.
    ///
    /// # Panics
    ///
    /// Panics if no shells were added, or if generated elements fail SGP4
    /// initialization (which would be a generator bug, not a data error).
    pub fn build(&self) -> Constellation {
        assert!(!self.shells.is_empty(), "constellation needs at least one shell");
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Collect every (shell, slot) pair, then shuffle so launch dates are
        // uncorrelated with orbital geometry.
        let mut slots: Vec<(usize, crate::shell::WalkerSlot)> = Vec::new();
        for (si, shell) in self.shells.iter().enumerate() {
            for slot in shell.slots() {
                slots.push((si, slot));
            }
        }
        slots.shuffle(&mut rng);

        let n_batches = slots.len().div_ceil(self.batch_size as usize);
        let span_days = LAUNCH_END.0 - LAUNCH_START.0;

        let mut sats = Vec::with_capacity(slots.len());
        for (i, (si, slot)) in slots.iter().enumerate() {
            let shell = &self.shells[*si];
            let batch_index = (i / self.batch_size as usize) as u32;
            let frac =
                if n_batches > 1 { batch_index as f64 / (n_batches - 1) as f64 } else { 0.0 };
            let date = JulianDate(LAUNCH_START.0 + frac * span_days);
            let civil = date.to_civil();
            let launch =
                LaunchBatch { index: batch_index, date, year: civil.year, month: civil.month };

            let norad_id = self.first_norad_id + i as u32;
            let ecc = rng.random_range(1.0e-4..1.5e-3);
            let argp = rng.random_range(0.0..360.0);
            let bstar = rng.random_range(5.0e-5..2.0e-4);

            let elements = Elements::from_catalog_units(
                norad_id,
                self.epoch,
                shell.mean_motion_rev_per_day(),
                ecc,
                shell.inclination_deg,
                slot.raan_deg,
                argp,
                slot.mean_anomaly_deg,
                bstar,
            );

            let published = self.publish(&elements, launch, &mut rng);
            let name = format!("STARSENSE-{norad_id}");
            #[expect(
                clippy::expect_used,
                reason = "builder only samples valid LEO bands; an SGP4 init failure is a builder bug and must abort loudly"
            )]
            let sat = Satellite::new(name, launch, elements, published)
                .expect("generated elements must initialize SGP4");
            sats.push(sat);
        }

        Constellation::new(sats)
    }

    /// Derives the published TLE for a satellite: epoch moved back by a
    /// random staleness, mean anomaly rewound consistently, and small
    /// Gaussian fit noise applied to the elements.
    fn publish(&self, truth: &Elements, launch: LaunchBatch, rng: &mut StdRng) -> Tle {
        let lag_hours = rng.random_range(self.staleness_hours.0..=self.staleness_hours.1);
        let lag_min = lag_hours * 60.0;
        let pub_epoch = truth.epoch.plus_minutes(-lag_min);

        // Rewind the mean anomaly along the orbit so the published elements
        // describe (approximately) the same physical trajectory.
        let ma_rewound = (truth.mo - truth.no_kozai * lag_min).rem_euclid(std::f64::consts::TAU);

        let k = self.fit_noise;
        let noisy_deg = |v: f64, sigma: f64, rng: &mut StdRng| v + gauss(rng) * sigma * k;

        let intl = intl_designator(launch);
        Tle {
            name: None,
            norad_id: truth.norad_id,
            classification: 'U',
            intl_designator: intl,
            epoch: pub_epoch,
            ndot: 1.0e-6,
            nddot: 0.0,
            bstar: truth.bstar,
            element_set_no: 999,
            inclination_deg: noisy_deg(truth.inclo.to_degrees(), 0.002, rng),
            raan_deg: noisy_deg(truth.nodeo.to_degrees(), 0.003, rng).rem_euclid(360.0),
            eccentricity: (truth.ecco + gauss(rng) * 2.0e-5 * k).clamp(1.0e-7, 0.01),
            arg_perigee_deg: noisy_deg(truth.argpo.to_degrees(), 0.05, rng).rem_euclid(360.0),
            mean_anomaly_deg: noisy_deg(ma_rewound.to_degrees(), 0.01, rng).rem_euclid(360.0),
            mean_motion_rev_day: truth.mean_motion_rev_per_day() + gauss(rng) * 2.0e-6 * k,
            rev_number: 10_000,
        }
    }
}

impl Default for ConstellationBuilder {
    fn default() -> Self {
        ConstellationBuilder::new()
    }
}

/// Standard normal sample via Box-Muller (the `rand` crate alone ships no
/// normal distribution; pulling in `rand_distr` for one function is not
/// worth a dependency).
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// International designator `YYNNNP..` from a launch batch: two-digit year,
/// three-digit launch number, piece letters A, B, …, Z, AA, AB, ….
fn intl_designator(launch: LaunchBatch) -> String {
    let yy = launch.year.rem_euclid(100);
    let num = (launch.index % 999) + 1;
    format!("{yy:02}{num:03}A")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_window_constants_are_the_civil_dates() {
        let start = JulianDate::from_ymd_hms(2020, 1, 15, 0, 0, 0.0);
        let end = JulianDate::from_ymd_hms(2023, 1, 15, 0, 0, 0.0);
        assert_eq!(LAUNCH_START.0.to_bits(), start.0.to_bits());
        assert_eq!(LAUNCH_END.0.to_bits(), end.0.to_bits());
    }

    #[test]
    fn build_is_deterministic_for_a_seed() {
        let a = ConstellationBuilder::starlink_mini().seed(9).build();
        let b = ConstellationBuilder::starlink_mini().seed(9).build();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.sats().iter().zip(b.sats()) {
            assert_eq!(x.norad_id, y.norad_id);
            assert_eq!(x.elements, y.elements);
            assert_eq!(x.published.epoch, y.published.epoch);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ConstellationBuilder::starlink_mini().seed(1).build();
        let b = ConstellationBuilder::starlink_mini().seed(2).build();
        let same = a
            .sats()
            .iter()
            .zip(b.sats())
            .all(|(x, y)| x.published.mean_anomaly_deg == y.published.mean_anomaly_deg);
        assert!(!same);
    }

    #[test]
    fn gen1_has_about_4200_satellites() {
        // Just the slot math — don't build (expensive in debug tests).
        let b = ConstellationBuilder::starlink_gen1();
        let total: u32 = b.shells.iter().map(|s| s.total_sats()).sum();
        assert_eq!(total, 1584 + 1584 + 720 + 348);
    }

    #[test]
    fn launch_dates_span_the_window() {
        let c = ConstellationBuilder::starlink_mini().seed(3).build();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in c.sats() {
            lo = lo.min(s.launch.date.0);
            hi = hi.max(s.launch.date.0);
        }
        let start = JulianDate::from_ymd_hms(2020, 1, 15, 0, 0, 0.0).0;
        let end = JulianDate::from_ymd_hms(2023, 1, 15, 0, 0, 0.0).0;
        assert!((lo - start).abs() < 1.0, "earliest launch {lo} vs {start}");
        assert!((hi - end).abs() < 40.0, "latest launch {hi} vs {end}");
    }

    #[test]
    fn batches_have_consistent_labels() {
        let c = ConstellationBuilder::starlink_mini().seed(3).build();
        for s in c.sats() {
            let label = s.launch.label();
            assert_eq!(label.len(), 7, "label {label}");
            assert!((2020..=2023).contains(&s.launch.year));
            assert!((1..=12).contains(&s.launch.month));
        }
    }

    #[test]
    fn zero_fit_noise_and_zero_staleness_match_truth_closely() {
        let c = ConstellationBuilder::starlink_mini()
            .seed(4)
            .staleness_hours(0.0, 0.0)
            .fit_noise(0.0)
            .build();
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 3, 0, 0.0);
        for s in c.sats().iter().take(20) {
            let t = s.true_position(at).unwrap();
            let p = s.published_position(at).unwrap();
            // TLE field quantization (7-dec eccentricity, 4-dec degrees,
            // 8-dec mean motion) keeps this from being exact.
            assert!(t.distance(p) < 5.0, "diff {} km", t.distance(p));
        }
    }

    #[test]
    fn staleness_increases_published_error() {
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let err = |lo: f64, hi: f64| -> f64 {
            let c = ConstellationBuilder::starlink_mini()
                .seed(5)
                .staleness_hours(lo, hi)
                .fit_noise(1.0)
                .build();
            let mut total = 0.0;
            let mut n = 0;
            for s in c.sats().iter().take(60) {
                if let (Some(t), Some(p)) = (s.true_position(at), s.published_position(at)) {
                    total += t.distance(p);
                    n += 1;
                }
            }
            total / n as f64
        };
        let fresh = err(0.0, 0.5);
        let stale = err(20.0, 24.0);
        assert!(
            stale > fresh,
            "staleness should raise mean error: fresh {fresh} km vs stale {stale} km"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shell")]
    fn empty_builder_panics() {
        let _ = ConstellationBuilder::new().build();
    }

    #[test]
    fn intl_designator_format() {
        let l = LaunchBatch {
            index: 41,
            date: JulianDate::from_ymd_hms(2021, 5, 1, 0, 0, 0.0),
            year: 2021,
            month: 5,
        };
        assert_eq!(intl_designator(l), "21042A");
    }

    #[test]
    fn gauss_has_roughly_unit_variance() {
        let mut rng = StdRng::seed_from_u64(11);
        let xs: Vec<f64> = (0..20_000).map(|_| gauss(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
