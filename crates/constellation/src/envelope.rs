//! Orbit envelopes: where one satellite's SGP4 orbit can be over a window.
//!
//! SGP4's position is `R⊕ · mrt · û` for a unit `û`, with `mrt = rl(1 −
//! 1.5·temp2·β·con41) + 0.5·temp1·x1mth2·cos 2u` and `rl = am(1 − e cos E)`
//! on a long-period eccentricity vector of length `e`. Over a window of `t`
//! minutes past epoch ([`Sgp4Terms`]):
//!
//! * **Drag.** `am = ao·tempa²`, `tempa = 1 − P(t)`, and the range of the
//!   drag polynomial `P` is the sum of its monomials' exact ranges.
//!   `tempe = B*·cc4·t + B*·cc5·(sin M − sin M₀)` comes off the mean
//!   eccentricity. `tempa` reaching 0 is unbounded.
//! * **Long period (J3).** The eccentricity vector gains `aycof/(am(1 −
//!   e²))` in one component, so `e ≤ e_L = e_hi + |aycof|/(am_lo(1 −
//!   e_hi²))`; `e_L ≥ 1` is unbounded.
//! * **Short period (J2).** With `pl ≥ am_lo(1 − e_L²)`, `|1.5·temp2·β·
//!   con41| ≤ s` and `|0.5·temp1·x1mth2·cos 2u| ≤ q`.
//!
//! So `r_min = R⊕(am_lo(1 − e_L)(1 − s) − q)` and `r_max = R⊕(am_hi(1 +
//! e_L)(1 + s) + q)`. The speed ceiling is the vis-viva speed at the
//! floor, `sqrt(μ(2/r_min − 1/a_max))` (the square of SGP4's Kepler
//! velocity is exactly `2/rl − 1/am`), plus SGP4's J2 velocity terms, plus
//! `r_max` times the rates its velocity leaves out: node and perigee
//! drift, the J2 and drag mean-motion offsets, and the short-period angle
//! terms (amplitude times `2u̇`, `u̇ ≤ v/r_min`). Every bound is widened by
//! a 10⁻⁹ relative guard for float rounding.

use starsense_astro::time::JulianDate;
use starsense_sgp4::wgs72::{EARTH_RADIUS_KM, J2, MU, XKE};
use starsense_sgp4::{Sgp4, Sgp4Terms};

/// Relative widening of every bound, far above SGP4's float rounding.
const ROUNDING_GUARD: f64 = 1e-9;

/// Bounds on one satellite's orbit at every instant of a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Lowest geocentric radius, km.
    pub r_min_km: f64,
    /// Highest geocentric radius, km.
    pub r_max_km: f64,
    /// Highest TEME speed, km/s.
    pub speed_max_km_s: f64,
}

/// The range of `Σ coef[k]·t^(k+1)` over `[t0, t1]`: the sum of each
/// monomial's exact range (an even power over a window holding 0 also
/// takes 0).
fn poly_range(coef: &[f64], t0: f64, t1: f64) -> (f64, f64) {
    coef.iter().enumerate().fold((0.0, 0.0), |(lo, hi), (k, &c)| {
        let p = k as i32 + 1;
        let (a, b) = (c * t0.powi(p), c * t1.powi(p));
        let zero = if p % 2 == 0 && t0 < 0.0 && 0.0 < t1 { 0.0 } else { a };
        (lo + a.min(b).min(zero), hi + a.max(b).max(zero))
    })
}

impl Envelope {
    /// The orbit's envelope over `[from, to]`, if it can be bounded.
    pub fn of(terms: &Sgp4Terms, from: JulianDate, to: JulianDate) -> Option<Envelope> {
        let (t0, t1) = (from.minutes_since(terms.epoch), to.minutes_since(terms.epoch));
        let (p_lo, p_hi) = poly_range(&terms.tempa, t0, t1);
        let (tempa_lo, tempa_hi) = (1.0 - p_hi, 1.0 - p_lo);
        if !(t0 <= t1 && tempa_lo > 0.0) {
            return None;
        }
        let (am_lo, am_hi) = (terms.ao * tempa_lo * tempa_lo, terms.ao * tempa_hi * tempa_hi);
        let [cc4, cc5, sinmao] = terms.tempe;
        let (tempe_lo, _) = poly_range(&[cc4], t0, t1);
        let e_hi = (terms.ecco - tempe_lo + cc5.abs() * (1.0 + sinmao.abs())).max(1.0e-6);
        let e_l = e_hi + terms.aycof.abs() / (am_lo * (1.0 - e_hi * e_hi));
        let pl_lo = am_lo * (1.0 - e_l * e_l);
        let (temp1, temp2) = (0.5 * J2 / pl_lo, 0.5 * J2 / (pl_lo * pl_lo));
        let [con41, x1mth2, x7thm1] = terms.short_period.map(f64::abs);
        let (s, q) = (1.5 * temp2 * con41, 0.5 * temp1 * x1mth2);
        let r_min_km = EARTH_RADIUS_KM * (am_lo * (1.0 - e_l) * (1.0 - s) - q);
        let r_max_km = EARTH_RADIUS_KM * (am_hi * (1.0 + e_l) * (1.0 + s) + q);

        let kepler = (MU * (2.0 / r_min_km - 1.0 / (EARTH_RADIUS_KM * am_hi))).sqrt();
        let j2_velocity =
            EARTH_RADIUS_KM * XKE / 60.0 * temp1 * (2.0 * x1mth2 + 1.5 * con41) / am_lo.powf(1.5);
        // Angular rates (rad/min) the velocity output leaves out.
        let t_abs = t0.abs().max(t1.abs());
        let templ = terms.templ.iter().enumerate();
        let templ_rate: f64 =
            templ.map(|(k, c)| (k + 2) as f64 * c.abs() * t_abs.powi(k as i32 + 1)).sum();
        let [mdot, argpdot, nodedot] = terms.secular;
        let u_dot = kepler / r_min_km * 60.0;
        let (sinio, cosio) = (terms.sinio.abs(), terms.cosio.abs());
        let rates = (mdot - terms.no_unkozai).abs()
            + argpdot.abs()
            + nodedot.abs()
            + terms.no_unkozai * templ_rate
            + 2.0 * u_dot * temp2 * (0.25 * x7thm1 + 1.5 * cosio * (1.0 + sinio));
        let speed = kepler + j2_velocity + r_max_km * rates / 60.0;
        let bounded = e_hi < 1.0 && e_l < 1.0 && s < 1.0 && r_min_km > 0.0 && speed.is_finite();
        bounded.then_some(Envelope {
            r_min_km: r_min_km * (1.0 - ROUNDING_GUARD),
            r_max_km: r_max_km * (1.0 + ROUNDING_GUARD),
            speed_max_km_s: speed * (1.0 + ROUNDING_GUARD),
        })
    }
}

/// One [`Envelope`] per catalog satellite over one window, for one kind of
/// orbit (truth or published TLE).
#[derive(Debug, Clone)]
pub struct Envelopes {
    pub(crate) from: JulianDate,
    pub(crate) to: JulianDate,
    pub(crate) sats: Vec<Option<Envelope>>,
}

impl Envelopes {
    /// The envelope of each of `orbits` over `[from, to]`.
    pub(crate) fn new<'s>(
        orbits: impl Iterator<Item = &'s Sgp4>,
        from: JulianDate,
        to: JulianDate,
    ) -> Envelopes {
        let sats = orbits.map(|o| Envelope::of(&o.terms(), from, to)).collect();
        Envelopes { from, to, sats }
    }

    /// Whether the window covers `[from, to]`.
    pub fn covers(&self, from: JulianDate, to: JulianDate) -> bool {
        self.from.0 <= from.0 && to.0 <= self.to.0
    }

    /// Per-satellite envelopes, indexed like the catalog.
    pub fn sats(&self) -> &[Option<Envelope>] {
        &self.sats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ConstellationBuilder;
    use starsense_sgp4::{Elements, Sgp4};

    /// Propagates `orbit` with velocity every `step_s` over `[from, to]`
    /// and checks each radius, speed and chord against `env`; returns the
    /// samples checked and the smallest floor slack, km.
    fn check_samples(
        orbit: &Sgp4,
        env: &Envelope,
        from: JulianDate,
        to: JulianDate,
    ) -> (usize, f64) {
        let step_s = 10.0;
        let steps = (to.seconds_since(from) / step_s).ceil() as usize;
        let (mut samples, mut slack) = (0, f64::INFINITY);
        let mut previous: Option<starsense_sgp4::State> = None;
        for k in 0..=steps {
            let at = from.plus_seconds((k as f64 * step_s).min(to.seconds_since(from)));
            let Ok(state) = orbit.propagate(at) else { continue };
            let (r, v) = (state.position_km.norm(), state.velocity_km_s.norm());
            assert!(r >= env.r_min_km && r <= env.r_max_km, "radius {r} outside {env:?}");
            assert!(v <= env.speed_max_km_s, "speed {v} above {env:?}");
            if let Some(p) = previous {
                let moved = (state.position_km - p.position_km).norm();
                assert!(moved <= env.speed_max_km_s * step_s, "moved {moved} km in {step_s} s");
            }
            previous = Some(state);
            slack = slack.min(r - env.r_min_km);
            samples += 1;
        }
        (samples, slack)
    }

    #[test]
    fn every_gen1_sample_lies_inside_its_envelope() {
        // A 12-slot prepare's window, widened by the key reach each side,
        // sampled every 10 s for every satellite of both kinds. The floor
        // is nearly reached: it is the bound the cull and the prefilter
        // lean on hardest.
        let from = JulianDate::from_ymd_hms(2023, 6, 1, 15, 58, 30.0);
        let to = from.plus_seconds(360.0);
        for seed in [1, 11] {
            let c = ConstellationBuilder::starlink_gen1().seed(seed).build();
            let kinds = [
                (
                    c.true_envelopes(from, to),
                    c.sats().iter().map(|s| s.truth_sgp4()).collect::<Vec<_>>(),
                ),
                (
                    c.published_envelopes(from, to),
                    c.sats().iter().map(|s| s.published_sgp4()).collect(),
                ),
            ];
            for (envelopes, orbits) in &kinds {
                let (mut samples, mut slack) = (0, f64::INFINITY);
                for (env, orbit) in envelopes.sats().iter().zip(orbits) {
                    let env = env.expect("every gen1 orbit is bounded");
                    assert!(env.r_max_km - env.r_min_km < 60.0, "{env:?}");
                    let (n, s) = check_samples(orbit, &env, from, to);
                    samples += n;
                    slack = slack.min(s);
                }
                assert!(samples > 36 * c.len(), "seed {seed}: {samples} samples");
                assert!(slack < 0.05, "seed {seed}: the floor is {slack} km below every sample");
            }
        }
    }

    #[test]
    fn drag_moves_the_envelope_and_unbounded_orbits_have_none() {
        // Low, draggy orbits a day past epoch, where drag takes kilometres
        // off the semi-major axis within the two-hour window: the radius
        // must still stay inside, with the drag allowance doing the work.
        let epoch = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
        let from = epoch.plus_minutes(1440.0);
        let to = from.plus_minutes(120.0);
        let mut drag_km = 0.0f64;
        for (i, (rev_day, bstar, ecc)) in
            [(16.0, 2e-3, 1e-4), (15.8, 8e-3, 2e-3), (15.5, 1e-3, 5e-4), (16.2, 4e-4, 1e-3)]
                .into_iter()
                .enumerate()
        {
            let elements = Elements::from_catalog_units(
                i as u32,
                epoch,
                rev_day,
                ecc,
                53.0 + 10.0 * i as f64,
                40.0,
                70.0,
                10.0,
                bstar,
            );
            let orbit = Sgp4::new(&elements).expect("initializes");
            let terms = orbit.terms();
            let env = Envelope::of(&terms, from, to).expect("bounded");
            let drag_free =
                Envelope::of(&Sgp4Terms { tempa: [0.0; 4], ..terms }, from, to).expect("bounded");
            drag_km = drag_km.max(drag_free.r_min_km - env.r_min_km);
            check_samples(&orbit, &env, from, to);
        }
        assert!(drag_km > 5.0, "drag moved the floor by only {drag_km} km");

        // Drag that takes the orbit down within the window, and a window
        // that runs backwards, bound nothing.
        let heavy = Elements::from_catalog_units(9, epoch, 16.0, 1e-4, 53.0, 0.0, 0.0, 0.0, 0.1);
        let terms = Sgp4::new(&heavy).expect("initializes").terms();
        assert_eq!(
            Envelope::of(
                &terms,
                epoch.plus_minutes(30.0 * 1440.0),
                epoch.plus_minutes(31.0 * 1440.0)
            ),
            None
        );
        assert_eq!(Envelope::of(&terms, to, from), None);
    }
}
