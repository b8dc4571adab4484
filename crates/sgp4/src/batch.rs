//! Struct-of-arrays batched SGP4 propagation.
//!
//! The campaign engine and the netemu slot-cohort engine both propagate every
//! satellite of a constellation to the *same* instant, thousands of times per
//! run. Doing that through `Sgp4::propagate` walks one ~280-byte coefficient
//! struct per satellite — every field load is a strided miss and the compiler
//! cannot vectorize across satellites. [`Sgp4Batch`] transposes the
//! coefficients once into a struct-of-arrays layout and propagates the whole
//! batch in three passes (secular/long-period, Kepler solve, short-period +
//! orientation), so the polynomial and normalization arithmetic runs over
//! contiguous lanes.
//!
//! # Bit-identity contract
//!
//! The batch path performs exactly the same floating-point operations in
//! exactly the same per-satellite order as [`Sgp4::propagate_minutes`];
//! splitting the computation into passes only round-trips intermediates
//! through `f64` arrays, which is exact. Every position produced by
//! [`Sgp4Batch::positions_into`] is therefore bit-identical to the scalar
//! propagator's `position_km`, and a lane yields `None` exactly when the
//! scalar call returns an error (non-positive mean motion, eccentricity out
//! of range, negative semi-latus rectum, or decay). The tests pin this with
//! `to_bits` comparisons, including a property test over randomized element
//! sets.

use crate::propagator::Sgp4;
use crate::wgs72::{EARTH_RADIUS_KM, J2, XKE};
use starsense_astro::angles::wrap_tau;
use starsense_astro::time::JulianDate;
use starsense_astro::vec3::Vec3;

/// A set of SGP4 propagators transposed into struct-of-arrays lanes.
///
/// Build once per element-set generation (initialization already happened in
/// [`Sgp4::new`]; this is a pure transpose), then call
/// [`positions_into`](Sgp4Batch::positions_into) for each instant. Immutable
/// after construction and freely shareable across threads.
#[derive(Debug, Clone, Default)]
pub struct Sgp4Batch {
    epoch: Vec<JulianDate>,
    ecco: Vec<f64>,
    inclo: Vec<f64>,
    nodeo: Vec<f64>,
    argpo: Vec<f64>,
    mo: Vec<f64>,
    bstar: Vec<f64>,
    no_unkozai: Vec<f64>,
    isimp: Vec<bool>,
    con41: Vec<f64>,
    x1mth2: Vec<f64>,
    x7thm1: Vec<f64>,
    cc1: Vec<f64>,
    cc4: Vec<f64>,
    cc5: Vec<f64>,
    d2: Vec<f64>,
    d3: Vec<f64>,
    d4: Vec<f64>,
    delmo: Vec<f64>,
    eta: Vec<f64>,
    sinmao: Vec<f64>,
    mdot: Vec<f64>,
    argpdot: Vec<f64>,
    nodedot: Vec<f64>,
    nodecf: Vec<f64>,
    omgcof: Vec<f64>,
    xmcof: Vec<f64>,
    t2cof: Vec<f64>,
    t3cof: Vec<f64>,
    t4cof: Vec<f64>,
    t5cof: Vec<f64>,
    xlcof: Vec<f64>,
    aycof: Vec<f64>,
    // sin/cos of the (constant) inclination, hoisted out of the per-instant
    // path: the scalar propagator recomputes `inclo.sin()`/`inclo.cos()` on
    // every call with the same argument, so the hoisted values are bitwise
    // identical.
    sinip: Vec<f64>,
    cosip: Vec<f64>,
}

impl Sgp4Batch {
    /// Transposes an ordered set of propagators into batch lanes.
    ///
    /// Lane `i` of every output corresponds to the `i`-th propagator yielded
    /// by the iterator.
    pub fn from_propagators<'a>(props: impl IntoIterator<Item = &'a Sgp4>) -> Sgp4Batch {
        let mut b = Sgp4Batch::default();
        for p in props {
            b.epoch.push(p.epoch);
            b.ecco.push(p.ecco);
            b.inclo.push(p.inclo);
            b.nodeo.push(p.nodeo);
            b.argpo.push(p.argpo);
            b.mo.push(p.mo);
            b.bstar.push(p.bstar);
            b.no_unkozai.push(p.no_unkozai);
            b.isimp.push(p.isimp);
            b.con41.push(p.con41);
            b.x1mth2.push(p.x1mth2);
            b.x7thm1.push(p.x7thm1);
            b.cc1.push(p.cc1);
            b.cc4.push(p.cc4);
            b.cc5.push(p.cc5);
            b.d2.push(p.d2);
            b.d3.push(p.d3);
            b.d4.push(p.d4);
            b.delmo.push(p.delmo);
            b.eta.push(p.eta);
            b.sinmao.push(p.sinmao);
            b.mdot.push(p.mdot);
            b.argpdot.push(p.argpdot);
            b.nodedot.push(p.nodedot);
            b.nodecf.push(p.nodecf);
            b.omgcof.push(p.omgcof);
            b.xmcof.push(p.xmcof);
            b.t2cof.push(p.t2cof);
            b.t3cof.push(p.t3cof);
            b.t4cof.push(p.t4cof);
            b.t5cof.push(p.t5cof);
            b.xlcof.push(p.xlcof);
            b.aycof.push(p.aycof);
            b.sinip.push(p.inclo.sin());
            b.cosip.push(p.inclo.cos());
        }
        b
    }

    /// Number of lanes (propagators) in the batch.
    pub fn len(&self) -> usize {
        self.epoch.len()
    }

    /// Whether the batch holds no propagators.
    pub fn is_empty(&self) -> bool {
        self.epoch.is_empty()
    }

    /// Propagates every lane to `at`, filling `out` with one TEME position
    /// per lane (`None` where the scalar propagator would return an error).
    ///
    /// `out` is cleared and refilled; reuse it across calls to avoid
    /// reallocation.
    pub fn positions_into(&self, at: JulianDate, out: &mut Vec<Option<Vec3>>) {
        let n = self.len();
        out.clear();
        out.resize(n, None);
        if n == 0 {
            return;
        }

        // Inter-pass lanes. `ok` gates every later pass: a lane that errors
        // stays `None` in `out` and is skipped thereafter.
        let mut ok = vec![true; n];
        let mut l_am = vec![0.0f64; n];
        let mut l_nm = vec![0.0f64; n];
        let mut l_axnl = vec![0.0f64; n];
        let mut l_aynl = vec![0.0f64; n];
        let mut l_u = vec![0.0f64; n];
        let mut l_nodep = vec![0.0f64; n];
        let mut l_sineo1 = vec![0.0f64; n];
        let mut l_coseo1 = vec![0.0f64; n];

        // ---- Pass 1: secular gravity/drag and long-period periodics. ----
        for i in 0..n {
            let t = at.minutes_since(self.epoch[i]);
            let xmdf = self.mo[i] + self.mdot[i] * t;
            let argpdf = self.argpo[i] + self.argpdot[i] * t;
            let nodedf = self.nodeo[i] + self.nodedot[i] * t;
            let t2 = t * t;
            let mut nodem = nodedf + self.nodecf[i] * t2;
            let mut tempa = 1.0 - self.cc1[i] * t;
            let mut tempe = self.bstar[i] * self.cc4[i] * t;
            let mut templ = self.t2cof[i] * t2;

            let (mut mm, mut argpm) = (xmdf, argpdf);
            if !self.isimp[i] {
                let delomg = self.omgcof[i] * t;
                let delmtemp = 1.0 + self.eta[i] * xmdf.cos();
                let delm = self.xmcof[i] * (delmtemp.powi(3) - self.delmo[i]);
                let temp = delomg + delm;
                mm = xmdf + temp;
                argpm = argpdf - temp;
                let t3 = t2 * t;
                let t4 = t3 * t;
                tempa = tempa - self.d2[i] * t2 - self.d3[i] * t3 - self.d4[i] * t4;
                tempe += self.bstar[i] * self.cc5[i] * (mm.sin() - self.sinmao[i]);
                templ = templ + self.t3cof[i] * t3 + t4 * (self.t4cof[i] + t * self.t5cof[i]);
            }

            let nm = self.no_unkozai[i];
            if nm <= 0.0 {
                ok[i] = false; // NonPositiveMeanMotion
                continue;
            }
            let am = (XKE / nm).powf(2.0 / 3.0) * tempa * tempa;
            let nm = XKE / am.powf(1.5);
            let em = self.ecco[i] - tempe;

            #[expect(
                clippy::manual_range_contains,
                reason = "the scalar propagator's guard: a NaN eccentricity passes through"
            )]
            if em >= 1.0 || em < -0.001 {
                ok[i] = false; // EccentricityOutOfRange
                continue;
            }
            let em = em.max(1.0e-6);

            let mm = mm + self.no_unkozai[i] * templ;
            let xlm = mm + argpm + nodem;

            nodem = wrap_tau(nodem);
            let argpm = wrap_tau(argpm);
            let xlm = wrap_tau(xlm);
            let mm = wrap_tau(xlm - argpm - nodem);

            let (ep, argpp, nodep, mp) = (em, argpm, nodem, mm);
            let axnl = ep * argpp.cos();
            let temp = 1.0 / (am * (1.0 - ep * ep));
            let aynl = ep * argpp.sin() + temp * self.aycof[i];
            let xl = mp + argpp + nodep + temp * self.xlcof[i] * axnl;

            l_am[i] = am;
            l_nm[i] = nm;
            l_axnl[i] = axnl;
            l_aynl[i] = aynl;
            l_u[i] = wrap_tau(xl - nodep);
            l_nodep[i] = nodep;
        }

        // ---- Pass 2: solve Kepler's equation per lane. ----
        for i in 0..n {
            if !ok[i] {
                continue;
            }
            let (axnl, aynl, u) = (l_axnl[i], l_aynl[i], l_u[i]);
            let mut eo1 = u;
            let mut tem5: f64 = 9999.9;
            let mut ktr = 1;
            let (mut sineo1, mut coseo1) = eo1.sin_cos();
            while tem5.abs() >= 1.0e-12 && ktr <= 10 {
                (sineo1, coseo1) = eo1.sin_cos();
                tem5 = 1.0 - coseo1 * axnl - sineo1 * aynl;
                tem5 = (u - aynl * coseo1 + axnl * sineo1 - eo1) / tem5;
                if tem5.abs() >= 0.95 {
                    tem5 = 0.95 * tem5.signum();
                }
                eo1 += tem5;
                ktr += 1;
            }
            l_sineo1[i] = sineo1;
            l_coseo1[i] = coseo1;
        }

        // ---- Pass 3: short-period periodics, orientation, position. ----
        for i in 0..n {
            if !ok[i] {
                continue;
            }
            let (am, nm) = (l_am[i], l_nm[i]);
            let (axnl, aynl) = (l_axnl[i], l_aynl[i]);
            let (sineo1, coseo1) = (l_sineo1[i], l_coseo1[i]);

            let ecose = axnl * coseo1 + aynl * sineo1;
            let esine = axnl * sineo1 - aynl * coseo1;
            let el2 = axnl * axnl + aynl * aynl;
            let pl = am * (1.0 - el2);
            if pl < 0.0 {
                continue; // NegativeSemiLatusRectum
            }

            let rl = am * (1.0 - ecose);
            let betal = (1.0 - el2).sqrt();
            let temp = esine / (1.0 + betal);
            let sinu = am / rl * (sineo1 - aynl - axnl * temp);
            let cosu = am / rl * (coseo1 - axnl + aynl * temp);
            let su = sinu.atan2(cosu);
            let sin2u = (cosu + cosu) * sinu;
            let cos2u = 1.0 - 2.0 * sinu * sinu;
            let temp = 1.0 / pl;
            let temp1 = 0.5 * J2 * temp;
            let temp2 = temp1 * temp;

            let mrt = rl * (1.0 - 1.5 * temp2 * betal * self.con41[i])
                + 0.5 * temp1 * self.x1mth2[i] * cos2u;
            let su = su - 0.25 * temp2 * self.x7thm1[i] * sin2u;
            let xnode = l_nodep[i] + 1.5 * temp2 * self.cosip[i] * sin2u;
            let xinc = self.inclo[i] + 1.5 * temp2 * self.cosip[i] * self.sinip[i] * cos2u;
            // `nm` participates only in velocity, which the batch path does
            // not produce; keep the binding so the lane math mirrors the
            // scalar code when read side by side.
            let _ = nm;

            let (sinsu, cossu) = su.sin_cos();
            let (snod, cnod) = xnode.sin_cos();
            let (sini, cosi) = xinc.sin_cos();
            let xmx = -snod * cosi;
            let xmy = cnod * cosi;
            let ux = xmx * sinsu + cnod * cossu;
            let uy = xmy * sinsu + snod * cossu;
            let uz = sini * sinsu;

            if mrt < 1.0 {
                continue; // Decayed
            }
            out[i] = Some(Vec3::new(ux, uy, uz) * (mrt * EARTH_RADIUS_KM));
        }
    }

    /// Convenience wrapper around [`positions_into`](Sgp4Batch::positions_into)
    /// that allocates the output vector.
    pub fn positions_at(&self, at: JulianDate) -> Vec<Option<Vec3>> {
        let mut out = Vec::new();
        self.positions_into(at, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::Elements;
    use crate::tle::Tle;

    fn scalar_position(p: &Sgp4, at: JulianDate) -> Option<Vec3> {
        p.propagate(at).ok().map(|s| s.position_km)
    }

    fn assert_lane_bits(batch: &[Option<Vec3>], scalar: &[Option<Vec3>]) {
        assert_eq!(batch.len(), scalar.len());
        for (i, (b, s)) in batch.iter().zip(scalar).enumerate() {
            match (b, s) {
                (None, None) => {}
                (Some(b), Some(s)) => {
                    assert_eq!(b.x.to_bits(), s.x.to_bits(), "lane {i} x");
                    assert_eq!(b.y.to_bits(), s.y.to_bits(), "lane {i} y");
                    assert_eq!(b.z.to_bits(), s.z.to_bits(), "lane {i} z");
                }
                _ => panic!("lane {i}: batch {b:?} vs scalar {s:?}"),
            }
        }
    }

    fn shell_propagators() -> Vec<Sgp4> {
        let epoch = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
        let mut props = Vec::new();
        for k in 0..40 {
            let e = Elements::from_catalog_units(
                44000 + k,
                epoch,
                15.06 + 0.001 * k as f64,
                0.0001 + 0.00002 * k as f64,
                53.0 + 0.2 * (k % 5) as f64,
                9.0 * k as f64,
                4.5 * k as f64,
                (360.0 / 40.0) * k as f64,
                0.00012,
            );
            props.push(Sgp4::new(&e).expect("near-earth shell object"));
        }
        props
    }

    #[test]
    fn batch_matches_scalar_bitwise_across_epochs() {
        let props = shell_propagators();
        let batch = Sgp4Batch::from_propagators(props.iter());
        assert_eq!(batch.len(), props.len());
        let mut out = Vec::new();
        for step in 0..48 {
            let at = props[0].epoch().plus_minutes(step as f64 * 17.25 - 60.0);
            batch.positions_into(at, &mut out);
            let scalar: Vec<_> = props.iter().map(|p| scalar_position(p, at)).collect();
            assert_lane_bits(&out, &scalar);
        }
    }

    #[test]
    fn one_shot_helper_matches_scalar() {
        let props = shell_propagators();
        let at = props[0].epoch().plus_minutes(321.5);
        let batch = Sgp4Batch::from_propagators(props.iter()).positions_at(at);
        let scalar: Vec<_> = props.iter().map(|p| scalar_position(p, at)).collect();
        assert_lane_bits(&batch, &scalar);
    }

    #[test]
    fn empty_batch_yields_empty_output() {
        let batch = Sgp4Batch::from_propagators(std::iter::empty());
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
        let mut out = vec![Some(Vec3::new(1.0, 2.0, 3.0))];
        batch.positions_into(JulianDate::J2000, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn error_lanes_become_none_without_disturbing_neighbors() {
        let epoch = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
        let healthy = Sgp4::new(&Elements::from_catalog_units(
            1, epoch, 15.06, 0.0001, 53.0, 10.0, 20.0, 30.0, 0.00012,
        ))
        .unwrap();
        // Absurd drag decays this lane within days.
        let draggy = Sgp4::new(&Elements::from_catalog_units(
            2, epoch, 15.06, 0.0001, 53.0, 40.0, 50.0, 60.0, 0.1,
        ))
        .unwrap();
        let props = [healthy.clone(), draggy.clone(), healthy.clone()];
        let batch = Sgp4Batch::from_propagators(props.iter());

        let mut saw_error_lane = false;
        let mut out = Vec::new();
        for day in 1..60 {
            let at = epoch.plus_minutes(day as f64 * 1440.0);
            batch.positions_into(at, &mut out);
            let scalar: Vec<_> = props.iter().map(|p| scalar_position(p, at)).collect();
            assert_lane_bits(&out, &scalar);
            if out[1].is_none() {
                assert!(out[0].is_some() && out[2].is_some());
                saw_error_lane = true;
                break;
            }
        }
        assert!(saw_error_lane, "expected the draggy lane to error");
    }

    #[test]
    fn vanguard_reference_object_matches_scalar() {
        let tle = Tle::parse_lines(
            "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753",
            "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667",
        )
        .expect("valid TLE");
        let p = Sgp4::new(&tle.elements()).expect("near-earth object");
        let batch = Sgp4Batch::from_propagators([&p]);
        for minutes in [0.0, 120.0, 360.0, 1440.0] {
            let at = p.epoch().plus_minutes(minutes);
            assert_lane_bits(&batch.positions_at(at), &[scalar_position(&p, at)]);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Batch lanes are bit-identical to the scalar propagator for
            /// arbitrary (valid, near-earth) element sets and offsets.
            #[test]
            fn batch_equals_scalar(
                revs in 11.3f64..16.4,
                ecc in 0.0f64..0.05,
                incl in 0.0f64..98.0,
                raan in 0.0f64..360.0,
                argp in 0.0f64..360.0,
                ma in 0.0f64..360.0,
                bstar in -0.001f64..0.01,
                minutes in -3000.0f64..3000.0,
            ) {
                let epoch = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
                let e = Elements::from_catalog_units(7, epoch, revs, ecc, incl, raan, argp, ma, bstar);
                if let Ok(p) = Sgp4::new(&e) {
                    let at = epoch.plus_minutes(minutes);
                    let batch = Sgp4Batch::from_propagators([&p]);
                    let lanes = batch.positions_at(at);
                    let scalar = scalar_position(&p, at);
                    match (lanes[0], scalar) {
                        (None, None) => {}
                        (Some(b), Some(s)) => {
                            prop_assert_eq!(b.x.to_bits(), s.x.to_bits());
                            prop_assert_eq!(b.y.to_bits(), s.y.to_bits());
                            prop_assert_eq!(b.z.to_bits(), s.z.to_bits());
                        }
                        (b, s) => prop_assert!(false, "batch {:?} vs scalar {:?}", b, s),
                    }
                }
            }
        }
    }
}
