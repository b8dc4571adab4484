//! The near-earth SGP4 propagator.
//!
//! This is a line-for-line port of the near-earth branch of the reference
//! implementation (`sgp4unit` from Vallado, Crawford, Hujsak & Kelso,
//! *Revisiting Spacetrack Report #3*, AIAA 2006-6753), using WGS-72
//! constants and the "improved" (afspc-compatible) initialization. Deep
//! space (SDP4) is deliberately out of scope: Starlink orbits at ~550 km
//! with ~95-minute periods, and the constructor rejects anything with a
//! period of 225 minutes or more.

use crate::elements::Elements;
use crate::error::Sgp4Error;
use crate::wgs72::{EARTH_RADIUS_KM, J2, J3OJ2, J4, XKE};
use starsense_astro::angles::wrap_tau;
use starsense_astro::time::JulianDate;
use starsense_astro::vec3::Vec3;

/// Satellite state produced by one propagation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct State {
    /// Position in the TEME frame, km.
    pub position_km: Vec3,
    /// Velocity in the TEME frame, km/s.
    pub velocity_km_s: Vec3,
}

/// The initialized coefficients that bound where an orbit can be, read
/// through [`Sgp4::terms`]: Earth radii, radians and minutes past epoch.
/// A term the propagator does not apply (the simplified drag model below a
/// 220-km perigee drops the higher drag terms) reads 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgp4Terms {
    /// Element-set epoch.
    pub epoch: JulianDate,
    /// Mean eccentricity at epoch.
    pub ecco: f64,
    /// Un-Kozai'd semi-major axis and mean motion (rad/min).
    pub ao: f64,
    /// See `ao`.
    pub no_unkozai: f64,
    /// `[cc1, d2, d3, d4]`: the semi-major axis is `ao·tempa²`, with
    /// `tempa = 1 − cc1·t − d2·t² − d3·t³ − d4·t⁴`.
    pub tempa: [f64; 4],
    /// `[B*·cc4, B*·cc5, sin M₀]`: the eccentricity loses
    /// `B*·cc4·t + B*·cc5·(sin M − sin M₀)`.
    pub tempe: [f64; 3],
    /// `[t2cof, t3cof, t4cof, t5cof]`: the mean anomaly gains the mean
    /// motion times `t2cof·t² + … + t5cof·t⁵`.
    pub templ: [f64; 4],
    /// J3 long-period term, over `a(1 − e²)`, in the eccentricity vector.
    pub aycof: f64,
    /// `[3cos²i − 1, 1 − cos²i, 7cos²i − 1]`: the J2 short-period
    /// amplitudes' inclination factors.
    pub short_period: [f64; 3],
    /// Sine and cosine of the mean inclination.
    pub sinio: f64,
    /// See `sinio`.
    pub cosio: f64,
    /// Secular rates of the mean anomaly, argument of perigee and node.
    pub secular: [f64; 3],
}

/// An initialized SGP4 propagator for one element set.
///
/// Initialization is the expensive part of SGP4; one `Sgp4` can then be
/// propagated to any number of instants. The struct is immutable and
/// therefore freely shareable across threads.
#[derive(Debug, Clone)]
pub struct Sgp4 {
    epoch: JulianDate,
    // Elements retained for propagation.
    ecco: f64,
    inclo: f64,
    // sin/cos of the (constant) inclination, used by the short-period
    // periodics on every call.
    sinio: f64,
    cosio: f64,
    nodeo: f64,
    argpo: f64,
    mo: f64,
    bstar: f64,
    // Derived at initialization.
    no_unkozai: f64,
    // Un-Kozai'd semi-major axis, `(XKE / no_unkozai)^(2/3)`, earth radii.
    ao: f64,
    isimp: bool,
    con41: f64,
    x1mth2: f64,
    x7thm1: f64,
    cc1: f64,
    cc4: f64,
    cc5: f64,
    d2: f64,
    d3: f64,
    d4: f64,
    delmo: f64,
    eta: f64,
    sinmao: f64,
    mdot: f64,
    argpdot: f64,
    nodedot: f64,
    nodecf: f64,
    omgcof: f64,
    xmcof: f64,
    t2cof: f64,
    t3cof: f64,
    t4cof: f64,
    t5cof: f64,
    xlcof: f64,
    aycof: f64,
}

impl Sgp4 {
    /// Initializes the propagator from mean elements.
    ///
    /// # Errors
    ///
    /// Returns [`Sgp4Error::InvalidElements`] for unphysical inputs and
    /// [`Sgp4Error::DeepSpace`] for periods ≥ 225 minutes.
    pub fn new(elements: &Elements) -> Result<Sgp4, Sgp4Error> {
        if elements.no_kozai <= 0.0 {
            return Err(Sgp4Error::InvalidElements { reason: "mean motion must be positive" });
        }
        if !(0.0..1.0).contains(&elements.ecco) {
            return Err(Sgp4Error::InvalidElements { reason: "eccentricity must be in [0, 1)" });
        }
        if !elements.inclo.is_finite() || elements.inclo.abs() > std::f64::consts::PI {
            return Err(Sgp4Error::InvalidElements { reason: "inclination must be in [-π, π]" });
        }
        let period = elements.period_minutes();
        if period >= 225.0 {
            return Err(Sgp4Error::DeepSpace { period_minutes: period });
        }

        let ecco = elements.ecco;
        let inclo = elements.inclo;
        let no_kozai = elements.no_kozai;

        // ---- initl: recover the un-Kozai'd mean motion and geometry. ----
        let eccsq = ecco * ecco;
        let omeosq = 1.0 - eccsq;
        let rteosq = omeosq.sqrt();
        let cosio = inclo.cos();
        let cosio2 = cosio * cosio;

        let ak = (XKE / no_kozai).powf(2.0 / 3.0);
        let d1 = 0.75 * J2 * (3.0 * cosio2 - 1.0) / (rteosq * omeosq);
        let mut del = d1 / (ak * ak);
        let adel = ak * (1.0 - del * del - del * (1.0 / 3.0 + 134.0 * del * del / 81.0));
        del = d1 / (adel * adel);
        let no_unkozai = no_kozai / (1.0 + del);

        let ao = (XKE / no_unkozai).powf(2.0 / 3.0);
        let sinio = inclo.sin();
        let po = ao * omeosq;
        let con42 = 1.0 - 5.0 * cosio2;
        let con41 = -con42 - 2.0 * cosio2;
        let posq = po * po;
        let rp = ao * (1.0 - ecco);

        if rp < 1.0 {
            return Err(Sgp4Error::InvalidElements {
                reason: "perigee below the surface of the Earth",
            });
        }

        // ---- sgp4init: drag and secular coefficients. ----
        let isimp = rp < 220.0 / EARTH_RADIUS_KM + 1.0;

        // Density-function fitting parameters, adjusted for low perigees.
        let ss_default = 78.0 / EARTH_RADIUS_KM + 1.0;
        let qzms2t = ((120.0 - 78.0) / EARTH_RADIUS_KM).powi(4);
        let perige = (rp - 1.0) * EARTH_RADIUS_KM;
        let (sfour, qzms24) = if perige < 156.0 {
            let mut s = perige - 78.0;
            if perige < 98.0 {
                s = 20.0;
            }
            let q = ((120.0 - s) / EARTH_RADIUS_KM).powi(4);
            (s / EARTH_RADIUS_KM + 1.0, q)
        } else {
            (ss_default, qzms2t)
        };

        let pinvsq = 1.0 / posq;
        let tsi = 1.0 / (ao - sfour);
        let eta = ao * ecco * tsi;
        let etasq = eta * eta;
        let eeta = ecco * eta;
        let psisq = (1.0 - etasq).abs();
        let coef = qzms24 * tsi.powi(4);
        let coef1 = coef / psisq.powf(3.5);

        let cc2 = coef1
            * no_unkozai
            * (ao * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq))
                + 0.375 * J2 * tsi / psisq * con41 * (8.0 + 3.0 * etasq * (8.0 + etasq)));
        let cc1 = elements.bstar * cc2;
        let cc3 =
            if ecco > 1.0e-4 { -2.0 * coef * tsi * J3OJ2 * no_unkozai * sinio / ecco } else { 0.0 };
        let x1mth2 = 1.0 - cosio2;
        let cc4 = 2.0
            * no_unkozai
            * coef1
            * ao
            * omeosq
            * (eta * (2.0 + 0.5 * etasq) + ecco * (0.5 + 2.0 * etasq)
                - J2 * tsi / (ao * psisq)
                    * (-3.0 * con41 * (1.0 - 2.0 * eeta + etasq * (1.5 - 0.5 * eeta))
                        + 0.75
                            * x1mth2
                            * (2.0 * etasq - eeta * (1.0 + etasq))
                            * (2.0 * elements.argpo).cos()));
        let cc5 = 2.0 * coef1 * ao * omeosq * (1.0 + 2.75 * (etasq + eeta) + eeta * etasq);

        let cosio4 = cosio2 * cosio2;
        let temp1 = 1.5 * J2 * pinvsq * no_unkozai;
        let temp2 = 0.5 * temp1 * J2 * pinvsq;
        let temp3 = -0.46875 * J4 * pinvsq * pinvsq * no_unkozai;
        let mdot = no_unkozai
            + 0.5 * temp1 * rteosq * con41
            + 0.0625 * temp2 * rteosq * (13.0 - 78.0 * cosio2 + 137.0 * cosio4);
        let argpdot = -0.5 * temp1 * con42
            + 0.0625 * temp2 * (7.0 - 114.0 * cosio2 + 395.0 * cosio4)
            + temp3 * (3.0 - 36.0 * cosio2 + 49.0 * cosio4);
        let xhdot1 = -temp1 * cosio;
        let nodedot = xhdot1
            + (0.5 * temp2 * (4.0 - 19.0 * cosio2) + 2.0 * temp3 * (3.0 - 7.0 * cosio2)) * cosio;

        let omgcof = elements.bstar * cc3 * elements.argpo.cos();
        let xmcof = if ecco > 1.0e-4 { -2.0 / 3.0 * coef * elements.bstar / eeta } else { 0.0 };
        let nodecf = 3.5 * omeosq * xhdot1 * cc1;
        let t2cof = 1.5 * cc1;

        let xlcof = if (1.0 + cosio).abs() > 1.5e-12 {
            -0.25 * J3OJ2 * sinio * (3.0 + 5.0 * cosio) / (1.0 + cosio)
        } else {
            -0.25 * J3OJ2 * sinio * (3.0 + 5.0 * cosio) / 1.5e-12
        };
        let aycof = -0.5 * J3OJ2 * sinio;

        let delmo = (1.0 + eta * elements.mo.cos()).powi(3);
        let sinmao = elements.mo.sin();
        let x7thm1 = 7.0 * cosio2 - 1.0;

        // Higher-order drag terms, only used when perigee ≥ 220 km.
        let (d2, d3, d4, t3cof, t4cof, t5cof) = if !isimp {
            let cc1sq = cc1 * cc1;
            let d2 = 4.0 * ao * tsi * cc1sq;
            let temp = d2 * tsi * cc1 / 3.0;
            let d3 = (17.0 * ao + sfour) * temp;
            let d4 = 0.5 * temp * ao * tsi * (221.0 * ao + 31.0 * sfour) * cc1;
            let t3cof = d2 + 2.0 * cc1sq;
            let t4cof = 0.25 * (3.0 * d3 + cc1 * (12.0 * d2 + 10.0 * cc1sq));
            let t5cof = 0.2
                * (3.0 * d4 + 12.0 * ao * d3 + 6.0 * d2 * d2 + 15.0 * cc1sq * (2.0 * d2 + cc1sq));
            (d2, d3, d4, t3cof, t4cof, t5cof)
        } else {
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        };

        Ok(Sgp4 {
            epoch: elements.epoch,
            ecco,
            inclo,
            sinio,
            cosio,
            nodeo: elements.nodeo,
            argpo: elements.argpo,
            mo: elements.mo,
            bstar: elements.bstar,
            no_unkozai,
            ao,
            isimp,
            con41,
            x1mth2,
            x7thm1,
            cc1,
            cc4,
            cc5,
            d2,
            d3,
            d4,
            delmo,
            eta,
            sinmao,
            mdot,
            argpdot,
            nodedot,
            nodecf,
            omgcof,
            xmcof,
            t2cof,
            t3cof,
            t4cof,
            t5cof,
            xlcof,
            aycof,
        })
    }

    /// Element-set epoch this propagator was initialized at.
    pub fn epoch(&self) -> JulianDate {
        self.epoch
    }

    /// The coefficients that bound the orbit's radius and speed (a copy;
    /// propagation does not read it).
    pub fn terms(&self) -> Sgp4Terms {
        Sgp4Terms {
            epoch: self.epoch,
            ecco: self.ecco,
            ao: self.ao,
            no_unkozai: self.no_unkozai,
            tempa: [self.cc1, self.d2, self.d3, self.d4],
            tempe: [
                self.bstar * self.cc4,
                if self.isimp { 0.0 } else { self.bstar * self.cc5 },
                self.sinmao,
            ],
            templ: [self.t2cof, self.t3cof, self.t4cof, self.t5cof],
            aycof: self.aycof,
            short_period: [self.con41, self.x1mth2, self.x7thm1],
            sinio: self.sinio,
            cosio: self.cosio,
            secular: [self.mdot, self.argpdot, self.nodedot],
        }
    }

    /// Propagates to an absolute UTC instant.
    pub fn propagate(&self, at: JulianDate) -> Result<State, Sgp4Error> {
        self.propagate_minutes(at.minutes_since(self.epoch))
    }

    /// Propagates to `t` minutes past the element-set epoch.
    pub fn propagate_minutes(&self, t: f64) -> Result<State, Sgp4Error> {
        self.step::<true>(t)
    }

    /// TEME position at an absolute UTC instant, km, without the velocity
    /// terms. Bit-identical to `propagate(at)?.position_km`, and fails
    /// exactly when [`Sgp4::propagate`] does, with the same error: both run
    /// the same code, this one skipping the velocity arithmetic. Catalog
    /// rows and probe positions need nothing else.
    pub fn position(&self, at: JulianDate) -> Result<Vec3, Sgp4Error> {
        self.step::<false>(at.minutes_since(self.epoch)).map(|s| s.position_km)
    }

    /// One propagation step to `t` minutes past epoch. With `VELOCITY`
    /// false the velocity terms are not evaluated and the returned
    /// velocity is [`Vec3::ZERO`]; everything that feeds the position is
    /// the same arithmetic either way.
    #[inline(always)]
    fn step<const VELOCITY: bool>(&self, t: f64) -> Result<State, Sgp4Error> {
        // ---- Secular gravity and atmospheric drag. ----
        let xmdf = self.mo + self.mdot * t;
        let argpdf = self.argpo + self.argpdot * t;
        let nodedf = self.nodeo + self.nodedot * t;
        let t2 = t * t;
        let mut nodem = nodedf + self.nodecf * t2;
        let mut tempa = 1.0 - self.cc1 * t;
        let mut tempe = self.bstar * self.cc4 * t;
        let mut templ = self.t2cof * t2;

        let (mut mm, mut argpm) = (xmdf, argpdf);
        if !self.isimp {
            let delomg = self.omgcof * t;
            let delmtemp = 1.0 + self.eta * xmdf.cos();
            let delm = self.xmcof * (delmtemp.powi(3) - self.delmo);
            let temp = delomg + delm;
            mm = xmdf + temp;
            argpm = argpdf - temp;
            let t3 = t2 * t;
            let t4 = t3 * t;
            tempa = tempa - self.d2 * t2 - self.d3 * t3 - self.d4 * t4;
            tempe += self.bstar * self.cc5 * (mm.sin() - self.sinmao);
            templ = templ + self.t3cof * t3 + t4 * (self.t4cof + t * self.t5cof);
        }

        if self.no_unkozai <= 0.0 {
            return Err(Sgp4Error::NonPositiveMeanMotion);
        }
        let am = self.ao * tempa * tempa;
        let em = self.ecco - tempe;

        #[expect(
            clippy::manual_range_contains,
            reason = "Vallado's guard: a NaN eccentricity passes through; `contains` would reject it"
        )]
        if em >= 1.0 || em < -0.001 {
            return Err(Sgp4Error::EccentricityOutOfRange { eccentricity: em });
        }
        let em = em.max(1.0e-6);

        let mm = mm + self.no_unkozai * templ;
        let xlm = mm + argpm + nodem;

        nodem = wrap_tau(nodem);
        let argpm = wrap_tau(argpm);
        let xlm = wrap_tau(xlm);
        let mm = wrap_tau(xlm - argpm - nodem);

        // ---- Long-period periodics. ----
        let (sinip, cosip) = (self.sinio, self.cosio);
        let (ep, xincp, argpp, nodep, mp) = (em, self.inclo, argpm, nodem, mm);

        let axnl = ep * argpp.cos();
        let temp = 1.0 / (am * (1.0 - ep * ep));
        let aynl = ep * argpp.sin() + temp * self.aycof;
        let xl = mp + argpp + nodep + temp * self.xlcof * axnl;

        // ---- Solve Kepler's equation. ----
        let u = wrap_tau(xl - nodep);
        // Vallado's `while |tem5| >= 1e-12 && ktr <= 10` loop always runs
        // once (`tem5` starts at 9999.9), so it tests after each step and
        // hands out the sine and cosine its last step computed.
        let mut eo1 = u;
        let mut ktr = 1;
        let (sineo1, coseo1) = loop {
            let (sineo1, coseo1) = eo1.sin_cos();
            let mut tem5 = 1.0 - coseo1 * axnl - sineo1 * aynl;
            tem5 = (u - aynl * coseo1 + axnl * sineo1 - eo1) / tem5;
            if tem5.abs() >= 0.95 {
                tem5 = 0.95 * tem5.signum();
            }
            eo1 += tem5;
            ktr += 1;
            let more = tem5.abs() >= 1.0e-12 && ktr <= 10;
            if !more {
                break (sineo1, coseo1);
            }
        };

        // ---- Short-period preliminary quantities. ----
        let ecose = axnl * coseo1 + aynl * sineo1;
        let esine = axnl * sineo1 - aynl * coseo1;
        let el2 = axnl * axnl + aynl * aynl;
        let pl = am * (1.0 - el2);
        if pl < 0.0 {
            return Err(Sgp4Error::NegativeSemiLatusRectum);
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

        // ---- Short-period periodics. ----
        let mrt = rl * (1.0 - 1.5 * temp2 * betal * self.con41) + 0.5 * temp1 * self.x1mth2 * cos2u;
        let su = su - 0.25 * temp2 * self.x7thm1 * sin2u;
        let xnode = nodep + 1.5 * temp2 * cosip * sin2u;
        let xinc = xincp + 1.5 * temp2 * cosip * sinip * cos2u;

        // ---- Orientation vectors and final state. ----
        let (sinsu, cossu) = su.sin_cos();
        let (snod, cnod) = xnode.sin_cos();
        let (sini, cosi) = xinc.sin_cos();
        let xmx = -snod * cosi;
        let xmy = cnod * cosi;
        let ux = xmx * sinsu + cnod * cossu;
        let uy = xmy * sinsu + snod * cossu;
        let uz = sini * sinsu;

        if mrt < 1.0 {
            return Err(Sgp4Error::Decayed { minutes_past_epoch: t });
        }

        let position_km = Vec3::new(ux, uy, uz) * (mrt * EARTH_RADIUS_KM);
        if !VELOCITY {
            return Ok(State { position_km, velocity_km_s: Vec3::ZERO });
        }
        let nm = XKE / am.powf(1.5);
        let rdotl = am.sqrt() * esine / rl;
        let rvdotl = pl.sqrt() / rl;
        let mvt = rdotl - nm * temp1 * self.x1mth2 * sin2u / XKE;
        let rvdot = rvdotl + nm * temp1 * (self.x1mth2 * cos2u + 1.5 * self.con41) / XKE;
        let vx = xmx * cossu - cnod * sinsu;
        let vy = xmy * cossu - snod * sinsu;
        let vz = sini * cossu;
        let vkmpersec = EARTH_RADIUS_KM * XKE / 60.0;
        Ok(State {
            position_km,
            velocity_km_s: (Vec3::new(ux, uy, uz) * mvt + Vec3::new(vx, vy, vz) * rvdot)
                * vkmpersec,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tle::Tle;

    /// Canonical verification object from "Revisiting Spacetrack Report #3"
    /// (AIAA 2006-6753), satellite 00005 (Vanguard 1), WGS-72.
    fn vanguard() -> Sgp4 {
        let tle = Tle::parse_lines(
            "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753",
            "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667",
        )
        .expect("valid TLE");
        Sgp4::new(&tle.elements()).expect("near-earth object")
    }

    #[test]
    fn vanguard_at_epoch_matches_reference() {
        let s = vanguard().propagate_minutes(0.0).unwrap();
        // Reference values from the AIAA test suite (wgs72, afspc mode).
        let r = s.position_km;
        assert!((r.x - 7_022.465_292_66).abs() < 1e-4, "x = {}", r.x);
        assert!((r.y - -1_400.082_967_55).abs() < 1e-4, "y = {}", r.y);
        assert!((r.z - 0.039_951_55).abs() < 1e-4, "z = {}", r.z);
        let v = s.velocity_km_s;
        assert!((v.x - 1.893_841_015).abs() < 1e-6, "vx = {}", v.x);
        assert!((v.y - 6.405_893_759).abs() < 1e-6, "vy = {}", v.y);
        assert!((v.z - 4.534_807_250).abs() < 1e-6, "vz = {}", v.z);
    }

    #[test]
    fn vanguard_at_360_minutes_matches_reference() {
        let s = vanguard().propagate_minutes(360.0).unwrap();
        let r = s.position_km;
        assert!((r.x - -7_154.031_202_02).abs() < 1e-3, "x = {}", r.x);
        assert!((r.y - -3_783.176_825_04).abs() < 1e-3, "y = {}", r.y);
        assert!((r.z - -3_536.194_122_94).abs() < 1e-3, "z = {}", r.z);
        let v = s.velocity_km_s;
        assert!((v.x - 4.741_887_409).abs() < 1e-5, "vx = {}", v.x);
        assert!((v.y - -4.151_817_765).abs() < 1e-5, "vy = {}", v.y);
        assert!((v.z - -2.093_935_425).abs() < 1e-5, "vz = {}", v.z);
    }

    fn starlink_elements() -> Elements {
        Elements::from_catalog_units(
            44714,
            JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0),
            15.06,
            0.0001,
            53.0,
            210.0,
            90.0,
            45.0,
            0.00012,
        )
    }

    #[test]
    fn starlink_orbit_stays_near_550km_altitude() {
        let sgp4 = Sgp4::new(&starlink_elements()).unwrap();
        for k in 0..200 {
            let s = sgp4.propagate_minutes(k as f64 * 7.3).unwrap();
            let alt = s.position_km.norm() - EARTH_RADIUS_KM;
            assert!((500.0..620.0).contains(&alt), "t={k}: altitude {alt}");
        }
    }

    #[test]
    fn starlink_speed_is_about_7_6_km_s() {
        let sgp4 = Sgp4::new(&starlink_elements()).unwrap();
        let s = sgp4.propagate_minutes(42.0).unwrap();
        let speed = s.velocity_km_s.norm();
        assert!((7.4..7.8).contains(&speed), "speed {speed}");
    }

    #[test]
    fn orbit_returns_after_one_period() {
        let e = starlink_elements();
        let sgp4 = Sgp4::new(&e).unwrap();
        let p = e.period_minutes();
        let a = sgp4.propagate_minutes(0.0).unwrap().position_km;
        let b = sgp4.propagate_minutes(p).unwrap().position_km;
        // Nodal precession and drag move things slightly; within tens of km.
        assert!(a.distance(b) < 100.0, "distance {}", a.distance(b));
    }

    #[test]
    fn inclination_bounds_latitude_excursion() {
        let sgp4 = Sgp4::new(&starlink_elements()).unwrap();
        for k in 0..500 {
            let s = sgp4.propagate_minutes(k as f64 * 1.1).unwrap();
            let lat = (s.position_km.z / s.position_km.norm()).asin().to_degrees();
            assert!(lat.abs() < 53.5, "latitude {lat} exceeds inclination");
        }
    }

    #[test]
    fn deep_space_object_is_rejected() {
        // A geosynchronous-style orbit: ~1 rev/day.
        let e = Elements::from_catalog_units(
            1,
            JulianDate::J2000,
            1.002,
            0.0002,
            0.05,
            0.0,
            0.0,
            0.0,
            0.0,
        );
        match Sgp4::new(&e) {
            Err(Sgp4Error::DeepSpace { period_minutes }) => {
                assert!((period_minutes - 1436.0).abs() < 10.0)
            }
            other => panic!("expected DeepSpace, got {other:?}"),
        }
    }

    #[test]
    fn sub_surface_perigee_is_rejected() {
        let e = Elements::from_catalog_units(
            1,
            JulianDate::J2000,
            16.4, // extremely low orbit
            0.2,  // eccentric enough to dip below the surface
            53.0,
            0.0,
            0.0,
            0.0,
            0.0,
        );
        assert!(matches!(Sgp4::new(&e), Err(Sgp4Error::InvalidElements { .. })));
    }

    #[test]
    fn negative_mean_motion_is_rejected() {
        let mut e = starlink_elements();
        e.no_kozai = -1.0;
        assert!(matches!(Sgp4::new(&e), Err(Sgp4Error::InvalidElements { .. })));
    }

    #[test]
    fn heavy_drag_eventually_decays() {
        let mut e = starlink_elements();
        e.bstar = 0.1; // absurdly draggy
        let sgp4 = Sgp4::new(&e).unwrap();
        let mut decayed = false;
        for day in 1..60 {
            match sgp4.propagate_minutes(day as f64 * 1440.0) {
                Err(Sgp4Error::Decayed { .. }) | Err(Sgp4Error::EccentricityOutOfRange { .. }) => {
                    decayed = true;
                    break;
                }
                _ => {}
            }
        }
        assert!(decayed, "expected the satellite to decay within 60 days");
    }

    #[test]
    fn propagate_absolute_time_agrees_with_minutes() {
        let e = starlink_elements();
        let sgp4 = Sgp4::new(&e).unwrap();
        let at = e.epoch.plus_minutes(123.4);
        let a = sgp4.propagate(at).unwrap();
        let b = sgp4.propagate_minutes(123.4).unwrap();
        // f64 Julian dates resolve ~40 µs; at 7.6 km/s that is ~0.3 m.
        assert!((a.position_km - b.position_km).norm() < 0.01);
    }
}
