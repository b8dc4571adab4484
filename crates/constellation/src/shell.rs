//! Walker-delta shell geometry.
//!
//! A Walker delta pattern `i: t/p/f` spreads `t` satellites over `p` evenly
//! spaced orbital planes at inclination `i`, with `t/p` satellites per plane
//! and an inter-plane phasing offset of `f · 360°/t`. Starlink's shells are
//! Walker deltas; the parameters used by [`crate::ConstellationBuilder`]'s
//! presets come from SpaceX's public FCC filings.

use starsense_sgp4::wgs72;

/// One Walker-delta shell of a constellation.
#[derive(Debug, Clone, PartialEq)]
pub struct Shell {
    /// Human-readable shell name, e.g. `"shell-1 (53.0°/550km)"`.
    pub name: String,
    /// Orbital inclination, degrees.
    pub inclination_deg: f64,
    /// Altitude above the mean equatorial radius, km.
    pub altitude_km: f64,
    /// Number of orbital planes.
    pub planes: u32,
    /// Satellites per plane.
    pub sats_per_plane: u32,
    /// Walker phasing parameter `f` (relative spacing between satellites in
    /// adjacent planes), `0 ≤ f < planes`.
    pub phasing: u32,
}

/// The orbital slot of a single satellite within a shell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkerSlot {
    /// Plane index, `0..planes`.
    pub plane: u32,
    /// Slot index within the plane, `0..sats_per_plane`.
    pub slot: u32,
    /// Right ascension of the ascending node, degrees.
    pub raan_deg: f64,
    /// Mean anomaly at the pattern epoch, degrees.
    pub mean_anomaly_deg: f64,
}

impl Shell {
    /// Total number of satellites in the shell.
    pub fn total_sats(&self) -> u32 {
        self.planes * self.sats_per_plane
    }

    /// Mean motion implied by the shell altitude, revolutions per day
    /// (two-body; SGP4's Kozai correction is absorbed at propagation time).
    pub fn mean_motion_rev_per_day(&self) -> f64 {
        let a = wgs72::EARTH_RADIUS_KM + self.altitude_km;
        let n_rad_s = (wgs72::MU / (a * a * a)).sqrt();
        n_rad_s * 86_400.0 / std::f64::consts::TAU
    }

    /// Enumerates every slot of the Walker pattern.
    ///
    /// Plane `p` sits at RAAN `p·360/planes`; satellite `s` of plane `p`
    /// has mean anomaly `s·360/S + p·f·360/t` (the delta-pattern phasing).
    pub fn slots(&self) -> Vec<WalkerSlot> {
        let t = self.total_sats() as f64;
        let mut out = Vec::with_capacity(self.total_sats() as usize);
        for plane in 0..self.planes {
            let raan_deg = plane as f64 * 360.0 / self.planes as f64;
            for slot in 0..self.sats_per_plane {
                let ma = slot as f64 * 360.0 / self.sats_per_plane as f64
                    + plane as f64 * self.phasing as f64 * 360.0 / t;
                out.push(WalkerSlot {
                    plane,
                    slot,
                    raan_deg,
                    mean_anomaly_deg: ma.rem_euclid(360.0),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shell_53() -> Shell {
        Shell {
            name: "test 53/550".into(),
            inclination_deg: 53.0,
            altitude_km: 550.0,
            planes: 72,
            sats_per_plane: 22,
            phasing: 39,
        }
    }

    #[test]
    fn total_and_slot_count_agree() {
        let s = shell_53();
        assert_eq!(s.total_sats(), 1584);
        assert_eq!(s.slots().len(), 1584);
    }

    #[test]
    fn mean_motion_is_about_15_rev_per_day_at_550km() {
        let n = shell_53().mean_motion_rev_per_day();
        assert!((15.0..15.2).contains(&n), "n = {n}");
    }

    #[test]
    fn planes_are_evenly_spaced_in_raan() {
        let s = Shell { planes: 8, sats_per_plane: 2, ..shell_53() };
        let slots = s.slots();
        let raans: Vec<f64> = (0..8).map(|p| slots[p * 2].raan_deg).collect();
        for (i, r) in raans.iter().enumerate() {
            assert!((r - i as f64 * 45.0).abs() < 1e-12);
        }
    }

    #[test]
    fn in_plane_spacing_is_uniform() {
        let s = Shell { planes: 4, sats_per_plane: 6, phasing: 0, ..shell_53() };
        let slots = s.slots();
        // First plane: mean anomalies 0, 60, 120, ...
        for (k, slot) in slots.iter().enumerate().take(6) {
            assert!((slot.mean_anomaly_deg - k as f64 * 60.0).abs() < 1e-12);
        }
    }

    #[test]
    fn phasing_offsets_adjacent_planes() {
        let s = Shell { planes: 4, sats_per_plane: 6, phasing: 1, ..shell_53() };
        let slots = s.slots();
        let t = 24.0;
        // Plane 1 slot 0 should be offset by 360/t = 15°.
        let plane1_first = slots.iter().find(|sl| sl.plane == 1 && sl.slot == 0).unwrap();
        assert!((plane1_first.mean_anomaly_deg - 360.0 / t).abs() < 1e-12);
    }

    #[test]
    fn all_angles_in_range() {
        for sl in shell_53().slots() {
            assert!((0.0..360.0).contains(&sl.raan_deg));
            assert!((0.0..360.0).contains(&sl.mean_anomaly_deg));
        }
    }
}
