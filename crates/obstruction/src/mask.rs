//! Environmental sky masks.
//!
//! §5.1 of the paper found its Ithaca terminal "severely obstructed by
//! trees" to the north-west, which visibly distorted the azimuth preference
//! measured there (9.7% of assignments from the region versus 55.4%
//! elsewhere). To reproduce that finding, terminals can carry a [`SkyMask`]
//! of blocked sectors: the hidden scheduler will not assign a satellite
//! whose line of sight is blocked, exactly like the real system routes
//! around obstructions reported by the dish.

/// A blocked sector of sky: an azimuth range below a cutoff elevation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskSector {
    /// Start azimuth, degrees (inclusive).
    pub az_from_deg: f64,
    /// End azimuth, degrees (exclusive). May wrap past 360 (e.g. 300→30).
    pub az_to_deg: f64,
    /// Sky below this elevation is blocked inside the azimuth range.
    pub max_blocked_elevation_deg: f64,
}

impl MaskSector {
    fn contains_azimuth(&self, az: f64) -> bool {
        if self.az_to_deg - self.az_from_deg >= 360.0 {
            return true; // full-circle sector
        }
        let az = az.rem_euclid(360.0);
        let from = self.az_from_deg.rem_euclid(360.0);
        let to = self.az_to_deg.rem_euclid(360.0);
        if from <= to {
            (from..to).contains(&az)
        } else {
            az >= from || az < to
        }
    }
}

/// A terminal's view of which sky directions are obstructed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SkyMask {
    sectors: Vec<MaskSector>,
}

impl SkyMask {
    /// A clear sky: nothing blocked.
    pub fn clear() -> SkyMask {
        SkyMask { sectors: Vec::new() }
    }

    /// Builds a mask from sectors.
    pub fn new(sectors: Vec<MaskSector>) -> SkyMask {
        SkyMask { sectors }
    }

    /// The Ithaca, NY tree line of §5.1: the north-west quadrant blocked up
    /// to a high elevation.
    pub fn ithaca_trees() -> SkyMask {
        SkyMask::new(vec![MaskSector {
            az_from_deg: 270.0,
            az_to_deg: 360.0,
            max_blocked_elevation_deg: 62.0,
        }])
    }

    /// True when the direction is obstructed.
    pub fn blocks(&self, elevation_deg: f64, azimuth_deg: f64) -> bool {
        self.sectors
            .iter()
            .any(|s| s.contains_azimuth(azimuth_deg) && elevation_deg < s.max_blocked_elevation_deg)
    }

    /// The blocked sectors, in construction order.
    pub fn sectors(&self) -> &[MaskSector] {
        &self.sectors
    }

    /// True when no sector is defined.
    pub fn is_clear(&self) -> bool {
        self.sectors.is_empty()
    }

    /// Fraction of the (elevation ≥ 25°) sky dome that is blocked,
    /// approximated on a 1°×1° grid weighted by solid angle.
    pub fn blocked_fraction(&self) -> f64 {
        let mut blocked = 0.0;
        let mut total = 0.0;
        for el in 25..90 {
            let w = (el as f64).to_radians().cos(); // band solid-angle weight
            for az in 0..360 {
                total += w;
                if self.blocks(el as f64 + 0.5, az as f64 + 0.5) {
                    blocked += w;
                }
            }
        }
        blocked / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_sky_blocks_nothing() {
        let m = SkyMask::clear();
        assert!(m.is_clear());
        assert!(!m.blocks(30.0, 300.0));
        assert_eq!(m.blocked_fraction(), 0.0);
    }

    #[test]
    fn sector_blocks_low_elevations_only() {
        let m = SkyMask::ithaca_trees();
        assert!(m.blocks(30.0, 300.0));
        assert!(m.blocks(61.0, 359.0));
        assert!(!m.blocks(70.0, 300.0)); // above the trees
        assert!(!m.blocks(30.0, 100.0)); // different direction
    }

    #[test]
    fn azimuth_wrapping_sector() {
        let m = SkyMask::new(vec![MaskSector {
            az_from_deg: 350.0,
            az_to_deg: 10.0,
            max_blocked_elevation_deg: 40.0,
        }]);
        assert!(m.blocks(30.0, 355.0));
        assert!(m.blocks(30.0, 5.0));
        assert!(!m.blocks(30.0, 15.0));
        assert!(!m.blocks(30.0, 345.0));
    }

    #[test]
    fn boundary_azimuths() {
        let m = SkyMask::ithaca_trees();
        assert!(m.blocks(30.0, 270.0)); // inclusive start
        assert!(!m.blocks(30.0, 0.0)); // 360 ≡ 0 is exclusive end
        assert!(m.blocks(30.0, 359.9));
    }

    #[test]
    fn blocked_fraction_is_sane_for_ithaca() {
        let f = SkyMask::ithaca_trees().blocked_fraction();
        // A quadrant blocked below 62°: meaningfully more than a few
        // percent, far less than half the dome.
        assert!((0.1..0.4).contains(&f), "fraction {f}");
    }

    #[test]
    fn full_circle_sector_blocks_everywhere() {
        let m = SkyMask::new(vec![MaskSector {
            az_from_deg: 0.0,
            az_to_deg: 360.0,
            max_blocked_elevation_deg: 90.0,
        }]);
        for az in [0.0, 90.0, 180.0, 270.0, 359.9] {
            assert!(m.blocks(45.0, az), "az {az}");
        }
    }

    #[test]
    fn multiple_sectors_union() {
        let m = SkyMask::new(vec![
            MaskSector { az_from_deg: 0.0, az_to_deg: 90.0, max_blocked_elevation_deg: 30.0 },
            MaskSector { az_from_deg: 180.0, az_to_deg: 270.0, max_blocked_elevation_deg: 50.0 },
        ]);
        assert!(m.blocks(28.0, 45.0));
        assert!(m.blocks(45.0, 200.0));
        assert!(!m.blocks(28.0, 135.0));
        assert!(!m.blocks(35.0, 45.0));
    }
}
