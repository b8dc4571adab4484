//! Per-satellite background load.
//!
//! The real global scheduler balances load from the whole user population;
//! our simulation only carries a handful of measurement terminals, so the
//! rest of the world is modelled as a deterministic pseudo-random
//! background load per (satellite, slot). SpaceX's FCC filings list
//! "current load" among the medium-access scheduling factors, and §6 of the
//! paper names unavailable "satellite load characteristics" as the main
//! ceiling on its model's accuracy — the reproduction keeps load
//! *deliberately invisible* to the measurement side, reproducing that
//! ceiling.

/// Deterministic background-load model.
///
/// Load is a function of (satellite id, slot index) through a splitmix64
/// hash, so it is stable across runs, uncorrelated with satellite geometry,
/// and changes every slot — the behaviour of a large, churning user
/// population at 15-second granularity.
#[derive(Debug, Clone, Copy)]
pub struct LoadModel {
    seed: u64,
    /// Mean background utilization in `[0, 1]`.
    pub mean_utilization: f64,
}

impl LoadModel {
    /// Creates a load model with the given seed and mean utilization.
    pub fn new(seed: u64, mean_utilization: f64) -> LoadModel {
        assert!((0.0..=1.0).contains(&mean_utilization));
        LoadModel { seed, mean_utilization }
    }

    /// The background load the hidden scheduler built with `seed` sees.
    pub fn for_scheduler(seed: u64) -> LoadModel {
        LoadModel::new(seed ^ 0x10AD, 0.5)
    }

    /// Background utilization of a satellite in a slot, in `[0, 1)`.
    pub fn utilization(&self, norad_id: u32, slot: i64) -> f64 {
        let h = splitmix64(
            self.seed
                ^ (norad_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (slot as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        // Map to [0,1), then squash toward the configured mean: a weighted
        // blend keeps the full spread while centering the distribution.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        (0.5 * u + self.mean_utilization - 0.25).clamp(0.0, 0.999)
    }
}

impl Default for LoadModel {
    fn default() -> Self {
        LoadModel::new(0xC0FFEE, 0.5)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_deterministic() {
        let m = LoadModel::new(7, 0.5);
        assert_eq!(m.utilization(44123, 100), m.utilization(44123, 100));
    }

    #[test]
    fn utilization_changes_across_slots_and_sats() {
        let m = LoadModel::new(7, 0.5);
        let a = m.utilization(44123, 100);
        let b = m.utilization(44123, 101);
        let c = m.utilization(44124, 100);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn utilization_is_in_unit_interval() {
        let m = LoadModel::new(3, 0.5);
        for sat in 0..200u32 {
            for slot in 0..20i64 {
                let u = m.utilization(44000 + sat, slot);
                assert!((0.0..1.0).contains(&u), "u = {u}");
            }
        }
    }

    #[test]
    fn mean_tracks_configuration() {
        for target in [0.3, 0.5, 0.7] {
            let m = LoadModel::new(5, target);
            let mut sum = 0.0;
            let n = 5000;
            for i in 0..n {
                sum += m.utilization(44000 + (i % 100) as u32, (i / 100) as i64);
            }
            let mean = sum / n as f64;
            assert!((mean - target).abs() < 0.05, "target {target}, mean {mean}");
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = LoadModel::new(1, 0.5);
        let b = LoadModel::new(2, 0.5);
        let same = (0..50).all(|i| a.utilization(44000 + i, 0) == b.utilization(44000 + i, 0));
        assert!(!same);
    }

    #[test]
    #[should_panic]
    fn out_of_range_mean_panics() {
        let _ = LoadModel::new(0, 1.5);
    }
}
