//! The obstruction-map bitmap and its polar-plot geometry.

/// Side length of the obstruction map in pixels (the gRPC maps are 123×123).
pub const MAP_SIZE: usize = 123;

/// Radius of the contained polar plot in pixels (recovered in §4.1).
pub const PLOT_RADIUS_PX: f64 = 45.0;

/// Angle of elevation at the rim of the plot, degrees (the minimum
/// connection elevation).
pub const RIM_ELEVATION_DEG: f64 = 25.0;

/// Angle of elevation at the center of the plot, degrees (zenith).
pub const CENTER_ELEVATION_DEG: f64 = 90.0;

/// Pixel coordinate (x = column, y = row) of the plot center.
///
/// The 123-pixel image centers the plot at index 61 (0-based), which the
/// paper reports as "62×62" in 1-based pixel coordinates.
pub const CENTER_PX: f64 = 61.0;

/// Number of `u64` words backing the 123×123 bitmap.
const WORDS: usize = (MAP_SIZE * MAP_SIZE).div_ceil(64);

/// Squared pixel radius of the "inside the polar plot" test. The float
/// predicate is `sqrt(dx² + dy²) ≤ PLOT_RADIUS_PX + 0.5` with integer
/// `dx`/`dy`, which is exactly `dx² + dy² ≤ ⌊45.5²⌋` in integers (the
/// equivalence is asserted by `in_plot_mask_matches_float_predicate`).
const IN_PLOT_LIMIT_SQ: i64 = ((PLOT_RADIUS_PX + 0.5) * (PLOT_RADIUS_PX + 0.5)) as i64;

/// Builds the precomputed word mask of in-plot pixels at compile time.
const fn build_in_plot_mask() -> [u64; WORDS] {
    let center = CENTER_PX as i64;
    let mut mask = [0u64; WORDS];
    let mut y = 0;
    while y < MAP_SIZE {
        let mut x = 0;
        while x < MAP_SIZE {
            let dx = x as i64 - center;
            let dy = y as i64 - center;
            if dx * dx + dy * dy <= IN_PLOT_LIMIT_SQ {
                let i = y * MAP_SIZE + x;
                mask[i / 64] |= 1u64 << (i % 64);
            }
            x += 1;
        }
        y += 1;
    }
    mask
}

/// Word mask of pixels inside the polar plot, for masked popcounts.
const IN_PLOT_MASK: [u64; WORDS] = build_in_plot_mask();

const fn count_mask_bits(mask: &[u64; WORDS]) -> usize {
    let mut total = 0usize;
    let mut i = 0;
    while i < WORDS {
        total += mask[i].count_ones() as usize;
        i += 1;
    }
    total
}

/// Number of pixels inside the polar plot (the `fill_fraction` denominator).
const IN_PLOT_COUNT: usize = count_mask_bits(&IN_PLOT_MASK);

/// A 123×123 1-bit obstruction map.
///
/// Bit semantics follow the dish: a set pixel means "a serving satellite's
/// trajectory passed through this sky direction since the last reset".
///
/// The raster is stored packed, 64 pixels per `u64` word in row-major
/// order, so the §4.1 bulk operations are word-parallel: [`xor`] and
/// [`or`](ObstructionMap::or) combine 64 pixels per instruction,
/// [`count_set`](ObstructionMap::count_set) is a popcount sweep, and
/// [`set_pixels`](ObstructionMap::set_pixels) walks set bits by
/// trailing-zero counts instead of scanning every pixel. Bits past the last
/// pixel are always zero, which keeps derived `Eq` exact.
///
/// [`xor`]: ObstructionMap::xor
#[derive(Clone, PartialEq, Eq)]
pub struct ObstructionMap {
    words: [u64; WORDS],
}

impl std::fmt::Debug for ObstructionMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObstructionMap({} set pixels)", self.count_set())
    }
}

impl ObstructionMap {
    /// A blank map (freshly reset terminal).
    pub fn new() -> ObstructionMap {
        ObstructionMap { words: [0; WORDS] }
    }

    /// Number of `u64` words in the packed raster, the length
    /// [`ObstructionMap::words`] returns and
    /// [`ObstructionMap::from_words`] requires.
    pub const WORD_COUNT: usize = WORDS;

    /// The packed raster, 64 row-major pixels per word — the export half
    /// of checkpointing a map.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a map from words exported by [`ObstructionMap::words`].
    ///
    /// Returns `None` when `words` has the wrong length or sets bits past
    /// the last pixel — the class introduced only by corruption, and one
    /// that would otherwise break the "tail bits stay zero" invariant the
    /// derived `Eq` relies on.
    pub fn from_words(words: &[u64]) -> Option<ObstructionMap> {
        let arr: [u64; WORDS] = words.try_into().ok()?;
        let tail_bits = WORDS * 64 - MAP_SIZE * MAP_SIZE;
        if tail_bits > 0 && arr[WORDS - 1] >> (64 - tail_bits) != 0 {
            return None;
        }
        Some(ObstructionMap { words: arr })
    }

    /// Reads a pixel. Out-of-bounds reads return `false`.
    pub fn get(&self, x: usize, y: usize) -> bool {
        if x >= MAP_SIZE || y >= MAP_SIZE {
            return false;
        }
        let i = y * MAP_SIZE + x;
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes a pixel. Out-of-bounds writes are ignored (the dish clips the
    /// trail at the rim of the image the same way).
    pub fn set(&mut self, x: usize, y: usize, value: bool) {
        if x >= MAP_SIZE || y >= MAP_SIZE {
            return;
        }
        let i = y * MAP_SIZE + x;
        let bit = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= bit;
        } else {
            self.words[i / 64] &= !bit;
        }
    }

    /// Number of set pixels.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the coordinates of all set pixels, row-major.
    pub fn set_pixels(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let i = wi * 64 + bit;
                Some((i % MAP_SIZE, i / MAP_SIZE))
            })
        })
    }

    /// Pixel-wise XOR: the §4.1 isolation primitive. Trajectories present
    /// in both maps cancel, leaving only what changed between the slots.
    pub fn xor(&self, other: &ObstructionMap) -> ObstructionMap {
        let mut words = self.words;
        for (w, o) in words.iter_mut().zip(other.words.iter()) {
            *w ^= o;
        }
        ObstructionMap { words }
    }

    /// Pixel-wise OR, used to accumulate multi-day saturated maps.
    pub fn or(&self, other: &ObstructionMap) -> ObstructionMap {
        let mut words = self.words;
        for (w, o) in words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
        ObstructionMap { words }
    }

    /// Fraction of pixels *inside the polar plot* that are set — the
    /// "fill level" of the map. A 2-day run without resets drives this
    /// towards the visible-sky coverage.
    ///
    /// The in-plot membership test is a precomputed word mask, so this is a
    /// masked popcount — no per-pixel geometry.
    pub fn fill_fraction(&self) -> f64 {
        let set: usize = self
            .words
            .iter()
            .zip(IN_PLOT_MASK.iter())
            .map(|(w, m)| (w & m).count_ones() as usize)
            .sum();
        set as f64 / IN_PLOT_COUNT as f64
    }

    /// Converts a sky direction to the pixel it paints.
    ///
    /// Returns `None` below the rim elevation (such directions are outside
    /// the plot and are never painted by the dish).
    pub fn polar_to_pixel(elevation_deg: f64, azimuth_deg: f64) -> Option<(usize, usize)> {
        if !(RIM_ELEVATION_DEG..=CENTER_ELEVATION_DEG).contains(&elevation_deg) {
            return None;
        }
        let r = (CENTER_ELEVATION_DEG - elevation_deg) / (CENTER_ELEVATION_DEG - RIM_ELEVATION_DEG)
            * PLOT_RADIUS_PX;
        let az = azimuth_deg.to_radians();
        // North (az 0) is up, i.e. −y in image coordinates; east is +x.
        let x = CENTER_PX + r * az.sin();
        let y = CENTER_PX - r * az.cos();
        let xi = x.round();
        let yi = y.round();
        if !(0.0..MAP_SIZE as f64).contains(&xi) || !(0.0..MAP_SIZE as f64).contains(&yi) {
            return None;
        }
        Some((xi as usize, yi as usize))
    }

    /// Converts a pixel back to a sky direction — the inverse used by the
    /// identification pipeline (§4.1 "for each isolated satellite
    /// trajectory, we compute the AOE and Azimuth for each individual
    /// pixel").
    ///
    /// Returns `None` for pixels outside the polar plot.
    pub fn pixel_to_polar(x: usize, y: usize) -> Option<(f64, f64)> {
        let dx = x as f64 - CENTER_PX;
        let dy = y as f64 - CENTER_PX;
        let r = (dx * dx + dy * dy).sqrt();
        if r > PLOT_RADIUS_PX + 0.5 {
            return None;
        }
        let elevation =
            CENTER_ELEVATION_DEG - r / PLOT_RADIUS_PX * (CENTER_ELEVATION_DEG - RIM_ELEVATION_DEG);
        // atan2(east, north) with image y pointing down.
        let azimuth = dx.atan2(-dy).to_degrees().rem_euclid(360.0);
        Some((elevation.clamp(RIM_ELEVATION_DEG, CENTER_ELEVATION_DEG), azimuth))
    }
}

impl Default for ObstructionMap {
    fn default() -> Self {
        ObstructionMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_map_is_blank() {
        let m = ObstructionMap::new();
        assert_eq!(m.count_set(), 0);
        assert!(!m.get(61, 61));
        assert_eq!(m.fill_fraction(), 0.0);
    }

    #[test]
    fn set_get_round_trip() {
        let mut m = ObstructionMap::new();
        m.set(10, 20, true);
        assert!(m.get(10, 20));
        assert!(!m.get(20, 10));
        m.set(10, 20, false);
        assert!(!m.get(10, 20));
    }

    #[test]
    fn out_of_bounds_is_safe() {
        let mut m = ObstructionMap::new();
        m.set(MAP_SIZE, 0, true);
        m.set(0, MAP_SIZE + 5, true);
        assert_eq!(m.count_set(), 0);
        assert!(!m.get(MAP_SIZE + 1, 3));
    }

    #[test]
    fn zenith_maps_to_center_pixel() {
        let (x, y) = ObstructionMap::polar_to_pixel(90.0, 0.0).unwrap();
        assert_eq!((x, y), (61, 61));
        // Azimuth is irrelevant at zenith.
        let (x2, y2) = ObstructionMap::polar_to_pixel(90.0, 213.0).unwrap();
        assert_eq!((x2, y2), (61, 61));
    }

    #[test]
    fn rim_elevation_maps_to_radius_45() {
        let (x, y) = ObstructionMap::polar_to_pixel(25.0, 0.0).unwrap();
        // North at the rim: straight up from center.
        assert_eq!((x, y), (61, 61 - 45));
        let (x, y) = ObstructionMap::polar_to_pixel(25.0, 90.0).unwrap();
        assert_eq!((x, y), (61 + 45, 61));
        let (x, y) = ObstructionMap::polar_to_pixel(25.0, 180.0).unwrap();
        assert_eq!((x, y), (61, 61 + 45));
        let (x, y) = ObstructionMap::polar_to_pixel(25.0, 270.0).unwrap();
        assert_eq!((x, y), (61 - 45, 61));
    }

    #[test]
    fn below_rim_is_outside_the_plot() {
        assert!(ObstructionMap::polar_to_pixel(24.9, 0.0).is_none());
        assert!(ObstructionMap::polar_to_pixel(-5.0, 0.0).is_none());
        assert!(ObstructionMap::polar_to_pixel(90.1, 0.0).is_none());
    }

    #[test]
    fn pixel_polar_round_trip_is_within_quantization() {
        // One pixel ≙ 65°/45 ≈ 1.44° of elevation; allow ~2 pixels of slack.
        for &(el, az) in &[
            (30.0, 10.0),
            (45.0, 123.0),
            (60.0, 250.0),
            (75.0, 359.0),
            (89.0, 42.0),
            (25.5, 180.0),
        ] {
            let (x, y) = ObstructionMap::polar_to_pixel(el, az).unwrap();
            let (el2, az2) = ObstructionMap::pixel_to_polar(x, y).unwrap();
            assert!((el - el2).abs() < 3.0, "elevation {el} → {el2}");
            // Azimuth precision degrades towards the zenith where pixels are
            // angularly huge; scale tolerance by radius.
            let r = (90.0 - el) / 65.0 * 45.0;
            let tol = (60.0 / r.max(1.0)).max(2.0);
            let daz = (az - az2).abs().min(360.0 - (az - az2).abs());
            assert!(daz < tol, "azimuth {az} → {az2} (tol {tol})");
        }
    }

    #[test]
    fn pixels_outside_plot_radius_are_none() {
        assert!(ObstructionMap::pixel_to_polar(0, 0).is_none());
        assert!(ObstructionMap::pixel_to_polar(61, 61).is_some());
        assert!(ObstructionMap::pixel_to_polar(61 + 46, 61).is_none());
    }

    #[test]
    fn xor_cancels_common_pixels() {
        let mut a = ObstructionMap::new();
        let mut b = ObstructionMap::new();
        a.set(5, 5, true);
        a.set(6, 6, true);
        b.set(5, 5, true);
        b.set(7, 7, true);
        let x = a.xor(&b);
        assert!(!x.get(5, 5));
        assert!(x.get(6, 6));
        assert!(x.get(7, 7));
        assert_eq!(x.count_set(), 2);
    }

    #[test]
    fn xor_with_self_is_blank() {
        let mut a = ObstructionMap::new();
        for i in 0..50 {
            a.set(i * 2, i, true);
        }
        assert_eq!(a.xor(&a).count_set(), 0);
    }

    #[test]
    fn or_accumulates() {
        let mut a = ObstructionMap::new();
        let mut b = ObstructionMap::new();
        a.set(1, 1, true);
        b.set(2, 2, true);
        let o = a.or(&b);
        assert!(o.get(1, 1) && o.get(2, 2));
        assert_eq!(o.count_set(), 2);
    }

    #[test]
    fn set_pixels_iterates_in_row_major_order() {
        let mut m = ObstructionMap::new();
        m.set(3, 1, true);
        m.set(2, 1, true);
        m.set(0, 0, true);
        let px: Vec<(usize, usize)> = m.set_pixels().collect();
        assert_eq!(px, vec![(0, 0), (2, 1), (3, 1)]);
    }

    #[test]
    fn fill_fraction_grows_with_coverage() {
        let mut m = ObstructionMap::new();
        for az in 0..360 {
            for el in [30.0, 45.0, 60.0, 75.0] {
                if let Some((x, y)) = ObstructionMap::polar_to_pixel(el, az as f64) {
                    m.set(x, y, true);
                }
            }
        }
        assert!(m.fill_fraction() > 0.1, "fill = {}", m.fill_fraction());
        assert!(m.fill_fraction() < 1.0);
    }

    #[test]
    fn in_plot_mask_matches_float_predicate() {
        // The compile-time mask is built with integer arithmetic; assert it
        // agrees with the float predicate fill_fraction historically used,
        // so a change to the plot constants cannot silently desync them.
        let mut inside = 0usize;
        for y in 0..MAP_SIZE {
            for x in 0..MAP_SIZE {
                let dx = x as f64 - CENTER_PX;
                let dy = y as f64 - CENTER_PX;
                let float_in = (dx * dx + dy * dy).sqrt() <= PLOT_RADIUS_PX + 0.5;
                let i = y * MAP_SIZE + x;
                let mask_in = (IN_PLOT_MASK[i / 64] >> (i % 64)) & 1 == 1;
                assert_eq!(float_in, mask_in, "pixel ({x}, {y})");
                inside += usize::from(float_in);
            }
        }
        assert_eq!(inside, IN_PLOT_COUNT);
    }

    #[test]
    fn tail_bits_stay_zero() {
        // Eq is derived over the words, so bits past the last pixel must
        // never be set by any operation.
        let mut m = ObstructionMap::new();
        for y in 0..MAP_SIZE {
            for x in 0..MAP_SIZE {
                m.set(x, y, true);
            }
        }
        let tail_bits = WORDS * 64 - MAP_SIZE * MAP_SIZE;
        assert_eq!(m.words[WORDS - 1].leading_zeros() as usize, tail_bits);
        assert_eq!(m.count_set(), MAP_SIZE * MAP_SIZE);
        let x = m.xor(&ObstructionMap::new());
        assert_eq!(x, m);
    }

    #[test]
    fn every_strictly_in_plot_pixel_round_trips_exactly() {
        // Satellite-task coverage: pixel → polar → pixel is the identity
        // for every pixel at radius ≤ PLOT_RADIUS_PX. (Pixels in the rim
        // band (45, 45.5] clamp to the rim elevation and may land one pixel
        // inward; they are covered separately below.)
        let mut checked = 0usize;
        for y in 0..MAP_SIZE {
            for x in 0..MAP_SIZE {
                let dx = x as f64 - CENTER_PX;
                let dy = y as f64 - CENTER_PX;
                let r = (dx * dx + dy * dy).sqrt();
                if r > PLOT_RADIUS_PX {
                    continue;
                }
                let (el, az) = ObstructionMap::pixel_to_polar(x, y)
                    .unwrap_or_else(|| panic!("pixel ({x}, {y}) at r {r} must be in plot"));
                assert!((RIM_ELEVATION_DEG..=CENTER_ELEVATION_DEG).contains(&el));
                assert!((0.0..360.0).contains(&az));
                let back = ObstructionMap::polar_to_pixel(el, az)
                    .unwrap_or_else(|| panic!("({el}, {az}) from ({x}, {y}) must map back"));
                assert_eq!(back, (x, y), "round trip moved pixel ({x}, {y})");
                checked += 1;
            }
        }
        // 45-pixel radius disc: π·45² ≈ 6362 pixels.
        assert!(checked > 6000, "only {checked} pixels checked");
    }

    #[test]
    fn rim_band_pixels_round_trip_within_one_pixel() {
        // Pixels with radius in (45, 45.5] are in-plot (the paint raster
        // rounds outward) but clamp to the rim elevation, so the round trip
        // may move one pixel towards the center — never further.
        let mut band = 0usize;
        for y in 0..MAP_SIZE {
            for x in 0..MAP_SIZE {
                let dx = x as f64 - CENTER_PX;
                let dy = y as f64 - CENTER_PX;
                let r = (dx * dx + dy * dy).sqrt();
                if r <= PLOT_RADIUS_PX || r > PLOT_RADIUS_PX + 0.5 {
                    continue;
                }
                let (el, az) = ObstructionMap::pixel_to_polar(x, y).expect("rim band is in plot");
                assert_eq!(el, RIM_ELEVATION_DEG, "rim band clamps to the rim");
                let (bx, by) = ObstructionMap::polar_to_pixel(el, az).expect("rim maps back");
                assert!(
                    bx.abs_diff(x) <= 1 && by.abs_diff(y) <= 1,
                    "rim pixel ({x}, {y}) round-tripped to ({bx}, {by})"
                );
                band += 1;
            }
        }
        assert!(band > 0, "the rim band must contain pixels");
    }

    #[test]
    fn center_and_out_of_plot_edge_cases() {
        // Center pixel: zero radius, azimuth degenerate but defined.
        let (el, az) = ObstructionMap::pixel_to_polar(61, 61).expect("center is in plot");
        assert_eq!(el, CENTER_ELEVATION_DEG);
        // Azimuth is degenerate at zenith (atan2(0, -0) = 180°); any value
        // is acceptable because the radius is zero either way.
        assert!((0.0..360.0).contains(&az));
        assert_eq!(ObstructionMap::polar_to_pixel(el, az), Some((61, 61)));
        // Just outside the rim band and the image corners are out of plot.
        assert!(ObstructionMap::pixel_to_polar(61, 61 + 46).is_none());
        assert!(ObstructionMap::pixel_to_polar(0, 0).is_none());
        assert!(ObstructionMap::pixel_to_polar(MAP_SIZE - 1, MAP_SIZE - 1).is_none());
        // Out-of-bounds pixel coordinates are out of plot, not a panic.
        assert!(ObstructionMap::pixel_to_polar(MAP_SIZE + 7, 61).is_none());
    }

    #[test]
    fn words_round_trip_and_reject_corruption() {
        let mut m = ObstructionMap::new();
        for az in (0..360).step_by(7) {
            if let Some((x, y)) = ObstructionMap::polar_to_pixel(40.0, az as f64) {
                m.set(x, y, true);
            }
        }
        let words = m.words().to_vec();
        assert_eq!(words.len(), ObstructionMap::WORD_COUNT);
        let back = ObstructionMap::from_words(&words).expect("valid words");
        assert_eq!(back, m);

        // Wrong length and tail-bit corruption are both rejected.
        assert!(ObstructionMap::from_words(&words[..words.len() - 1]).is_none());
        let mut tail_set = words.clone();
        tail_set[ObstructionMap::WORD_COUNT - 1] |= 1u64 << 63;
        assert!(ObstructionMap::from_words(&tail_set).is_none());
    }

    /// The seed `Vec<bool>` representation, kept verbatim as the
    /// equivalence oracle for the packed words (including the old `set`
    /// bounds behaviour: out-of-bounds writes ignored).
    struct BoolMap {
        bits: Vec<bool>,
    }

    impl BoolMap {
        fn new() -> BoolMap {
            BoolMap { bits: vec![false; MAP_SIZE * MAP_SIZE] }
        }

        fn get(&self, x: usize, y: usize) -> bool {
            if x >= MAP_SIZE || y >= MAP_SIZE {
                return false;
            }
            self.bits[y * MAP_SIZE + x]
        }

        fn set(&mut self, x: usize, y: usize, value: bool) {
            if x >= MAP_SIZE || y >= MAP_SIZE {
                return;
            }
            self.bits[y * MAP_SIZE + x] = value;
        }

        fn count_set(&self) -> usize {
            self.bits.iter().filter(|&&b| b).count()
        }

        fn set_pixels(&self) -> Vec<(usize, usize)> {
            self.bits
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| (i % MAP_SIZE, i / MAP_SIZE))
                .collect()
        }

        fn xor(&self, other: &BoolMap) -> BoolMap {
            let bits = self.bits.iter().zip(other.bits.iter()).map(|(&a, &b)| a ^ b).collect();
            BoolMap { bits }
        }

        fn or(&self, other: &BoolMap) -> BoolMap {
            let bits = self.bits.iter().zip(other.bits.iter()).map(|(&a, &b)| a | b).collect();
            BoolMap { bits }
        }

        fn fill_fraction(&self) -> f64 {
            let mut inside = 0usize;
            let mut set = 0usize;
            for y in 0..MAP_SIZE {
                for x in 0..MAP_SIZE {
                    let dx = x as f64 - CENTER_PX;
                    let dy = y as f64 - CENTER_PX;
                    if (dx * dx + dy * dy).sqrt() <= PLOT_RADIUS_PX + 0.5 {
                        inside += 1;
                        if self.get(x, y) {
                            set += 1;
                        }
                    }
                }
            }
            set as f64 / inside as f64
        }
    }

    /// Checks a packed map against the reference model, every observer.
    fn assert_equivalent(packed: &ObstructionMap, model: &BoolMap) {
        assert_eq!(packed.count_set(), model.count_set());
        assert_eq!(packed.set_pixels().collect::<Vec<_>>(), model.set_pixels());
        assert_eq!(packed.fill_fraction().to_bits(), model.fill_fraction().to_bits());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// One write op: coordinates deliberately overflow the map so the
        /// out-of-bounds clip is exercised; `v` odd means "set".
        type Op = (usize, usize, u8);

        fn apply(ops: &[Op]) -> (ObstructionMap, BoolMap) {
            let mut packed = ObstructionMap::new();
            let mut model = BoolMap::new();
            for &(x, y, v) in ops {
                packed.set(x, y, v & 1 == 1);
                model.set(x, y, v & 1 == 1);
            }
            (packed, model)
        }

        proptest! {
            #[test]
            fn packed_map_matches_vec_bool_model(
                ops in prop::collection::vec(
                    (0usize..MAP_SIZE + 9, 0usize..MAP_SIZE + 9, 0u8..2), 0..300),
                probes in prop::collection::vec(
                    (0usize..MAP_SIZE + 9, 0usize..MAP_SIZE + 9), 0..50),
            ) {
                let (packed, model) = apply(&ops);
                assert_equivalent(&packed, &model);
                for (x, y) in probes {
                    prop_assert_eq!(packed.get(x, y), model.get(x, y));
                }
            }

            #[test]
            fn packed_xor_and_or_match_vec_bool_model(
                a in prop::collection::vec(
                    (0usize..MAP_SIZE + 9, 0usize..MAP_SIZE + 9, 0u8..2), 0..200),
                b in prop::collection::vec(
                    (0usize..MAP_SIZE + 9, 0usize..MAP_SIZE + 9, 0u8..2), 0..200),
            ) {
                let (pa, ma) = apply(&a);
                let (pb, mb) = apply(&b);
                assert_equivalent(&pa.xor(&pb), &ma.xor(&mb));
                assert_equivalent(&pa.or(&pb), &ma.or(&mb));
                // XOR with self cancels in both representations.
                prop_assert_eq!(pa.xor(&pa).count_set(), 0);
            }
        }
    }
}
