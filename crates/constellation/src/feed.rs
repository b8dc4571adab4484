//! Resilient loading of external TLE feeds.
//!
//! The paper's methodology starts from CelesTrak catalog downloads, and
//! real feeds arrive with defects: flipped checksum digits, truncated
//! lines, and fields that parse but are semantically garbage. A strict
//! parse (`Tle::parse_catalog`) aborts on the first defect; this module
//! instead keeps every usable record, validates that each one actually
//! initializes an SGP4 propagator, and reports exactly what was dropped
//! and why — so a measurement campaign degrades to a smaller candidate
//! catalog instead of failing outright.

use starsense_sgp4::{CatalogDefect, Sgp4, Sgp4Error, Tle};

/// Outcome of resiliently loading a (possibly corrupted) TLE feed.
#[derive(Debug, Clone)]
pub struct CatalogLoad {
    /// Records that parsed cleanly *and* initialize an SGP4 propagator.
    pub usable: Vec<Tle>,
    /// Records rejected at the wire-format level (checksum, truncation,
    /// non-finite fields, …).
    pub defects: Vec<CatalogDefect>,
    /// Records that parsed but whose elements SGP4 refuses (decayed,
    /// deep-space, unphysical), keyed by catalog number.
    pub rejected: Vec<(u32, Sgp4Error)>,
}

impl CatalogLoad {
    /// Total records the feed appeared to contain.
    pub fn total(&self) -> usize {
        self.usable.len() + self.defects.len() + self.rejected.len()
    }

    /// Whether the feed loaded without losing anything.
    pub fn is_clean(&self) -> bool {
        self.defects.is_empty() && self.rejected.is_empty()
    }
}

/// Loads a TLE feed, skipping (and reporting) defective records instead
/// of failing the whole load. Each surviving record is additionally
/// validated by constructing its SGP4 propagator, so every entry in
/// `usable` is guaranteed propagatable.
pub fn load_catalog_text(text: &str) -> CatalogLoad {
    let (parsed, defects) = Tle::parse_catalog_lossy(text);
    let mut usable = Vec::with_capacity(parsed.len());
    let mut rejected = Vec::new();
    for tle in parsed {
        match Sgp4::new(&tle.elements()) {
            Ok(_) => usable.push(tle),
            Err(e) => rejected.push((tle.norad_id, e)),
        }
    }
    CatalogLoad { usable, defects, rejected }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L1: &str = "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753";
    const L2: &str = "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667";

    #[test]
    fn clean_feed_loads_fully() {
        let text = format!("TEST\n{L1}\n{L2}\n");
        let load = load_catalog_text(&text);
        assert!(load.is_clean());
        assert_eq!(load.usable.len(), 1);
        assert_eq!(load.total(), 1);
    }

    #[test]
    fn empty_feed_is_clean() {
        let load = load_catalog_text("");
        assert!(load.is_clean());
        assert_eq!(load.total(), 0);
    }

    #[test]
    fn wire_defects_are_skipped_and_reported() {
        let mut bad = L1.to_string();
        bad.replace_range(68..69, "0");
        let text = format!("GOOD\n{L1}\n{L2}\nBAD\n{bad}\n{L2}\n");
        let load = load_catalog_text(&text);
        assert_eq!(load.usable.len(), 1);
        assert_eq!(load.defects.len(), 1);
        assert!(matches!(load.defects[0].error, starsense_sgp4::TleError::BadChecksum { .. }));
        assert_eq!(load.total(), 2);
    }

    #[test]
    fn unpropagatable_elements_are_rejected_not_kept() {
        // A mean motion of 2 rev/day is a deep-space orbit; SGP4's
        // near-earth branch refuses it, and the loader must not hand it
        // to callers as usable.
        let mut tle = Tle::parse_lines(L1, L2).expect("reference TLE parses");
        tle.mean_motion_rev_day = 2.0;
        let (l1, l2) = tle.format_lines();
        let text = format!("DEEP\n{l1}\n{l2}\nGOOD\n{L1}\n{L2}\n");
        let load = load_catalog_text(&text);
        assert_eq!(load.usable.len(), 1);
        assert_eq!(load.rejected.len(), 1);
        assert_eq!(load.rejected[0].0, 5);
        assert!(!load.is_clean());
    }
}
