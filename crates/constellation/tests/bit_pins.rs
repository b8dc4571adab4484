//! Bit-level pins for the per-instant and per-satellite arithmetic behind
//! every catalog row.
//!
//! [`Constellation::snapshot`] computes the sidereal rotation and the sun
//! geometry once per instant rather than once per satellite, and
//! [`Sgp4`] keeps its initialization constants instead of recomputing them
//! every step. Both are pure hoists: the first test checks every snapshot
//! entry against the per-satellite calls, the second pins the propagator's
//! output over the whole first-generation catalog to a fingerprint
//! recorded before either hoist.

use starsense_astro::frames::teme_to_ecef;
use starsense_astro::sun::is_sunlit;
use starsense_astro::time::JulianDate;
use starsense_constellation::ConstellationBuilder;
use starsense_sgp4::Sgp4;

#[test]
fn snapshot_entries_match_the_per_satellite_calls_bit_for_bit() {
    let gen1 = ConstellationBuilder::starlink_gen1().seed(1).build();
    let start = JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 12.0);
    let (mut lit, mut dark) = (0, 0);
    // 50 instants 97 s apart: the sidereal angle and the sun direction
    // differ at every one.
    for k in 0..50 {
        let at = start.plus_seconds(97.0 * k as f64);
        let snap = gen1.snapshot(at);
        assert_eq!(snap.len(), gen1.len());
        for (sat, entry) in gen1.sats().iter().zip(snap.entries()) {
            let expected = if sat.launch.date > at { None } else { sat.true_position(at) };
            assert_eq!(entry.is_some(), expected.is_some(), "sat {} at {at:?}", sat.norad_id);
            let (Some(entry), Some(teme)) = (entry, expected) else { continue };
            let ecef = teme_to_ecef(teme, at);
            for (got, want) in [(entry.teme, teme), (entry.ecef, ecef)] {
                assert_eq!(got.x.to_bits(), want.x.to_bits(), "sat {}", sat.norad_id);
                assert_eq!(got.y.to_bits(), want.y.to_bits(), "sat {}", sat.norad_id);
                assert_eq!(got.z.to_bits(), want.z.to_bits(), "sat {}", sat.norad_id);
            }
            assert_eq!(entry.sunlit, is_sunlit(teme, at), "sat {}", sat.norad_id);
            if entry.sunlit {
                lit += 1;
            } else {
                dark += 1;
            }
        }
    }
    assert!(lit > 0 && dark > 0, "the sweep should see both sides of the terminator");
}

/// FNV-1a over a stream of 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Fingerprint of [`Sgp4::position`] and [`Sgp4::propagate`] for every
/// gen1 (seed 1) satellite's truth and published elements at four
/// instants, recorded before the propagator kept its `ao` constant and
/// dropped its dead pre-loop Kepler `sin_cos`.
const GEN1_SGP4_FINGERPRINT: u64 = 0x7f93_8f02_fc25_a361;

#[test]
fn sgp4_outputs_over_the_gen1_catalog_are_pinned() {
    let gen1 = ConstellationBuilder::starlink_gen1().seed(1).build();
    let epochs = [
        JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 12.0),
        JulianDate::from_ymd_hms(2023, 6, 1, 16, 7, 33.5),
        JulianDate::from_ymd_hms(2023, 6, 2, 3, 0, 13.0),
        JulianDate::from_ymd_hms(2023, 6, 9, 21, 45, 0.25),
    ];
    let mut words = Vec::new();
    for sat in gen1.sats() {
        for elements in [sat.elements, sat.published.elements()] {
            let sgp4 = Sgp4::new(&elements).expect("catalog elements initialize");
            for &at in &epochs {
                match (sgp4.position(at), sgp4.propagate(at)) {
                    (Ok(p), Ok(s)) => {
                        words.push(1);
                        let v = s.velocity_km_s;
                        words.extend([p.x, p.y, p.z, v.x, v.y, v.z].map(f64::to_bits));
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b);
                        words.push(0);
                    }
                    (p, s) => panic!("position {p:?} and propagate {s:?} disagree"),
                }
            }
        }
    }
    assert_eq!(fnv1a(words), GEN1_SGP4_FINGERPRINT, "SGP4 output bits moved");
}
