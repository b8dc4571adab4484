//! Integration tests for the catalog corruptor.

use proptest::prelude::*;
use starsense_faults::{FaultPlan, FaultRates, TleFault};

/// A structurally valid (if astronomically meaningless) TLE pair: 69
/// columns, correct line numbers, correct mod-10 checksums.
fn fake_record(norad: u32) -> (String, String) {
    fn with_checksum(body: &str) -> String {
        let sum: u32 = body
            .bytes()
            .map(|b| match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'-' => 1,
                _ => 0,
            })
            .sum();
        format!("{body}{}", sum % 10)
    }
    let l1 = with_checksum(&format!(
        "1 {norad:05}U 19074A   23152.50000000  .00001000  00000+0  70000-4 0  999"
    ));
    let l2 = with_checksum(&format!(
        "2 {norad:05}  53.0536 123.4567 0001450  90.1234 270.4321 15.0612345612345"
    ));
    (l1, l2)
}

fn fake_catalog(n: u32) -> String {
    let mut text = String::new();
    for i in 0..n {
        let (l1, l2) = fake_record(44000 + i);
        text.push_str(&format!("STARLINK-{i}\n{l1}\n{l2}\n"));
    }
    text
}

#[test]
fn fault_free_corruption_is_identity() {
    let text = fake_catalog(12);
    assert_eq!(FaultPlan::none().corrupt_catalog_text(&text), text);
    let zero = FaultPlan::new(5, FaultRates::none());
    assert_eq!(zero.corrupt_catalog_text(&text), text);
}

#[test]
fn full_rate_corruption_touches_every_record() {
    let p = FaultPlan::new(3, FaultRates { tle_corrupt: 1.0, ..FaultRates::none() });
    let text = fake_catalog(30);
    let out = p.corrupt_catalog_text(&text);
    assert_eq!(out.lines().count(), text.lines().count(), "line structure must survive");
    let mut kinds = [0usize; 3];
    for (rec, (orig, got)) in text.lines().zip(out.lines()).enumerate() {
        if rec % 3 == 0 {
            assert_eq!(orig, got, "title lines must pass through");
            continue;
        }
        match p.tle_fault((rec / 3) as u64) {
            TleFault::ChecksumFlip => {
                if rec % 3 == 1 {
                    assert_ne!(orig, got);
                    kinds[0] += 1;
                }
            }
            TleFault::Truncate { keep } => {
                if rec % 3 == 2 {
                    assert_eq!(got.len(), keep.min(orig.len()));
                    kinds[1] += 1;
                }
            }
            TleFault::NanField => {
                if rec % 3 == 2 {
                    assert!(got.contains("NaN"), "line 2 should carry the NaN field");
                    kinds[2] += 1;
                }
            }
            TleFault::None => panic!("rate 1.0 produced TleFault::None"),
        }
    }
    assert!(kinds.iter().all(|&k| k > 0), "30 records should hit every kind: {kinds:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seed/rate: corruption preserves titles and the record count,
    /// and the same plan applied twice gives byte-identical output.
    #[test]
    fn corruption_is_structure_preserving_and_deterministic(
        seed in 0u64..10_000,
        millis in 0u64..=1000,
    ) {
        let rate = millis as f64 / 1000.0;
        let p = FaultPlan::new(seed, FaultRates { tle_corrupt: rate, ..FaultRates::none() });
        let text = fake_catalog(10);
        let a = p.corrupt_catalog_text(&text);
        let b = p.corrupt_catalog_text(&text);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.lines().count(), text.lines().count());
        for (orig, got) in text.lines().zip(a.lines()) {
            if !orig.starts_with("1 ") && !orig.starts_with("2 ") {
                prop_assert_eq!(orig, got);
            }
        }
    }
}
