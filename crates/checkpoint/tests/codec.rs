//! Property tests for the snapshot codec: encode→decode identity for
//! arbitrary section sets, and *no input* — random bytes, truncations,
//! bit flips, mangled headers — may panic the parser or hand back a
//! snapshot that fails checksum validation silently. The streamed
//! rotating write must produce exactly the in-memory builder's bytes.

use std::path::PathBuf;

use proptest::prelude::*;
use starsense_checkpoint::{
    fnv1a, fnv1a_extend, write_snapshot_rotating, ByteReader, ByteWriter, CheckpointError,
    SectionRef, Snapshot, SnapshotBuilder, FNV1A_EMPTY, MAGIC, VERSION,
};

fn build(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut b = SnapshotBuilder::new();
    for (id, payload) in sections {
        b.add_section(*id, payload.clone());
    }
    b.finish().expect("ids deduplicated by generator")
}

fn section_set() -> impl Strategy<Value = Vec<(u32, Vec<u8>)>> {
    proptest::collection::vec((0u32..50, proptest::collection::vec(0u8..=255, 0..200)), 0..6)
        .prop_map(|mut sections| {
            // Deduplicate ids, keeping first occurrence, so finish() succeeds.
            let mut seen = Vec::new();
            sections.retain(|(id, _)| {
                if seen.contains(id) {
                    false
                } else {
                    seen.push(*id);
                    true
                }
            });
            sections
        })
}

/// A snapshot path in a directory of its own, so parallel tests never
/// rotate each other's files.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sscp-codec-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join("snapshot.ckpt")
}

/// Streams `sections` through `write_snapshot_rotating` (carrying each
/// checksum in, as the campaign engine does) and reads the file back.
fn streamed(path: &PathBuf, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let refs: Vec<SectionRef<'_>> = sections
        .iter()
        .map(|(id, payload)| SectionRef::with_checksum(*id, payload, fnv1a(payload)))
        .collect();
    write_snapshot_rotating(path, &refs).expect("streamed write");
    std::fs::read(path).expect("read streamed snapshot")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Extending a hash over any split of a buffer equals hashing the
    /// whole buffer — the property a carried-forward checksum rests on.
    #[test]
    fn fnv1a_extend_over_any_split_is_fnv1a(
        bytes in proptest::collection::vec(0u8..=255, 0..300),
        cuts in proptest::collection::vec(0usize..300, 0..4),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (bytes.len() + 1)).collect();
        cuts.sort_unstable();
        let mut h = FNV1A_EMPTY;
        let mut from = 0;
        for cut in cuts.into_iter().chain([bytes.len()]) {
            h = fnv1a_extend(h, &bytes[from..cut]);
            from = cut;
        }
        prop_assert_eq!(h, fnv1a(&bytes));
    }

    /// Encode→parse returns exactly the sections that went in, ids and
    /// payload bytes alike.
    #[test]
    fn round_trip_identity(sections in section_set()) {
        let bytes = build(&sections);
        let snap = Snapshot::parse(&bytes).expect("freshly built snapshot must parse");
        let ids: Vec<u32> = sections.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(snap.section_ids(), ids);
        for (id, payload) in &sections {
            prop_assert_eq!(snap.section(*id).expect("present"), payload.as_slice());
        }
    }

    /// Serialization is a pure function of the section list.
    #[test]
    fn encoding_is_deterministic(sections in section_set()) {
        prop_assert_eq!(build(&sections), build(&sections));
    }

    /// Truncating a valid snapshot anywhere fails validation cleanly.
    #[test]
    fn truncation_always_errors(sections in section_set(), cut in 0usize..10_000) {
        let bytes = build(&sections);
        let keep = cut % bytes.len();
        prop_assert!(Snapshot::parse(&bytes[..keep]).is_err());
    }

    /// Flipping any single bit fails validation cleanly.
    #[test]
    fn bit_flip_always_detected(sections in section_set(), pos in 0usize..10_000, bit in 0u8..8) {
        let mut bytes = build(&sections);
        let i = pos % bytes.len();
        bytes[i] ^= 1 << bit;
        prop_assert!(Snapshot::parse(&bytes).is_err());
    }

    /// Arbitrary garbage never panics the parser (it may occasionally be
    /// rejected with any error variant, but must always return).
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..400)) {
        let _ = Snapshot::parse(&bytes);
    }

    /// Garbage prefixed with a valid-looking header start still never
    /// panics — exercises the table/checksum paths rather than dying on
    /// the magic check.
    #[test]
    fn magic_prefixed_garbage_never_panics(tail in proptest::collection::vec(0u8..=255, 0..400)) {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&tail);
        let _ = Snapshot::parse(&bytes);
    }

    /// The primitive reader tolerates arbitrary input for every getter.
    #[test]
    fn byte_reader_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let mut r = ByteReader::new(&bytes);
        let _ = r.get_u8("a");
        let _ = r.get_bool("b");
        let _ = r.get_u32("c");
        let _ = r.get_u64("d");
        let _ = r.get_i64("e");
        let _ = r.get_f64_bits("f");
        let _ = r.get_bytes("g");
        let _ = r.get_str("h");
        let _ = r.expect_exhausted("i");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The streamed write is the builder's bytes, whatever the sections.
    #[test]
    fn streamed_write_matches_builder(sections in section_set()) {
        let path = scratch("prop");
        prop_assert_eq!(streamed(&path, &sections), build(&sections));
    }
}

#[test]
fn streamed_multi_section_file_matches_builder_and_detects_every_bit_flip() {
    let sections = vec![
        (1, (0u8..40).collect::<Vec<u8>>()),
        (2, Vec::new()),
        (4, (0u16..300).map(|i| (i * 7) as u8).collect()),
        (5, vec![0xAB; 9]),
    ];
    let path = scratch("flips");
    let bytes = streamed(&path, &sections);
    assert_eq!(bytes, build(&sections), "streamed file must equal SnapshotBuilder::finish");
    let snap = Snapshot::parse(&bytes).expect("streamed snapshot parses");
    for (id, payload) in &sections {
        assert_eq!(snap.section(*id), Some(payload.as_slice()));
        assert_eq!(snap.section_checksum(*id), Some(fnv1a(payload)));
    }
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << bit;
            assert!(
                Snapshot::parse(&corrupt).is_err(),
                "flip of byte {byte} bit {bit} must fail validation"
            );
        }
    }

    // A duplicate id is refused before either file is touched.
    let dup = [SectionRef::new(3, &[1]), SectionRef::new(3, &[2])];
    assert_eq!(
        write_snapshot_rotating(&path, &dup),
        Err(CheckpointError::DuplicateSection { id: 3 })
    );
    assert_eq!(std::fs::read(&path).expect("primary kept"), bytes);
    if let Some(dir) = path.parent() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn writer_reader_agree_on_mixed_stream() {
    let mut w = ByteWriter::with_capacity(64);
    w.put_usize(3);
    w.put_bytes(&[0xFF, 0x00]);
    w.put_f64_bits(f64::INFINITY);
    let buf = w.into_bytes();
    let mut r = ByteReader::new(&buf);
    assert_eq!(r.get_usize("n").expect("usize"), 3);
    assert_eq!(r.get_bytes("blob").expect("bytes"), &[0xFF, 0x00]);
    assert_eq!(r.get_f64_bits("inf").expect("f64"), f64::INFINITY);
    r.expect_exhausted("end").expect("consumed");
}

#[test]
fn fnv1a_matches_reference_vectors() {
    // Standard FNV-1a test vectors (64-bit).
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn version_is_pinned() {
    // Bumping the format version is a deliberate act: it invalidates every
    // snapshot in the field. This pin makes that show up in review.
    assert_eq!(VERSION, 1);
    assert_eq!(&MAGIC, b"SSCP");
    let err = {
        let mut bytes = build(&[(1, vec![1, 2, 3])]);
        bytes[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        Snapshot::parse(&bytes).expect_err("future version must be rejected")
    };
    assert_eq!(err, CheckpointError::UnsupportedVersion { found: VERSION + 1 });
}
