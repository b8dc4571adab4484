//! Checkpoint codec micro-benchmarks: the cost of making a campaign
//! crash-safe.
//!
//! A resumable campaign serialises its full engine state at every
//! checkpoint boundary, so the snapshot codec sits on the segment hot
//! path. These benches pin the per-checkpoint costs: framing a
//! multi-section snapshot (checksums included), parsing and validating
//! it back, the FNV-1a integrity hash itself, the primitive
//! writer/reader lanes underneath every section codec, the durable
//! rotating write (sections streamed to tmp + fsync + rename, the path
//! every campaign checkpoint takes), and the observation-stream
//! fingerprint the chaos harness compares across process lives.

use criterion::{criterion_group, criterion_main, Criterion};
use starsense_astro::time::JulianDate;
use starsense_checkpoint::{
    fnv1a, load_latest, write_snapshot_rotating, ByteReader, ByteWriter, SectionRef, Snapshot,
    SnapshotBuilder,
};
use starsense_constellation::ConstellationBuilder;
use starsense_core::campaign::{Campaign, CampaignConfig};
use starsense_core::resume::fingerprint_observations;
use starsense_core::vantage::paper_terminals;
use std::hint::black_box;

/// Section payloads sized like a 10k-terminal campaign checkpoint:
/// a small metadata header, a scheduler-state section (~40 B per
/// terminal), and a dish/observation section (~200 B per terminal).
fn sample_sections() -> Vec<(u32, Vec<u8>)> {
    let mut meta = ByteWriter::with_capacity(64);
    for word in 0u64..8 {
        meta.put_u64(word.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    let mut sched = ByteWriter::with_capacity(40 * 10_000);
    let mut dish = ByteWriter::with_capacity(200 * 10_000);
    for tid in 0u64..10_000 {
        sched.put_u64(tid);
        for lane in 0u64..4 {
            sched.put_u64(tid.rotate_left(17) ^ lane);
        }
        for slot in 0u64..25 {
            dish.put_f64_bits((tid as f64).mul_add(1e-3, slot as f64));
        }
    }
    vec![(1, meta.into_bytes()), (2, sched.into_bytes()), (3, dish.into_bytes())]
}

fn encoded_snapshot() -> Vec<u8> {
    let mut builder = SnapshotBuilder::new();
    for (id, payload) in sample_sections() {
        builder.add_section(id, payload);
    }
    builder.finish().expect("snapshot encode")
}

fn bench_container(c: &mut Criterion) {
    let sections = sample_sections();
    let total: usize = sections.iter().map(|(_, p)| p.len()).sum();
    c.bench_function("checkpoint/snapshot_encode_2.4MB", |b| {
        b.iter(|| {
            let mut builder = SnapshotBuilder::new();
            for (id, payload) in &sections {
                builder.add_section(*id, payload.clone());
            }
            black_box(builder.finish().expect("snapshot encode"))
        })
    });
    let bytes = encoded_snapshot();
    assert!(bytes.len() > total, "framing must add a header and section table");
    c.bench_function("checkpoint/snapshot_parse_validate", |b| {
        b.iter(|| black_box(Snapshot::parse(black_box(&bytes)).expect("snapshot parse")))
    });
    c.bench_function("checkpoint/fnv1a_2.4MB", |b| b.iter(|| black_box(fnv1a(black_box(&bytes)))));
}

fn bench_primitives(c: &mut Criterion) {
    c.bench_function("checkpoint/writer_mixed_64k_fields", |b| {
        b.iter(|| {
            let mut w = ByteWriter::with_capacity(16 * 65_536);
            for i in 0u64..65_536 {
                w.put_u64(i);
                w.put_f64_bits(i as f64 * 1.5);
            }
            black_box(w.into_bytes())
        })
    });
    let mut w = ByteWriter::with_capacity(16 * 65_536);
    for i in 0u64..65_536 {
        w.put_u64(i);
        w.put_f64_bits(i as f64 * 1.5);
    }
    let buf = w.into_bytes();
    c.bench_function("checkpoint/reader_mixed_64k_fields", |b| {
        b.iter(|| {
            let mut r = ByteReader::new(black_box(&buf));
            let mut acc = 0u64;
            for _ in 0..65_536 {
                acc ^= r.get_u64("bench u64").expect("u64");
                acc ^= r.get_f64_bits("bench f64").expect("f64").to_bits();
            }
            black_box(acc)
        })
    });
}

fn bench_durable_write(c: &mut Criterion) {
    // Checksums are computed once up front, the way the campaign engine
    // carries its observation log's hash forward: the timed write frames
    // the header and streams the borrowed payloads, hashing nothing.
    let sections = sample_sections();
    let refs: Vec<SectionRef<'_>> =
        sections.iter().map(|(id, payload)| SectionRef::new(*id, payload)).collect();
    let path = std::env::temp_dir()
        .join(format!("starsense-bench-checkpoint-{}.ckpt", std::process::id()));
    c.bench_function("checkpoint/write_snapshot_rotating_fsync_2.4MB", |b| {
        b.iter(|| {
            write_snapshot_rotating(black_box(&path), black_box(&refs)).expect("durable write")
        })
    });
    c.bench_function("checkpoint/load_latest_2.4MB", |b| {
        b.iter(|| black_box(load_latest(black_box(&path)).expect("load")))
    });
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(starsense_checkpoint::backup_path(&path));
}

fn bench_fingerprint(c: &mut Criterion) {
    let constellation = ConstellationBuilder::starlink_mini().seed(7).build();
    let mut terminals = paper_terminals();
    terminals.truncate(1);
    let campaign = Campaign::oracle(&constellation, terminals, CampaignConfig::default(), 7);
    let obs = campaign.run(JulianDate::from_ymd_hms(2023, 6, 1, 8, 0, 0.0), 25);
    c.bench_function("checkpoint/fingerprint_observations_25_slots", |b| {
        b.iter(|| black_box(fingerprint_observations(black_box(&obs))))
    });
}

criterion_group!(
    benches,
    bench_container,
    bench_primitives,
    bench_durable_write,
    bench_fingerprint
);
criterion_main!(benches);
