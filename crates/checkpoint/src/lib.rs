//! Versioned, checksummed binary snapshots with atomic persistence.
//!
//! This crate is the *wire-format* half of campaign checkpoint/restore
//! (the campaign-state encoding itself lives in `starsense-core`, which
//! owns the types being persisted). It is deliberately dependency-free —
//! the workspace builds offline — and hand-rolls the three pieces a
//! crash-safe snapshot needs:
//!
//! 1. **Primitive codec** ([`ByteWriter`] / [`ByteReader`]): little-endian
//!    fixed-width integers, `f64` persisted as raw bit patterns (so restore
//!    is bit-identical, NaNs and signed zeros included), and length-prefixed
//!    byte strings. Every read is bounds-checked and returns
//!    [`CheckpointError`] — corrupted input can never panic the decoder.
//! 2. **Container format** ([`SnapshotBuilder`] / [`Snapshot`]): a magic
//!    tag, a format version, a section table (id → offset/length), and
//!    FNV-1a checksums over both the header and every section payload.
//!    A single flipped bit anywhere in the file fails validation. One
//!    header encoder serves both the in-memory builder and the streamed
//!    write, so the two cannot drift apart.
//! 3. **Atomic persistence** ([`write_snapshot_rotating`] /
//!    [`write_rotating`] / [`load_latest`]): temp file + fsync + rename so
//!    a crash mid-write never tears the current snapshot, plus a rotating
//!    `.prev` last-good copy so a corrupted primary degrades to the
//!    previous checkpoint instead of a cold start. The snapshot is
//!    streamed from borrowed section payloads straight into the temp
//!    file, never assembled in memory.
//!
//! The on-disk layout is specified in DESIGN.md ("Snapshot wire format");
//! the summary:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SSCP"
//! 4       4     version (u32 LE)
//! 8       4     section count N (u32 LE)
//! 12      28·N  section table: { id: u32, offset: u64, len: u64, fnv: u64 }
//! 12+28N  8     FNV-1a of bytes [0, 12+28N)           (header checksum)
//! ...           section payloads, in table order, contiguous
//! ```

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// First four bytes of every snapshot file: "SSCP" (StarSense CheckPoint).
pub const MAGIC: [u8; 4] = *b"SSCP";

/// Current snapshot format version. Bump on any layout change; readers
/// reject versions they do not understand rather than guessing.
pub const VERSION: u32 = 1;

/// Bytes per section-table entry: id (4) + offset (8) + len (8) + fnv (8).
const TABLE_ENTRY_LEN: usize = 28;

/// Fixed header bytes before the section table: magic + version + count.
const HEADER_PREFIX_LEN: usize = 12;

/// Everything that can go wrong encoding, decoding, or persisting a
/// snapshot. Corruption maps to a typed error — never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Input ended before a fixed-width field; `context` names the field.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The version field is not one this reader understands.
    UnsupportedVersion {
        /// The version actually found.
        found: u32,
    },
    /// The header checksum does not match the header bytes.
    HeaderChecksum {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed from the bytes.
        computed: u64,
    },
    /// A section's checksum does not match its payload bytes.
    SectionChecksum {
        /// Section id from the table.
        id: u32,
        /// Checksum recorded in the table.
        stored: u64,
        /// Checksum recomputed from the payload.
        computed: u64,
    },
    /// A section's table entry points outside the file or overlaps the
    /// header.
    SectionBounds {
        /// Section id from the table.
        id: u32,
    },
    /// The same section id appears twice in the table.
    DuplicateSection {
        /// The repeated id.
        id: u32,
    },
    /// A section the decoder requires is absent.
    MissingSection {
        /// The absent id.
        id: u32,
    },
    /// Structurally valid bytes that decode to an impossible value;
    /// `context` says which invariant failed.
    Malformed {
        /// The violated invariant.
        context: &'static str,
    },
    /// The snapshot was written by a campaign with a different
    /// configuration fingerprint and cannot resume this one.
    ConfigMismatch {
        /// Fingerprint of the running campaign.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// An OS-level I/O failure (message carried as text so the error type
    /// stays `Eq` and cheap to assert on in tests).
    Io {
        /// The formatted `std::io::Error`.
        message: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            CheckpointError::BadMagic { found } => {
                write!(f, "bad snapshot magic {found:?} (expected {MAGIC:?})")
            }
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found} (reader speaks {VERSION})")
            }
            CheckpointError::HeaderChecksum { stored, computed } => {
                write!(f, "header checksum mismatch: stored {stored:#x}, computed {computed:#x}")
            }
            CheckpointError::SectionChecksum { id, stored, computed } => write!(
                f,
                "section {id} checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            ),
            CheckpointError::SectionBounds { id } => {
                write!(f, "section {id} extends outside the snapshot")
            }
            CheckpointError::DuplicateSection { id } => {
                write!(f, "section {id} appears twice in the table")
            }
            CheckpointError::MissingSection { id } => {
                write!(f, "required section {id} is missing")
            }
            CheckpointError::Malformed { context } => {
                write!(f, "malformed snapshot: {context}")
            }
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot belongs to a different campaign: fingerprint {found:#x}, \
                 expected {expected:#x}"
            ),
            CheckpointError::Io { message } => write!(f, "snapshot I/O error: {message}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io { message: e.to_string() }
    }
}

/// FNV-1a of the empty input (the 64-bit offset basis): the starting
/// state for [`fnv1a_extend`].
pub const FNV1A_EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes` — the same hash the golden-trace
/// fingerprints use, chosen for simplicity and zero dependencies. This is
/// an integrity check against torn writes and bit rot, not an
/// authenticity check.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_EMPTY, bytes)
}

/// Continues the FNV-1a hash `h` of some prefix over `bytes`:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`. This is what lets an
/// append-only buffer carry its checksum forward, paying only for the
/// appended tail.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian primitive encoder backing every section payload.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter { buf: Vec::new() }
    }

    /// An empty writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> ByteWriter {
        ByteWriter { buf: Vec::with_capacity(cap) }
    }

    /// A writer that appends after the bytes already in `buf`.
    pub fn from_bytes(buf: Vec<u8>) -> ByteWriter {
        ByteWriter { buf }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as `0`/`1`.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64` (the format is 64-bit on every
    /// platform).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its raw bit pattern, so restore is
    /// bit-identical (NaN payloads and `-0.0` survive).
    pub fn put_f64_bits(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string with a `u64` length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Discards the bytes written so far, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Consumes the writer, yielding the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian decoder over a byte slice. Every getter
/// returns [`CheckpointError::Truncated`] instead of panicking when the
/// input runs out.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated { context })?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated { context });
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, CheckpointError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a bool, rejecting anything but `0`/`1`.
    pub fn get_bool(&mut self, context: &'static str) -> Result<bool, CheckpointError> {
        match self.get_u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed { context }),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, CheckpointError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, CheckpointError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self, context: &'static str) -> Result<i64, CheckpointError> {
        Ok(self.get_u64(context)? as i64)
    }

    /// Reads a `u64` and narrows it to `usize`, rejecting values that do
    /// not fit the platform.
    pub fn get_usize(&mut self, context: &'static str) -> Result<usize, CheckpointError> {
        usize::try_from(self.get_u64(context)?).map_err(|_| CheckpointError::Malformed { context })
    }

    /// Reads an `f64` bit pattern written by [`ByteWriter::put_f64_bits`].
    pub fn get_f64_bits(&mut self, context: &'static str) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.get_u64(context)?))
    }

    /// Reads a `u64`-length-prefixed byte string.
    pub fn get_bytes(&mut self, context: &'static str) -> Result<&'a [u8], CheckpointError> {
        let n = self.get_usize(context)?;
        self.take(n, context)
    }

    /// Reads a `u64`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self, context: &'static str) -> Result<&'a str, CheckpointError> {
        std::str::from_utf8(self.get_bytes(context)?)
            .map_err(|_| CheckpointError::Malformed { context })
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the reader has consumed its whole input.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless the input was consumed exactly — trailing garbage in
    /// a section is corruption, not padding.
    pub fn expect_exhausted(&self, context: &'static str) -> Result<(), CheckpointError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(CheckpointError::Malformed { context })
        }
    }
}

/// A section payload borrowed for serialization, paired with its FNV-1a
/// checksum.
#[derive(Clone, Copy, Debug)]
pub struct SectionRef<'a> {
    id: u32,
    payload: &'a [u8],
    checksum: u64,
}

impl<'a> SectionRef<'a> {
    /// Section `id` over `payload`, hashing the payload.
    pub fn new(id: u32, payload: &'a [u8]) -> SectionRef<'a> {
        SectionRef { id, payload, checksum: fnv1a(payload) }
    }

    /// Section `id` over `payload` whose FNV-1a the caller already holds,
    /// e.g. a running hash carried forward with [`fnv1a_extend`] as the
    /// payload grew. `checksum` must equal `fnv1a(payload)`: a wrong value
    /// produces a snapshot that fails validation on load.
    pub fn with_checksum(id: u32, payload: &'a [u8], checksum: u64) -> SectionRef<'a> {
        debug_assert_eq!(checksum, fnv1a(payload), "carried checksum of section {id}");
        SectionRef { id, payload, checksum }
    }
}

/// The container header for `sections`, whose payloads follow it
/// contiguously in the given order: magic, version, section table and
/// header checksum. The one encoder behind both
/// [`SnapshotBuilder::finish`] and [`write_snapshot_rotating`].
fn encode_header(sections: &[SectionRef<'_>]) -> Result<Vec<u8>, CheckpointError> {
    for (i, s) in sections.iter().enumerate() {
        if sections[..i].iter().any(|other| other.id == s.id) {
            return Err(CheckpointError::DuplicateSection { id: s.id });
        }
    }
    let header_len = HEADER_PREFIX_LEN + TABLE_ENTRY_LEN * sections.len();
    let mut out = Vec::with_capacity(header_len + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = (header_len + 8) as u64;
    for s in sections {
        out.extend_from_slice(&s.id.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(s.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&s.checksum.to_le_bytes());
        offset += s.payload.len() as u64;
    }
    let header_fnv = fnv1a(&out);
    out.extend_from_slice(&header_fnv.to_le_bytes());
    Ok(out)
}

/// Accumulates section payloads and serializes the container.
#[derive(Clone, Debug, Default)]
pub struct SnapshotBuilder {
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// An empty builder.
    pub fn new() -> SnapshotBuilder {
        SnapshotBuilder { sections: Vec::new() }
    }

    /// Adds a section payload. Ids must be unique; duplicates are
    /// reported by [`SnapshotBuilder::finish`].
    pub fn add_section(&mut self, id: u32, payload: Vec<u8>) {
        self.sections.push((id, payload));
    }

    /// Serializes magic, version, section table, header checksum, and
    /// payloads into one buffer — the same bytes
    /// [`write_snapshot_rotating`] streams to disk.
    pub fn finish(self) -> Result<Vec<u8>, CheckpointError> {
        let refs: Vec<SectionRef<'_>> =
            self.sections.iter().map(|(id, payload)| SectionRef::new(*id, payload)).collect();
        let mut out = encode_header(&refs)?;
        out.reserve(refs.iter().map(|s| s.payload.len()).sum());
        for s in &refs {
            out.extend_from_slice(s.payload);
        }
        Ok(out)
    }
}

/// A parsed, fully validated snapshot. Construction verifies the magic,
/// version, header checksum, section bounds, and every section checksum,
/// so holders can read payloads without re-checking integrity.
#[derive(Clone, Debug)]
pub struct Snapshot<'a> {
    /// `(id, payload, verified FNV-1a)` in file order.
    sections: Vec<(u32, &'a [u8], u64)>,
}

impl<'a> Snapshot<'a> {
    /// Validates `bytes` and indexes its sections.
    pub fn parse(bytes: &'a [u8]) -> Result<Snapshot<'a>, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.take(4, "magic")?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic {
                found: [magic[0], magic[1], magic[2], magic[3]],
            });
        }
        let version = r.get_u32("version")?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let count = r.get_u32("section count")? as usize;
        // Cap before allocating: a corrupted count must not OOM the reader.
        if count > (bytes.len().saturating_sub(HEADER_PREFIX_LEN)) / TABLE_ENTRY_LEN {
            return Err(CheckpointError::Truncated { context: "section table" });
        }
        let mut table = Vec::with_capacity(count);
        for _ in 0..count {
            let id = r.get_u32("section id")?;
            let offset = r.get_u64("section offset")?;
            let len = r.get_u64("section length")?;
            let fnv = r.get_u64("section checksum")?;
            table.push((id, offset, len, fnv));
        }
        let header_len = HEADER_PREFIX_LEN + TABLE_ENTRY_LEN * count;
        let stored = r.get_u64("header checksum")?;
        let computed = fnv1a(&bytes[..header_len]);
        if stored != computed {
            return Err(CheckpointError::HeaderChecksum { stored, computed });
        }
        let body_start = (header_len + 8) as u64;
        let mut sections = Vec::with_capacity(count);
        for (id, offset, len, fnv) in table {
            if sections.iter().any(|(other, _, _)| *other == id) {
                return Err(CheckpointError::DuplicateSection { id });
            }
            let end = offset.checked_add(len).ok_or(CheckpointError::SectionBounds { id })?;
            if offset < body_start || end > bytes.len() as u64 {
                return Err(CheckpointError::SectionBounds { id });
            }
            let payload = &bytes[offset as usize..end as usize];
            let computed = fnv1a(payload);
            if computed != fnv {
                return Err(CheckpointError::SectionChecksum { id, stored: fnv, computed });
            }
            sections.push((id, payload, fnv));
        }
        Ok(Snapshot { sections })
    }

    /// The payload of section `id`, if present.
    pub fn section(&self, id: u32) -> Option<&'a [u8]> {
        self.sections.iter().find(|(other, _, _)| *other == id).map(|(_, p, _)| *p)
    }

    /// The FNV-1a of section `id`'s payload, if present — already verified
    /// by [`Snapshot::parse`], so a holder never needs to hash the payload
    /// again.
    pub fn section_checksum(&self, id: u32) -> Option<u64> {
        self.sections.iter().find(|(other, _, _)| *other == id).map(|(_, _, fnv)| *fnv)
    }

    /// The payload of section `id`, or [`CheckpointError::MissingSection`].
    pub fn require_section(&self, id: u32) -> Result<&'a [u8], CheckpointError> {
        self.section(id).ok_or(CheckpointError::MissingSection { id })
    }

    /// Section ids present, in file order.
    pub fn section_ids(&self) -> Vec<u32> {
        self.sections.iter().map(|(id, _, _)| *id).collect()
    }
}

/// Where [`load_latest`] found a usable snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadedFrom {
    /// The primary snapshot file.
    Primary,
    /// The rotating `.prev` last-good copy (the primary was missing or
    /// failed validation).
    Backup,
}

/// Result of [`load_latest`]: the newest snapshot that validates, plus
/// how many corrupt files were passed over to find it.
#[derive(Clone, Debug)]
pub struct LoadOutcome {
    /// Validated snapshot bytes and their origin, or `None` when neither
    /// file yields a valid snapshot.
    pub snapshot: Option<(Vec<u8>, LoadedFrom)>,
    /// Files that existed but failed validation (0, 1, or 2). Non-zero
    /// with `snapshot: None` means all history was lost to corruption.
    pub corrupt_discarded: u32,
}

/// The rotating last-good path for `path`: `<path>.prev` (suffix
/// appended, existing extension kept).
pub fn backup_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".prev");
    PathBuf::from(os)
}

fn temp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Writes `bytes` to `path` atomically: write to `<path>.tmp`, fsync,
/// rename over `path`, then best-effort fsync of the parent directory.
/// A crash at any point leaves either the old file or the new one —
/// never a torn mix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    atomic_write_parts(path, &[bytes])
}

/// [`atomic_write`] of the concatenation of `parts`, streamed into the
/// temp file part by part.
fn atomic_write_parts(path: &Path, parts: &[&[u8]]) -> Result<(), CheckpointError> {
    let tmp = temp_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        for part in parts {
            f.write_all(part)?;
        }
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Directory fsync makes the rename itself durable; failure here
        // (e.g. exotic filesystems) costs durability, not atomicity.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Moves the current snapshot (if any) to `<path>.prev`.
fn rotate(path: &Path) -> Result<(), CheckpointError> {
    if path.exists() {
        fs::rename(path, backup_path(path))?;
    }
    Ok(())
}

/// Rotates the current snapshot (if any) to `<path>.prev`, then
/// atomically writes `bytes` as the new primary. After every successful
/// call the previous checkpoint survives as the backup, so corruption of
/// the newest file costs one interval, not the whole campaign.
pub fn write_rotating(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    rotate(path)?;
    atomic_write(path, bytes)
}

/// [`write_rotating`] of the snapshot [`SnapshotBuilder::finish`] would
/// build from `sections`, streamed: the header, then each borrowed
/// payload, goes straight into the temp file, so the snapshot is never
/// assembled in memory and no payload is hashed here. Duplicate ids are
/// rejected before any file is touched.
pub fn write_snapshot_rotating(
    path: &Path,
    sections: &[SectionRef<'_>],
) -> Result<(), CheckpointError> {
    let header = encode_header(sections)?;
    let parts: Vec<&[u8]> =
        std::iter::once(header.as_slice()).chain(sections.iter().map(|s| s.payload)).collect();
    rotate(path)?;
    atomic_write_parts(path, &parts)
}

/// Loads the newest snapshot that passes full validation: the primary if
/// it parses, else the `.prev` backup if it parses, else nothing.
/// Corrupt files are counted, never propagated as panics or parse errors
/// — only genuine I/O failures (permissions, bad descriptors) error.
pub fn load_latest(path: &Path) -> Result<LoadOutcome, CheckpointError> {
    let mut corrupt = 0u32;
    for (candidate, origin) in
        [(path.to_path_buf(), LoadedFrom::Primary), (backup_path(path), LoadedFrom::Backup)]
    {
        match fs::read(&candidate) {
            Ok(bytes) => {
                if Snapshot::parse(&bytes).is_ok() {
                    return Ok(LoadOutcome {
                        snapshot: Some((bytes, origin)),
                        corrupt_discarded: corrupt,
                    });
                }
                corrupt += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(LoadOutcome { snapshot: None, corrupt_discarded: corrupt })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64_bits(-0.0);
        w.put_f64_bits(f64::NAN);
        w.put_str("terminal");
        let mut b = SnapshotBuilder::new();
        b.add_section(1, w.into_bytes());
        b.add_section(2, Vec::new());
        b.add_section(9, vec![1, 2, 3]);
        b.finish().expect("unique sections")
    }

    #[test]
    fn round_trip_preserves_primitives_bit_for_bit() {
        let bytes = sample();
        let snap = Snapshot::parse(&bytes).expect("valid snapshot");
        assert_eq!(snap.section_ids(), vec![1, 2, 9]);
        let mut r = ByteReader::new(snap.require_section(1).expect("section 1"));
        assert_eq!(r.get_u8("a").expect("u8"), 7);
        assert!(r.get_bool("b").expect("bool"));
        assert_eq!(r.get_u32("c").expect("u32"), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("d").expect("u64"), u64::MAX);
        assert_eq!(r.get_i64("e").expect("i64"), -42);
        assert_eq!(r.get_f64_bits("f").expect("f64").to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64_bits("g").expect("f64").is_nan());
        assert_eq!(r.get_str("h").expect("str"), "terminal");
        r.expect_exhausted("tail").expect("fully consumed");
        assert_eq!(snap.section(2).expect("section 2"), &[] as &[u8]);
        assert_eq!(snap.section(9).expect("section 9"), &[1, 2, 3]);
        assert!(snap.section(3).is_none());
        assert_eq!(snap.require_section(3), Err(CheckpointError::MissingSection { id: 3 }));
    }

    #[test]
    fn duplicate_sections_rejected_at_build_and_parse() {
        let mut b = SnapshotBuilder::new();
        b.add_section(4, vec![1]);
        b.add_section(4, vec![2]);
        assert_eq!(b.finish(), Err(CheckpointError::DuplicateSection { id: 4 }));
    }

    #[test]
    fn every_truncation_errors_never_panics() {
        let bytes = sample();
        for keep in 0..bytes.len() {
            let err = Snapshot::parse(&bytes[..keep]);
            assert!(err.is_err(), "truncation to {keep} bytes must fail validation");
        }
        assert!(Snapshot::parse(&bytes).is_ok());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample();
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
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert_eq!(
            Snapshot::parse(&bytes).expect_err("magic"),
            CheckpointError::BadMagic { found: [b'X', b'S', b'C', b'P'] }
        );
        let mut bytes = sample();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            Snapshot::parse(&bytes).expect_err("version"),
            CheckpointError::UnsupportedVersion { found: 99 }
        );
    }

    #[test]
    fn reader_bounds_and_bad_bool() {
        let mut r = ByteReader::new(&[2]);
        assert_eq!(r.clone().get_u32("x"), Err(CheckpointError::Truncated { context: "x" }));
        assert_eq!(r.get_bool("flag"), Err(CheckpointError::Malformed { context: "flag" }));
        let huge_len = u64::MAX.to_le_bytes();
        let mut r = ByteReader::new(&huge_len);
        assert!(r.get_bytes("blob").is_err());
    }

    #[test]
    fn atomic_write_rotate_and_backup_recovery() {
        let dir = std::env::temp_dir().join(format!("sscp-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("campaign.ckpt");

        let first = sample();
        write_rotating(&path, &first).expect("first write");
        let out = load_latest(&path).expect("load");
        let (bytes, from) = out.snapshot.expect("snapshot present");
        assert_eq!((bytes, from, out.corrupt_discarded), (first.clone(), LoadedFrom::Primary, 0));

        let mut b = SnapshotBuilder::new();
        b.add_section(1, vec![9, 9]);
        let second = b.finish().expect("build");
        write_rotating(&path, &second).expect("second write");
        assert!(backup_path(&path).exists(), "rotation must keep the previous file");

        // Corrupt the primary: load falls back to the previous checkpoint.
        let mut torn = second.clone();
        torn[6] ^= 0x40;
        fs::write(&path, &torn).expect("corrupt primary");
        let out = load_latest(&path).expect("load");
        let (bytes, from) = out.snapshot.expect("backup survives");
        assert_eq!((bytes, from, out.corrupt_discarded), (first, LoadedFrom::Backup, 1));

        // Corrupt both: nothing loadable, both counted, no panic.
        fs::write(backup_path(&path), b"junk").expect("corrupt backup");
        let out = load_latest(&path).expect("load");
        assert!(out.snapshot.is_none());
        assert_eq!(out.corrupt_discarded, 2);

        // Missing both: clean empty outcome.
        fs::remove_file(&path).expect("rm");
        fs::remove_file(backup_path(&path)).expect("rm");
        let out = load_latest(&path).expect("load");
        assert!(out.snapshot.is_none());
        assert_eq!(out.corrupt_discarded, 0);

        let _ = fs::remove_dir_all(&dir);
    }
}
