//! Binary container formats for vector collections and other durable
//! state.
//!
//! Generated corpora feed ground-truth computations that cost O(n²); the
//! experiment harness caches both, keyed by the corpus content. The
//! service layer additionally persists epoch snapshots through the same
//! container. This module provides the compact, versioned, endian-stable
//! serialization those consumers use, plus the content hash for cache
//! keys.
//!
//! There is **one on-disk layout** for every artefact — collection
//! files and service checkpoints alike — written by
//! [`ContainerWriter::finish`] and parsed by [`ContainerIndex::parse`]:
//! a tag/checksum section model laid out for zero-copy access through a
//! memory mapping. A fixed-width directory up front carries absolute
//! offsets, and every payload starts on an 8-byte boundary so
//! fixed-width little-endian arrays inside sections stay aligned:
//!
//! ```text
//! magic    4 bytes  "VSJC"
//! version  u32      3
//! sections u32      section count
//! pad      u32      0
//! per section (32-byte directory entry):
//!   tag      4 bytes   ASCII section identifier
//!   pad      u32       0
//!   offset   u64       absolute file offset of the payload (8-aligned)
//!   len      u64       payload length in bytes (padding excluded)
//!   checksum u64       checksum64_v3 of the payload (chunked digest)
//! payloads, each zero-padded to the next 8-byte boundary
//! ```
//!
//! Section checksums use [`checksum64_v3`], the chunked digest —
//! per-1 MiB word-wise digests folded through a final [`checksum64`] —
//! so a multi-megabyte section verifies across all cores at map time
//! (a raw byte chain is serial by construction).
//!
//! [`ContainerIndex::parse`] verifies every checksum once and then hands
//! out `offset..offset+len` ranges into the caller's buffer — no copies,
//! which is what the mmap-backed checkpoint tier serves from.
//! [`ContainerIndex::parse_sections`] makes the same framing checks but
//! verifies only the named sections, for a reader that needs one small
//! section of a large file. Any other version number is refused with
//! [`IoError::BadVersion`].
//!
//! A collection file holds a single `COLL` section: the vector count
//! followed by one wire block per vector (`nnz u32`, `nnz × u32` sorted
//! dimension indices, `nnz × f32` weights).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::path::Path;

use vsj_sampling::SplitMix64;
use vsj_vector::{SparseVector, VectorCollection};

const MAGIC: &[u8; 4] = b"VSJC";
/// The container version: the mappable aligned-directory layout.
pub const VERSION_V3: u32 = 3;
/// Section tag of the vector payload in a collection container.
pub const SECTION_COLLECTION: [u8; 4] = *b"COLL";

/// Errors from decoding a container.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Not a VSJC container.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u32),
    /// A section's payload does not match its stored checksum.
    BadChecksum {
        /// Tag of the offending section.
        section: [u8; 4],
    },
    /// A required section is absent.
    MissingSection {
        /// Tag of the absent section.
        section: [u8; 4],
    },
    /// The payload ended early or a vector violated its invariants.
    Corrupt(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "collection I/O error: {e}"),
            Self::BadMagic => write!(f, "not a VSJC collection file"),
            Self::BadVersion(v) => write!(f, "unsupported VSJC version {v}"),
            Self::BadChecksum { section } => write!(
                f,
                "VSJC section {} failed its checksum",
                String::from_utf8_lossy(section)
            ),
            Self::MissingSection { section } => write!(
                f,
                "VSJC container lacks required section {}",
                String::from_utf8_lossy(section)
            ),
            Self::Corrupt(msg) => write!(f, "corrupt VSJC payload: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// 64-bit checksum of a byte payload (FNV-1a folded through SplitMix64).
///
/// Not cryptographic — it exists to catch torn writes, truncation, and
/// bit rot, the failure modes recovery must detect loudly.
pub fn checksum64(data: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    SplitMix64::mix(h ^ data.len() as u64)
}

/// Chunk size of the v3 section checksum: small enough to fan the scan
/// out across cores, large enough that the digest list stays trivial.
const V3_CHECKSUM_CHUNK: usize = 1 << 20;

/// Word-wise FNV-1a digest: the same xor-multiply chain as
/// [`checksum64`] advanced one little-endian `u64` per step instead of
/// one byte (the tail word is zero-padded; the length fold
/// disambiguates real zero bytes from padding). One multiply per 8
/// bytes puts the serial throughput close to memory speed, where the
/// byte chain is latency-bound at roughly a byte per multiply.
fn checksum64_words(data: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        h ^= u64::from_le_bytes(word.try_into().expect("8 bytes"));
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h ^= u64::from_le_bytes(last);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    SplitMix64::mix(h ^ data.len() as u64)
}

/// The v3 section checksum: [`checksum64`] over each 1 MiB chunk's
/// word-wise digest, in order. This sits on the mapped tier's
/// cold-start path, where checksum validation is the dominant cost of
/// "map + go", so it is built to scan fast: the word-wise chunk digest
/// runs near memory speed on one core, and the chunks are independent,
/// so a multi-megabyte section additionally verifies across all cores
/// (the plain byte chain is serial by construction). WAL frames keep
/// [`checksum64`]; their payloads are read (and paid for) in full
/// anyway.
pub fn checksum64_v3(data: &[u8]) -> u64 {
    let digests = chunk_digests(data);
    let mut bytes = Vec::with_capacity(digests.len() * 8);
    for digest in digests {
        bytes.extend_from_slice(&digest.to_le_bytes());
    }
    checksum64(&bytes)
}

/// Per-chunk [`checksum64_words`] digests of `data`, fanned out across
/// the process-wide work pool when there is more than one chunk to share
/// out. `parallel_map_indexed` returns digests in chunk order, so the
/// folded checksum is identical at any thread count.
fn chunk_digests(data: &[u8]) -> Vec<u64> {
    let chunks: Vec<&[u8]> = data.chunks(V3_CHECKSUM_CHUNK).collect();
    vsj_pool::global().parallel_map_indexed(&chunks, |_, chunk| checksum64_words(chunk))
}

// --- sectioned container -----------------------------------------------------

/// Builder for a sectioned container.
///
/// Sections are written in the order they are added; each gets a
/// directory entry carrying its offset, length and a [`checksum64_v3`]
/// over its payload.
#[derive(Debug, Default)]
pub struct ContainerWriter {
    sections: Vec<([u8; 4], Bytes)>,
}

impl ContainerWriter {
    /// Starts an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section.
    pub fn section(&mut self, tag: [u8; 4], payload: Bytes) -> &mut Self {
        self.sections.push((tag, payload));
        self
    }

    /// Assembles the container bytes: fixed-width directory up front,
    /// every payload 8-byte aligned.
    pub fn finish(&self) -> Bytes {
        let header = 16 + self.sections.len() * 32;
        let payload_total: usize = self.sections.iter().map(|(_, p)| (p.len() + 7) & !7).sum();
        let mut buf = BytesMut::with_capacity(header + payload_total);
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION_V3);
        buf.put_u32_le(self.sections.len() as u32);
        buf.put_u32_le(0);
        // Directory: offsets are absolute, pre-computed from the fixed
        // header size plus the padded lengths of preceding payloads.
        let mut offset = header as u64;
        for (tag, payload) in &self.sections {
            buf.put_slice(tag);
            buf.put_u32_le(0);
            buf.put_u64_le(offset);
            buf.put_u64_le(payload.len() as u64);
            buf.put_u64_le(checksum64_v3(payload.as_slice()));
            offset += ((payload.len() + 7) & !7) as u64;
        }
        for (_, payload) in &self.sections {
            buf.put_slice(payload.as_slice());
            buf.put_slice(&[0u8; 8][..(8 - payload.len() % 8) % 8]);
        }
        buf.freeze()
    }
}

/// Zero-copy directory of a container: parsing verifies the framing
/// and section checksums once, then yields byte ranges into the
/// caller's buffer (typically a memory mapping) — payloads are never
/// copied.
#[derive(Debug, Clone)]
pub struct ContainerIndex {
    /// `(tag, payload range, stored checksum)` in directory order.
    entries: Vec<([u8; 4], std::ops::Range<usize>, u64)>,
}

impl ContainerIndex {
    /// Parses the directory of `data` and verifies every section's
    /// checksum (one linear scan over the payload bytes — no decoding,
    /// no allocation beyond the directory itself).
    ///
    /// # Errors
    /// [`IoError::BadMagic`] / [`IoError::BadVersion`] on foreign input,
    /// [`IoError::Corrupt`] on framing violations (truncation,
    /// misalignment, overlapping or out-of-bounds payloads), and
    /// [`IoError::BadChecksum`] when any payload fails its checksum.
    pub fn parse(data: &[u8]) -> Result<Self, IoError> {
        let index = Self::frame(data)?;
        verify_section_checksums(data, &index.entries)?;
        Ok(index)
    }

    /// Frames `data` exactly as [`ContainerIndex::parse`] does — every
    /// framing check over the whole directory — but verifies the
    /// checksums of, and indexes, only the sections tagged in `tags`:
    /// O(directory + those payloads) for a reader that needs one small
    /// section of a large container.
    ///
    /// # Errors
    /// As [`ContainerIndex::parse`], with checksums checked only for
    /// the named sections.
    pub fn parse_sections(data: &[u8], tags: &[[u8; 4]]) -> Result<Self, IoError> {
        let mut index = Self::frame(data)?;
        index.entries.retain(|(tag, ..)| tags.contains(tag));
        verify_section_checksums(data, &index.entries)?;
        Ok(index)
    }

    /// The framing pass: magic, version, directory and payload tiling.
    /// No checksum is verified.
    fn frame(data: &[u8]) -> Result<Self, IoError> {
        let u32_at = |at: usize| -> u32 {
            u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"))
        };
        let u64_at = |at: usize| -> u64 {
            u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
        };
        // Magic and version before the length of the full header: a
        // file in another layout is refused as what it is, however
        // short.
        if data.len() >= 8 {
            if &data[..4] != MAGIC {
                return Err(IoError::BadMagic);
            }
            let version = u32_at(4);
            if version != VERSION_V3 {
                return Err(IoError::BadVersion(version));
            }
        }
        if data.len() < 16 {
            return Err(IoError::Corrupt("header truncated".into()));
        }
        let count = u32_at(8) as usize;
        // Reserved/padding bytes are not covered by any section
        // checksum, so they must be pinned to zero here — otherwise a
        // flipped bit in them would load silently.
        if u32_at(12) != 0 {
            return Err(IoError::Corrupt("nonzero v3 header padding".into()));
        }
        let header = 16usize;
        let dir_end = header
            .checked_add(count.checked_mul(32).ok_or_else(overflow)?)
            .ok_or_else(overflow)?;
        if data.len() < dir_end {
            return Err(IoError::Corrupt("v3 directory truncated".into()));
        }
        let mut entries = Vec::with_capacity(count.min(64));
        // Payloads must tile the tail of the file in directory order,
        // 8-aligned — that is what makes the layout mappable.
        let mut expected = dir_end as u64;
        for si in 0..count {
            let at = header + si * 32;
            let tag: [u8; 4] = data[at..at + 4].try_into().expect("4 bytes");
            if u32_at(at + 4) != 0 {
                return Err(IoError::Corrupt(format!(
                    "section {si}: nonzero directory padding"
                )));
            }
            let offset = u64_at(at + 8);
            let len = u64_at(at + 16);
            let checksum = u64_at(at + 24);
            if offset % 8 != 0 || offset != expected {
                return Err(IoError::Corrupt(format!(
                    "section {si}: payload offset {offset} violates the aligned layout"
                )));
            }
            let end = offset.checked_add(len).ok_or_else(overflow)?;
            if end > data.len() as u64 {
                return Err(IoError::Corrupt(format!(
                    "section {si}: payload runs past end of file"
                )));
            }
            entries.push((tag, offset as usize..end as usize, checksum));
            let padded_end = end.checked_add((8 - len % 8) % 8).ok_or_else(overflow)?;
            if padded_end <= data.len() as u64
                && data[end as usize..padded_end as usize]
                    .iter()
                    .any(|&b| b != 0)
            {
                return Err(IoError::Corrupt(format!(
                    "section {si}: nonzero payload padding"
                )));
            }
            expected = padded_end;
        }
        if (data.len() as u64) < expected {
            return Err(IoError::Corrupt("v3 payload truncated".into()));
        }
        if data.len() as u64 > expected {
            return Err(IoError::Corrupt(format!(
                "{} trailing bytes after last section",
                data.len() as u64 - expected
            )));
        }
        Ok(Self { entries })
    }

    /// The tags present, in file order.
    pub fn tags(&self) -> Vec<[u8; 4]> {
        self.entries.iter().map(|(t, ..)| *t).collect()
    }

    /// Byte range of the first section with the given tag.
    pub fn range(&self, tag: [u8; 4]) -> Option<std::ops::Range<usize>> {
        self.entries
            .iter()
            .find(|(t, ..)| *t == tag)
            .map(|(_, r, _)| r.clone())
    }

    /// Like [`ContainerIndex::range`] but an error when absent.
    pub fn require(&self, tag: [u8; 4]) -> Result<std::ops::Range<usize>, IoError> {
        self.range(tag)
            .ok_or(IoError::MissingSection { section: tag })
    }
}

fn overflow() -> IoError {
    IoError::Corrupt("v3 directory arithmetic overflow".into())
}

/// Verifies every section's stored [`checksum64_v3`], reporting the
/// first mismatch in directory order. The chunked digest parallelizes
/// internally, so big sections (the vector payload slab, in practice)
/// verify across all cores.
fn verify_section_checksums(
    data: &[u8],
    sections: &[([u8; 4], std::ops::Range<usize>, u64)],
) -> Result<(), IoError> {
    for (tag, range, stored) in sections {
        if checksum64_v3(&data[range.clone()]) != *stored {
            return Err(IoError::BadChecksum { section: *tag });
        }
    }
    Ok(())
}

// --- vector payload (the COLL section body) ---------------------------------

/// Encodes one vector's wire block (`nnz u32`, `nnz × u32` indices,
/// `nnz × f32` weights) — the per-vector layout of collection payloads
/// and the service WAL, and the block a
/// [`SharedVectorCollection`](vsj_vector::SharedVectorCollection) payload
/// slab (and so a checkpoint's payload section) stores.
pub fn encode_vector_into(buf: &mut BytesMut, v: &SparseVector) {
    buf.put_u32_le(v.nnz() as u32);
    for &i in v.indices() {
        buf.put_u32_le(i);
    }
    for &w in v.values() {
        buf.put_f32_le(w);
    }
}

/// Decodes one vector's wire block (inverse of [`encode_vector_into`]),
/// re-validating the vector invariants. Reads from any [`Buf`]: an
/// owned [`Bytes`] cursor or a borrowed `&[u8]` (e.g. a mapped block).
pub fn decode_vector(data: &mut impl Buf) -> Result<SparseVector, IoError> {
    if data.remaining() < 4 {
        return Err(IoError::Corrupt("nnz truncated".into()));
    }
    let nnz = data.get_u32_le() as usize;
    if data.remaining() < nnz * 8 {
        return Err(IoError::Corrupt("vector payload truncated".into()));
    }
    let mut indices = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        indices.push(data.get_u32_le());
    }
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        values.push(data.get_f32_le());
    }
    SparseVector::from_sorted(indices, values).map_err(|e| IoError::Corrupt(e.to_string()))
}

/// Encodes the bare vector payload (`n` + per-vector data) — the `COLL`
/// section payload.
pub fn encode_vectors(collection: &VectorCollection) -> Bytes {
    encode_vector_list(collection.vectors().iter())
}

/// Encodes a bare vector payload from any exactly-sized iterator of
/// vectors — the wire format of [`encode_vectors`] without demanding an
/// owned [`VectorCollection`]. This is how the service serializes its
/// `Arc`-shared snapshot payloads into a checkpoint: the vectors are
/// written once, straight from the shared handles, never first copied
/// into an owned collection.
pub fn encode_vector_list<'a, I>(vectors: I) -> Bytes
where
    I: ExactSizeIterator<Item = &'a SparseVector> + Clone,
{
    let total_nnz: usize = vectors.clone().map(SparseVector::nnz).sum();
    let mut buf = BytesMut::with_capacity(8 + vectors.len() * 4 + total_nnz * 8);
    buf.put_u64_le(vectors.len() as u64);
    for v in vectors {
        encode_vector_into(&mut buf, v);
    }
    buf.freeze()
}

/// Decodes a bare vector payload, re-validating every vector invariant.
///
/// # Errors
/// [`IoError::Corrupt`] on truncation, trailing bytes, or invariant
/// violations.
pub fn decode_vectors(mut data: Bytes) -> Result<VectorCollection, IoError> {
    if data.remaining() < 8 {
        return Err(IoError::Corrupt("vector count truncated".into()));
    }
    let n = data.get_u64_le() as usize;
    let mut vectors = Vec::with_capacity(n.min(1 << 20));
    for vi in 0..n {
        let v = decode_vector(&mut data).map_err(|e| match e {
            IoError::Corrupt(msg) => IoError::Corrupt(format!("vector {vi}: {msg}")),
            other => other,
        })?;
        vectors.push(v);
    }
    if data.has_remaining() {
        return Err(IoError::Corrupt(format!(
            "{} trailing bytes",
            data.remaining()
        )));
    }
    Ok(VectorCollection::from_vectors(vectors))
}

// --- collection containers -------------------------------------------------

/// Encodes a collection as a container holding one checksummed `COLL`
/// section.
pub fn encode(collection: &VectorCollection) -> Bytes {
    let mut w = ContainerWriter::new();
    w.section(SECTION_COLLECTION, encode_vectors(collection));
    w.finish()
}

/// Decodes a collection container.
///
/// # Errors
/// Returns [`IoError`] on malformed input: the framing and the `COLL`
/// checksum are verified by [`ContainerIndex::parse`], and all vector
/// invariants are re-validated (the file may have been edited or
/// truncated).
pub fn decode(data: Bytes) -> Result<VectorCollection, IoError> {
    let range = ContainerIndex::parse(data.as_slice())?.require(SECTION_COLLECTION)?;
    decode_vectors(Bytes::copy_from_slice(&data.as_slice()[range]))
}

/// Writes a collection container (creating parent directories).
pub fn save(collection: &VectorCollection, path: &Path) -> Result<(), IoError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, encode(collection))?;
    Ok(())
}

/// Reads a collection container.
pub fn load(path: &Path) -> Result<VectorCollection, IoError> {
    decode(Bytes::from(std::fs::read(path)?))
}

/// Order-sensitive 64-bit content hash of a collection — the cache key
/// that ties ground-truth files to the exact corpus they were computed on.
pub fn content_hash(collection: &VectorCollection) -> u64 {
    let mut acc = 0xC0FF_EE00_D15E_A5E5u64 ^ collection.len() as u64;
    for (_, v) in collection.iter() {
        acc = SplitMix64::mix(acc ^ v.nnz() as u64);
        for (i, w) in v.iter() {
            acc = SplitMix64::mix(acc ^ (u64::from(i) << 32 | u64::from(w.to_bits())));
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dblp::DblpLike;

    fn sample() -> VectorCollection {
        DblpLike::with_size(120).generate(5)
    }

    #[test]
    fn roundtrip_preserves_collection() {
        let coll = sample();
        let decoded = decode(encode(&coll)).unwrap();
        assert_eq!(coll.len(), decoded.len());
        for (a, b) in coll.vectors().iter().zip(decoded.vectors()) {
            assert_eq!(a, b);
        }
    }

    /// A payload slab's encoder writes exactly the wire block.
    #[test]
    fn slice_encoder_matches_buffer_encoder() {
        let coll = sample();
        for v in coll.vectors() {
            let mut reference = BytesMut::new();
            encode_vector_into(&mut reference, v);
            let row = vsj_vector::EncodedRow::new(v);
            assert_eq!(reference.freeze().as_slice(), row.block().as_flattened());
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("vsj_io_test");
        let path = dir.join("sub").join("coll.vsjc");
        let coll = sample();
        save(&coll, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(content_hash(&coll), content_hash(&loaded));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = encode(&sample()).to_vec();
        data[0] = b'X';
        assert!(matches!(decode(Bytes::from(data)), Err(IoError::BadMagic)));
    }

    #[test]
    fn bad_version_rejected() {
        let mut data = encode(&sample()).to_vec();
        data[4] = 99;
        assert!(matches!(
            decode(Bytes::from(data)),
            Err(IoError::BadVersion(99))
        ));
    }

    #[test]
    fn truncation_detected() {
        let data = encode(&sample()).to_vec();
        for cut in [10, data.len() / 2, data.len() - 1] {
            let r = decode(Bytes::copy_from_slice(&data[..cut]));
            assert!(r.is_err(), "truncation at {cut} not detected");
        }
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut data = encode(&sample()).to_vec();
        data.push(0);
        assert!(matches!(
            decode(Bytes::from(data)),
            Err(IoError::Corrupt(_))
        ));
    }

    #[test]
    fn any_payload_flip_fails_the_checksum() {
        let data = encode(&sample()).to_vec();
        // Flip a byte at a spread of offsets past the container header;
        // every one must surface as *some* decode error (checksum for
        // payload bytes, framing for header bytes) — never a silent
        // different collection.
        for at in (8..data.len()).step_by(97) {
            let mut broken = data.clone();
            broken[at] ^= 0x40;
            assert!(
                decode(Bytes::from(broken)).is_err(),
                "flip at byte {at} was not detected"
            );
        }
    }

    fn three_sections() -> Bytes {
        let mut w = ContainerWriter::new();
        w.section(*b"AAAA", Bytes::from(vec![1u8, 2, 3]));
        w.section(*b"BBBB", Bytes::from(Vec::<u8>::new()));
        w.section(*b"CCCC", Bytes::from(vec![9u8; 300]));
        w.finish()
    }

    #[test]
    fn sectioned_container_roundtrip_and_lookup() {
        let data = three_sections();
        let index = ContainerIndex::parse(data.as_slice()).unwrap();
        assert_eq!(index.tags(), vec![*b"AAAA", *b"BBBB", *b"CCCC"]);
        assert_eq!(&data.as_slice()[index.range(*b"AAAA").unwrap()], &[1, 2, 3]);
        assert_eq!(index.range(*b"BBBB").unwrap().len(), 0);
        assert_eq!(index.range(*b"CCCC").unwrap().len(), 300);
        assert!(index.range(*b"ZZZZ").is_none());
        assert!(matches!(
            index.require(*b"ZZZZ"),
            Err(IoError::MissingSection { section }) if &section == b"ZZZZ"
        ));
    }

    #[test]
    fn v3_layout_is_aligned_and_indexable() {
        let data = three_sections();
        let index = ContainerIndex::parse(data.as_slice()).unwrap();
        for tag in index.tags() {
            let range = index.range(tag).unwrap();
            assert_eq!(range.start % 8, 0, "payload of {tag:?} is 8-aligned");
        }
        assert_eq!(
            data.len() % 8,
            0,
            "the file ends on the last payload's padding"
        );
    }

    #[test]
    fn v3_flips_and_truncations_are_detected() {
        let mut w = ContainerWriter::new();
        w.section(
            *b"AAAA",
            Bytes::from((0u16..500).flat_map(u16::to_le_bytes).collect::<Vec<_>>()),
        );
        w.section(*b"BBBB", Bytes::from(vec![7u8; 33]));
        let data = w.finish().to_vec();
        assert!(ContainerIndex::parse(&data).is_ok());
        for at in (4..data.len()).step_by(41) {
            let mut broken = data.clone();
            broken[at] ^= 0x20;
            assert!(
                ContainerIndex::parse(&broken).is_err(),
                "flip at byte {at} was not detected"
            );
        }
        for cut in [0, 3, 15, 16, 40, data.len() / 2, data.len() - 1] {
            assert!(
                ContainerIndex::parse(&data[..cut]).is_err(),
                "truncation at {cut} not detected"
            );
        }
        let mut trailing = data.clone();
        trailing.push(0);
        assert!(matches!(
            ContainerIndex::parse(&trailing),
            Err(IoError::Corrupt(_))
        ));
    }

    #[test]
    fn parse_sections_frames_everything_but_verifies_only_the_named_sections() {
        let data = three_sections().to_vec();
        let index = ContainerIndex::parse_sections(&data, &[*b"AAAA"]).unwrap();
        assert_eq!(index.tags(), vec![*b"AAAA"]);
        assert_eq!(&data[index.require(*b"AAAA").unwrap()], &[1, 2, 3]);
        // A flipped payload byte outside the named sections passes; in
        // one of them it fails the checksum.
        let ccc = ContainerIndex::parse(&data)
            .unwrap()
            .range(*b"CCCC")
            .unwrap();
        let mut broken = data.clone();
        broken[ccc.start] ^= 1;
        assert!(ContainerIndex::parse(&broken).is_err());
        assert!(ContainerIndex::parse_sections(&broken, &[*b"AAAA"]).is_ok());
        assert!(matches!(
            ContainerIndex::parse_sections(&broken, &[*b"CCCC"]),
            Err(IoError::BadChecksum { section }) if &section == b"CCCC"
        ));
        // Framing is checked over the whole directory regardless.
        for cut in [0, 15, 16, 40, data.len() - 1] {
            assert!(
                ContainerIndex::parse_sections(&data[..cut], &[*b"AAAA"]).is_err(),
                "truncation at {cut} not detected"
            );
        }
    }

    #[test]
    fn checksum_is_position_sensitive() {
        assert_ne!(checksum64(b"ab"), checksum64(b"ba"));
        assert_ne!(checksum64(b""), checksum64(b"\0"));
        assert_eq!(checksum64(b"vsj"), checksum64(b"vsj"));
    }

    #[test]
    fn content_hash_is_sensitive() {
        let a = sample();
        let b = DblpLike::with_size(120).generate(6); // different seed
        assert_eq!(content_hash(&a), content_hash(&a));
        assert_ne!(content_hash(&a), content_hash(&b));
    }

    #[test]
    fn empty_collection_roundtrip() {
        let empty = VectorCollection::new();
        let decoded = decode(encode(&empty)).unwrap();
        assert!(decoded.is_empty());
    }
}
