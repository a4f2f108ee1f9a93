//! Offline stand-in for the `bytes` crate.
//!
//! Implements the subset the workspace's binary container format uses:
//! [`BytesMut`] as an append-only builder ([`BufMut`] little-endian
//! writers), frozen into [`Bytes`], a cursor-consuming reader ([`Buf`]
//! little-endian readers). No refcounted slicing — the containers here
//! are plain `Vec<u8>` under the hood, which is all the I/O layer needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Read side: a cursor over bytes.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// Consumes `dst.len()` bytes into `dst`.
    ///
    /// # Panics
    /// Panics when fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// True when at least one byte remains.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Consumes a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Consumes a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Consumes a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes({
            let mut b = [0u8; 4];
            self.copy_to_slice(&mut b);
            b
        })
    }

    /// Consumes a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        f64::from_le_bytes(b)
    }
}

/// Write side: an append-only byte sink.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

/// Immutable byte container with a consuming read cursor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies a slice into a new container.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Self {
            data: src.to_vec(),
            pos: 0,
        }
    }

    /// Unconsumed bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.pos..]
    }

    /// Unconsumed length.
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when fully consumed (or empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the unconsumed bytes into a `Vec`.
    #[allow(clippy::wrong_self_convention)]
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Self { data, pos: 0 }
    }
}

impl From<&[u8]> for Bytes {
    fn from(src: &[u8]) -> Self {
        Self::copy_from_slice(src)
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            dst.len() <= self.remaining(),
            "copy_to_slice of {} bytes with {} remaining",
            dst.len(),
            self.remaining()
        );
        dst.copy_from_slice(&self.data[self.pos..self.pos + dst.len()]);
        self.pos += dst.len();
    }
}

/// A slice reads by advancing itself past the consumed bytes.
impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            dst.len() <= self.remaining(),
            "copy_to_slice of {} bytes with {} remaining",
            dst.len(),
            self.remaining()
        );
        let (head, rest) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = rest;
    }
}

/// Growable byte builder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            data: Vec::with_capacity(cap),
        }
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freezes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.data,
            pos: 0,
        }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut b = BytesMut::with_capacity(64);
        b.put_slice(b"VSJC");
        b.put_u32_le(7);
        b.put_u64_le(u64::MAX - 3);
        b.put_f32_le(1.5);
        b.put_f64_le(-2.25);
        let mut r = b.freeze();
        assert_eq!(r.remaining(), 4 + 4 + 8 + 4 + 8);
        let mut magic = [0u8; 4];
        r.copy_to_slice(&mut magic);
        assert_eq!(&magic, b"VSJC");
        assert_eq!(r.get_u32_le(), 7);
        assert_eq!(r.get_u64_le(), u64::MAX - 3);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.get_f64_le(), -2.25);
        assert!(!r.has_remaining());
    }

    #[test]
    fn from_vec_and_to_vec() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        let mut b2 = b.clone();
        let mut one = [0u8; 1];
        b2.copy_to_slice(&mut one);
        assert_eq!(b2.to_vec(), vec![2, 3]);
        assert_eq!(&*b, &[1, 2, 3]);
    }

    #[test]
    fn slice_reads_advance_the_slice() {
        let data = [7u8, 0, 0, 0, 1, 2];
        let mut r: &[u8] = &data;
        assert_eq!(r.get_u32_le(), 7);
        assert_eq!(r.remaining(), 2);
        assert_eq!(r, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "copy_to_slice")]
    fn overread_panics() {
        let mut b = Bytes::from(vec![1u8]);
        let mut two = [0u8; 2];
        b.copy_to_slice(&mut two);
    }
}
