//! Data packets flowing through channels, and their wire encoding.
//!
//! A packet is an `Arc`-backed payload plus an explicit byte size. Cloning a
//! packet clones the `Arc` only — this is the zero-copy aliasing the paper's
//! intra-node channels rely on, and it is what makes the *bypass* pattern
//! (forward a packet downstream before using it locally) free.
//!
//! In-process transports move packets by pointer, so any `Any` payload
//! works. A socket transport needs bytes: payload types that implement
//! [`PacketCodec`] (and are wrapped with [`Packet::wire`]) carry an encode
//! hook, and a [`PacketRegistry`] on the receiving side turns tagged bodies
//! back into packets. The wire form is a hand-rolled little-endian layout —
//! `[tag: u32 LE][crc: u32 LE][codec body]` — with no serde and no
//! self-description beyond the tag. The crc (FNV-1a over the body, mixed
//! with the tag) means a corrupted payload is rejected as
//! [`WireError::Checksum`] instead of silently decoding to wrong data.

use pulsar_fabric::frame::{put_u64, Cursor, Truncated};
use pulsar_linalg::Matrix;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Why encoding or decoding a packet failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload was built with [`Packet::new`] and carries no codec.
    NotEncodable,
    /// No decoder registered for this tag.
    UnknownTag(u32),
    /// The body ended before the layout said it would.
    Truncated,
    /// The body disagrees with its own framing (e.g. a dimension header
    /// that does not match the byte count).
    Malformed(&'static str),
    /// The body's checksum does not match: the payload was corrupted in
    /// flight (or the ranks disagree on the wire format).
    Checksum {
        /// Checksum the header carried.
        expected: u32,
        /// Checksum computed over the received body.
        got: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::NotEncodable => write!(f, "packet payload has no wire codec"),
            WireError::UnknownTag(t) => write!(f, "no decoder registered for tag {t}"),
            WireError::Truncated => write!(f, "wire body truncated"),
            WireError::Malformed(why) => write!(f, "malformed wire body: {why}"),
            WireError::Checksum { expected, got } => {
                write!(f, "body checksum mismatch: header says {expected:#010x}, body hashes to {got:#010x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<Truncated> for WireError {
    fn from(_: Truncated) -> Self {
        WireError::Truncated
    }
}

/// A payload type that can cross a byte-oriented fabric.
///
/// `TAG` identifies the type on the wire (unique per registry); the body
/// layout is whatever `encode_body`/`decode_body` agree on, little-endian
/// by convention. Tags 1–15 are reserved for the runtime's standard types;
/// applications should use 16 and up.
pub trait PacketCodec: Sized {
    /// Wire type tag, unique within a registry.
    const TAG: u32;

    /// Logical payload size in bytes (what [`Packet::bytes`] reports and
    /// the [`crate::NetModel`] charges for; framing overhead excluded).
    fn wire_bytes(&self) -> usize;

    /// Append the body encoding to `out`.
    fn encode_body(&self, out: &mut Vec<u8>);

    /// Parse a body produced by `encode_body`.
    fn decode_body(body: &[u8]) -> Result<Self, WireError>;
}

/// The encode hook a wire-capable packet carries.
#[derive(Copy, Clone)]
struct WireInfo {
    tag: u32,
    encode: fn(&(dyn Any + Send + Sync), &mut Vec<u8>),
}

fn encode_erased<T: PacketCodec + Any + Send + Sync>(
    payload: &(dyn Any + Send + Sync),
    out: &mut Vec<u8>,
) {
    payload
        .downcast_ref::<T>()
        .expect("wire info type mismatch")
        .encode_body(out);
}

/// A type-erased, cheaply clonable data packet.
#[derive(Clone)]
pub struct Packet {
    payload: Arc<dyn Any + Send + Sync>,
    bytes: usize,
    wire: Option<WireInfo>,
}

impl Packet {
    /// Wrap an arbitrary payload, declaring its wire size in bytes (used by
    /// the fabric's latency/bandwidth model and by channel size checks).
    /// The packet cannot cross a socket fabric; use [`Packet::wire`] for
    /// payloads that must.
    pub fn new<T: Any + Send + Sync>(value: T, bytes: usize) -> Self {
        Packet {
            payload: Arc::new(value),
            bytes,
            wire: None,
        }
    }

    /// Wrap a wire-encodable payload. The byte size comes from the codec,
    /// and the packet can cross both in-process and socket fabrics.
    pub fn wire<T: PacketCodec + Any + Send + Sync>(value: T) -> Self {
        let bytes = value.wire_bytes();
        Packet {
            payload: Arc::new(value),
            bytes,
            wire: Some(WireInfo {
                tag: T::TAG,
                encode: encode_erased::<T>,
            }),
        }
    }

    /// Wrap a matrix tile; the wire size is its `8 * m * n` payload.
    pub fn tile(t: Matrix) -> Self {
        Self::wire(t)
    }

    /// Declared wire size in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Whether this packet can cross a byte-oriented fabric.
    pub fn is_wire_encodable(&self) -> bool {
        self.wire.is_some()
    }

    /// Encode as `[tag: u32 LE][crc: u32 LE][codec body]` for a socket
    /// fabric.
    pub fn encode_wire(&self) -> Result<Vec<u8>, WireError> {
        let info = self.wire.ok_or(WireError::NotEncodable)?;
        let mut out = Vec::with_capacity(8 + self.bytes);
        out.extend_from_slice(&info.tag.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]); // crc placeholder
        (info.encode)(&*self.payload, &mut out);
        let crc = body_checksum(info.tag, &out[8..]);
        out[4..8].copy_from_slice(&crc.to_le_bytes());
        Ok(out)
    }

    /// Borrow the payload as `T`, if it has that type.
    pub fn get<T: Any + Send + Sync>(&self) -> Option<&T> {
        self.payload.downcast_ref()
    }

    /// Take the payload out as an owned `T`.
    ///
    /// When this packet is the only holder the payload moves out without a
    /// copy; when the payload is still aliased (e.g. a bypassed packet also
    /// queued downstream) it is cloned. Panics on a type mismatch — channel
    /// wiring bugs should fail loudly.
    pub fn take<T: Any + Send + Sync + Clone>(self) -> T {
        let arc = self
            .payload
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("packet payload type mismatch"));
        Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Borrow the payload as a matrix tile.
    pub fn as_tile(&self) -> Option<&Matrix> {
        self.get::<Matrix>()
    }

    /// Take the payload out as a matrix tile.
    pub fn into_tile(self) -> Matrix {
        self.take::<Matrix>()
    }
}

impl std::fmt::Debug for Packet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Packet({} bytes)", self.bytes)
    }
}

/// Tag-to-decoder table for a socket fabric's receiving side.
///
/// Every rank of a distributed run must register the same types (the wire
/// carries only the tag). [`PacketRegistry::standard`] covers the runtime's
/// built-in codecs; applications add their own with
/// [`PacketRegistry::register`].
#[derive(Default)]
pub struct PacketRegistry {
    decoders: HashMap<u32, DecodeFn>,
}

type DecodeFn = fn(&[u8]) -> Result<Packet, WireError>;

fn decode_erased<T: PacketCodec + Any + Send + Sync>(body: &[u8]) -> Result<Packet, WireError> {
    Ok(Packet::wire(T::decode_body(body)?))
}

impl PacketRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry with the runtime's standard codecs: [`Matrix`], `i64`,
    /// `f64`, and `Vec<u8>`.
    pub fn standard() -> Self {
        let mut r = Self::new();
        r.register::<Matrix>();
        r.register::<i64>();
        r.register::<f64>();
        r.register::<Vec<u8>>();
        r
    }

    /// Register `T`'s decoder; panics if its tag is already taken by
    /// another type.
    pub fn register<T: PacketCodec + Any + Send + Sync>(&mut self) {
        let prev = self.decoders.insert(T::TAG, decode_erased::<T>);
        assert!(prev.is_none(), "duplicate packet codec tag {}", T::TAG);
    }

    /// Decode a full wire body (`[tag: u32 LE][crc: u32 LE][codec body]`)
    /// back into a packet, verifying the checksum first.
    pub fn decode(&self, buf: &[u8]) -> Result<Packet, WireError> {
        if buf.len() < 8 {
            return Err(WireError::Truncated);
        }
        let tag = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        let expected = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let got = body_checksum(tag, &buf[8..]);
        if got != expected {
            return Err(WireError::Checksum { expected, got });
        }
        let decode = self.decoders.get(&tag).ok_or(WireError::UnknownTag(tag))?;
        decode(&buf[8..])
    }
}

/// FNV-1a over the body, mixed with the tag so the same bytes under a
/// different tag do not collide.
fn body_checksum(tag: u32, body: &[u8]) -> u32 {
    pulsar_fabric::fnv1a(body) ^ tag.wrapping_mul(0x9e37_79b9)
}

// ---- standard codecs (tags 1-15 reserved for the runtime) ----

impl PacketCodec for Matrix {
    const TAG: u32 = 1;

    fn wire_bytes(&self) -> usize {
        8 * self.nrows() * self.ncols()
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        encode_matrix_body(self, out);
    }

    fn decode_body(body: &[u8]) -> Result<Self, WireError> {
        let (m, rest) = decode_matrix_body(body)?;
        if !rest.is_empty() {
            return Err(WireError::Malformed("trailing bytes after matrix"));
        }
        Ok(m)
    }
}

/// Append a matrix as `[nrows u64][ncols u64][col-major f64 data]`, all
/// little-endian. Public so application codecs (e.g. reflector payloads)
/// can nest matrices in their own bodies.
pub fn encode_matrix_body(m: &Matrix, out: &mut Vec<u8>) {
    put_u64(out, m.nrows() as u64);
    put_u64(out, m.ncols() as u64);
    for &x in m.data() {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Parse a matrix written by [`encode_matrix_body`] off the front of
/// `body`, returning it with the unconsumed tail.
pub fn decode_matrix_body(body: &[u8]) -> Result<(Matrix, &[u8]), WireError> {
    let mut c = Cursor::new(body);
    Ok((read_matrix(&mut c)?, c.rest()))
}

/// [`decode_matrix_body`] for callers already walking a [`Cursor`].
pub fn read_matrix(c: &mut Cursor<'_>) -> Result<Matrix, WireError> {
    let nrows = c.u64()? as usize;
    let ncols = c.u64()? as usize;
    let need = nrows
        .checked_mul(ncols)
        .and_then(|n| n.checked_mul(8))
        .ok_or(WireError::Malformed("matrix dimensions overflow"))?;
    let data = c
        .bytes(need)?
        .chunks_exact(8)
        .map(|x| f64::from_le_bytes(x.try_into().unwrap()))
        .collect();
    Ok(Matrix::from_col_major(nrows, ncols, data))
}

macro_rules! le_scalar_codec {
    ($t:ty, $tag:expr, $n:expr) => {
        impl PacketCodec for $t {
            const TAG: u32 = $tag;

            fn wire_bytes(&self) -> usize {
                $n
            }

            fn encode_body(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode_body(body: &[u8]) -> Result<Self, WireError> {
                let arr: [u8; $n] = body.try_into().map_err(|_| WireError::Truncated)?;
                Ok(<$t>::from_le_bytes(arr))
            }
        }
    };
}

le_scalar_codec!(i64, 2, 8);
le_scalar_codec!(f64, 3, 8);

impl PacketCodec for Vec<u8> {
    const TAG: u32 = 4;

    fn wire_bytes(&self) -> usize {
        self.len()
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }

    fn decode_body(body: &[u8]) -> Result<Self, WireError> {
        Ok(body.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_roundtrip_and_size() {
        let t = Matrix::identity(3);
        let p = Packet::tile(t.clone());
        assert_eq!(p.bytes(), 8 * 9);
        assert_eq!(p.as_tile().unwrap(), &t);
        assert_eq!(p.into_tile(), t);
    }

    #[test]
    fn clone_is_aliasing() {
        let p = Packet::new(vec![1u8, 2, 3], 3);
        let q = p.clone();
        let a = p.get::<Vec<u8>>().unwrap().as_ptr();
        let b = q.get::<Vec<u8>>().unwrap().as_ptr();
        assert_eq!(a, b, "clone must alias, not copy");
    }

    #[test]
    fn take_moves_when_unique_clones_when_shared() {
        let p = Packet::new(String::from("x"), 1);
        let q = p.clone();
        let s1: String = p.take(); // shared -> clone
        assert_eq!(s1, "x");
        let s2: String = q.take(); // unique -> move
        assert_eq!(s2, "x");
    }

    #[test]
    fn wrong_type_get_is_none() {
        let p = Packet::new(1u32, 4);
        assert!(p.get::<String>().is_none());
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn wrong_type_take_panics() {
        let p = Packet::new(1u32, 4);
        let _: String = p.take();
    }

    #[test]
    fn wire_roundtrip_through_registry() {
        let reg = PacketRegistry::standard();
        let t = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        let buf = Packet::tile(t.clone()).encode_wire().unwrap();
        let back = reg.decode(&buf).unwrap();
        assert_eq!(back.as_tile().unwrap(), &t);
        assert_eq!(back.bytes(), 8 * 6);

        let buf = Packet::wire(-17i64).encode_wire().unwrap();
        assert_eq!(reg.decode(&buf).unwrap().take::<i64>(), -17);
        let buf = Packet::wire(2.5f64).encode_wire().unwrap();
        assert_eq!(reg.decode(&buf).unwrap().take::<f64>(), 2.5);
        let buf = Packet::wire(vec![9u8, 8, 7]).encode_wire().unwrap();
        assert_eq!(reg.decode(&buf).unwrap().take::<Vec<u8>>(), vec![9, 8, 7]);
    }

    #[test]
    fn plain_packet_is_not_encodable() {
        let p = Packet::new(String::from("opaque"), 6);
        assert!(!p.is_wire_encodable());
        assert_eq!(p.encode_wire(), Err(WireError::NotEncodable));
    }

    /// A `[tag][crc][body]` buffer with a correct checksum, for testing
    /// the layers behind the checksum gate.
    fn framed(tag: u32, body: &[u8]) -> Vec<u8> {
        let mut buf = tag.to_le_bytes().to_vec();
        buf.extend_from_slice(&body_checksum(tag, body).to_le_bytes());
        buf.extend_from_slice(body);
        buf
    }

    #[test]
    fn registry_rejects_unknown_and_truncated() {
        let reg = PacketRegistry::standard();
        assert_eq!(reg.decode(&[1, 2]).err(), Some(WireError::Truncated));
        assert_eq!(
            reg.decode(&framed(999, &[])).err(),
            Some(WireError::UnknownTag(999))
        );
        // A matrix body whose data is shorter than its dimension header.
        let mut body = 4u64.to_le_bytes().to_vec();
        body.extend_from_slice(&4u64.to_le_bytes());
        body.extend_from_slice(&[0u8; 24]);
        assert_eq!(
            reg.decode(&framed(1, &body)).err(),
            Some(WireError::Truncated)
        );
    }

    #[test]
    fn corrupted_bodies_fail_the_checksum() {
        let reg = PacketRegistry::standard();
        let mut buf = Packet::wire(-17i64).encode_wire().unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert!(matches!(reg.decode(&buf), Err(WireError::Checksum { .. })));
        // A flipped tag also invalidates the checksum (the tag is mixed in).
        let mut buf = Packet::wire(2.5f64).encode_wire().unwrap();
        buf[0] ^= 1;
        assert!(matches!(reg.decode(&buf), Err(WireError::Checksum { .. })));
    }
}
