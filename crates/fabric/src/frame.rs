//! The TCP wire format: a hand-rolled little-endian frame codec.
//!
//! Every frame is `HEADER_LEN` bytes of header followed by `len` body
//! bytes. The header carries a magic tag (so a stray connection is
//! rejected immediately), a frame kind, the runtime's wire id (the MPI-tag
//! analogue of Section IV-B), a per-connection sequence number (FIFO
//! integrity check), a cumulative acknowledgement (every sequence number
//! below it has been delivered — the replay-log pruning signal for
//! transient-fault recovery), and the body length. There is no serde and
//! no self-describing envelope: the body is raw bytes whose meaning the
//! runtime's packet registry decides from the wire id's payload tag.
//!
//! Sequence numbers are consumed only by *reliable* kinds (data and
//! barrier frames — the ones a sender must be able to replay after a
//! reconnect). Control kinds (heartbeat, ack, abort) carry whatever `seq`
//! the sender stamps but do not advance the receiver's expected sequence.

/// 32-bit FNV-1a: the body checksum of the runtime's packet codec and
/// checkpoint files, the server's WAL/snapshot records and v1 service
/// frames; each hashes its bytes with this and mixes its own
/// tag/verb/handle on top, so it lives at the bottom of the crate graph.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
    }
    h
}

/// CRC32C (Castagnoli), the body checksum of v2 service frames: it catches
/// every single-bit error and every burst up to 32 bits, like FNV-1a there,
/// at memory speed — SSE4.2 `crc32` 8 bytes a step where the CPU has it.
pub fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sse4.2") {
        // SAFETY: SSE4.2 is present, the one feature the callee enables.
        return unsafe { crc32c_sse42(bytes) };
    }
    crc32c_portable(bytes)
}

/// The reflected CRC32C table: entry `i` is byte `i` after 8 shift steps.
const CRC32C_TABLE: [u32; 256] = {
    let (mut table, mut i) = ([0u32; 256], 0);
    while i < 256 {
        let (mut c, mut k) = (i as u32, 0);
        while k < 8 {
            c = (c >> 1) ^ (0x82f6_3b78 & (c & 1).wrapping_neg());
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

fn crc32c_portable(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |c, &b| {
        CRC32C_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8)
    })
}

/// Bytes per lane of the three-lane CRC32C. A `crc32` step's latency is
/// three times its issue interval, so every whole `3 * CRC_LANE` block runs
/// three independent chains, one per third, joined by [`crc32c_shift`].
const CRC_LANE: usize = 2048;

/// `CRC_SHIFT[k][b]` is the CRC register `b << 8k` after `CRC_LANE` zero
/// bytes. The zero-byte step is linear over GF(2), so four lookups shift
/// any register.
const CRC_SHIFT: [[u32; 256]; 4] = {
    let mut img = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let (mut c, mut n) = (1u32 << bit, 0);
        while n < CRC_LANE {
            c = CRC32C_TABLE[(c & 0xff) as usize] ^ (c >> 8);
            n += 1;
        }
        img[bit] = c;
        bit += 1;
    }
    let mut table = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 4 * 256 {
        let (k, b) = (i / 256, i % 256);
        let mut bit = 0;
        while bit < 8 {
            if (b >> bit) & 1 == 1 {
                table[k][b] ^= img[8 * k + bit];
            }
            bit += 1;
        }
        i += 1;
    }
    table
};

/// The CRC register `c` after `CRC_LANE` zero bytes.
fn crc32c_shift(c: u32) -> u32 {
    let t = &CRC_SHIFT;
    t[0][(c & 0xff) as usize]
        ^ t[1][((c >> 8) & 0xff) as usize]
        ^ t[2][((c >> 16) & 0xff) as usize]
        ^ t[3][(c >> 24) as usize]
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
    let mut c = u64::from(!0u32);
    let mut blocks = bytes.chunks_exact(3 * CRC_LANE);
    for block in &mut blocks {
        let (l0, rest) = block.split_at(CRC_LANE);
        let (l1, l2) = rest.split_at(CRC_LANE);
        let (mut c1, mut c2) = (0u64, 0u64);
        for ((w0, w1), w2) in l0
            .chunks_exact(8)
            .zip(l1.chunks_exact(8))
            .zip(l2.chunks_exact(8))
        {
            c = _mm_crc32_u64(c, word(w0));
            c1 = _mm_crc32_u64(c1, word(w1));
            c2 = _mm_crc32_u64(c2, word(w2));
        }
        c = u64::from(crc32c_shift(crc32c_shift(c as u32) ^ c1 as u32) ^ c2 as u32);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        c = _mm_crc32_u64(c, word(w));
    }
    let tail = words.remainder();
    !tail.iter().fold(c as u32, |c, &b| _mm_crc32_u8(c, b))
}

/// Append `v` little-endian. With [`put_u64`], [`put_str`] and [`Cursor`]
/// this is the one byte-level writer/reader pair under the packet codec,
/// checkpoint files, the server's WAL/snapshot and its service frames.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `s` as `[len u32][UTF-8 bytes]`.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// The bytes ended before the layout said they would. Each format converts
/// this into its own truncation error.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Truncated;

/// Bounds-checked little-endian reader over a byte slice: every read
/// either succeeds or returns [`Truncated`] — arbitrary input never panics.
pub struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor(buf)
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if self.0.len() < n {
            return Err(Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) returns N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, Truncated> {
        self.array().map(i32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// The unread tail.
    pub fn rest(&self) -> &'a [u8] {
        self.0
    }
}

/// Magic prefix of every frame.
pub const MAGIC: [u8; 4] = *b"PSLF";

/// Encoded header size: magic (4) + kind (1) + wire id (4) + seq (8) +
/// ack (8) + len (8).
pub const HEADER_LEN: usize = 33;

/// Largest accepted body; anything bigger is a malformed or hostile frame.
pub const MAX_BODY: usize = 1 << 30;

/// Frame kind byte values.
const KIND_DATA: u8 = 0;
const KIND_BARRIER: u8 = 1;
const KIND_HEARTBEAT: u8 = 2;
const KIND_ABORT: u8 = 3;
const KIND_ACK: u8 = 4;
/// Two bits away from `KIND_DATA`: no single flipped bit turns one data
/// kind into the other, so none can switch which checksum verifies a body.
pub(crate) const KIND_DATA_CRC32C: u8 = 5;

/// What a frame carries.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A runtime packet for the channel identified by `wire_id`.
    Data {
        /// Destination wire id (the MPI-tag analogue).
        wire_id: u32,
    },
    /// A data frame checked with [`crc32c`]: a v2 service frame, never fabric traffic.
    DataCrc32c {
        /// The service verb.
        wire_id: u32,
    },
    /// Barrier-entry announcement; the 8-byte body is the barrier epoch.
    Barrier,
    /// Liveness probe (empty body); any traffic proves liveness, this one
    /// exists so an idle but healthy peer still refreshes its deadline.
    Heartbeat,
    /// The peer is going down on purpose (empty body); treat every
    /// operation that still needs it as failed, but do not diagnose a
    /// protocol violation.
    Abort,
    /// Standalone cumulative acknowledgement (empty body): carries only
    /// the header's `ack` field, sent when a receiver has progress to
    /// report but no outbound frame to piggyback it on.
    Ack,
}

impl FrameKind {
    /// Whether this kind consumes a sequence number (and must therefore be
    /// kept in the sender's replay log until acknowledged).
    pub fn is_reliable(&self) -> bool {
        matches!(self, FrameKind::Data { .. } | FrameKind::Barrier)
    }
}

/// Decoded frame header.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the body is.
    pub kind: FrameKind,
    /// Per-connection monotone sequence number, starting at 0. Advanced
    /// only by reliable kinds ([`FrameKind::is_reliable`]).
    pub seq: u64,
    /// Cumulative acknowledgement: every reliable frame the sender has
    /// received with `seq < ack` was delivered.
    pub ack: u64,
    /// Body length in bytes.
    pub len: u64,
}

/// Why a header was rejected.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// First four bytes were not [`MAGIC`] (padded with zeros when fewer
    /// than four bytes were available and those already mismatched).
    BadMagic([u8; 4]),
    /// Unknown kind byte.
    BadKind(u8),
    /// Body length exceeds [`MAX_BODY`].
    Oversized(u64),
    /// A barrier frame whose body is not exactly 8 bytes.
    BadBarrierLen(u64),
    /// A control frame (heartbeat/abort) whose body is not empty.
    BadControlLen {
        /// Offending kind byte.
        kind: u8,
        /// Body length carried by the header.
        len: u64,
    },
    /// Fewer than [`HEADER_LEN`] bytes available, but what is there is a
    /// plausible header prefix — read more and retry.
    Truncated {
        /// Bytes available so far.
        have: usize,
    },
    /// Sequence number broke the per-connection FIFO contract.
    OutOfOrder {
        /// Sequence number the connection expected next.
        expected: u64,
        /// Sequence number actually received.
        got: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversized(n) => write!(f, "frame body of {n} bytes exceeds cap"),
            FrameError::BadBarrierLen(n) => write!(f, "barrier frame with {n}-byte body"),
            FrameError::BadControlLen { kind, len } => {
                write!(f, "control frame kind {kind} with {len}-byte body")
            }
            FrameError::Truncated { have } => {
                write!(f, "header truncated at {have} of {HEADER_LEN} bytes")
            }
            FrameError::OutOfOrder { expected, got } => {
                write!(f, "frame seq {got} arrived, expected {expected}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encode a header into its fixed-size wire form.
pub fn encode_header(h: &FrameHeader) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[0..4].copy_from_slice(&MAGIC);
    let (kind, wire_id) = match h.kind {
        FrameKind::Data { wire_id } => (KIND_DATA, wire_id),
        FrameKind::DataCrc32c { wire_id } => (KIND_DATA_CRC32C, wire_id),
        FrameKind::Barrier => (KIND_BARRIER, 0),
        FrameKind::Heartbeat => (KIND_HEARTBEAT, 0),
        FrameKind::Abort => (KIND_ABORT, 0),
        FrameKind::Ack => (KIND_ACK, 0),
    };
    out[4] = kind;
    out[5..9].copy_from_slice(&wire_id.to_le_bytes());
    out[9..17].copy_from_slice(&h.seq.to_le_bytes());
    out[17..25].copy_from_slice(&h.ack.to_le_bytes());
    out[25..33].copy_from_slice(&h.len.to_le_bytes());
    out
}

/// Decode and validate a header from however many bytes are available.
///
/// Accepts any slice: a wrong magic prefix is rejected immediately (even
/// on a partial read), while a plausible-but-short prefix returns
/// [`FrameError::Truncated`] so the caller reads more. Never panics on
/// arbitrary input.
pub fn decode_header(buf: &[u8]) -> Result<FrameHeader, FrameError> {
    let have = buf.len().min(4);
    if buf[..have] != MAGIC[..have] {
        let mut magic = [0u8; 4];
        magic[..have].copy_from_slice(&buf[..have]);
        return Err(FrameError::BadMagic(magic));
    }
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated { have: buf.len() });
    }
    let wire_id = u32::from_le_bytes(buf[5..9].try_into().unwrap());
    let seq = u64::from_le_bytes(buf[9..17].try_into().unwrap());
    let ack = u64::from_le_bytes(buf[17..25].try_into().unwrap());
    let len = u64::from_le_bytes(buf[25..33].try_into().unwrap());
    if len > MAX_BODY as u64 {
        return Err(FrameError::Oversized(len));
    }
    let kind = match buf[4] {
        KIND_DATA => FrameKind::Data { wire_id },
        KIND_DATA_CRC32C => FrameKind::DataCrc32c { wire_id },
        KIND_BARRIER => {
            if len != 8 {
                return Err(FrameError::BadBarrierLen(len));
            }
            FrameKind::Barrier
        }
        k @ (KIND_HEARTBEAT | KIND_ABORT | KIND_ACK) => {
            if len != 0 {
                return Err(FrameError::BadControlLen { kind: k, len });
            }
            match k {
                KIND_HEARTBEAT => FrameKind::Heartbeat,
                KIND_ABORT => FrameKind::Abort,
                _ => FrameKind::Ack,
            }
        }
        k => return Err(FrameError::BadKind(k)),
    };
    Ok(FrameHeader {
        kind,
        seq,
        ack,
        len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_reads_back_what_the_writers_put_and_never_overruns() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "hier:4");
        buf.extend_from_slice(&(-7i32).to_le_bytes());
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(c.u64(), Ok(u64::MAX - 1));
        let len = c.u32().unwrap() as usize;
        assert_eq!(c.bytes(len), Ok(&b"hier:4"[..]));
        assert_eq!(c.i32(), Ok(-7));
        assert!(c.rest().is_empty());
        assert_eq!(c.u8(), Err(Truncated));
        // A failed read consumes nothing.
        let mut short = Cursor::new(&buf[..3]);
        assert_eq!(short.u32(), Err(Truncated));
        assert_eq!(short.rest().len(), 3);
        assert_eq!(short.bytes(usize::MAX), Err(Truncated));
    }

    #[test]
    fn crc32c_paths_agree_on_every_length_and_alignment() {
        assert_eq!(crc32c_portable(b"123456789"), 0xe306_9283);
        let l = CRC_LANE;
        let buf: Vec<u8> = (0..(6 * l + 16) as u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8)
            .collect();
        // Every length up to 1024, then 5 either side of each lane boundary
        // (single lane below 3 * CRC_LANE), of the three-lane threshold, and
        // of the second block's lanes.
        let edges = [l, 2 * l, 3 * l, 4 * l, 5 * l, 6 * l];
        let lens = (0..=1024).chain(edges.into_iter().flat_map(|e| e - 5..=e + 5));
        for len in lens {
            for off in 0..8 {
                let s = &buf[off..off + len];
                #[cfg(target_arch = "x86_64")]
                if std::is_x86_feature_detected!("sse4.2") {
                    // SAFETY: SSE4.2 was just detected.
                    let fast = unsafe { crc32c_sse42(s) };
                    assert_eq!(fast, crc32c_portable(s), "offset {off}, length {len}");
                }
                assert_eq!(crc32c(s), crc32c_portable(s));
            }
        }
    }

    #[test]
    fn roundtrip_data_header() {
        let h = FrameHeader {
            kind: FrameKind::Data { wire_id: 0xDEAD },
            seq: 42,
            ack: 41,
            len: 1 << 21,
        };
        assert_eq!(decode_header(&encode_header(&h)), Ok(h));
    }

    #[test]
    fn roundtrip_barrier_header() {
        let h = FrameHeader {
            kind: FrameKind::Barrier,
            seq: 7,
            ack: 0,
            len: 8,
        };
        assert_eq!(decode_header(&encode_header(&h)), Ok(h));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut b = encode_header(&FrameHeader {
            kind: FrameKind::Barrier,
            seq: 0,
            ack: 0,
            len: 8,
        });
        b[0] = b'X';
        assert!(matches!(decode_header(&b), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn rejects_bad_kind_oversize_and_barrier_len() {
        let mut b = encode_header(&FrameHeader {
            kind: FrameKind::Data { wire_id: 1 },
            seq: 0,
            ack: 0,
            len: 4,
        });
        b[4] = 9;
        assert_eq!(decode_header(&b), Err(FrameError::BadKind(9)));

        let mut b = encode_header(&FrameHeader {
            kind: FrameKind::Data { wire_id: 1 },
            seq: 0,
            ack: 0,
            len: 0,
        });
        b[25..33].copy_from_slice(&(MAX_BODY as u64 + 1).to_le_bytes());
        assert!(matches!(decode_header(&b), Err(FrameError::Oversized(_))));

        let mut b = encode_header(&FrameHeader {
            kind: FrameKind::Barrier,
            seq: 0,
            ack: 0,
            len: 8,
        });
        b[25..33].copy_from_slice(&9u64.to_le_bytes());
        assert_eq!(decode_header(&b), Err(FrameError::BadBarrierLen(9)));
    }

    #[test]
    fn roundtrip_control_headers() {
        for kind in [FrameKind::Heartbeat, FrameKind::Abort, FrameKind::Ack] {
            let h = FrameHeader {
                kind,
                seq: 3,
                ack: 17,
                len: 0,
            };
            assert_eq!(decode_header(&encode_header(&h)), Ok(h));
            assert!(!kind.is_reliable());
        }
        assert!(FrameKind::Data { wire_id: 0 }.is_reliable());
        assert!(FrameKind::Barrier.is_reliable());
        let mut b = encode_header(&FrameHeader {
            kind: FrameKind::Heartbeat,
            seq: 0,
            ack: 0,
            len: 0,
        });
        b[25..33].copy_from_slice(&1u64.to_le_bytes());
        assert_eq!(
            decode_header(&b),
            Err(FrameError::BadControlLen { kind: 2, len: 1 })
        );
    }

    #[test]
    fn short_prefixes_are_truncated_not_panics() {
        let b = encode_header(&FrameHeader {
            kind: FrameKind::Data { wire_id: 9 },
            seq: 0,
            ack: 0,
            len: 16,
        });
        for cut in 0..HEADER_LEN {
            assert_eq!(
                decode_header(&b[..cut]),
                Err(FrameError::Truncated { have: cut })
            );
        }
        // A wrong byte inside the magic is rejected even before the full
        // header arrives.
        assert!(matches!(
            decode_header(b"PSX"),
            Err(FrameError::BadMagic(_))
        ));
    }
}
