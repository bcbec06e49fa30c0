//! Wire protocol of the QR service.
//!
//! Framing reuses the fabric codec verbatim: every message is exactly one
//! length-prefixed data frame with the service *verb* as `wire_id` and the
//! caller-chosen request id as `seq` (echoed unchanged in the reply). The
//! body is `[crc u32 LE][payload]`, the checksum mixed with the verb and
//! the request id — a frame cannot be replayed as a different verb, and a
//! single flipped bit anywhere (header or body) is detected. The frame kind
//! names the checksum ([`Version`]); a server answers in the version asked.
//! Matrices ride inside payloads in the runtime's packet layout
//! ([`encode_matrix_body`]/[`read_matrix`]): `[nrows u64][ncols
//! u64][column-major f64]`, all little-endian.

use pulsar_fabric::frame::{
    crc32c, decode_header, encode_header, fnv1a, put_str, put_u32, put_u64, Cursor, FrameError,
    FrameHeader, FrameKind, Truncated, HEADER_LEN,
};
use pulsar_linalg::Matrix;
use pulsar_runtime::packet::{encode_matrix_body, read_matrix};

/// Largest accepted service body (checksum + payload): 64 MiB, far below
/// the fabric's 1 GiB frame ceiling — a submit bigger than this should go
/// through the offline `factor` path, not a live service queue.
pub const MAX_SERVICE_BODY: usize = 1 << 26;

/// Protocol verbs, carried as the `wire_id` of a data frame.
pub mod verb {
    /// Client → server: factor a matrix.
    pub const SUBMIT: u32 = 1;
    /// Server → client: job accepted.
    pub const SUBMIT_OK: u32 = 2;
    /// Server → client: queue full or draining (backpressure).
    pub const REJECT: u32 = 3;
    /// Client → server: query a job's state.
    pub const STATUS: u32 = 4;
    /// Server → client: job state + queue position.
    pub const STATE: u32 = 5;
    /// Client → server: block until the job finishes, then send its R.
    pub const RESULT: u32 = 6;
    /// Server → client: the R factor.
    pub const R_FACTOR: u32 = 7;
    /// Client → server: cancel a queued job.
    pub const CANCEL: u32 = 8;
    /// Server → client: cancel outcome.
    pub const CANCEL_OK: u32 = 9;
    /// Client → server: stop admitting, finish the queue, shut down.
    pub const DRAIN: u32 = 10;
    /// Server → client: drain complete, final stats attached.
    pub const DRAINED: u32 = 11;
    /// Server → client: typed failure.
    pub const ERROR: u32 = 12;
    /// Client → server: least-squares solve against a stored factorization.
    pub const SOLVE: u32 = 13;
    /// Server → client: the least-squares solution.
    pub const SOLUTION: u32 = 14;
    /// Client → server: apply Q or Q^T from a stored factorization.
    pub const APPLY_Q: u32 = 15;
    /// Server → client: the Q-applied operand.
    pub const Q_APPLIED: u32 = 16;
    /// Client → server: append rows to a stored factorization.
    pub const UPDATE: u32 = 17;
    /// Server → client: update absorbed, new row count attached.
    pub const UPDATED: u32 = 18;
    /// Client → server: drop a stored factorization.
    pub const RELEASE: u32 = 19;
    /// Server → client: release outcome.
    pub const RELEASED: u32 = 20;
    /// Worker → router: register as a member node with a capability report.
    pub const JOIN: u32 = 21;
    /// Router → worker: join accepted, node id assigned.
    pub const JOIN_OK: u32 = 22;
    /// Worker → router: stop placing jobs on this node.
    pub const LEAVE: u32 = 23;
    /// Router → worker: leave outcome.
    pub const LEAVE_OK: u32 = 24;
    /// Router → worker: liveness probe.
    pub const PING: u32 = 25;
    /// Worker → router: probe reply with current load.
    pub const PONG: u32 = 26;
}

/// Lifecycle of a job inside the service, as seen over the wire.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum JobState {
    /// Waiting in the admission queue.
    Queued,
    /// Handed to the VSA pool (possibly inside a batch).
    Running,
    /// Finished; R is available.
    Done,
    /// The runtime reported an error.
    Failed,
    /// Cancelled while still queued.
    Cancelled,
    /// Its deadline passed before a worker picked it up.
    Expired,
}

impl JobState {
    fn to_wire(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Failed => 3,
            JobState::Cancelled => 4,
            JobState::Expired => 5,
        }
    }

    fn from_wire(b: u8) -> Result<Self, ProtoError> {
        Ok(match b {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Done,
            3 => JobState::Failed,
            4 => JobState::Cancelled,
            5 => JobState::Expired,
            _ => return Err(ProtoError::Malformed("unknown job state")),
        })
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Expired => "expired",
        };
        f.write_str(s)
    }
}

/// Failure class carried by [`Msg::Error`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrCode {
    /// The factorization itself failed (runtime error).
    Failed,
    /// The job's deadline expired before it ran.
    DeadlineExpired,
    /// The job was cancelled.
    Cancelled,
    /// No such job id.
    UnknownJob,
    /// The request was malformed or invalid.
    Invalid,
    /// The factor handle is not resident (never kept, released, or
    /// evicted from the store).
    HandleExpired,
    /// The factorization exceeds the store's whole byte budget.
    StoreFull,
    /// The job's own VDP panicked mid-batch; the worker was quarantined
    /// and respawned. Co-batched jobs are unaffected (re-dispatched).
    Panicked,
    /// The member node owning this job or factor handle died and the work
    /// could not be recovered on a survivor (e.g. an unreplicated factor).
    NodeLost,
}

impl ErrCode {
    fn to_wire(self) -> u8 {
        match self {
            ErrCode::Failed => 0,
            ErrCode::DeadlineExpired => 1,
            ErrCode::Cancelled => 2,
            ErrCode::UnknownJob => 3,
            ErrCode::Invalid => 4,
            ErrCode::HandleExpired => 5,
            ErrCode::StoreFull => 6,
            ErrCode::Panicked => 7,
            ErrCode::NodeLost => 8,
        }
    }

    fn from_wire(b: u8) -> Result<Self, ProtoError> {
        Ok(match b {
            0 => ErrCode::Failed,
            1 => ErrCode::DeadlineExpired,
            2 => ErrCode::Cancelled,
            3 => ErrCode::UnknownJob,
            4 => ErrCode::Invalid,
            5 => ErrCode::HandleExpired,
            6 => ErrCode::StoreFull,
            7 => ErrCode::Panicked,
            8 => ErrCode::NodeLost,
            _ => return Err(ProtoError::Malformed("unknown error code")),
        })
    }
}

/// One service message; requests and replies share the enum.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Factor `a` with the given tile sizes and reduction tree spec
    /// (`flat | binary | greedy | hier:H | domains:a,b,...`).
    /// `deadline_ms == 0` means no deadline.
    Submit {
        /// Tile size.
        nb: u32,
        /// Inner block size.
        ib: u32,
        /// Milliseconds the job may wait in the queue (0 = forever).
        deadline_ms: u32,
        /// Keep the full factorization in the server's factor store; the
        /// job id doubles as the factor handle for solve/apply-q/update.
        /// Fire-and-forget submits (`false`) never enter the store.
        keep: bool,
        /// Client-generated idempotency key (0 = none). A retried submit
        /// carrying the same nonzero key after a dropped ACK is answered
        /// with the original job id instead of being admitted again.
        idem: u64,
        /// Reduction tree spec.
        tree: String,
        /// The matrix to factor.
        a: Matrix,
    },
    /// Submit accepted; `job` is the service-assigned id.
    SubmitOk {
        /// Assigned job id.
        job: u64,
    },
    /// Submit rejected: the admission queue is full or the service is
    /// draining. `retry_after_ms` is the server's estimate of when a slot
    /// frees up (0 when draining — don't retry).
    Reject {
        /// True when the service is shutting down.
        draining: bool,
        /// Suggested client back-off.
        retry_after_ms: u32,
        /// Current queue depth, for client-side telemetry.
        queued: u32,
    },
    /// Ask for a job's state.
    Status {
        /// Job id.
        job: u64,
    },
    /// Reply to [`Msg::Status`].
    State {
        /// Job id.
        job: u64,
        /// Current lifecycle state.
        state: JobState,
        /// Position in the queue (0 = next; 0 for jobs no longer queued).
        queue_pos: u32,
    },
    /// Long-poll for a job's R factor (blocks server-side until done).
    Result {
        /// Job id.
        job: u64,
    },
    /// Reply to [`Msg::Result`]: the upper-triangular R factor.
    RFactor {
        /// Job id.
        job: u64,
        /// The R factor.
        r: Matrix,
    },
    /// Cancel a queued job (running jobs are not interrupted).
    Cancel {
        /// Job id.
        job: u64,
    },
    /// Reply to [`Msg::Cancel`].
    CancelOk {
        /// Job id.
        job: u64,
        /// False when the job had already started, finished, or is unknown.
        cancelled: bool,
    },
    /// Stop admitting jobs, finish the queue, and shut the server down.
    Drain,
    /// Reply to [`Msg::Drain`]: final service statistics as one-line JSON.
    Drained {
        /// Stats JSON (p50/p90/p99 latency, jobs/s, utilization, ...).
        stats: String,
    },
    /// Typed failure reply.
    Error {
        /// Offending job id (0 when not job-specific).
        job: u64,
        /// Failure class.
        code: ErrCode,
        /// Human-readable detail.
        msg: String,
    },
    /// Solve `min ||A x - b||` against the stored factorization `handle`.
    Solve {
        /// Factor handle (the keeping submit's job id).
        handle: u64,
        /// Right-hand side(s), `m x k`.
        b: Matrix,
    },
    /// Reply to [`Msg::Solve`]: the `n x k` least-squares solution.
    Solution {
        /// Factor handle.
        handle: u64,
        /// The solution.
        x: Matrix,
    },
    /// Apply `Q` (or `Q^T` when `transpose`) from the stored factorization
    /// to an `m x k` operand.
    ApplyQ {
        /// Factor handle.
        handle: u64,
        /// Apply `Q^T` instead of `Q`.
        transpose: bool,
        /// The operand.
        b: Matrix,
    },
    /// Reply to [`Msg::ApplyQ`]: the transformed operand.
    QApplied {
        /// Factor handle.
        handle: u64,
        /// `Q * B` or `Q^T * B`.
        c: Matrix,
    },
    /// Append the rows of `e` to the stored factorization (streaming
    /// update; no re-factorization).
    Update {
        /// Factor handle.
        handle: u64,
        /// Rows to absorb, `p x n` with `p` a multiple of the job's nb.
        e: Matrix,
    },
    /// Reply to [`Msg::Update`]: rows absorbed.
    Updated {
        /// Factor handle.
        handle: u64,
        /// Total rows of the updated factorization.
        rows: u64,
    },
    /// Drop a stored factorization, freeing its cache bytes.
    Release {
        /// Factor handle.
        handle: u64,
    },
    /// Reply to [`Msg::Release`].
    Released {
        /// Factor handle.
        handle: u64,
        /// False when the handle was already gone.
        released: bool,
    },
    /// Register a worker node with the router, capability report attached.
    Join {
        /// Address the router should dial the worker back on.
        addr: String,
        /// Worker pool width (scheduler threads).
        threads: u32,
        /// Factor store byte budget.
        store_bytes: u64,
        /// GEMM kernel tier the node detected (`scalar`/`avx2`/`avx512`).
        gemm_tier: String,
    },
    /// Reply to [`Msg::Join`]: the node is a member.
    JoinOk {
        /// Router-assigned node id (also the top 16 bits of routed
        /// handles owned by this node).
        node_id: u32,
    },
    /// Stop placing new jobs on a node; in-flight work completes and
    /// resident factors keep routing until the node actually goes away.
    Leave {
        /// Node id from [`Msg::JoinOk`].
        node_id: u32,
    },
    /// Reply to [`Msg::Leave`].
    LeaveOk {
        /// Node id.
        node_id: u32,
        /// False when the node was not a member.
        left: bool,
    },
    /// Liveness probe from the router's health prober.
    Ping {
        /// Echo nonce.
        nonce: u64,
    },
    /// Reply to [`Msg::Ping`] with a load snapshot for placement.
    Pong {
        /// Echoed nonce.
        nonce: u64,
        /// Jobs waiting in the admission queue.
        queued: u32,
        /// Jobs currently running in the pool.
        running: u32,
    },
}

/// Typed decode failures. Framing-level problems are wrapped
/// [`FrameError`]s; everything else is service-layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The frame header itself was invalid.
    Frame(FrameError),
    /// The header is not a data frame (service verbs ride on data frames).
    NotData,
    /// The header carries a nonzero ack (unused by the service protocol).
    NonzeroAck(u64),
    /// The body exceeds [`MAX_SERVICE_BODY`].
    Oversized(u64),
    /// The buffer ends before the frame does.
    Truncated,
    /// Bytes remain past the end of the frame.
    Trailing(usize),
    /// The body checksum does not match.
    Checksum {
        /// Checksum recomputed from the payload.
        expected: u32,
        /// Checksum found on the wire.
        got: u32,
    },
    /// The verb is not one this protocol defines.
    UnknownVerb(u32),
    /// The payload does not parse under its verb.
    Malformed(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Frame(e) => write!(f, "bad frame: {e}"),
            ProtoError::NotData => write!(f, "service messages must be data frames"),
            ProtoError::NonzeroAck(a) => write!(f, "unexpected ack {a} on a service frame"),
            ProtoError::Oversized(n) => {
                write!(f, "service body of {n} bytes exceeds {MAX_SERVICE_BODY}")
            }
            ProtoError::Truncated => write!(f, "truncated service frame"),
            ProtoError::Trailing(n) => write!(f, "{n} trailing bytes after the service frame"),
            ProtoError::Checksum { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:#010x}, got {got:#010x}"
                )
            }
            ProtoError::UnknownVerb(v) => write!(f, "unknown service verb {v}"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Which body checksum a service frame carries. The frame kind says which,
/// so a decoder never tries both.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Version {
    /// FNV-1a in a [`FrameKind::Data`] frame: what older peers send.
    V1,
    /// CRC32C in a [`FrameKind::DataCrc32c`] frame: what this crate sends.
    V2,
}

impl Version {
    /// The body checksum over the payload, mixed with the verb and request
    /// id so a frame cannot be replayed as a different verb or request
    /// (the runtime packet codec's mixing constant).
    fn crc(self, verb: u32, seq: u64, payload: &[u8]) -> u32 {
        let hash = match self {
            Version::V1 => fnv1a(payload),
            Version::V2 => crc32c(payload),
        };
        hash ^ verb.wrapping_mul(0x9e37_79b9) ^ (seq as u32) ^ ((seq >> 32) as u32)
    }
}

/// Encode one message as a complete `version` frame in one buffer sized
/// exactly, refusing a body over [`MAX_SERVICE_BODY`] before encoding it.
/// [`write_msg`] and the server's replies both encode through here.
pub(crate) fn encode_frame(msg: &Msg, seq: u64, version: Version) -> Result<Vec<u8>, ProtoError> {
    let body_len = 4 + msg.payload_len();
    if body_len > MAX_SERVICE_BODY {
        return Err(ProtoError::Oversized(body_len as u64));
    }
    let verb = msg.verb();
    let kind = match version {
        Version::V1 => FrameKind::Data { wire_id: verb },
        Version::V2 => FrameKind::DataCrc32c { wire_id: verb },
    };
    let header = FrameHeader {
        kind,
        seq,
        ack: 0,
        len: body_len as u64,
    };
    let mut out = Vec::with_capacity(HEADER_LEN + body_len);
    out.extend_from_slice(&encode_header(&header));
    out.extend_from_slice(&[0; 4]); // the crc, patched below
    msg.put_payload(&mut out);
    debug_assert_eq!(out.len(), HEADER_LEN + body_len);
    let crc = version.crc(verb, seq, &out[HEADER_LEN + 4..]);
    out[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Encode one message as a complete v2 wire frame. Panics on a body over
/// [`MAX_SERVICE_BODY`]; [`write_msg`] returns that as a typed error.
pub fn encode_msg(msg: &Msg, seq: u64) -> Vec<u8> {
    encode_frame(msg, seq, Version::V2).unwrap_or_else(|e| panic!("{e}"))
}

impl From<Truncated> for ProtoError {
    fn from(_: Truncated) -> Self {
        ProtoError::Truncated
    }
}

/// A payload field type: its size, how it is appended and read back.
trait Field: Sized {
    /// Bytes [`Field::put`] appends (the type's size unless overridden).
    fn wire_len(&self) -> usize {
        std::mem::size_of::<Self>()
    }
    fn put(&self, out: &mut Vec<u8>);
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError>;
}

impl Field for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        Ok(c.u32()?)
    }
}

impl Field for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        Ok(c.u64()?)
    }
}

impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        Ok(c.u8()? != 0)
    }
}

impl Field for String {
    fn wire_len(&self) -> usize {
        4 + self.len()
    }
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let len = c.u32()? as usize;
        String::from_utf8(c.bytes(len)?.to_vec())
            .map_err(|_| ProtoError::Malformed("non-UTF-8 string"))
    }
}

impl Field for Matrix {
    fn wire_len(&self) -> usize {
        16 + 8 * self.data().len()
    }
    fn put(&self, out: &mut Vec<u8>) {
        encode_matrix_body(self, out);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        read_matrix(c).map_err(|_| ProtoError::Malformed("bad matrix body"))
    }
}

impl Field for JobState {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.to_wire());
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        JobState::from_wire(c.u8()?)
    }
}

impl Field for ErrCode {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.to_wire());
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        ErrCode::from_wire(c.u8()?)
    }
}

/// The wire table: each message's verb and its payload fields in wire
/// order (field types come from the [`Msg`] variant). [`Msg::verb`], the
/// encoder and the decoder are all generated from this one list, so they
/// cannot disagree.
macro_rules! wire_table {
    ($($name:ident = $verb:ident { $($field:ident),* }),* $(,)?) => {
        impl Msg {
            /// The verb this message travels under.
            pub fn verb(&self) -> u32 {
                match self {
                    $(Msg::$name { .. } => verb::$verb,)*
                }
            }

            fn payload_len(&self) -> usize {
                match self {
                    $(Msg::$name { $($field),* } => 0 $(+ $field.wire_len())*,)*
                }
            }

            fn put_payload(&self, out: &mut Vec<u8>) {
                match self {
                    $(Msg::$name { $($field),* } => {
                        $($field.put(out);)*
                    })*
                }
            }

            fn get_payload(verb: u32, c: &mut Cursor<'_>) -> Result<Msg, ProtoError> {
                Ok(match verb {
                    $(verb::$verb => Msg::$name { $($field: Field::get(c)?),* },)*
                    other => return Err(ProtoError::UnknownVerb(other)),
                })
            }
        }
    };
}

wire_table! {
    Submit = SUBMIT { nb, ib, deadline_ms, keep, idem, tree, a },
    SubmitOk = SUBMIT_OK { job },
    Reject = REJECT { draining, retry_after_ms, queued },
    Status = STATUS { job },
    State = STATE { job, state, queue_pos },
    Result = RESULT { job },
    RFactor = R_FACTOR { job, r },
    Cancel = CANCEL { job },
    CancelOk = CANCEL_OK { job, cancelled },
    Drain = DRAIN {},
    Drained = DRAINED { stats },
    Error = ERROR { job, code, msg },
    Solve = SOLVE { handle, b },
    Solution = SOLUTION { handle, x },
    ApplyQ = APPLY_Q { handle, transpose, b },
    QApplied = Q_APPLIED { handle, c },
    Update = UPDATE { handle, e },
    Updated = UPDATED { handle, rows },
    Release = RELEASE { handle },
    Released = RELEASED { handle, released },
    Join = JOIN { addr, threads, store_bytes, gemm_tier },
    JoinOk = JOIN_OK { node_id },
    Leave = LEAVE { node_id },
    LeaveOk = LEAVE_OK { node_id, left },
    Ping = PING { nonce },
    Pong = PONG { nonce, queued, running },
}

/// Decode a frame body that has already been separated from its header,
/// with the checksum its kind names. Used by stream readers that pull the
/// header and body off a socket independently; [`decode_msg`] wraps it.
pub fn decode_body(header: &FrameHeader, body: &[u8]) -> Result<(Msg, u64, Version), ProtoError> {
    let (version, verb) = match header.kind {
        FrameKind::Data { wire_id } => (Version::V1, wire_id),
        FrameKind::DataCrc32c { wire_id } => (Version::V2, wire_id),
        _ => return Err(ProtoError::NotData),
    };
    if header.ack != 0 {
        return Err(ProtoError::NonzeroAck(header.ack));
    }
    if body.len() as u64 != header.len {
        return Err(ProtoError::Truncated);
    }
    if body.len() < 4 {
        return Err(ProtoError::Truncated);
    }
    let got = u32::from_le_bytes(body[..4].try_into().unwrap());
    let payload = &body[4..];
    let expected = version.crc(verb, header.seq, payload);
    if got != expected {
        return Err(ProtoError::Checksum { expected, got });
    }
    let c = &mut Cursor::new(payload);
    let msg = Msg::get_payload(verb, c)?;
    if !c.rest().is_empty() {
        return Err(ProtoError::Malformed("payload has trailing bytes"));
    }
    Ok((msg, header.seq, version))
}

/// Decode exactly one message, of either version, from a contiguous
/// buffer. The buffer must hold the frame and nothing else: a strict
/// prefix is [`ProtoError::Truncated`] (or a truncated [`FrameError`]
/// inside the header), extra bytes are [`ProtoError::Trailing`].
pub fn decode_msg(buf: &[u8]) -> Result<(Msg, u64), ProtoError> {
    let header = decode_header(buf).map_err(ProtoError::Frame)?;
    if header.len as usize > MAX_SERVICE_BODY {
        return Err(ProtoError::Oversized(header.len));
    }
    let need = HEADER_LEN + header.len as usize;
    if buf.len() < need {
        return Err(ProtoError::Truncated);
    }
    if buf.len() > need {
        return Err(ProtoError::Trailing(buf.len() - need));
    }
    decode_body(&header, &buf[HEADER_LEN..]).map(|(msg, seq, _)| (msg, seq))
}

/// Write one message to a stream as a v2 frame; one over the body cap is
/// refused unwritten, as `InvalidData` carrying [`ProtoError::Oversized`].
pub fn write_msg<W: std::io::Write>(w: &mut W, msg: &Msg, seq: u64) -> std::io::Result<()> {
    let bad = |e: ProtoError| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    w.write_all(&encode_frame(msg, seq, Version::V2).map_err(bad)?)
}

/// Read exactly one message, of either version, from a stream, and say
/// which version it came in. Protocol-level failures are surfaced as
/// `InvalidData` io errors carrying the [`ProtoError`].
pub fn read_msg<R: std::io::Read>(r: &mut R) -> std::io::Result<(Msg, u64, Version)> {
    let bad = |e: ProtoError| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let mut hdr = [0u8; HEADER_LEN];
    r.read_exact(&mut hdr)?;
    let header = decode_header(&hdr).map_err(|e| bad(ProtoError::Frame(e)))?;
    if header.len as usize > MAX_SERVICE_BODY {
        return Err(bad(ProtoError::Oversized(header.len)));
    }
    let mut body = vec![0u8; header.len as usize];
    r.read_exact(&mut body)?;
    decode_body(&header, &body).map_err(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat() -> Matrix {
        Matrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0])
    }

    #[test]
    fn round_trips_every_verb() {
        let msgs = vec![
            Msg::Submit {
                nb: 4,
                ib: 2,
                deadline_ms: 250,
                keep: true,
                idem: 0x5eed_cafe,
                tree: "hier:4".into(),
                a: mat(),
            },
            Msg::SubmitOk { job: 7 },
            Msg::Reject {
                draining: true,
                retry_after_ms: 40,
                queued: 9,
            },
            Msg::Status { job: 7 },
            Msg::State {
                job: 7,
                state: JobState::Running,
                queue_pos: 3,
            },
            Msg::Result { job: 7 },
            Msg::RFactor { job: 7, r: mat() },
            Msg::Cancel { job: 7 },
            Msg::CancelOk {
                job: 7,
                cancelled: false,
            },
            Msg::Drain,
            Msg::Drained {
                stats: "{\"jobs_done\":3}".into(),
            },
            Msg::Error {
                job: 7,
                code: ErrCode::UnknownJob,
                msg: "unknown job".into(),
            },
            Msg::Error {
                job: 7,
                code: ErrCode::HandleExpired,
                msg: "factor handle 7 expired".into(),
            },
            Msg::Error {
                job: 7,
                code: ErrCode::Panicked,
                msg: "VDP (7,0,0,0) panicked: chaos".into(),
            },
            Msg::Solve {
                handle: 7,
                b: mat(),
            },
            Msg::Solution {
                handle: 7,
                x: mat(),
            },
            Msg::ApplyQ {
                handle: 7,
                transpose: true,
                b: mat(),
            },
            Msg::QApplied {
                handle: 7,
                c: mat(),
            },
            Msg::Update {
                handle: 7,
                e: mat(),
            },
            Msg::Updated {
                handle: 7,
                rows: 24,
            },
            Msg::Release { handle: 7 },
            Msg::Released {
                handle: 7,
                released: true,
            },
            Msg::Error {
                job: (3 << 48) | 7,
                code: ErrCode::NodeLost,
                msg: "node 3 lost".into(),
            },
            Msg::Join {
                addr: "127.0.0.1:9101".into(),
                threads: 4,
                store_bytes: 64 << 20,
                gemm_tier: "avx2".into(),
            },
            Msg::JoinOk { node_id: 3 },
            Msg::Leave { node_id: 3 },
            Msg::LeaveOk {
                node_id: 3,
                left: true,
            },
            Msg::Ping { nonce: 0xfeed },
            Msg::Pong {
                nonce: 0xfeed,
                queued: 5,
                running: 2,
            },
        ];
        for (i, m) in msgs.into_iter().enumerate() {
            let seq = 1000 + i as u64;
            for (version, kind) in [(Version::V1, 0), (Version::V2, 5)] {
                let wire = encode_frame(&m, seq, version).unwrap();
                assert_eq!(wire[4], kind, "{version:?} kind byte");
                let header = decode_header(&wire).unwrap();
                let back = decode_body(&header, &wire[HEADER_LEN..]).expect("round trip");
                assert_eq!(back, (m.clone(), seq, version));
            }
            assert_eq!(
                encode_msg(&m, seq),
                encode_frame(&m, seq, Version::V2).unwrap()
            );
        }
    }

    #[test]
    fn seq_is_bound_into_the_checksum() {
        // The same message under a different request id must not verify:
        // splice the body of one encoding under the header of another.
        let a = encode_msg(&Msg::Status { job: 1 }, 1);
        let b = encode_msg(&Msg::Status { job: 1 }, 2);
        let mut spliced = b[..HEADER_LEN].to_vec();
        spliced.extend_from_slice(&a[HEADER_LEN..]);
        assert!(matches!(
            decode_msg(&spliced),
            Err(ProtoError::Checksum { .. })
        ));
    }

    #[test]
    fn oversized_header_is_rejected_without_reading_the_body() {
        let header = FrameHeader {
            kind: FrameKind::Data {
                wire_id: verb::SUBMIT,
            },
            seq: 0,
            ack: 0,
            len: (MAX_SERVICE_BODY + 1) as u64,
        };
        let wire = encode_header(&header);
        assert!(matches!(decode_msg(&wire), Err(ProtoError::Oversized(_))));
    }

    #[test]
    fn stream_read_write_round_trips() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &Msg::Drain, 42).unwrap();
        write_msg(&mut buf, &Msg::SubmitOk { job: 5 }, 43).unwrap();
        buf.extend_from_slice(&encode_frame(&Msg::Status { job: 6 }, 44, Version::V1).unwrap());
        let mut r = &buf[..];
        assert_eq!(read_msg(&mut r).unwrap(), (Msg::Drain, 42, Version::V2));
        assert_eq!(
            read_msg(&mut r).unwrap(),
            (Msg::SubmitOk { job: 5 }, 43, Version::V2)
        );
        assert_eq!(
            read_msg(&mut r).unwrap(),
            (Msg::Status { job: 6 }, 44, Version::V1)
        );
        assert!(read_msg(&mut r).is_err(), "stream exhausted");
    }
}
