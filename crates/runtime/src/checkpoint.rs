//! Coordinated checkpoint/restart: the on-disk snapshot of one rank's
//! share of a quiesced VSA.
//!
//! A checkpoint is taken at a *quiescent cut*: every worker parked between
//! firings, every in-flight packet drained into its destination channel
//! FIFO, and all ranks aligned on the same fabric barrier epoch. At that
//! point a rank's entire dynamic state is (a) each VDP's firing counter and
//! persistent local store and (b) the packets queued in its input FIFOs —
//! exactly what [`RankCheckpoint`] captures. Restart rebuilds the VSA from
//! the (deterministic) plan and overlays this file; because VDP firing
//! order within one slot's FIFO is the only schedule freedom that affects
//! values, a resumed run reproduces the original results bit for bit.
//!
//! The file format follows the repo's wire idiom: hand-rolled little-endian
//! layout, a magic tag, an explicit version, and an FNV-1a checksum over
//! the body so a truncated or bit-flipped file is rejected as a typed
//! [`CheckpointError`] instead of being half-applied. Packets are embedded
//! in their [`Packet::encode_wire`] form (`[tag][crc][body]`), so each
//! payload additionally carries its own checksum.

use crate::channel::{ChannelQueue, ChannelState};
use crate::packet::{Packet, PacketRegistry, WireError};
use crate::tuple::Tuple;
use pulsar_fabric::fnv1a;
use pulsar_fabric::frame::{put_u32, put_u64, Cursor, Truncated};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic prefix of every checkpoint file.
pub const MAGIC: [u8; 4] = *b"PSCK";

/// Current file-format version.
pub const VERSION: u32 = 1;

/// Fixed-size file header: magic (4) + version (4) + rank (4) + nodes (4)
/// + epoch (8) + body length (8) + body checksum (4).
pub const HEADER_LEN: usize = 36;

/// Why reading or writing a checkpoint failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem error (message carries the OS detail).
    Io(String),
    /// The file ended before the layout said it would.
    Truncated,
    /// First four bytes were not [`MAGIC`] — not a checkpoint file.
    BadMagic([u8; 4]),
    /// The file was written by an incompatible format version.
    Version(u32),
    /// The body does not hash to the checksum the header carries: the file
    /// was corrupted at rest.
    Checksum {
        /// Checksum the header carried.
        expected: u32,
        /// Checksum computed over the stored body.
        got: u32,
    },
    /// An embedded packet failed to decode through the registry.
    Packet(WireError),
    /// The body disagrees with its own framing, or with the VSA being
    /// restored (e.g. a VDP tuple the plan does not contain).
    Malformed(&'static str),
    /// A queued packet has no wire codec ([`Packet::new`] payload), so the
    /// rank's state cannot be serialized.
    NotEncodable,
    /// No complete checkpoint (one file per rank, same epoch) exists in
    /// the directory.
    NoCheckpoint,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint i/o error: {msg}"),
            CheckpointError::Truncated => write!(f, "checkpoint file truncated"),
            CheckpointError::BadMagic(m) => write!(f, "bad checkpoint magic {m:?}"),
            CheckpointError::Version(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Checksum { expected, got } => write!(
                f,
                "checkpoint checksum mismatch: header says {expected:#010x}, body hashes to {got:#010x}"
            ),
            CheckpointError::Packet(e) => write!(f, "embedded packet rejected: {e}"),
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            CheckpointError::NotEncodable => {
                write!(f, "a queued packet has no wire codec; state cannot be saved")
            }
            CheckpointError::NoCheckpoint => {
                write!(f, "no complete checkpoint found (need one file per rank)")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<Truncated> for CheckpointError {
    fn from(_: Truncated) -> Self {
        CheckpointError::Truncated
    }
}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        if e == WireError::NotEncodable {
            CheckpointError::NotEncodable
        } else {
            CheckpointError::Packet(e)
        }
    }
}

/// Snapshot of one input slot's channel: its life-cycle state and queued
/// packets in FIFO order.
pub struct SlotEntry {
    /// The channel's enable/disable/destroy state at the cut.
    pub state: ChannelState,
    /// Queued packets, oldest first.
    pub packets: Vec<Packet>,
}

/// Snapshot of one VDP: identity, firing progress, the logic's persistent
/// local store, and every input channel it owns.
pub struct VdpEntry {
    /// The VDP's identity tuple.
    pub tuple: Tuple,
    /// Total firings before destruction (sanity-checked against the plan).
    pub counter: u32,
    /// Firings already executed.
    pub fired: u32,
    /// Opaque local-store bytes from [`crate::VdpLogic::snapshot`]
    /// (empty for stateless VDPs and for already-destroyed ones).
    pub logic: Vec<u8>,
    /// One entry per input slot; `None` where no channel is attached.
    pub slots: Vec<Option<SlotEntry>>,
}

/// Packets already delivered to one exit key at the cut.
pub struct ExitEntry {
    /// Exit destination tuple.
    pub tuple: Tuple,
    /// Exit destination slot.
    pub slot: usize,
    /// Accumulated packets, oldest first.
    pub packets: Vec<Packet>,
}

/// Everything one rank needs to write at a quiescent cut (and read back at
/// restart).
pub struct RankCheckpoint {
    /// This rank's index.
    pub rank: usize,
    /// Total ranks in the run (a resume must match).
    pub nodes: usize,
    /// Checkpoint epoch: 0 for the post-seed snapshot, then one per
    /// periodic checkpoint round.
    pub epoch: u64,
    /// Every VDP placed on this rank.
    pub vdps: Vec<VdpEntry>,
    /// Exit packets accumulated on this rank.
    pub exits: Vec<ExitEntry>,
}

/// Serialize one VDP's runtime state (shared by the epoch-0 snapshot in
/// `Vsa::run` and the per-worker serialize phase of a periodic round).
/// Destroyed VDPs are included — their `fired == counter` is what tells a
/// restore not to resurrect them.
///
/// # Safety
/// Every queue in `v.inputs` must be quiescent (see
/// [`ChannelQueue::snapshot`]).
pub(crate) unsafe fn entry_of(v: &crate::vdp::VdpState, queues: &[ChannelQueue]) -> VdpEntry {
    let mut logic = Vec::new();
    if let Some(l) = &v.logic {
        l.snapshot(&mut logic);
    }
    VdpEntry {
        tuple: v.tuple.clone(),
        counter: v.counter,
        fired: v.fired,
        logic,
        slots: queues[crate::vdp::span(&v.inputs)]
            .iter()
            // SAFETY: quiescence is this function's own contract.
            .map(|q| unsafe { q.snapshot() }.map(|(state, packets)| SlotEntry { state, packets }))
            .collect(),
    }
}

// ---- body writers ---------------------------------------------------------

fn put_tuple(out: &mut Vec<u8>, t: &Tuple) -> Result<(), CheckpointError> {
    let ids = t.ids();
    if ids.len() > u8::MAX as usize {
        return Err(CheckpointError::Malformed("tuple arity exceeds 255"));
    }
    out.push(ids.len() as u8);
    for &id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
    Ok(())
}

fn put_packets(out: &mut Vec<u8>, packets: &[Packet]) -> Result<(), CheckpointError> {
    put_u64(out, packets.len() as u64);
    for p in packets {
        let bytes = p.encode_wire()?;
        put_u64(out, bytes.len() as u64);
        out.extend_from_slice(&bytes);
    }
    Ok(())
}

// ---- body reader ----------------------------------------------------------

fn read_tuple(r: &mut Cursor<'_>) -> Result<Tuple, CheckpointError> {
    let arity = r.u8()? as usize;
    let mut ids = Vec::with_capacity(arity);
    for _ in 0..arity {
        ids.push(r.i32()?);
    }
    Ok(Tuple::new(&ids))
}

fn read_packets(r: &mut Cursor<'_>, reg: &PacketRegistry) -> Result<Vec<Packet>, CheckpointError> {
    let n = r.u64()?;
    let mut packets = Vec::new();
    for _ in 0..n {
        let len = r.u64()? as usize;
        packets.push(reg.decode(r.bytes(len)?)?);
    }
    Ok(packets)
}

fn channel_state_from(b: u8) -> Result<ChannelState, CheckpointError> {
    match b {
        0 => Ok(ChannelState::Enabled),
        1 => Ok(ChannelState::Disabled),
        2 => Ok(ChannelState::Destroyed),
        _ => Err(CheckpointError::Malformed("unknown channel state byte")),
    }
}

/// Encode a checkpoint into its complete file form (header + body).
pub fn encode(ck: &RankCheckpoint) -> Result<Vec<u8>, CheckpointError> {
    let mut body = Vec::new();
    put_u64(&mut body, ck.vdps.len() as u64);
    for v in &ck.vdps {
        put_tuple(&mut body, &v.tuple)?;
        put_u32(&mut body, v.counter);
        put_u32(&mut body, v.fired);
        put_u64(&mut body, v.logic.len() as u64);
        body.extend_from_slice(&v.logic);
        if v.slots.len() > u8::MAX as usize {
            return Err(CheckpointError::Malformed("more than 255 input slots"));
        }
        body.push(v.slots.len() as u8);
        for slot in &v.slots {
            match slot {
                None => body.push(0),
                Some(s) => {
                    body.push(1);
                    body.push(s.state as u8);
                    put_packets(&mut body, &s.packets)?;
                }
            }
        }
    }
    put_u64(&mut body, ck.exits.len() as u64);
    for e in &ck.exits {
        put_tuple(&mut body, &e.tuple)?;
        put_u32(
            &mut body,
            u32::try_from(e.slot)
                .map_err(|_| CheckpointError::Malformed("exit slot exceeds u32"))?,
        );
        put_packets(&mut body, &e.packets)?;
    }

    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(
        &mut out,
        u32::try_from(ck.rank).map_err(|_| CheckpointError::Malformed("rank exceeds u32"))?,
    );
    put_u32(
        &mut out,
        u32::try_from(ck.nodes).map_err(|_| CheckpointError::Malformed("nodes exceeds u32"))?,
    );
    put_u64(&mut out, ck.epoch);
    put_u64(&mut out, body.len() as u64);
    put_u32(&mut out, fnv1a(&body));
    out.extend_from_slice(&body);
    Ok(out)
}

/// Decode a complete checkpoint file, verifying magic, version, length,
/// and checksum before touching the body. Never panics on arbitrary input.
pub fn decode(bytes: &[u8], reg: &PacketRegistry) -> Result<RankCheckpoint, CheckpointError> {
    let have = bytes.len().min(4);
    if bytes[..have] != MAGIC[..have] {
        let mut magic = [0u8; 4];
        magic[..have].copy_from_slice(&bytes[..have]);
        return Err(CheckpointError::BadMagic(magic));
    }
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::Truncated);
    }
    let mut head = Cursor::new(&bytes[4..]);
    let version = head.u32()?;
    if version != VERSION {
        return Err(CheckpointError::Version(version));
    }
    let (rank, nodes) = (head.u32()? as usize, head.u32()? as usize);
    let (epoch, body_len, expected) = (head.u64()?, head.u64()?, head.u32()?);
    let body = head.rest();
    if (body.len() as u64) < body_len {
        return Err(CheckpointError::Truncated);
    }
    if body.len() as u64 > body_len {
        return Err(CheckpointError::Malformed("trailing bytes after body"));
    }
    let got = fnv1a(body);
    if got != expected {
        return Err(CheckpointError::Checksum { expected, got });
    }

    let mut r = Cursor::new(body);
    let n_vdps = r.u64()?;
    let mut vdps = Vec::new();
    for _ in 0..n_vdps {
        let tuple = read_tuple(&mut r)?;
        let counter = r.u32()?;
        let fired = r.u32()?;
        let logic_len = r.u64()? as usize;
        let logic = r.bytes(logic_len)?.to_vec();
        let n_slots = r.u8()? as usize;
        let mut slots = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            match r.u8()? {
                0 => slots.push(None),
                1 => {
                    let state = channel_state_from(r.u8()?)?;
                    let packets = read_packets(&mut r, reg)?;
                    slots.push(Some(SlotEntry { state, packets }));
                }
                _ => return Err(CheckpointError::Malformed("bad slot presence byte")),
            }
        }
        vdps.push(VdpEntry {
            tuple,
            counter,
            fired,
            logic,
            slots,
        });
    }
    let n_exits = r.u64()?;
    let mut exits = Vec::new();
    for _ in 0..n_exits {
        let tuple = read_tuple(&mut r)?;
        let slot = r.u32()? as usize;
        let packets = read_packets(&mut r, reg)?;
        exits.push(ExitEntry {
            tuple,
            slot,
            packets,
        });
    }
    if !r.rest().is_empty() {
        return Err(CheckpointError::Malformed("trailing bytes in body"));
    }
    Ok(RankCheckpoint {
        rank,
        nodes,
        epoch,
        vdps,
        exits,
    })
}

// ---- directory layout -----------------------------------------------------

fn file_name(rank: usize, epoch: u64) -> String {
    format!("rank-{rank}-{epoch}.ckpt")
}

/// Parse `rank-<r>-<epoch>.ckpt` back into `(rank, epoch)`.
fn parse_file_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("rank-")?.strip_suffix(".ckpt")?;
    let (rank, epoch) = rest.split_once('-')?;
    Some((rank.parse().ok()?, epoch.parse().ok()?))
}

fn io_err(e: std::io::Error) -> CheckpointError {
    CheckpointError::Io(e.to_string())
}

/// Atomically write one rank's checkpoint into `dir` (write to a temp
/// file, then rename — a crash mid-write never leaves a half file under
/// the real name), pruning this rank's files beyond the two newest epochs.
/// Returns the file size in bytes.
pub fn write_rank_checkpoint(dir: &Path, ck: &RankCheckpoint) -> Result<u64, CheckpointError> {
    std::fs::create_dir_all(dir).map_err(io_err)?;
    let bytes = encode(ck)?;
    let tmp = dir.join(format!("{}.tmp", file_name(ck.rank, ck.epoch)));
    {
        let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
        f.write_all(&bytes).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
    }
    std::fs::rename(&tmp, dir.join(file_name(ck.rank, ck.epoch))).map_err(io_err)?;

    // Keep the two newest epochs for this rank (the one just written plus
    // its predecessor, so a crash during the *next* write never strands us
    // without a complete set).
    let mut epochs: Vec<u64> = list_files(dir)?
        .into_iter()
        .filter(|&(r, _)| r == ck.rank)
        .map(|(_, e)| e)
        .collect();
    epochs.sort_unstable();
    epochs.reverse();
    for &old in epochs.iter().skip(2) {
        let _ = std::fs::remove_file(dir.join(file_name(ck.rank, old)));
    }
    Ok(bytes.len() as u64)
}

fn list_files(dir: &Path) -> Result<Vec<(usize, u64)>, CheckpointError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io_err)? {
        let entry = entry.map_err(io_err)?;
        if let Some(parsed) = entry.file_name().to_str().and_then(parse_file_name) {
            out.push(parsed);
        }
    }
    Ok(out)
}

/// The newest epoch for which *every* rank `0..nodes` has a checkpoint
/// file in `dir` (a kill can interrupt a round after some ranks wrote, so
/// the newest epoch of any single rank is not necessarily usable).
pub fn latest_common_epoch(dir: &Path, nodes: usize) -> Result<u64, CheckpointError> {
    let files = list_files(dir)?;
    let mut epochs: Vec<u64> = files
        .iter()
        .filter(|&&(r, _)| r == 0)
        .map(|&(_, e)| e)
        .collect();
    epochs.sort_unstable();
    epochs.reverse();
    for e in epochs {
        if (0..nodes).all(|r| files.contains(&(r, e))) {
            return Ok(e);
        }
    }
    Err(CheckpointError::NoCheckpoint)
}

/// Path of one rank's checkpoint file for an epoch.
pub fn rank_path(dir: &Path, rank: usize, epoch: u64) -> PathBuf {
    dir.join(file_name(rank, epoch))
}

/// Load and decode one rank's checkpoint at a specific epoch.
pub fn load_rank(
    dir: &Path,
    rank: usize,
    epoch: u64,
    reg: &PacketRegistry,
) -> Result<RankCheckpoint, CheckpointError> {
    let bytes = std::fs::read(rank_path(dir, rank, epoch)).map_err(io_err)?;
    let ck = decode(&bytes, reg)?;
    if ck.rank != rank || ck.epoch != epoch {
        return Err(CheckpointError::Malformed(
            "file name disagrees with header",
        ));
    }
    Ok(ck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulsar_linalg::Matrix;

    fn sample() -> RankCheckpoint {
        RankCheckpoint {
            rank: 1,
            nodes: 3,
            epoch: 4,
            vdps: vec![
                VdpEntry {
                    tuple: Tuple::new3(0, 1, 2),
                    counter: 5,
                    fired: 2,
                    logic: vec![9, 8, 7],
                    slots: vec![
                        None,
                        Some(SlotEntry {
                            state: ChannelState::Enabled,
                            packets: vec![Packet::tile(Matrix::identity(3)), Packet::wire(-7i64)],
                        }),
                        Some(SlotEntry {
                            state: ChannelState::Disabled,
                            packets: vec![],
                        }),
                    ],
                },
                VdpEntry {
                    tuple: Tuple::new1(-4),
                    counter: 1,
                    fired: 1,
                    logic: vec![],
                    slots: vec![Some(SlotEntry {
                        state: ChannelState::Destroyed,
                        packets: vec![],
                    })],
                },
            ],
            exits: vec![ExitEntry {
                tuple: Tuple::new2(-1, 0),
                slot: 0,
                packets: vec![Packet::wire(2.5f64)],
            }],
        }
    }

    #[test]
    fn roundtrip() {
        let ck = sample();
        let bytes = encode(&ck).unwrap();
        let back = decode(&bytes, &PacketRegistry::standard()).unwrap();
        assert_eq!(back.rank, 1);
        assert_eq!(back.nodes, 3);
        assert_eq!(back.epoch, 4);
        assert_eq!(back.vdps.len(), 2);
        assert_eq!(back.vdps[0].tuple, Tuple::new3(0, 1, 2));
        assert_eq!(back.vdps[0].fired, 2);
        assert_eq!(back.vdps[0].logic, vec![9, 8, 7]);
        assert!(back.vdps[0].slots[0].is_none());
        let s1 = back.vdps[0].slots[1].as_ref().unwrap();
        assert_eq!(s1.state, ChannelState::Enabled);
        assert_eq!(s1.packets.len(), 2);
        assert_eq!(s1.packets[0].as_tile().unwrap(), &Matrix::identity(3));
        assert_eq!(
            back.vdps[1].slots[0].as_ref().unwrap().state,
            ChannelState::Destroyed
        );
        assert_eq!(back.exits[0].packets[0].get::<f64>(), Some(&2.5));
    }

    #[test]
    fn rejects_magic_version_checksum_truncation() {
        let bytes = encode(&sample()).unwrap();
        let reg = PacketRegistry::standard();

        let mut b = bytes.clone();
        b[0] = b'X';
        assert!(matches!(
            decode(&b, &reg),
            Err(CheckpointError::BadMagic(_))
        ));

        let mut b = bytes.clone();
        b[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(decode(&b, &reg), Err(CheckpointError::Version(9))));

        let mut b = bytes.clone();
        let last = b.len() - 1;
        b[last] ^= 0x10;
        assert!(matches!(
            decode(&b, &reg),
            Err(CheckpointError::Checksum { .. })
        ));

        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN + 5, bytes.len() - 1] {
            let err = decode(&bytes[..cut], &reg).err().unwrap();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::BadMagic(_)
                ),
                "cut {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn plain_packet_is_not_encodable() {
        let mut ck = sample();
        ck.vdps[0].slots[1].as_mut().unwrap().packets[0] = Packet::new(String::from("opaque"), 6);
        assert_eq!(encode(&ck).err(), Some(CheckpointError::NotEncodable));
    }

    #[test]
    fn directory_write_load_prune_and_common_epoch() {
        let dir = std::env::temp_dir().join(format!(
            "pulsar-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = PacketRegistry::standard();

        let mut ck = sample();
        for epoch in 0..4u64 {
            for rank in 0..3usize {
                ck.rank = rank;
                ck.epoch = epoch;
                // Simulate a crash mid-round: epoch 3 written by rank 0 only.
                if epoch == 3 && rank > 0 {
                    continue;
                }
                let n = write_rank_checkpoint(&dir, &ck).unwrap();
                assert!(n > HEADER_LEN as u64);
            }
        }
        // Pruning kept at most 2 epochs per rank.
        let files = list_files(&dir).unwrap();
        for rank in 0..3 {
            assert!(files.iter().filter(|&&(r, _)| r == rank).count() <= 2);
        }
        // Epoch 3 is incomplete; 2 is the newest usable cut.
        assert_eq!(latest_common_epoch(&dir, 3).unwrap(), 2);
        let back = load_rank(&dir, 1, 2, &reg).unwrap();
        assert_eq!((back.rank, back.epoch), (1, 2));
        assert!(matches!(
            load_rank(&dir, 2, 3, &reg),
            Err(CheckpointError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_checkpoint_is_typed() {
        let dir = std::env::temp_dir().join(format!("pulsar-ckpt-none-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(
            latest_common_epoch(&dir, 2).err(),
            Some(CheckpointError::NoCheckpoint)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
