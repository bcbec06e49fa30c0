//! The factorization store: a bounded, byte-budgeted cache that keeps a
//! job's complete factorization — `R` plus the V/T block-reflector tree —
//! alive after the batch that computed it, so later requests can solve,
//! apply `Q`, or stream row updates against it without re-factoring.
//!
//! Entries are keyed by an opaque [`FactorHandle`] (the admitting job's
//! id, which the service never reuses). The store holds at most
//! `budget` bytes of factor payload (measured by
//! [`TileQrFactors::approx_bytes`]); inserting past the budget evicts
//! least-recently-used entries first, and an entry larger than the whole
//! budget is refused outright with [`StoreError::StoreFull`]. Every miss
//! — never-kept, explicitly released, or evicted — is the same typed
//! [`StoreError::HandleExpired`]: the protocol promises only that a
//! handle *may* expire, not why.
//!
//! Concurrency: the service wraps the store in a mutex held only for
//! map/LRU bookkeeping; factor data leaves as `Arc` clones so solves and
//! Q-applies run lock-free on connection threads. Each entry carries an
//! update gate serializing row updates per handle (two concurrent
//! `update`s on one handle must not both build on the same `R`).

//!
//! Durability: with [`FactorStore::recover`] the store is backed by an
//! on-disk log in the spirit of the runtime's checkpoint files — a
//! checksummed snapshot plus an append-only WAL, both carrying FNV-1a
//! body checksums behind a four-byte magic. Every insert, update commit,
//! eviction, and release appends a WAL record; restart replays the
//! snapshot and then the WAL, restoring resident factors bit-identically.
//! Torn tails and bit-flipped records are detected by length/checksum
//! validation and truncated away — a damaged suffix is never trusted,
//! and everything before it survives.

use parking_lot::Mutex;
use pulsar_core::{Reflectors, TileQrFactors};
use pulsar_fabric::fnv1a;
use pulsar_fabric::frame::{put_u64, Cursor, Truncated};
use pulsar_runtime::packet::{encode_matrix_body, read_matrix, PacketCodec};
use pulsar_tuner::json::{obj, Json};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Opaque reference to a stored factorization. On the wire this is the
/// id of the `submit --keep` job that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FactorHandle(u64);

impl FactorHandle {
    /// Wrap a raw wire id.
    pub fn from_raw(id: u64) -> Self {
        FactorHandle(id)
    }

    /// The raw wire id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for FactorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The handle is not resident: never kept, released, or evicted.
    HandleExpired(FactorHandle),
    /// The entry alone exceeds the store's whole byte budget, so no
    /// amount of eviction can make room for it.
    StoreFull {
        /// Bytes the entry needs.
        needed: u64,
        /// The store's total budget.
        budget: u64,
    },
    /// The durable log could not record the operation. The in-memory
    /// state was rolled back: a keep whose WAL append failed is not
    /// resident, so the client is never handed a handle that would not
    /// survive a crash.
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::HandleExpired(h) => {
                write!(f, "factor handle {h} expired (released or evicted)")
            }
            StoreError::StoreFull { needed, budget } => {
                write!(
                    f,
                    "factorization needs {needed} bytes, store budget is {budget}"
                )
            }
            StoreError::Io(m) => write!(f, "factor store log: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Monotonic counters describing store traffic since start.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful lookups.
    pub hits: u64,
    /// Lookups of non-resident handles.
    pub misses: u64,
    /// Entries admitted (inserts and update commits).
    pub inserts: u64,
    /// Entries pushed out by the byte budget.
    pub evictions: u64,
    /// Entries refused because they exceed the whole budget.
    pub rejected: u64,
    /// Entries dropped by explicit release.
    pub released: u64,
}

struct Entry {
    factors: Arc<TileQrFactors>,
    bytes: usize,
    /// LRU position: key into `lru`, refreshed on every touch.
    tick: u64,
    /// Serializes row updates per handle.
    gate: Arc<Mutex<()>>,
}

/// A byte-budgeted LRU cache of completed factorizations. Not internally
/// synchronized — the service owns one behind a mutex.
pub struct FactorStore {
    budget: usize,
    bytes: usize,
    clock: u64,
    entries: HashMap<FactorHandle, Entry>,
    /// Recency order: oldest tick first. Ticks are unique (the clock only
    /// moves forward), so this is a faithful LRU queue.
    lru: BTreeMap<u64, FactorHandle>,
    stats: StoreStats,
    /// Present when the store is durable: every mutation is appended here
    /// before the caller sees success.
    wal: Option<DurableLog>,
    /// WAL size past which inserts fold the log into a fresh snapshot.
    wal_compact_bytes: u64,
}

impl FactorStore {
    /// An empty store that will hold at most `budget` bytes of factors.
    pub fn new(budget: usize) -> Self {
        FactorStore {
            budget,
            bytes: 0,
            clock: 0,
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            stats: StoreStats::default(),
            wal: None,
            wal_compact_bytes: WAL_COMPACT_BYTES,
        }
    }

    /// Override the WAL compaction threshold (`--wal-compact-mb`). A
    /// no-op for in-memory stores.
    pub fn set_wal_compact_bytes(&mut self, bytes: u64) {
        self.wal_compact_bytes = bytes.max(WAL_HEADER_LEN + 1);
    }

    /// A durable store: recover the previous incarnation's entries from
    /// `dir` (snapshot + WAL replay, both checksummed; a corrupt WAL tail
    /// is truncated, a corrupt snapshot is a hard error), then keep
    /// logging every mutation there. Returns the store and the largest
    /// handle id ever logged, so the service can keep its id counter
    /// monotonic across restarts.
    pub fn recover(budget: usize, dir: &Path) -> Result<(FactorStore, u64), WalError> {
        let (log, entries, max_seen) = DurableLog::recover(dir)?;
        let mut store = FactorStore::new(budget);
        for (h, f) in entries {
            // Replay through the normal insert path (no WAL attached yet):
            // the byte budget applies at recovery exactly as it did live,
            // spilling the oldest entries if the budget shrank.
            let _ = store.insert(FactorHandle::from_raw(h), Arc::new(f));
        }
        store.stats = StoreStats::default();
        store.wal = Some(log);
        // Fold the replayed history into a fresh snapshot and an empty WAL
        // so startup cost stays proportional to the resident set.
        store.compact_log()?;
        Ok((store, max_seen))
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes currently resident.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of resident factorizations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Traffic counters since start.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Admit a factorization under `handle`, evicting LRU entries as
    /// needed. Re-inserting an existing handle replaces its entry (and
    /// refreshes its recency) — that is how update commits land.
    pub fn insert(
        &mut self,
        handle: FactorHandle,
        factors: Arc<TileQrFactors>,
    ) -> Result<(), StoreError> {
        let needed = factors.approx_bytes();
        if needed > self.budget {
            self.stats.rejected += 1;
            return Err(StoreError::StoreFull {
                needed: needed as u64,
                budget: self.budget as u64,
            });
        }
        // Replacing ourselves: drop the old entry first (keeping its gate,
        // so an in-flight update chain on this handle stays serialized),
        // then make room among the others.
        let gate = match self.remove(handle) {
            Some(old) => old.gate,
            None => Arc::new(Mutex::new(())),
        };
        let mut evicted_handles = Vec::new();
        while self.bytes + needed > self.budget {
            let (_, victim) = self
                .lru
                .pop_first()
                .expect("non-zero resident bytes imply a resident entry");
            let evicted = self.entries.remove(&victim).expect("lru entry is resident");
            self.bytes -= evicted.bytes;
            self.stats.evictions += 1;
            evicted_handles.push(victim);
        }
        let tick = self.tick();
        self.lru.insert(tick, handle);
        self.bytes += needed;
        self.entries.insert(
            handle,
            Entry {
                factors: factors.clone(),
                bytes: needed,
                tick,
                gate,
            },
        );
        self.stats.inserts += 1;
        if let Some(wal) = &mut self.wal {
            // Durability order: evictions first, then the insert, so a
            // replay never resurrects a victim. A failed append rolls the
            // in-memory insert back — the caller must not believe in a
            // handle that would not survive a crash.
            let logged = evicted_handles
                .iter()
                .try_for_each(|v| wal.log_release(v.raw()))
                .and_then(|()| wal.log_insert(handle.raw(), &factors));
            if let Err(e) = logged {
                self.remove(handle);
                return Err(StoreError::Io(e.to_string()));
            }
            if self
                .wal
                .as_ref()
                .is_some_and(|w| w.wants_compaction(self.wal_compact_bytes))
            {
                // Best effort: a failed compaction leaves a long but valid
                // WAL, which is only a startup-cost problem.
                let _ = self.compact_log();
            }
        }
        Ok(())
    }

    /// Look up a resident factorization, refreshing its recency. The
    /// returned `Arc` stays valid even if the entry is evicted afterwards
    /// — readers in flight are never invalidated, only future lookups.
    pub fn get(&mut self, handle: FactorHandle) -> Result<Arc<TileQrFactors>, StoreError> {
        let tick = self.tick();
        match self.entries.get_mut(&handle) {
            Some(entry) => {
                self.lru.remove(&entry.tick);
                entry.tick = tick;
                self.lru.insert(tick, handle);
                self.stats.hits += 1;
                Ok(entry.factors.clone())
            }
            None => {
                self.stats.misses += 1;
                Err(StoreError::HandleExpired(handle))
            }
        }
    }

    /// The per-handle update gate. Callers lock it *outside* the store's
    /// own mutex for the duration of a row update, so updates on one
    /// handle serialize while the store stays available to everyone else.
    pub fn update_gate(&mut self, handle: FactorHandle) -> Result<Arc<Mutex<()>>, StoreError> {
        match self.entries.get(&handle) {
            Some(entry) => Ok(entry.gate.clone()),
            None => {
                self.stats.misses += 1;
                Err(StoreError::HandleExpired(handle))
            }
        }
    }

    /// Drop an entry, returning whether it was resident. Releasing is how
    /// fire-and-forget jobs guarantee they pin no cache bytes.
    pub fn release(&mut self, handle: FactorHandle) -> bool {
        let hit = self.remove(handle).is_some();
        if hit {
            self.stats.released += 1;
            if let Some(wal) = &mut self.wal {
                // Best effort: a lost release record can only resurrect an
                // entry the client dropped, never lose one it kept.
                let _ = wal.log_release(handle.raw());
            }
        }
        hit
    }

    /// Fold the durable log: write a fresh checksummed snapshot of the
    /// resident entries (oldest-first, so recovery re-inserts in LRU
    /// order) and truncate the WAL. A no-op for in-memory stores.
    pub fn compact_log(&mut self) -> Result<(), WalError> {
        let Some(wal) = &mut self.wal else {
            return Ok(());
        };
        let entries: Vec<(u64, Arc<TileQrFactors>)> = self
            .lru
            .values()
            .map(|h| (h.raw(), self.entries[h].factors.clone()))
            .collect();
        wal.compact(&entries)
    }

    /// Store section of the service STATS-JSON.
    pub fn stats_json(&self) -> Json {
        let s = &self.stats;
        obj([
            ("entries", self.entries.len().into()),
            ("bytes", self.bytes.into()),
            ("budget_bytes", self.budget.into()),
            ("hits", s.hits.into()),
            ("misses", s.misses.into()),
            ("inserts", s.inserts.into()),
            ("evictions", s.evictions.into()),
            ("rejected", s.rejected.into()),
            ("released", s.released.into()),
        ])
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn remove(&mut self, handle: FactorHandle) -> Option<Entry> {
        let entry = self.entries.remove(&handle)?;
        self.lru.remove(&entry.tick);
        self.bytes -= entry.bytes;
        Some(entry)
    }
}

// --- durability: checksummed snapshot + append-only WAL -----------------

/// Snapshot file magic ("pulsar snapshot").
const SNAP_MAGIC: [u8; 4] = *b"PSSN";
/// WAL file magic ("pulsar write-ahead log").
const WAL_MAGIC: [u8; 4] = *b"PSWL";
const DURABLE_VERSION: u32 = 1;
const SNAP_FILE: &str = "factors.snap";
const WAL_FILE: &str = "factors.wal";
/// WAL file header: magic + version.
const WAL_HEADER_LEN: u64 = 8;
/// Per-record header: kind u8 + handle u64 + body_len u64 + crc u32.
const RECORD_HEADER_LEN: usize = 21;
/// Fold the WAL into a fresh snapshot past this size.
const WAL_COMPACT_BYTES: u64 = 32 << 20;
/// Upper bound on a single record body — anything larger is corruption,
/// not data (a factorization this size would dwarf any store budget).
const MAX_RECORD_BODY: u64 = 1 << 31;

const REC_INSERT: u8 = 1;
const REC_RELEASE: u8 = 2;

/// Why the durable factor log could not be written or recovered.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure underneath the log.
    Io(std::io::Error),
    /// The snapshot or WAL file carries the wrong magic — not ours.
    BadMagic,
    /// The file is from an incompatible format version.
    Version(u32),
    /// The snapshot body failed its checksum. (WAL records that fail
    /// theirs are truncated, not errored: the tail of an append-only log
    /// is expected to tear, a snapshot written atomically is not.)
    Checksum,
    /// The snapshot decoded to nonsense.
    Malformed(&'static str),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "factor log io: {e}"),
            WalError::BadMagic => write!(f, "factor log: bad magic"),
            WalError::Version(v) => write!(f, "factor log: unsupported version {v}"),
            WalError::Checksum => write!(f, "factor log: snapshot checksum mismatch"),
            WalError::Malformed(m) => write!(f, "factor log: malformed snapshot: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Record checksum binds the body to its kind and handle, so a record
/// cannot be replayed under another identity.
fn record_crc(kind: u8, handle: u64, body: &[u8]) -> u32 {
    fnv1a(body)
        ^ (kind as u32).wrapping_mul(0x9e37_79b9)
        ^ (handle as u32)
        ^ ((handle >> 32) as u32)
}

impl From<Truncated> for WalError {
    fn from(_: Truncated) -> Self {
        WalError::Malformed("truncated body")
    }
}

fn finish(r: &Cursor<'_>) -> Result<(), WalError> {
    if r.rest().is_empty() {
        Ok(())
    } else {
        Err(WalError::Malformed("trailing bytes"))
    }
}

/// Serialize a complete factorization: dimensions, `R`, then the V/T
/// reflector tree panel by panel (each transform through its existing
/// packet codec, so the bytes match what travels the fabric).
fn encode_factors(f: &TileQrFactors, out: &mut Vec<u8>) {
    put_u64(out, f.m as u64);
    put_u64(out, f.n as u64);
    put_u64(out, f.nb as u64);
    put_u64(out, f.ib as u64);
    encode_matrix_body(&f.r, out);
    put_u64(out, f.panels.len() as u64);
    for panel in &f.panels {
        put_u64(out, panel.len() as u64);
        for refl in panel {
            let mut body = Vec::new();
            refl.encode_body(&mut body);
            put_u64(out, body.len() as u64);
            out.extend_from_slice(&body);
        }
    }
}

fn decode_factors(r: &mut Cursor<'_>) -> Result<TileQrFactors, WalError> {
    let m = r.u64()? as usize;
    let n = r.u64()? as usize;
    let nb = r.u64()? as usize;
    let ib = r.u64()? as usize;
    let rm = read_matrix(r).map_err(|_| WalError::Malformed("bad matrix body"))?;
    let npanels = r.u64()?;
    if npanels > MAX_RECORD_BODY {
        return Err(WalError::Malformed("absurd panel count"));
    }
    let mut panels = Vec::with_capacity(npanels as usize);
    for _ in 0..npanels {
        let ntrans = r.u64()?;
        if ntrans > MAX_RECORD_BODY {
            return Err(WalError::Malformed("absurd transform count"));
        }
        let mut panel = Vec::with_capacity(ntrans as usize);
        for _ in 0..ntrans {
            let len = r.u64()? as usize;
            let body = r.bytes(len)?;
            let refl =
                Reflectors::decode_body(body).map_err(|_| WalError::Malformed("bad reflector"))?;
            panel.push(refl);
        }
        panels.push(panel);
    }
    Ok(TileQrFactors {
        m,
        n,
        nb,
        ib,
        r: rm,
        panels,
    })
}

/// One replayed WAL operation.
enum WalOp {
    Insert(u64, TileQrFactors),
    Release(u64),
}

/// The on-disk side of a durable [`FactorStore`]: `factors.snap` (full
/// checksummed image, written atomically via tmp + rename) and
/// `factors.wal` (append-only records, each with its own checksum).
struct DurableLog {
    dir: PathBuf,
    wal: std::fs::File,
    wal_bytes: u64,
}

impl DurableLog {
    /// Open `dir` (creating it), load the snapshot, replay the WAL —
    /// truncating a torn or corrupt tail — and return the log plus the
    /// recovered entries (in insertion order) and the largest handle id
    /// ever logged.
    #[allow(clippy::type_complexity)]
    fn recover(dir: &Path) -> Result<(DurableLog, Vec<(u64, TileQrFactors)>, u64), WalError> {
        std::fs::create_dir_all(dir)?;
        let mut max_seen = 0u64;
        // Insertion-ordered map of live entries: replay preserves the
        // recency order the snapshot + WAL encode.
        let mut order: Vec<u64> = Vec::new();
        let mut live: HashMap<u64, TileQrFactors> = HashMap::new();
        let mut apply = |op: WalOp, max_seen: &mut u64| match op {
            WalOp::Insert(h, f) => {
                *max_seen = (*max_seen).max(h);
                if !live.contains_key(&h) {
                    order.push(h);
                } else {
                    order.retain(|&x| x != h);
                    order.push(h);
                }
                live.insert(h, f);
            }
            WalOp::Release(h) => {
                *max_seen = (*max_seen).max(h);
                order.retain(|&x| x != h);
                live.remove(&h);
            }
        };

        for (h, f) in read_snapshot(&dir.join(SNAP_FILE))? {
            apply(WalOp::Insert(h, f), &mut max_seen);
        }

        let wal_path = dir.join(WAL_FILE);
        let mut wal_bytes = WAL_HEADER_LEN;
        let file = if wal_path.exists() {
            let bytes = std::fs::read(&wal_path)?;
            if bytes.len() >= 4 && bytes[..4] != WAL_MAGIC {
                return Err(WalError::BadMagic);
            }
            if bytes.len() >= 8 {
                let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
                if version != DURABLE_VERSION {
                    return Err(WalError::Version(version));
                }
                let (ops, good_len) = replay_wal(&bytes[8..]);
                for op in ops {
                    apply(op, &mut max_seen);
                }
                wal_bytes = WAL_HEADER_LEN + good_len as u64;
            }
            // A file shorter than its own header is a torn creation:
            // nothing was ever logged, rewrite it below.
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&wal_path)?;
            if (bytes.len() as u64) < WAL_HEADER_LEN {
                f.write_all(&WAL_MAGIC)?;
                f.write_all(&DURABLE_VERSION.to_le_bytes())?;
                wal_bytes = WAL_HEADER_LEN;
            }
            // Truncate the untrusted tail so new appends continue from the
            // last good record.
            f.set_len(wal_bytes)?;
            f.seek(SeekFrom::End(0))?;
            f.sync_data()?;
            f
        } else {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .truncate(true)
                .read(true)
                .write(true)
                .open(&wal_path)?;
            f.write_all(&WAL_MAGIC)?;
            f.write_all(&DURABLE_VERSION.to_le_bytes())?;
            f.sync_data()?;
            f
        };

        let entries = order
            .into_iter()
            .map(|h| {
                let f = live.remove(&h).expect("ordered handle is live");
                (h, f)
            })
            .collect();
        Ok((
            DurableLog {
                dir: dir.to_path_buf(),
                wal: file,
                wal_bytes,
            },
            entries,
            max_seen,
        ))
    }

    fn append(&mut self, kind: u8, handle: u64, body: &[u8]) -> Result<(), WalError> {
        let mut rec = Vec::with_capacity(RECORD_HEADER_LEN + body.len());
        rec.push(kind);
        put_u64(&mut rec, handle);
        put_u64(&mut rec, body.len() as u64);
        rec.extend_from_slice(&record_crc(kind, handle, body).to_le_bytes());
        rec.extend_from_slice(body);
        self.wal.write_all(&rec)?;
        self.wal.sync_data()?;
        self.wal_bytes += rec.len() as u64;
        Ok(())
    }

    fn log_insert(&mut self, handle: u64, f: &TileQrFactors) -> Result<(), WalError> {
        let mut body = Vec::new();
        encode_factors(f, &mut body);
        self.append(REC_INSERT, handle, &body)
    }

    fn log_release(&mut self, handle: u64) -> Result<(), WalError> {
        self.append(REC_RELEASE, handle, &[])
    }

    fn wants_compaction(&self, threshold: u64) -> bool {
        self.wal_bytes > threshold
    }

    /// Write a fresh snapshot of `entries` (atomically: tmp + rename +
    /// sync) and reset the WAL to an empty header.
    fn compact(&mut self, entries: &[(u64, Arc<TileQrFactors>)]) -> Result<(), WalError> {
        let mut body = Vec::new();
        put_u64(&mut body, entries.len() as u64);
        for (h, f) in entries {
            put_u64(&mut body, *h);
            encode_factors(f, &mut body);
        }
        let mut out = Vec::with_capacity(body.len() + 20);
        out.extend_from_slice(&SNAP_MAGIC);
        out.extend_from_slice(&DURABLE_VERSION.to_le_bytes());
        put_u64(&mut out, body.len() as u64);
        out.extend_from_slice(&fnv1a(&body).to_le_bytes());
        out.extend_from_slice(&body);
        let tmp = self.dir.join("factors.snap.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.dir.join(SNAP_FILE))?;
        self.wal.set_len(WAL_HEADER_LEN)?;
        self.wal.seek(SeekFrom::End(0))?;
        self.wal.sync_data()?;
        self.wal_bytes = WAL_HEADER_LEN;
        Ok(())
    }
}

/// Parse WAL records from `bytes` (the file minus its header). Returns
/// the decoded operations and how many bytes were valid: the first torn,
/// bit-flipped, or malformed record ends the parse, and everything from
/// it on is untrusted.
fn replay_wal(bytes: &[u8]) -> (Vec<WalOp>, usize) {
    let mut ops = Vec::new();
    let mut off = 0usize;
    loop {
        let mut rec = Cursor::new(&bytes[off..]);
        let (Ok(kind), Ok(handle), Ok(body_len), Ok(crc)) =
            (rec.u8(), rec.u64(), rec.u64(), rec.u32())
        else {
            break; // torn tail: not even a whole record header
        };
        if body_len > MAX_RECORD_BODY {
            break;
        }
        let Ok(body) = rec.bytes(body_len as usize) else {
            break; // torn tail: the record never finished hitting disk
        };
        if record_crc(kind, handle, body) != crc {
            break; // bit flip: never trust the record or anything after it
        }
        let op = match kind {
            REC_INSERT => {
                let mut r = Cursor::new(body);
                match decode_factors(&mut r).and_then(|f| finish(&r).map(|()| f)) {
                    Ok(f) => WalOp::Insert(handle, f),
                    Err(_) => break, // checksum passed but shape is nonsense
                }
            }
            REC_RELEASE if body.is_empty() => WalOp::Release(handle),
            _ => break,
        };
        ops.push(op);
        off = bytes.len() - rec.rest().len();
    }
    (ops, off)
}

/// Load a snapshot file. Missing file = empty store (first boot). Any
/// damage is a hard error: snapshots are written atomically, so a corrupt
/// one means at-rest damage that replay cannot repair — refusing to serve
/// beats silently forgetting kept factors.
fn read_snapshot(path: &Path) -> Result<Vec<(u64, TileQrFactors)>, WalError> {
    let mut bytes = Vec::new();
    match std::fs::File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    }
    if bytes.len() < 20 {
        return Err(WalError::Malformed("snapshot shorter than its header"));
    }
    let mut head = Cursor::new(&bytes);
    if head.bytes(4)? != SNAP_MAGIC {
        return Err(WalError::BadMagic);
    }
    let version = head.u32()?;
    if version != DURABLE_VERSION {
        return Err(WalError::Version(version));
    }
    let (body_len, crc, body) = (head.u64()? as usize, head.u32()?, head.rest());
    if body.len() != body_len {
        return Err(WalError::Malformed("snapshot length mismatch"));
    }
    if fnv1a(body) != crc {
        return Err(WalError::Checksum);
    }
    let mut r = Cursor::new(body);
    let count = r.u64()?;
    if count > MAX_RECORD_BODY {
        return Err(WalError::Malformed("absurd entry count"));
    }
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let h = r.u64()?;
        entries.push((h, decode_factors(&mut r)?));
    }
    finish(&r)?;
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulsar_core::{tile_qr_seq, QrOptions, Tree};
    use pulsar_linalg::Matrix;

    fn factors(m: usize, seed: u64) -> Arc<TileQrFactors> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::SeedableRng;
        let a = Matrix::random(m, 8, &mut rng);
        Arc::new(tile_qr_seq(&a, &QrOptions::new(4, 2, Tree::Flat)))
    }

    fn h(id: u64) -> FactorHandle {
        FactorHandle::from_raw(id)
    }

    #[test]
    fn lru_evicts_the_least_recently_touched() {
        let f = factors(16, 1);
        let one = f.approx_bytes();
        let mut store = FactorStore::new(3 * one);
        store.insert(h(1), f.clone()).unwrap();
        store.insert(h(2), factors(16, 2)).unwrap();
        store.insert(h(3), factors(16, 3)).unwrap();
        assert_eq!(store.len(), 3);
        // Touch 1 so 2 becomes the LRU victim.
        store.get(h(1)).unwrap();
        store.insert(h(4), factors(16, 4)).unwrap();
        assert_eq!(store.len(), 3);
        assert!(store.get(h(1)).is_ok());
        assert_eq!(
            store.get(h(2)).unwrap_err(),
            StoreError::HandleExpired(h(2))
        );
        assert!(store.get(h(3)).is_ok());
        assert_eq!(store.stats().evictions, 1);
        assert_eq!(store.stats().misses, 1);
        assert!(store.bytes() <= store.budget());
    }

    #[test]
    fn oversized_entry_is_rejected_not_thrashed() {
        let small = factors(16, 1);
        let mut store = FactorStore::new(small.approx_bytes());
        store.insert(h(1), small).unwrap();
        let big = factors(64, 2);
        match store.insert(h(2), big) {
            Err(StoreError::StoreFull { needed, budget }) => {
                assert!(needed > budget);
            }
            other => panic!("expected StoreFull, got {other:?}"),
        }
        // The resident entry survived the refusal.
        assert!(store.get(h(1)).is_ok());
        assert_eq!(store.stats().rejected, 1);
    }

    #[test]
    fn release_frees_bytes_and_expires_the_handle() {
        let mut store = FactorStore::new(1 << 20);
        store.insert(h(7), factors(16, 7)).unwrap();
        assert!(store.bytes() > 0);
        assert!(store.release(h(7)));
        assert!(!store.release(h(7)), "double release is a miss");
        assert_eq!(store.bytes(), 0);
        assert!(store.is_empty());
        assert_eq!(
            store.get(h(7)).unwrap_err(),
            StoreError::HandleExpired(h(7))
        );
        assert_eq!(store.stats().released, 1);
    }

    #[test]
    fn replacing_a_handle_keeps_one_entry_and_its_gate() {
        let mut store = FactorStore::new(1 << 20);
        store.insert(h(1), factors(16, 1)).unwrap();
        let gate = store.update_gate(h(1)).unwrap();
        let bigger = factors(32, 1);
        let bytes = bigger.approx_bytes();
        store.insert(h(1), bigger).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), bytes);
        assert!(
            Arc::ptr_eq(&gate, &store.update_gate(h(1)).unwrap()),
            "update gate survives replacement"
        );
    }

    #[test]
    fn in_flight_readers_survive_eviction() {
        let f = factors(16, 1);
        let mut store = FactorStore::new(f.approx_bytes());
        store.insert(h(1), f).unwrap();
        let reader = store.get(h(1)).unwrap();
        store.insert(h(2), factors(16, 2)).unwrap(); // evicts 1
        assert!(store.get(h(1)).is_err());
        assert_eq!(reader.n, 8, "evicted factors stay readable via the Arc");
    }

    #[test]
    fn stats_json_shape() {
        let mut store = FactorStore::new(1 << 20);
        store.insert(h(1), factors(16, 1)).unwrap();
        store.get(h(1)).unwrap();
        let _ = store.get(h(9));
        let json = store.stats_json().write();
        for key in [
            "\"entries\":1",
            "\"budget_bytes\":1048576",
            "\"hits\":1",
            "\"misses\":1",
            "\"inserts\":1",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
