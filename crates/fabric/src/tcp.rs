//! TCP backend: real OS processes connected by a full mesh of nonblocking
//! sockets.
//!
//! Topology: node `r` actively connects to every lower rank and accepts a
//! connection from every higher rank; a 4-byte little-endian rank
//! handshake identifies the dialer. All streams then go nonblocking with
//! Nagle disabled. Sends append encoded frames to a per-peer outbound
//! queue drained opportunistically on every `test`/`idle`; a send
//! completes when its last byte reaches the kernel. Receives parse the
//! per-peer inbound buffer into frames (see [`crate::frame`]), verifying
//! the per-connection sequence number.
//!
//! Failure handling: transient conditions are absorbed here — mesh-up
//! redials a not-yet-listening peer with bounded exponential backoff,
//! partial writes and `EINTR` are retried, and `WouldBlock` just defers
//! progress to the next pump. Optional heartbeat frames
//! ([`TcpFabric::set_heartbeat`]) detect a peer that is silent without
//! closing its socket. With a [`RetryPolicy`] enabled
//! ([`TcpFabric::set_retry`]), a *dropped connection* (EOF, I/O error,
//! liveness timeout) opens a bounded recovery window instead of failing:
//! the original dial direction re-establishes the socket, un-acked
//! reliable frames are replayed from a bounded sender-side log (pruned by
//! the cumulative ack in every frame header), and the receiver's sequence
//! check deduplicates anything delivered twice. Only exhausted windows
//! escalate ([`FabricError::RetriesExhausted`]). Everything else (peer
//! abort, malformed frame, sequence gap) is fatal: it surfaces as a
//! [`FabricError`] and the fabric goes sticky-failed.

use crate::frame::{decode_header, encode_header, FrameError, FrameHeader, FrameKind, HEADER_LEN};
use crate::{Completion, Fabric, FabricError, FabricHealth, NodeId, Op, RetryPolicy};
use std::cmp::Ordering;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Op id used for internal frames (barrier/heartbeat/abort) that no
/// caller-visible operation tracks.
const NO_OP: u64 = u64::MAX;

/// Cap on a peer's sender-side replay log. Overflowing it clears the log
/// and marks the peer unhealable: a reconnection could no longer replay
/// the gap, so pretending otherwise would corrupt the stream.
const REPLAY_CAP: usize = 64 << 20;

/// How long a not-yet-identified reconnection attempt may sit in the
/// accept queue before it is discarded.
const ACCEPT_GRACE: Duration = Duration::from_secs(5);

/// A reliable frame retained until the peer's cumulative ack covers it,
/// so it can be re-sent verbatim after a reconnect.
struct ReplayFrame {
    seq: u64,
    header: [u8; HEADER_LEN],
    body: Vec<u8>,
}

/// Recovery-window state for a peer whose connection dropped.
struct Reconnect {
    attempts_left: u32,
    next_at: Instant,
}

/// A frame being written: fixed header + body, with a write cursor across
/// both.
struct OutFrame {
    op: u64,
    header: [u8; HEADER_LEN],
    body: Vec<u8>,
    written: usize,
    /// Logical payload size reported by `get_count` on completion.
    count: usize,
    /// Whether this frame already needed a second write attempt
    /// (for the retried-sends counter).
    retried: bool,
}

struct Peer {
    /// `None` while the connection is down and a recovery window is open.
    stream: Option<TcpStream>,
    out: VecDeque<OutFrame>,
    inbuf: Vec<u8>,
    next_seq_out: u64,
    next_seq_in: u64,
    /// Peer closed its end (or its socket errored) and no recovery window
    /// applies; frames already parsed stay valid, but nothing more can
    /// flow.
    eof: bool,
    /// Peer announced a deliberate shutdown with an abort frame.
    aborted: bool,
    /// Last time any bytes arrived from this peer (liveness).
    last_recv: Instant,
    /// Highest barrier epoch this peer has announced entering.
    barrier_epoch: u64,
    /// Un-acked reliable frames, oldest first (empty when retry is off).
    replay: VecDeque<ReplayFrame>,
    replay_bytes: usize,
    /// The replay log overflowed [`REPLAY_CAP`]: this peer can no longer
    /// be healed.
    replay_overflow: bool,
    /// Highest cumulative ack this node has stamped on a frame to this
    /// peer (to know when a standalone ack is worth sending).
    last_ack_sent: u64,
    /// Open recovery window, if the connection is currently down.
    reconnect: Option<Reconnect>,
}

impl Peer {
    fn usable(&self) -> bool {
        !self.eof && !self.aborted
    }
}

struct Heartbeat {
    interval: Duration,
    liveness: Duration,
    last_sent: Instant,
}

/// One node's endpoint of a TCP full mesh (see [`TcpFabric::connect`]).
pub struct TcpFabric {
    rank: NodeId,
    nodes: usize,
    /// `None` at `rank`.
    peers: Vec<Option<Peer>>,
    /// Kept after mesh-up so higher-rank peers can re-dial us during a
    /// recovery window.
    listener: Option<TcpListener>,
    /// Every node's address, for re-dialing lower-rank peers.
    addrs: Vec<String>,
    retry: RetryPolicy,
    /// Accepted-but-unidentified reconnection attempts: stream, partial
    /// 4-byte rank handshake, accept time.
    pending_accepts: Vec<(TcpStream, Vec<u8>, Instant)>,
    inbox: VecDeque<(u32, Vec<u8>, usize)>,
    recv_ops: VecDeque<u64>,
    /// Send op -> peer whose queue holds its frame.
    send_ops: HashMap<u64, NodeId>,
    counts: HashMap<u64, usize>,
    next_op: u64,
    barrier_epoch: u64,
    sent: u64,
    received: u64,
    heartbeat: Option<Heartbeat>,
    health: FabricHealth,
    /// First fatal error; every later operation reports it again.
    failed: Option<FabricError>,
    /// Abort frames already broadcast (abort is idempotent).
    abort_sent: bool,
}

impl TcpFabric {
    /// Join the mesh as `rank`, dialing `addrs[0..rank]` and accepting
    /// `addrs.len() - rank - 1` connections on `listener` (which must be
    /// the socket `addrs[rank]` points at). Blocks until the mesh is
    /// complete or `timeout` passes. Peers whose listeners are not up yet
    /// are redialed with exponential backoff (1 ms doubling to 250 ms);
    /// each redial counts as a reconnect attempt in [`FabricHealth`].
    pub fn connect(
        rank: NodeId,
        listener: TcpListener,
        addrs: &[String],
        timeout: Duration,
    ) -> std::io::Result<TcpFabric> {
        let nodes = addrs.len();
        assert!(rank < nodes, "rank {rank} outside {nodes} nodes");
        let deadline = Instant::now() + timeout;
        let mut peers: Vec<Option<Peer>> = (0..nodes).map(|_| None).collect();
        let mut health = FabricHealth::default();

        // Dial every lower rank (their listeners are already bound; the
        // kernel backlog accepts the handshake even before they call
        // accept, so sequential dial-then-accept cannot deadlock).
        for (j, addr) in addrs.iter().enumerate().take(rank) {
            let mut backoff = Duration::from_millis(1);
            let stream = loop {
                match TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(e) if Instant::now() + backoff < deadline => {
                        let _ = e;
                        health.reconnect_attempts += 1;
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_millis(250));
                    }
                    Err(e) => return Err(e),
                }
            };
            let mut stream = stream;
            stream.write_all(&(rank as u32).to_le_bytes())?;
            peers[j] = Some(Self::init_peer(stream)?);
        }

        // Accept every higher rank.
        listener.set_nonblocking(true)?;
        let mut missing = nodes - rank - 1;
        while missing > 0 {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
                    let mut id = [0u8; 4];
                    stream.read_exact(&mut id)?;
                    let peer_rank = u32::from_le_bytes(id) as usize;
                    if peer_rank <= rank || peer_rank >= nodes || peers[peer_rank].is_some() {
                        return Err(std::io::Error::other(format!(
                            "bogus handshake rank {peer_rank} at node {rank}"
                        )));
                    }
                    stream.set_read_timeout(None)?;
                    peers[peer_rank] = Some(Self::init_peer(stream)?);
                    missing -= 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!("node {rank} still waiting for {missing} peers"),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }

        Ok(TcpFabric {
            rank,
            nodes,
            peers,
            listener: Some(listener),
            addrs: addrs.to_vec(),
            retry: RetryPolicy::none(),
            pending_accepts: Vec::new(),
            inbox: VecDeque::new(),
            recv_ops: VecDeque::new(),
            send_ops: HashMap::new(),
            counts: HashMap::new(),
            next_op: 0,
            barrier_epoch: 0,
            sent: 0,
            received: 0,
            heartbeat: None,
            health,
            failed: None,
            abort_sent: false,
        })
    }

    /// Enable heartbeats: queue a probe to every peer each `interval`, and
    /// declare a peer dead ([`FabricError::Timeout`]) when nothing at all
    /// arrives from it for `liveness`. `liveness` should be several
    /// intervals to tolerate scheduling jitter.
    pub fn set_heartbeat(&mut self, interval: Duration, liveness: Duration) {
        self.heartbeat = Some(Heartbeat {
            interval,
            liveness,
            last_sent: Instant::now(),
        });
    }

    fn init_peer(stream: TcpStream) -> std::io::Result<Peer> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Peer {
            stream: Some(stream),
            out: VecDeque::new(),
            inbuf: Vec::new(),
            next_seq_out: 0,
            next_seq_in: 0,
            eof: false,
            aborted: false,
            last_recv: Instant::now(),
            barrier_epoch: 0,
            replay: VecDeque::new(),
            replay_bytes: 0,
            replay_overflow: false,
            last_ack_sent: 0,
            reconnect: None,
        })
    }

    /// Enable the bounded in-run recovery window: when a peer's connection
    /// drops (EOF, I/O error, liveness timeout), re-dial it up to
    /// `retry.attempts` times, `retry.backoff` apart, replaying un-acked
    /// frames once the connection is back. Call before the first send:
    /// replay logging is gated on the policy, so frames sent while it was
    /// off are not replayable.
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    fn next_op(&mut self) -> Op {
        let id = self.next_op;
        self.next_op += 1;
        Op(id)
    }

    fn fail(&mut self, e: FabricError) -> FabricError {
        if self.failed.is_none() {
            self.failed = Some(e.clone());
        }
        e
    }

    fn check(&self) -> Result<(), FabricError> {
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// First peer that can no longer deliver anything, if any.
    fn dead_peer(&self) -> Option<NodeId> {
        self.peers
            .iter()
            .enumerate()
            .find_map(|(r, s)| s.as_ref().and_then(|p| (!p.usable()).then_some(r)))
    }

    fn queue_frame(&mut self, dst: NodeId, kind: FrameKind, body: Vec<u8>, op: u64, count: usize) {
        let log_replay = self.retry.attempts > 0;
        let peer = self.peers[dst]
            .as_mut()
            .unwrap_or_else(|| panic!("node sending to itself or unknown peer {dst}"));
        let reliable = kind.is_reliable();
        let seq = if reliable {
            let s = peer.next_seq_out;
            peer.next_seq_out += 1;
            s
        } else {
            0
        };
        let ack = peer.next_seq_in;
        let header = encode_header(&FrameHeader {
            kind,
            seq,
            ack,
            len: body.len() as u64,
        });
        if reliable && log_replay {
            peer.replay_bytes += HEADER_LEN + body.len();
            peer.replay.push_back(ReplayFrame {
                seq,
                header,
                body: body.clone(),
            });
            if peer.replay_bytes > REPLAY_CAP {
                peer.replay.clear();
                peer.replay_bytes = 0;
                peer.replay_overflow = true;
            }
        }
        if peer.stream.is_none() {
            // Recovery window open: reliable frames live in the replay log
            // and go out at heal time; control frames are dropped (they
            // carry no state a reconnect needs). Tracked sends complete
            // now — the replay log owns the bytes.
            if self.send_ops.contains_key(&op) {
                self.counts.insert(op, count);
            }
            return;
        }
        peer.last_ack_sent = ack;
        peer.out.push_back(OutFrame {
            op,
            header,
            body,
            written: 0,
            count,
            retried: false,
        });
    }

    /// Drive all socket I/O once: sticky-failure check, heartbeat
    /// scheduling, reconnection attempts, reads/writes/parsing, liveness
    /// check.
    fn pump(&mut self) -> Result<bool, FabricError> {
        self.check()?;
        if let Some(hb) = &self.heartbeat {
            if hb.last_sent.elapsed() >= hb.interval {
                let dsts: Vec<NodeId> = (0..self.nodes)
                    .filter(|&d| {
                        self.peers[d]
                            .as_ref()
                            .is_some_and(|p| p.usable() && p.stream.is_some())
                    })
                    .collect();
                if let Some(hb) = &mut self.heartbeat {
                    hb.last_sent = Instant::now();
                }
                for d in dsts {
                    self.queue_frame(d, FrameKind::Heartbeat, Vec::new(), NO_OP, 0);
                    self.health.heartbeats_sent += 1;
                }
            }
        }
        self.try_reconnects()?;
        let progressed = match self.pump_io() {
            Ok(p) => p,
            Err(e) => return Err(self.fail(e)),
        };
        if let Some(hb) = &self.heartbeat {
            let liveness = hb.liveness;
            let silent = self.peers.iter().enumerate().find_map(|(r, s)| {
                s.as_ref().and_then(|p| {
                    (p.usable() && p.stream.is_some() && p.last_recv.elapsed() > liveness)
                        .then(|| (r, p.last_recv.elapsed()))
                })
            });
            if let Some((peer, waited)) = silent {
                self.health.heartbeats_missed += 1;
                if self.healable(peer) {
                    // A silent-but-open connection is treated like a
                    // dropped one: tear it down and open the recovery
                    // window.
                    self.start_recovery(peer);
                } else {
                    if let Some(p) = self.peers[peer].as_mut() {
                        p.eof = true;
                    }
                    return Err(self.fail(FabricError::Timeout { peer, waited }));
                }
            }
        }
        Ok(progressed)
    }

    /// Whether a connection fault on `peer` may enter the recovery window
    /// instead of being fatal.
    fn healable(&self, peer: NodeId) -> bool {
        self.retry.attempts > 0
            && self.peers[peer]
                .as_ref()
                .is_some_and(|p| !p.replay_overflow && !p.aborted && !p.eof)
    }

    /// Tear down a peer's connection and open its recovery window:
    /// pending tracked sends complete (the replay log owns their bytes),
    /// the inbound buffer is discarded (the sender will replay anything
    /// un-acked), and reconnection attempts begin.
    fn start_recovery(&mut self, r: NodeId) {
        let attempts = self.retry.attempts;
        let peer = self.peers[r].as_mut().unwrap();
        peer.stream = None;
        peer.inbuf.clear();
        peer.eof = false;
        peer.reconnect = Some(Reconnect {
            attempts_left: attempts,
            next_at: Instant::now(),
        });
        let drained: Vec<OutFrame> = peer.out.drain(..).collect();
        for f in drained {
            if self.send_ops.contains_key(&f.op) {
                self.counts.insert(f.op, f.count);
            }
        }
    }

    /// Install a fresh connection for `r` and replay every un-acked
    /// reliable frame. Also used to "force-heal" when a higher-rank peer
    /// re-dials before we noticed the drop ourselves.
    fn heal_peer(&mut self, r: NodeId, stream: TcpStream) -> std::io::Result<()> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let peer = self.peers[r].as_mut().unwrap();
        peer.stream = Some(stream);
        peer.inbuf.clear();
        peer.eof = false;
        peer.reconnect = None;
        peer.last_recv = Instant::now();
        let drained: Vec<OutFrame> = peer.out.drain(..).collect();
        for rf in &peer.replay {
            peer.out.push_back(OutFrame {
                op: NO_OP,
                header: rf.header,
                body: rf.body.clone(),
                written: 0,
                count: 0,
                retried: false,
            });
        }
        self.health.frames_replayed += peer.replay.len() as u64;
        self.health.retries_healed += 1;
        for f in drained {
            if self.send_ops.contains_key(&f.op) {
                self.counts.insert(f.op, f.count);
            }
        }
        Ok(())
    }

    /// Drive every open recovery window once: poll the listener for
    /// re-dialing higher-rank peers, re-dial lower-rank peers that are
    /// due, and escalate peers whose window is exhausted.
    fn try_reconnects(&mut self) -> Result<(), FabricError> {
        if self.retry.attempts == 0 {
            return Ok(());
        }
        let reconnecting = self.peers.iter().flatten().any(|p| p.reconnect.is_some());
        if !reconnecting && self.pending_accepts.is_empty() {
            return Ok(());
        }
        self.poll_reconnect_accepts();
        let now = Instant::now();
        let backoff = self.retry.backoff;
        let mut exhausted: Option<NodeId> = None;
        let mut dials: Vec<NodeId> = Vec::new();
        let rank = self.rank;
        for (r, slot) in self.peers.iter_mut().enumerate() {
            let Some(peer) = slot.as_mut() else { continue };
            let Some(rc) = peer.reconnect.as_mut() else {
                continue;
            };
            if rc.next_at > now {
                continue;
            }
            if rc.attempts_left == 0 {
                exhausted = Some(r);
                break;
            }
            rc.attempts_left -= 1;
            rc.next_at = now + backoff;
            self.health.reconnect_attempts += 1;
            if r < rank {
                dials.push(r);
            }
            // Higher ranks re-dial us; their attempts tick down here so
            // the window is bounded on both sides.
        }
        if let Some(r) = exhausted {
            let attempts = self.retry.attempts;
            if let Some(p) = self.peers[r].as_mut() {
                p.eof = true;
                p.reconnect = None;
            }
            return Err(self.fail(FabricError::RetriesExhausted { peer: r, attempts }));
        }
        for r in dials {
            if let Ok(mut s) = TcpStream::connect(&self.addrs[r]) {
                if s.write_all(&(self.rank as u32).to_le_bytes()).is_ok() {
                    let _ = self.heal_peer(r, s);
                }
            }
        }
        Ok(())
    }

    /// Accept and identify reconnection attempts from higher-rank peers.
    /// Reads at most the 4-byte rank handshake from each pending stream —
    /// any frame bytes behind it stay in the kernel buffer for the normal
    /// read path after the heal.
    fn poll_reconnect_accepts(&mut self) {
        {
            let Some(listener) = &self.listener else {
                return;
            };
            // Stops on WouldBlock (or any transient error): retried on the
            // next pump.
            while let Ok((s, _)) = listener.accept() {
                if s.set_nonblocking(true).is_ok() {
                    self.pending_accepts.push((s, Vec::new(), Instant::now()));
                }
            }
        }
        let mut i = 0;
        while i < self.pending_accepts.len() {
            let mut drop_it;
            let mut healed: Option<NodeId> = None;
            {
                let (s, buf, since) = &mut self.pending_accepts[i];
                drop_it = since.elapsed() > ACCEPT_GRACE;
                let need = 4 - buf.len();
                if !drop_it && need > 0 {
                    let mut tmp = [0u8; 4];
                    match s.read(&mut tmp[..need]) {
                        Ok(0) => drop_it = true,
                        Ok(k) => buf.extend_from_slice(&tmp[..k]),
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => drop_it = true,
                    }
                }
                if !drop_it && buf.len() == 4 {
                    let pr = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
                    drop_it = true; // identified (or bogus): leaves the queue either way
                    if pr > self.rank && pr < self.nodes && self.peers[pr].is_some() {
                        healed = Some(pr);
                    }
                }
            }
            if let Some(pr) = healed {
                let (s, _, _) = self.pending_accepts.remove(i);
                // The peer noticed the drop before we did: force-heal
                // (heal_peer discards our stale stream and buffers).
                let _ = self.heal_peer(pr, s);
                continue;
            }
            if drop_it {
                self.pending_accepts.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Reads, writes, and frame parsing for every peer.
    ///
    /// A connection fault (EOF, write to a closed socket, I/O error) is
    /// recorded per peer, and complete frames already in the inbound
    /// buffer are still parsed first — a peer that sent its final barrier
    /// and exited must not look like a transient drop. Only then is the
    /// fault dispatched: into the recovery window when [`RetryPolicy`]
    /// allows, otherwise along the old fatal path. Protocol violations
    /// (malformed frames, sequence gaps) are never healed.
    fn pump_io(&mut self) -> Result<bool, FabricError> {
        let mut progressed = false;
        let mut fatal: Option<FabricError> = None;
        let retry_enabled = self.retry.attempts > 0;
        let mut want_ack: Vec<NodeId> = Vec::new();
        let mut to_recover: Vec<NodeId> = Vec::new();
        'peers: for (peer_rank, slot) in self.peers.iter_mut().enumerate() {
            let Some(peer) = slot.as_mut() else { continue };
            if peer.stream.is_none() {
                continue; // recovery window open; try_reconnects drives it
            }
            // `Some(None)` = connection gone cleanly (EOF / closed socket),
            // `Some(Some(e))` = I/O error. Dispatched after parsing.
            let mut fault: Option<Option<FabricError>> = None;
            // A write found the peer gone; reported only after its read
            // side is drained.
            let mut hung_up = false;

            // Writes: drain the outbound queue as far as the kernel allows.
            while fault.is_none() && !peer.out.is_empty() {
                if !peer.usable() {
                    fault = Some(Some(FabricError::PeerClosed { peer: peer_rank }));
                    break;
                }
                let front = peer.out.front_mut().unwrap();
                let (src, base): (&[u8], usize) = if front.written < HEADER_LEN {
                    (&front.header, front.written)
                } else {
                    (&front.body, front.written - HEADER_LEN)
                };
                match peer.stream.as_mut().unwrap().write(&src[base..]) {
                    Ok(0) => {
                        fault = Some(Some(FabricError::PeerClosed { peer: peer_rank }));
                    }
                    Ok(k) => {
                        front.written += k;
                        self.sent += k as u64;
                        progressed = true;
                        if front.written == HEADER_LEN + front.body.len() {
                            let done = peer.out.pop_front().unwrap();
                            if self.send_ops.contains_key(&done.op) {
                                self.counts.insert(done.op, done.count);
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if front.written > 0 && !front.retried {
                            front.retried = true;
                            self.health.retried_sends += 1;
                        }
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                        self.health.retried_sends += 1;
                        continue;
                    }
                    // The peer closed its end. What it sent before leaving
                    // (an abort frame, its final barrier) may still sit in
                    // our receive buffer, so read that first.
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::BrokenPipe
                                | std::io::ErrorKind::ConnectionReset
                                | std::io::ErrorKind::ConnectionAborted
                        ) =>
                    {
                        hung_up = true;
                        break;
                    }
                    Err(e) => {
                        fault = Some(Some(FabricError::Io {
                            peer: Some(peer_rank),
                            kind: e.kind(),
                            msg: e.to_string(),
                        }));
                    }
                }
            }

            // Reads: pull whatever the kernel has buffered.
            let mut tmp = [0u8; 64 * 1024];
            while fault.is_none() && !peer.eof {
                match peer.stream.as_mut().unwrap().read(&mut tmp) {
                    Ok(0) => {
                        // Orderly close: parse what already arrived, then
                        // let the disposition below decide.
                        fault = Some(None);
                    }
                    Ok(k) => {
                        peer.inbuf.extend_from_slice(&tmp[..k]);
                        peer.last_recv = Instant::now();
                        self.received += k as u64;
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        fault = Some(Some(FabricError::Io {
                            peer: Some(peer_rank),
                            kind: e.kind(),
                            msg: e.to_string(),
                        }));
                    }
                }
            }

            if hung_up {
                fault = Some(Some(FabricError::PeerClosed { peer: peer_rank }));
            }

            // Parse complete frames (even when the connection just died:
            // already-buffered frames are valid and may include the peer's
            // final barrier).
            let mut consumed = 0;
            while peer.inbuf.len() - consumed >= HEADER_LEN {
                let hdr = match decode_header(&peer.inbuf[consumed..consumed + HEADER_LEN]) {
                    Ok(h) => h,
                    Err(reason) => {
                        peer.eof = true;
                        fatal = Some(FabricError::MalformedFrame {
                            peer: peer_rank,
                            reason,
                        });
                        break 'peers;
                    }
                };
                let total = HEADER_LEN + hdr.len as usize;
                if peer.inbuf.len() - consumed < total {
                    break;
                }
                // The cumulative ack frees replayable frames regardless of
                // the frame kind that carried it.
                while peer.replay.front().is_some_and(|f| f.seq < hdr.ack) {
                    let f = peer.replay.pop_front().unwrap();
                    peer.replay_bytes -= HEADER_LEN + f.body.len();
                }
                if hdr.kind.is_reliable() {
                    match hdr.seq.cmp(&peer.next_seq_in) {
                        Ordering::Less => {
                            // Replayed frame we already delivered before
                            // the reconnect: deduplicate silently.
                            consumed += total;
                            continue;
                        }
                        Ordering::Equal => peer.next_seq_in += 1,
                        Ordering::Greater => {
                            peer.eof = true;
                            fatal = Some(FabricError::MalformedFrame {
                                peer: peer_rank,
                                reason: FrameError::OutOfOrder {
                                    expected: peer.next_seq_in,
                                    got: hdr.seq,
                                },
                            });
                            break 'peers;
                        }
                    }
                }
                let body = peer.inbuf[consumed + HEADER_LEN..consumed + total].to_vec();
                consumed += total;
                match hdr.kind {
                    FrameKind::Data { wire_id } => {
                        let n = body.len();
                        self.inbox.push_back((wire_id, body, n));
                    }
                    FrameKind::Barrier => {
                        let epoch = u64::from_le_bytes(body.try_into().unwrap());
                        peer.barrier_epoch = peer.barrier_epoch.max(epoch);
                    }
                    FrameKind::Heartbeat => {} // last_recv already refreshed
                    FrameKind::Ack => {}       // the header's ack did the work
                    FrameKind::Abort => {
                        peer.aborted = true;
                    }
                    // Service frames only: packets carry their own FNV-1a.
                    FrameKind::DataCrc32c { .. } => {
                        peer.eof = true;
                        let reason = FrameError::BadKind(crate::frame::KIND_DATA_CRC32C);
                        fatal = Some(FabricError::MalformedFrame {
                            peer: peer_rank,
                            reason,
                        });
                        break 'peers;
                    }
                }
            }
            if consumed > 0 {
                peer.inbuf.drain(..consumed);
            }

            // Dispatch a connection fault: recovery window when allowed,
            // the old fatal/EOF path otherwise.
            if let Some(cause) = fault {
                let heal = retry_enabled && !peer.replay_overflow && !peer.aborted && !peer.eof;
                if heal {
                    to_recover.push(peer_rank);
                } else {
                    peer.eof = true;
                    if let Some(e) = cause {
                        fatal = Some(e);
                        break 'peers;
                    }
                    // Clean EOF stays non-fatal here: test() and barrier()
                    // decide whether the peer is still needed.
                }
            } else if retry_enabled
                && peer.stream.is_some()
                && peer.out.is_empty()
                && peer.next_seq_in > peer.last_ack_sent
            {
                // Delivery progressed but nothing outbound will carry the
                // ack: queue a standalone one so the peer's replay log
                // stays bounded.
                want_ack.push(peer_rank);
            }
        }
        for r in to_recover {
            self.start_recovery(r);
        }
        for dst in want_ack {
            self.queue_frame(dst, FrameKind::Ack, Vec::new(), NO_OP, 0);
        }
        match fatal {
            Some(e) => Err(e),
            None => Ok(progressed),
        }
    }
}

impl Fabric for TcpFabric {
    type Payload = Vec<u8>;

    fn rank(&self) -> NodeId {
        self.rank
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn post_send(
        &mut self,
        dst: NodeId,
        wire_id: u32,
        payload: Vec<u8>,
        bytes: usize,
    ) -> Result<Op, FabricError> {
        self.check()?;
        let _ = bytes; // wire accounting uses actual frame bytes
        if self.peers[dst].as_ref().is_some_and(|p| !p.usable()) {
            return Err(self.fail(FabricError::PeerClosed { peer: dst }));
        }
        let op = self.next_op();
        let count = payload.len();
        self.send_ops.insert(op.0, dst);
        self.queue_frame(dst, FrameKind::Data { wire_id }, payload, op.0, count);
        self.pump()?;
        Ok(op)
    }

    fn post_recv(&mut self) -> Result<Op, FabricError> {
        self.check()?;
        let op = self.next_op();
        self.recv_ops.push_back(op.0);
        Ok(op)
    }

    fn test(&mut self, op: Op) -> Result<Completion<Vec<u8>>, FabricError> {
        self.pump()?;
        if let Some(dst) = self.send_ops.get(&op.0).copied() {
            // Complete when the frame is no longer queued (fully written).
            let queued = self.peers[dst]
                .as_ref()
                .is_some_and(|p| p.out.iter().any(|f| f.op == op.0));
            if queued {
                return Ok(Completion::Pending);
            }
            self.send_ops.remove(&op.0);
            return Ok(Completion::SendDone);
        }
        if self.recv_ops.front() == Some(&op.0) {
            if let Some((wire_id, payload, bytes)) = self.inbox.pop_front() {
                self.recv_ops.pop_front();
                self.counts.insert(op.0, bytes);
                return Ok(Completion::Recv {
                    wire_id,
                    payload,
                    bytes,
                });
            }
            // A receive is pending, nothing is buffered, and a peer can
            // never deliver again: surface it instead of spinning forever.
            // (The orderly shutdown path never tests a receive after the
            // barrier, so a clean close is not misreported.)
            if let Some(peer) = self.dead_peer() {
                return Err(self.fail(FabricError::PeerClosed { peer }));
            }
        }
        Ok(Completion::Pending)
    }

    fn get_count(&mut self, op: Op) -> Option<usize> {
        self.counts.remove(&op.0)
    }

    fn barrier(&mut self, poison: &mut dyn FnMut() -> bool) -> Result<(), FabricError> {
        self.check()?;
        self.barrier_epoch += 1;
        let epoch = self.barrier_epoch;
        for dst in 0..self.nodes {
            if dst != self.rank {
                self.queue_frame(
                    dst,
                    FrameKind::Barrier,
                    epoch.to_le_bytes().to_vec(),
                    NO_OP,
                    8,
                );
            }
        }
        loop {
            self.pump()?;
            let mut entered = 0;
            let mut gone: Option<NodeId> = None;
            for (r, peer) in self.peers.iter().enumerate() {
                let Some(peer) = peer else { continue };
                if peer.barrier_epoch >= epoch {
                    entered += 1;
                } else if !peer.usable() {
                    // The peer died before entering: it can never arrive.
                    gone = Some(r);
                }
            }
            if entered >= self.nodes - 1 {
                return Ok(());
            }
            if let Some(peer) = gone {
                return Err(self.fail(FabricError::PeerClosed { peer }));
            }
            if poison() {
                return Err(FabricError::Cancelled);
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    fn cancel(&mut self, op: Op) {
        self.recv_ops.retain(|&o| o != op.0);
        self.send_ops.remove(&op.0);
        self.counts.remove(&op.0);
    }

    fn abort(&mut self) {
        if self.abort_sent {
            return;
        }
        self.abort_sent = true;
        let dsts: Vec<NodeId> = (0..self.nodes)
            .filter(|&d| self.peers[d].as_ref().is_some_and(Peer::usable))
            .collect();
        for d in dsts {
            self.queue_frame(d, FrameKind::Abort, Vec::new(), NO_OP, 0);
        }
        // Best-effort flush: keep pumping briefly, dropping queues aimed at
        // peers that are themselves gone.
        let deadline = Instant::now() + Duration::from_millis(200);
        loop {
            for p in self.peers.iter_mut().flatten() {
                if !p.usable() {
                    p.out.clear();
                }
            }
            if !self.peers.iter().flatten().any(|p| !p.out.is_empty()) || Instant::now() >= deadline
            {
                break;
            }
            let _ = self.pump_io();
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn idle(&mut self, max: Duration) {
        // No portable readiness wait over many sockets in std; nap briefly,
        // then let the caller's next test() pump.
        std::thread::sleep(max.min(Duration::from_micros(200)));
        let _ = self.pump();
    }

    fn health(&self) -> FabricHealth {
        self.health
    }

    fn drop_connections(&mut self) {
        // Sever every live socket without telling anyone: both sides
        // observe the fault on their next I/O, exactly like a network
        // drop. State is not touched — the pump discovers it.
        for p in self.peers.iter_mut().flatten() {
            if let Some(s) = &p.stream {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    fn bytes_sent(&self) -> u64 {
        self.sent
    }

    fn bytes_received(&self) -> u64 {
        self.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn localhost_pair() -> (TcpFabric, TcpFabric) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![
            l0.local_addr().unwrap().to_string(),
            l1.local_addr().unwrap().to_string(),
        ];
        let a1 = addrs.clone();
        let t = std::thread::spawn(move || {
            TcpFabric::connect(1, l1, &a1, Duration::from_secs(5)).unwrap()
        });
        let f0 = TcpFabric::connect(0, l0, &addrs, Duration::from_secs(5)).unwrap();
        (f0, t.join().unwrap())
    }

    fn wait_recv(f: &mut TcpFabric, op: Op) -> (u32, Vec<u8>, usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match f.test(op).expect("fabric healthy") {
                Completion::Recv {
                    wire_id,
                    payload,
                    bytes,
                } => return (wire_id, payload, bytes),
                Completion::Pending => {
                    assert!(Instant::now() < deadline, "recv timed out");
                    f.idle(Duration::from_micros(100));
                }
                Completion::SendDone => unreachable!(),
            }
        }
    }

    #[test]
    fn roundtrip_small_and_large() {
        let (mut f0, mut f1) = localhost_pair();
        // Large payload exercises partial writes through the kernel buffer.
        let big: Vec<u8> = (0..8 * 1024 * 1024).map(|i| (i % 251) as u8).collect();
        let s1 = f0.post_send(1, 5, b"ping".to_vec(), 4).unwrap();
        let s2 = f0.post_send(1, 6, big.clone(), big.len()).unwrap();

        // Pump with the receiver idle: its window cannot grow, so the
        // 8 MiB body must stall mid-frame and move the retry counter.
        let stall_deadline = Instant::now() + Duration::from_secs(5);
        while f0.health().retried_sends == 0 {
            assert!(Instant::now() < stall_deadline, "send never stalled");
            let _ = f0.test(s2).unwrap();
        }

        let handle = std::thread::spawn(move || {
            let r = f1.post_recv().unwrap();
            let (w1, p1, b1) = wait_recv(&mut f1, r);
            assert_eq!((w1, p1.as_slice(), b1), (5, b"ping".as_slice(), 4));
            assert_eq!(f1.get_count(r), Some(4));
            let r2 = f1.post_recv().unwrap();
            let (w2, p2, _) = wait_recv(&mut f1, r2);
            assert_eq!(w2, 6);
            assert_eq!(p2, big);
            f1
        });

        let deadline = Instant::now() + Duration::from_secs(5);
        let mut done = [false; 2];
        while !done.iter().all(|&d| d) {
            assert!(Instant::now() < deadline, "sends timed out");
            for (i, &op) in [s1, s2].iter().enumerate() {
                if !done[i] && matches!(f0.test(op).unwrap(), Completion::SendDone) {
                    done[i] = true;
                }
            }
        }
        let f1 = handle.join().unwrap();
        assert!(f0.bytes_sent() > 8 * 1024 * 1024);
        assert!(f1.bytes_received() > 8 * 1024 * 1024);
        assert!(f0.health().retried_sends > 0);
    }

    #[test]
    fn barrier_and_cancel_shutdown() {
        let (mut f0, mut f1) = localhost_pair();
        let r0 = f0.post_recv().unwrap();
        let t = std::thread::spawn(move || {
            let r1 = f1.post_recv().unwrap();
            f1.barrier(&mut || false).unwrap();
            f1.cancel(r1);
        });
        f0.barrier(&mut || false).unwrap();
        f0.cancel(r0);
        t.join().unwrap();
    }

    #[test]
    fn poisoned_barrier_unblocks() {
        let (mut f0, _f1) = localhost_pair();
        let mut n = 0;
        let r = f0.barrier(&mut || {
            n += 1;
            n > 10
        });
        assert_eq!(r, Err(FabricError::Cancelled));
    }

    #[test]
    fn dead_peer_fails_pending_recv() {
        let (mut f0, f1) = localhost_pair();
        let r = f0.post_recv().unwrap();
        assert!(matches!(f0.test(r), Ok(Completion::Pending)));
        drop(f1); // socket closes
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = loop {
            match f0.test(r) {
                Ok(Completion::Pending) => {
                    assert!(Instant::now() < deadline, "close never detected");
                    f0.idle(Duration::from_micros(100));
                }
                Ok(c) => panic!("unexpected completion {c:?}"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, FabricError::PeerClosed { peer: 1 });
        // Sticky: the same error again, without hanging.
        assert_eq!(f0.test(r), Err(FabricError::PeerClosed { peer: 1 }));
        assert_eq!(
            f0.post_send(1, 0, vec![1], 1),
            Err(FabricError::PeerClosed { peer: 1 })
        );
    }

    #[test]
    fn write_to_a_peer_that_already_closed_is_peer_closed_not_io() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![
            l0.local_addr().unwrap().to_string(),
            l1.local_addr().unwrap().to_string(),
        ];
        let a1 = addrs.clone();
        let (sent, hang_up) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || {
            // A "rank 1" that handshakes, waits for our first frame, and
            // hangs up without reading it: the kernel answers the unread
            // bytes with a reset, so our next write fails outright. It
            // waits for the first send to return, so the hang-up cannot
            // race that send's own pump.
            let mut s = TcpStream::connect(&a1[0]).unwrap();
            s.write_all(&1u32.to_le_bytes()).unwrap();
            s.peek(&mut [0u8; 1]).unwrap();
            hang_up.recv().unwrap();
        });
        let mut f0 = TcpFabric::connect(0, l0, &addrs, Duration::from_secs(5)).unwrap();
        f0.post_send(1, 0, vec![1], 1).unwrap();
        sent.send(()).unwrap();
        t.join().unwrap();
        // Wait for the reset on the raw socket, not through the fabric: a
        // pump would notice it on the read side first.
        let stream = f0.peers[1].as_ref().unwrap().stream.as_ref().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while stream.take_error().unwrap().is_none() {
            assert!(Instant::now() < deadline, "reset never arrived");
            std::thread::yield_now();
        }
        assert_eq!(
            f0.post_send(1, 0, vec![2], 1),
            Err(FabricError::PeerClosed { peer: 1 })
        );
    }

    #[test]
    fn malformed_frame_is_typed_not_panic() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![
            l0.local_addr().unwrap().to_string(),
            l1.local_addr().unwrap().to_string(),
        ];
        let a1 = addrs.clone();
        let t = std::thread::spawn(move || {
            // A hostile "rank 1" that handshakes correctly, then spews junk.
            let mut s = TcpStream::connect(&a1[0]).unwrap();
            s.write_all(&1u32.to_le_bytes()).unwrap();
            s.write_all(b"this is definitely not a PSLF frame......")
                .unwrap();
            s
        });
        let mut f0 = TcpFabric::connect(0, l0, &addrs, Duration::from_secs(5)).unwrap();
        let _keep = t.join().unwrap();
        let r = f0.post_recv().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = loop {
            match f0.test(r) {
                Ok(Completion::Pending) => {
                    assert!(Instant::now() < deadline, "junk never detected");
                    f0.idle(Duration::from_micros(100));
                }
                Ok(c) => panic!("unexpected completion {c:?}"),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err, FabricError::MalformedFrame { peer: 1, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn liveness_timeout_detects_silent_peer() {
        let (mut f0, f1) = localhost_pair();
        // f1 exists but never pumps: its kernel still ACKs, so only the
        // heartbeat deadline can notice.
        f0.set_heartbeat(Duration::from_millis(5), Duration::from_millis(40));
        let r = f0.post_recv().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = loop {
            match f0.test(r) {
                Ok(Completion::Pending) => {
                    assert!(Instant::now() < deadline, "silence never detected");
                    f0.idle(Duration::from_millis(1));
                }
                Ok(c) => panic!("unexpected completion {c:?}"),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err, FabricError::Timeout { peer: 1, .. }),
            "got {err:?}"
        );
        assert!(f0.health().heartbeats_sent > 0);
        assert_eq!(f0.health().heartbeats_missed, 1);
        drop(f1);
    }

    #[test]
    fn transient_drop_heals_and_dedups() {
        let (mut f0, mut f1) = localhost_pair();
        let retry = RetryPolicy {
            attempts: 200,
            backoff: Duration::from_millis(2),
        };
        f0.set_retry(retry);
        f1.set_retry(retry);

        // First message flows normally.
        let s1 = f0.post_send(1, 7, b"one".to_vec(), 3).unwrap();
        let r1 = f1.post_recv().unwrap();
        let (w, p, _) = wait_recv(&mut f1, r1);
        assert_eq!((w, p.as_slice()), (7, b"one".as_slice()));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !matches!(f0.test(s1).unwrap(), Completion::SendDone) {
            assert!(Instant::now() < deadline, "send one timed out");
        }

        // Sever the connection mid-run; both sides must heal through the
        // recovery window and the second message must arrive exactly once.
        f0.drop_connections();
        let s2 = f0.post_send(1, 8, b"two".to_vec(), 3).unwrap();
        let r2 = f1.post_recv().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let (w, p, _) = loop {
            match f1.test(r2).expect("receiver heals, not fails") {
                Completion::Recv {
                    wire_id,
                    payload,
                    bytes,
                } => break (wire_id, payload, bytes),
                _ => {
                    assert!(Instant::now() < deadline, "heal timed out");
                    let _ = f0.test(s2).expect("sender heals, not fails");
                    f0.idle(Duration::from_micros(200));
                    f1.idle(Duration::from_micros(200));
                }
            }
        };
        // Dedup: the replayed "one" (already delivered) must not surface
        // again — the next receive after the heal is "two".
        assert_eq!((w, p.as_slice()), (8, b"two".as_slice()));
        let healed = f0.health().retries_healed + f1.health().retries_healed;
        assert!(healed >= 1, "no recovery window closed: {healed}");
        // "two" was posted while the connection was down, so it can only
        // have traveled via the replay log.
        assert!(
            f0.health().frames_replayed >= 1,
            "nothing replayed: {:?}",
            f0.health()
        );
    }

    #[test]
    fn retries_exhausted_is_typed() {
        let (mut f0, f1) = localhost_pair();
        f0.set_retry(RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(1),
        });
        let r = f0.post_recv().unwrap();
        drop(f1); // the peer process is gone for good
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = loop {
            match f0.test(r) {
                Ok(Completion::Pending) => {
                    assert!(Instant::now() < deadline, "exhaustion never surfaced");
                    f0.idle(Duration::from_millis(1));
                }
                Ok(c) => panic!("unexpected completion {c:?}"),
                Err(e) => break e,
            }
        };
        assert_eq!(
            err,
            FabricError::RetriesExhausted {
                peer: 1,
                attempts: 3
            }
        );
        // Sticky, like every other fatal error.
        assert_eq!(
            f0.test(r),
            Err(FabricError::RetriesExhausted {
                peer: 1,
                attempts: 3
            })
        );
    }

    #[test]
    fn abort_unblocks_peer_barrier() {
        let (mut f0, mut f1) = localhost_pair();
        let t = std::thread::spawn(move || f1.barrier(&mut || false));
        std::thread::sleep(Duration::from_millis(20));
        // f0 "errors out": announces the abort instead of entering.
        f0.abort();
        drop(f0);
        assert_eq!(t.join().unwrap(), Err(FabricError::PeerClosed { peer: 0 }));
    }
}
