//! Deterministic fault injection: wrap any byte-payload [`Fabric`] in a
//! [`FaultyFabric`] and feed it a seeded [`FaultPlan`] to drop, delay,
//! duplicate, truncate, or corrupt traffic — or kill the node outright at
//! a chosen step. Chaos tests use this to prove the runtime turns every
//! injected failure into a typed error (or a correct result), never a
//! hang, an abort, or a silently wrong answer.
//!
//! All randomness comes from a hand-rolled SplitMix64 stream seeded by the
//! plan, so a given `(plan, traffic)` pair replays identically.

use crate::{Completion, Fabric, FabricError, FabricHealth, NodeId, Op};
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// Kill directive: rank `rank` drops its fabric (sockets close, peers see
/// the loss) once it has posted `after_sends` sends.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KillSpec {
    /// The rank to kill.
    pub rank: NodeId,
    /// How many `post_send` calls it survives first.
    pub after_sends: u64,
}

/// What to inject, with what probability (all in `0.0..=1.0`).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; same seed, same traffic, same faults.
    pub seed: u64,
    /// Probability a posted send is silently discarded.
    pub drop: f64,
    /// Probability a posted send goes out twice.
    pub duplicate: f64,
    /// Probability a received payload is held back for
    /// [`FaultPlan::delay_steps`] test rounds (later arrivals queue behind
    /// it, so per-wire FIFO order is preserved).
    pub delay: f64,
    /// How many `test` calls a delayed payload waits.
    pub delay_steps: u64,
    /// Probability a sent payload has one byte flipped.
    pub corrupt: f64,
    /// Probability a sent payload is cut short.
    pub truncate: f64,
    /// Kill a rank mid-run.
    pub kill: Option<KillSpec>,
    /// Sever a rank's connections mid-run without killing the process
    /// (a transient network fault: with a `RetryPolicy`, the run heals).
    pub disconnect: Option<KillSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_steps: 32,
            corrupt: 0.0,
            truncate: 0.0,
            kill: None,
            disconnect: None,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base for builders).
    pub fn none() -> Self {
        Self::default()
    }

    /// Parse a CLI spec like
    /// `seed=7,drop=0.01,corrupt=0.005,delay=0.1,dup=0.01,trunc=0.01,kill=1@50`.
    ///
    /// Keys: `seed`, `drop`, `dup`, `delay`, `delay-steps`, `corrupt`,
    /// `trunc`, `kill` (as `rank@sends`), `disconnect` (as `rank@sends`).
    /// Unknown keys and malformed values are errors.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for directive in directives(spec) {
            let (key, value) = directive?;
            match key {
                "seed" => plan.seed = num(key, value)?,
                "drop" => plan.drop = prob(value)?,
                "dup" => plan.duplicate = prob(value)?,
                "delay" => plan.delay = prob(value)?,
                "delay-steps" => plan.delay_steps = num(key, value)?,
                "corrupt" => plan.corrupt = prob(value)?,
                "trunc" => plan.truncate = prob(value)?,
                "kill" | "disconnect" => {
                    let (rank, sends) = value
                        .split_once('@')
                        .ok_or_else(|| format!("fault spec: {key} `{value}` is not rank@sends"))?;
                    let spec = KillSpec {
                        rank: num(&format!("{key} rank"), rank)?,
                        after_sends: num(&format!("{key} step"), sends)?,
                    };
                    if key == "kill" {
                        plan.kill = Some(spec);
                    } else {
                        plan.disconnect = Some(spec);
                    }
                }
                k => return Err(format!("fault spec: unknown key `{k}`")),
            }
        }
        Ok(plan)
    }
}

/// The `key=value` directives of a comma-separated fault spec. This is the
/// front end every layer's fault plan shares (this crate's [`FaultPlan`],
/// the serve front end's plan); each layer matches its own key set.
pub fn directives(spec: &str) -> impl Iterator<Item = Result<(&str, &str), String>> {
    spec.split(',').filter(|s| !s.is_empty()).map(|part| {
        part.split_once('=')
            .ok_or_else(|| format!("fault spec `{part}` is not key=value"))
    })
}

/// Parse a probability directive value: a number in `0.0..=1.0`.
pub fn prob(v: &str) -> Result<f64, String> {
    let p: f64 = v
        .parse()
        .map_err(|_| format!("fault spec: `{v}` is not a number"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("fault spec: probability {p} outside 0..=1"));
    }
    Ok(p)
}

/// Parse the numeric value of directive `key`.
pub fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("fault spec: bad {key} `{value}`"))
}

/// SplitMix64: tiny, seedable, and good enough to scatter faults. Every
/// injector derives its stream from the plan seed, so a given
/// `(plan, traffic)` pair replays identically.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p` (a zero `p` draws nothing, so adding a
    /// disabled fault kind never shifts the stream).
    pub fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }
}

/// What a [`FaultyFabric`] has injected so far (for test assertions and
/// chaos-run logging).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Sends discarded.
    pub dropped: u64,
    /// Sends posted twice.
    pub duplicated: u64,
    /// Receives held back.
    pub delayed: u64,
    /// Payloads with a byte flipped.
    pub corrupted: u64,
    /// Payloads cut short.
    pub truncated: u64,
    /// Whether this rank was killed.
    pub killed: bool,
    /// Whether this rank's connections were severed (transient fault).
    pub disconnected: bool,
}

impl std::fmt::Display for FaultLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dropped={} duplicated={} delayed={} corrupted={} truncated={} killed={} disconnected={}",
            self.dropped,
            self.duplicated,
            self.delayed,
            self.corrupted,
            self.truncated,
            self.killed,
            self.disconnected
        )
    }
}

/// A held-back received payload, released by step count.
struct HeldRecv {
    release_at: u64,
    wire_id: u32,
    payload: Vec<u8>,
    bytes: usize,
}

/// Deterministic fault-injection wrapper around a byte-payload fabric.
///
/// Send-side faults (drop/duplicate/corrupt/truncate) mutate the payload
/// before the inner fabric sees it; receive-side delay holds completed
/// receives in a FIFO so ordering between messages is preserved. A kill
/// drops the inner fabric on the spot — for [`crate::TcpFabric`] that
/// closes every socket, so peers observe the death exactly as they would a
/// crashed process.
pub struct FaultyFabric<F: Fabric<Payload = Vec<u8>>> {
    inner: Option<F>,
    plan: FaultPlan,
    rng: SplitMix64,
    rank: NodeId,
    nodes: usize,
    sends: u64,
    steps: u64,
    log: FaultLog,
    /// Byte counters frozen at kill time so accounting survives the drop.
    final_sent: u64,
    final_received: u64,
    final_health: FabricHealth,
    /// Fake ops for dropped sends: op id -> reported count.
    dropped_counts: HashMap<u64, usize>,
    dropped_pending: Vec<u64>,
    next_fake: u64,
    /// Receive completions held back (or queued behind one held back).
    held: VecDeque<HeldRecv>,
    /// Recv ops we have taken off the inner fabric but not yet completed,
    /// oldest first; the head matches `held`'s head when due.
    pending_recv: VecDeque<u64>,
}

/// Fake op ids live far above anything the backends allocate.
const FAKE_BASE: u64 = 1 << 62;

impl<F: Fabric<Payload = Vec<u8>>> FaultyFabric<F> {
    /// Wrap `inner`, injecting per `plan` (the kill directive applies only
    /// when `plan.kill.rank` equals the inner fabric's rank).
    pub fn new(inner: F, plan: FaultPlan) -> Self {
        let rank = inner.rank();
        let nodes = inner.nodes();
        let rng = SplitMix64(plan.seed ^ (rank as u64).wrapping_mul(0xa076_1d64_78bd_642f));
        FaultyFabric {
            inner: Some(inner),
            plan,
            rng,
            rank,
            nodes,
            sends: 0,
            steps: 0,
            log: FaultLog::default(),
            final_sent: 0,
            final_received: 0,
            final_health: FabricHealth::default(),
            dropped_counts: HashMap::new(),
            dropped_pending: Vec::new(),
            next_fake: FAKE_BASE,
            held: VecDeque::new(),
            pending_recv: VecDeque::new(),
        }
    }

    /// What has been injected so far.
    pub fn log(&self) -> FaultLog {
        self.log
    }

    fn maybe_kill(&mut self) -> Result<(), FabricError> {
        if let Some(kill) = self.plan.kill {
            if kill.rank == self.rank && self.sends >= kill.after_sends && self.inner.is_some() {
                // Dropping the fabric is the crash: TCP sockets close and
                // peers observe the loss. No abort frame — a real crash
                // does not say goodbye.
                self.inner = None;
                self.log.killed = true;
            }
        }
        if let Some(disc) = self.plan.disconnect {
            if disc.rank == self.rank && self.sends >= disc.after_sends && !self.log.disconnected {
                // A transient network fault, injected exactly once: the
                // sockets are severed but the process lives, so a
                // `RetryPolicy` can heal the run.
                self.log.disconnected = true;
                if let Some(f) = self.inner.as_mut() {
                    f.drop_connections();
                }
            }
        }
        Ok(())
    }

    fn inner(&mut self) -> Result<&mut F, FabricError> {
        match self.inner.as_mut() {
            Some(f) => {
                self.final_sent = f.bytes_sent();
                self.final_received = f.bytes_received();
                self.final_health = f.health();
                Ok(f)
            }
            None => Err(FabricError::Cancelled),
        }
    }
}

impl<F: Fabric<Payload = Vec<u8>>> Fabric for FaultyFabric<F> {
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
        mut payload: Vec<u8>,
        bytes: usize,
    ) -> Result<Op, FabricError> {
        self.sends += 1;
        self.maybe_kill()?;
        if self.rng.roll(self.plan.drop) {
            // Discard, but hand back an op that completes like a real one.
            self.log.dropped += 1;
            let fake = self.next_fake;
            self.next_fake += 1;
            self.dropped_counts.insert(fake, payload.len());
            self.dropped_pending.push(fake);
            let _ = self.inner()?; // still fails once killed
            return Ok(Op(fake));
        }
        if !payload.is_empty() && self.rng.roll(self.plan.truncate) {
            self.log.truncated += 1;
            let keep = (self.rng.next_u64() as usize) % payload.len();
            payload.truncate(keep);
        }
        if !payload.is_empty() && self.rng.roll(self.plan.corrupt) {
            self.log.corrupted += 1;
            let pos = (self.rng.next_u64() as usize) % payload.len();
            let flip = (self.rng.next_u64() % 255 + 1) as u8;
            payload[pos] ^= flip;
        }
        let duplicate = self.rng.roll(self.plan.duplicate);
        let inner = self.inner()?;
        if duplicate {
            // The duplicate's op is intentionally leaked: it completes
            // inside the inner fabric and nobody asks after it.
            inner.post_send(dst, wire_id, payload.clone(), bytes)?;
            self.log.duplicated += 1;
        }
        self.inner()?.post_send(dst, wire_id, payload, bytes)
    }

    fn post_recv(&mut self) -> Result<Op, FabricError> {
        let op = self.inner()?.post_recv()?;
        self.pending_recv.push_back(op.0);
        Ok(op)
    }

    fn test(&mut self, op: Op) -> Result<Completion<Vec<u8>>, FabricError> {
        self.steps += 1;
        if let Some(&count) = self.dropped_counts.get(&op.0) {
            self.dropped_pending.retain(|&o| o != op.0);
            let _ = count;
            return Ok(Completion::SendDone);
        }
        let steps = self.steps;
        let is_front_recv = self.pending_recv.front() == Some(&op.0);
        if is_front_recv {
            // Pull a newly completed receive out of the inner fabric into
            // the hold queue (delay decides its release step; later
            // arrivals never release before earlier ones).
            match self.inner()?.test(op)? {
                Completion::Recv {
                    wire_id,
                    payload,
                    bytes,
                } => {
                    let delay = if self.rng.roll(self.plan.delay) {
                        self.log.delayed += 1;
                        self.plan.delay_steps
                    } else {
                        0
                    };
                    let floor = self.held.back().map_or(0, |h| h.release_at);
                    self.held.push_back(HeldRecv {
                        release_at: (steps + delay).max(floor),
                        wire_id,
                        payload,
                        bytes,
                    });
                }
                Completion::SendDone => unreachable!("recv op completed as send"),
                Completion::Pending => {}
            }
            if let Some(h) = self.held.front() {
                if h.release_at <= steps {
                    let h = self.held.pop_front().unwrap();
                    self.pending_recv.pop_front();
                    return Ok(Completion::Recv {
                        wire_id: h.wire_id,
                        payload: h.payload,
                        bytes: h.bytes,
                    });
                }
            }
            return Ok(Completion::Pending);
        }
        self.inner()?.test(op)
    }

    fn get_count(&mut self, op: Op) -> Option<usize> {
        if let Some(count) = self.dropped_counts.remove(&op.0) {
            return Some(count);
        }
        self.inner.as_mut()?.get_count(op)
    }

    fn barrier(&mut self, poison: &mut dyn FnMut() -> bool) -> Result<(), FabricError> {
        self.maybe_kill()?;
        self.inner()?.barrier(poison)
    }

    fn cancel(&mut self, op: Op) {
        self.dropped_counts.remove(&op.0);
        self.dropped_pending.retain(|&o| o != op.0);
        self.pending_recv.retain(|&o| o != op.0);
        if let Some(f) = self.inner.as_mut() {
            f.cancel(op);
        }
    }

    fn abort(&mut self) {
        if let Some(f) = self.inner.as_mut() {
            f.abort();
        }
    }

    fn health(&self) -> FabricHealth {
        match &self.inner {
            Some(f) => f.health(),
            None => self.final_health,
        }
    }

    fn drop_connections(&mut self) {
        if let Some(f) = self.inner.as_mut() {
            f.drop_connections();
        }
    }

    fn fault_log(&self) -> Option<FaultLog> {
        Some(self.log)
    }

    fn idle(&mut self, max: Duration) {
        match self.inner.as_mut() {
            Some(f) => f.idle(max),
            None => std::thread::sleep(max.min(Duration::from_micros(200))),
        }
    }

    fn bytes_sent(&self) -> u64 {
        match &self.inner {
            Some(f) => f.bytes_sent(),
            None => self.final_sent,
        }
    }

    fn bytes_received(&self) -> u64 {
        match &self.inner {
            Some(f) => f.bytes_received(),
            None => self.final_received,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InProcFabric;

    fn pair() -> (FaultyFabric<InProcFabric<Vec<u8>>>, InProcFabric<Vec<u8>>) {
        let mut mesh = InProcFabric::<Vec<u8>>::mesh(2);
        let b = mesh.pop().unwrap();
        let a = mesh.pop().unwrap();
        (FaultyFabric::new(a, FaultPlan::none()), b)
    }

    fn drain_one(f: &mut impl Fabric<Payload = Vec<u8>>) -> Vec<u8> {
        let r = f.post_recv().unwrap();
        loop {
            if let Completion::Recv { payload, .. } = f.test(r).unwrap() {
                return payload;
            }
        }
    }

    #[test]
    fn passthrough_when_plan_is_empty() {
        let (mut a, mut b) = pair();
        let s = a.post_send(1, 3, vec![1, 2, 3], 3).unwrap();
        assert!(matches!(a.test(s), Ok(Completion::SendDone)));
        assert_eq!(drain_one(&mut b), vec![1, 2, 3]);
        assert_eq!(a.log(), FaultLog::default());
    }

    #[test]
    fn dropped_sends_complete_but_never_arrive() {
        let (mut a, mut b) = pair();
        a.plan.drop = 1.0;
        let s = a.post_send(1, 3, vec![9; 8], 8).unwrap();
        assert!(matches!(a.test(s), Ok(Completion::SendDone)));
        assert_eq!(a.get_count(s), Some(8));
        assert_eq!(a.log().dropped, 1);
        let r = b.post_recv().unwrap();
        for _ in 0..50 {
            assert!(matches!(b.test(r), Ok(Completion::Pending)));
        }
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let deliver = |seed: u64| -> Vec<u8> {
            let mut mesh = InProcFabric::<Vec<u8>>::mesh(2);
            let mut b = mesh.pop().unwrap();
            let a = mesh.pop().unwrap();
            let mut a = FaultyFabric::new(
                a,
                FaultPlan {
                    seed,
                    corrupt: 1.0,
                    ..FaultPlan::none()
                },
            );
            a.post_send(1, 0, vec![0u8; 16], 16).unwrap();
            assert_eq!(a.log().corrupted, 1);
            drain_one(&mut b)
        };
        let x = deliver(7);
        assert_eq!(x, deliver(7), "same seed, same corruption");
        assert_ne!(x, vec![0u8; 16], "payload actually corrupted");
        assert_ne!(x, deliver(8), "different seed, different corruption");
    }

    #[test]
    fn delay_preserves_fifo_order() {
        let (mut a, b) = pair();
        let mut bf = FaultyFabric::new(
            b,
            FaultPlan {
                seed: 3,
                delay: 0.5,
                delay_steps: 4,
                ..FaultPlan::none()
            },
        );
        for i in 0..20u8 {
            a.post_send(1, 0, vec![i], 1).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..20 {
            got.push(drain_one(&mut bf)[0]);
        }
        assert_eq!(got, (0..20).collect::<Vec<u8>>());
        assert!(bf.log().delayed > 0, "plan injected at least one delay");
    }

    #[test]
    fn kill_fails_local_ops_with_cancelled() {
        let (a, _b) = pair();
        let mut a = FaultyFabric::new(
            a.inner.unwrap(),
            FaultPlan {
                kill: Some(KillSpec {
                    rank: 0,
                    after_sends: 2,
                }),
                ..FaultPlan::none()
            },
        );
        assert!(a.post_send(1, 0, vec![1], 1).is_ok());
        assert_eq!(
            a.post_send(1, 0, vec![2], 1),
            Err(FabricError::Cancelled),
            "second send crosses the kill threshold"
        );
        assert!(a.log().killed);
        assert_eq!(a.post_recv(), Err(FabricError::Cancelled));
    }

    #[test]
    fn plan_parser_roundtrips() {
        let p = FaultPlan::parse("seed=7,drop=0.01,corrupt=0.5,kill=1@50").unwrap();
        assert_eq!(p.seed, 7);
        assert!((p.drop - 0.01).abs() < 1e-12);
        assert!((p.corrupt - 0.5).abs() < 1e-12);
        assert_eq!(
            p.kill,
            Some(KillSpec {
                rank: 1,
                after_sends: 50
            })
        );
        let p = FaultPlan::parse("disconnect=2@9").unwrap();
        assert_eq!(
            p.disconnect,
            Some(KillSpec {
                rank: 2,
                after_sends: 9
            })
        );
        assert!(FaultPlan::parse("drop=2.0").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("kill=nope").is_err());
        assert!(FaultPlan::parse("disconnect=nope").is_err());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
    }
}
