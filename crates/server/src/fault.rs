//! Deterministic fault injection for the serve TCP front end.
//!
//! The fabric has [`FaultyFabric`](pulsar_fabric) for inter-node wires;
//! this is the same idea one layer up: a seeded [`ServeFaultPlan`]
//! decides, per reply frame, whether the server drops it (the client sees
//! a dead air ACK and must retry idempotently), delays it (read deadlines
//! fire), flips a byte in it (the client's decoder must reject the frame
//! with a typed error, never trust it), or severs the connection outright.
//! The spec grammar (`key=value,...`), the probability validator and the
//! SplitMix64 stream are the fabric's; this layer adds only its own
//! directive set. The stream is seeded by the plan and the connection
//! index, so a given `(plan, traffic)` pair replays identically.

use pulsar_fabric::fault::{directives, num, prob, SplitMix64};
use std::time::Duration;

/// What to inject into serve replies, with what probability (all in
/// `0.0..=1.0`).
#[derive(Clone, Debug, PartialEq)]
pub struct ServeFaultPlan {
    /// RNG seed; same seed, same traffic, same faults.
    pub seed: u64,
    /// Probability a reply frame is silently discarded (dropped ACK).
    pub drop: f64,
    /// Probability a reply is held back for [`ServeFaultPlan::delay_ms`].
    pub delay: f64,
    /// How long a delayed reply waits.
    pub delay_ms: u64,
    /// Probability a reply frame has one byte flipped before the write.
    pub corrupt: f64,
    /// Probability the connection is severed instead of replying.
    pub disconnect: f64,
    /// Inject a kernel panic into this job id's first VDP firing (the
    /// service quarantines the worker and isolates the batch).
    pub panic_job: Option<u64>,
    /// Simulated node crash: after this many replies have been processed
    /// (across all connections) the server severs every connection and
    /// the accept loop returns an error, skipping the drain grace — what
    /// a SIGKILL looks like to clients, without killing the process.
    /// [`Msg::Pong`](crate::proto::Msg::Pong) replies don't advance the
    /// counter, so a router's continuous health pings never shift the
    /// crash point: `die=N` always means "after the Nth job reply".
    pub die: Option<u64>,
    /// Stall the scheduler this long before every batch, turning the node
    /// into a fixed-rate server (multi-node throughput comparisons).
    pub sched_delay_ms: Option<u64>,
}

impl Default for ServeFaultPlan {
    fn default() -> Self {
        ServeFaultPlan {
            seed: 0,
            drop: 0.0,
            delay: 0.0,
            delay_ms: 50,
            corrupt: 0.0,
            disconnect: 0.0,
            panic_job: None,
            die: None,
            sched_delay_ms: None,
        }
    }
}

impl ServeFaultPlan {
    /// A plan that injects nothing (useful as a base for builders).
    pub fn none() -> Self {
        Self::default()
    }

    /// Parse a CLI spec like
    /// `seed=7,drop=0.05,delay=0.1,delay-ms=20,corrupt=0.01,panic-job=3`.
    ///
    /// Keys: `seed`, `drop`, `delay`, `delay-ms`, `corrupt`,
    /// `disconnect`, `panic-job`, `die`, `sched-delay-ms`. Unknown keys
    /// and malformed values are errors.
    pub fn parse(spec: &str) -> Result<ServeFaultPlan, String> {
        let mut plan = ServeFaultPlan::default();
        for directive in directives(spec) {
            let (key, value) = directive?;
            match key {
                "seed" => plan.seed = num(key, value)?,
                "drop" => plan.drop = prob(value)?,
                "delay" => plan.delay = prob(value)?,
                "delay-ms" => plan.delay_ms = num(key, value)?,
                "corrupt" => plan.corrupt = prob(value)?,
                "disconnect" => plan.disconnect = prob(value)?,
                "panic-job" => plan.panic_job = Some(num(key, value)?),
                "die" => plan.die = Some(num(key, value)?),
                "sched-delay-ms" => plan.sched_delay_ms = Some(num(key, value)?),
                k => return Err(format!("fault spec: unknown key `{k}`")),
            }
        }
        Ok(plan)
    }
}

/// The fate the plan chose for one reply frame (corruption already
/// applied in place by [`ConnFaults::apply`]).
#[derive(Debug, PartialEq, Eq)]
pub enum ReplyFate {
    /// Write the frame as usual.
    Deliver,
    /// Sleep, then write the frame.
    DeliverAfter(Duration),
    /// Skip the write; the connection stays open (a dropped ACK).
    Drop,
    /// Sever the connection without writing.
    Disconnect,
}

/// Per-connection fault state: its own deterministic RNG stream, so
/// concurrent handler threads need no shared mutable state.
pub struct ConnFaults {
    plan: ServeFaultPlan,
    rng: SplitMix64,
}

impl ConnFaults {
    /// Fault state for the `conn`-th accepted connection under `plan`.
    pub fn new(plan: &ServeFaultPlan, conn: u64) -> ConnFaults {
        ConnFaults {
            plan: plan.clone(),
            rng: SplitMix64(plan.seed ^ conn.wrapping_mul(0xa076_1d64_78bd_642f)),
        }
    }

    /// Decide one reply frame's fate; a corrupt roll flips a byte of
    /// `frame` in place (the fate is still Deliver — a corrupted frame
    /// that never arrives would test nothing).
    pub fn apply(&mut self, frame: &mut [u8]) -> ReplyFate {
        if self.rng.roll(self.plan.disconnect) {
            return ReplyFate::Disconnect;
        }
        if self.rng.roll(self.plan.drop) {
            return ReplyFate::Drop;
        }
        if !frame.is_empty() && self.rng.roll(self.plan.corrupt) {
            let pos = (self.rng.next_u64() as usize) % frame.len();
            let flip = (self.rng.next_u64() % 255 + 1) as u8;
            frame[pos] ^= flip;
        }
        if self.rng.roll(self.plan.delay) {
            return ReplyFate::DeliverAfter(Duration::from_millis(self.plan.delay_ms));
        }
        ReplyFate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parser_roundtrips() {
        let p =
            ServeFaultPlan::parse("seed=7,drop=0.05,corrupt=0.5,delay=0.1,delay-ms=20").unwrap();
        assert_eq!(p.seed, 7);
        assert!((p.drop - 0.05).abs() < 1e-12);
        assert!((p.corrupt - 0.5).abs() < 1e-12);
        assert!((p.delay - 0.1).abs() < 1e-12);
        assert_eq!(p.delay_ms, 20);
        assert_eq!(
            ServeFaultPlan::parse("panic-job=3").unwrap().panic_job,
            Some(3)
        );
        assert_eq!(ServeFaultPlan::parse("die=5").unwrap().die, Some(5));
        assert_eq!(
            ServeFaultPlan::parse("sched-delay-ms=20")
                .unwrap()
                .sched_delay_ms,
            Some(20)
        );
        assert!(ServeFaultPlan::parse("die=nope").is_err());
        assert!(ServeFaultPlan::parse("drop=2.0").is_err());
        assert!(ServeFaultPlan::parse("bogus=1").is_err());
        assert!(ServeFaultPlan::parse("panic-job=nope").is_err());
        assert!(ServeFaultPlan::parse("drop").is_err());
        assert_eq!(ServeFaultPlan::parse("").unwrap(), ServeFaultPlan::none());
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let corrupt_one = |seed: u64| -> Vec<u8> {
            let plan = ServeFaultPlan {
                seed,
                corrupt: 1.0,
                ..ServeFaultPlan::none()
            };
            let mut frame = vec![0u8; 64];
            assert_eq!(
                ConnFaults::new(&plan, 0).apply(&mut frame),
                ReplyFate::Deliver
            );
            frame
        };
        let x = corrupt_one(7);
        assert_eq!(x, corrupt_one(7), "same seed, same corruption");
        assert_ne!(x, vec![0u8; 64], "frame actually corrupted");
        assert_ne!(x, corrupt_one(8), "different seed, different corruption");
    }

    #[test]
    fn fates_scatter_and_replay() {
        let plan = ServeFaultPlan {
            seed: 42,
            drop: 0.3,
            disconnect: 0.1,
            delay: 0.2,
            delay_ms: 1,
            ..ServeFaultPlan::none()
        };
        let run = |conn: u64| -> Vec<ReplyFate> {
            let mut f = ConnFaults::new(&plan, conn);
            (0..64).map(|_| f.apply(&mut [0u8; 8])).collect()
        };
        assert_eq!(run(0), run(0), "per-connection stream replays");
        assert_ne!(run(0), run(1), "connections decorrelate");
        let fates = run(0);
        assert!(fates.contains(&ReplyFate::Drop));
        assert!(fates.contains(&ReplyFate::Deliver));
    }

    #[test]
    fn empty_plan_always_delivers_untouched() {
        let mut f = ConnFaults::new(&ServeFaultPlan::none(), 3);
        let mut frame = vec![7u8; 16];
        for _ in 0..100 {
            assert_eq!(f.apply(&mut frame), ReplyFate::Deliver);
        }
        assert_eq!(frame, vec![7u8; 16]);
    }
}
