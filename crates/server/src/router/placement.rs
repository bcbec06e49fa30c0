//! Job placement.
//!
//! The policy is least-loaded with size-aware replication, after
//! the 3D-QR paper's observation that small/tall panels are cheap enough
//! to replicate while big partitions are not: fire-and-forget jobs under
//! a byte threshold are dual-dispatched to the two least-loaded nodes
//! (first answer wins, the loser is cancelled), everything else — and
//! every `keep` job, whose id becomes a node-owned handle — lands on
//! exactly one node.

use super::membership::Membership;

/// Where a job goes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// No eligible node.
    None,
    /// Single dispatch.
    One(u32),
    /// Replicated dispatch: first answer wins, the other is cancelled.
    Two(u32, u32),
}

/// Least-loaded placement with size-aware replication: fire-and-forget
/// jobs strictly smaller than `replicate_under` matrix bytes are
/// dual-dispatched when two candidates exist.
pub fn place(
    members: &Membership,
    replicate_under: usize,
    job_bytes: usize,
    keep: bool,
) -> Placement {
    let candidates = members.placeable();
    let Some(first) = candidates.first() else {
        return Placement::None;
    };
    // Keep jobs pin a factor to one node's store: replication would
    // mint two handles for one logical factor, so they never fan out.
    if !keep && job_bytes < replicate_under {
        if let Some(second) = candidates.get(1) {
            return Placement::Two(first.id, second.id);
        }
    }
    Placement::One(first.id)
}

#[cfg(test)]
mod tests {
    use super::super::membership::Caps;
    use super::*;

    fn members(n: u32) -> Membership {
        let mut m = Membership::new();
        for i in 0..n {
            m.join(
                &format!("127.0.0.1:{}", 9000 + i),
                Caps {
                    threads: 2,
                    store_bytes: 1 << 20,
                    gemm_tier: "scalar".into(),
                },
            );
        }
        m
    }

    #[test]
    fn small_jobs_replicate_large_and_keep_do_not() {
        let m = members(3);
        assert!(matches!(place(&m, 1024, 512, false), Placement::Two(a, b) if a != b));
        assert!(matches!(place(&m, 1024, 4096, false), Placement::One(_)));
        assert!(matches!(place(&m, 1024, 512, true), Placement::One(_)));
    }

    #[test]
    fn degenerate_fleets() {
        assert_eq!(place(&members(0), 1024, 512, false), Placement::None);
        assert!(matches!(
            place(&members(1), 1024, 512, false),
            Placement::One(_)
        ));
    }

    #[test]
    fn ties_round_robin_by_total_placed() {
        let mut m = members(2);
        let first = match place(&m, 0, 4096, false) {
            Placement::One(id) => id,
            other => panic!("{other:?}"),
        };
        m.get_mut(first).unwrap().placed += 1;
        let second = match place(&m, 0, 4096, false) {
            Placement::One(id) => id,
            other => panic!("{other:?}"),
        };
        assert_ne!(first, second, "idle fleets alternate");
    }
}
