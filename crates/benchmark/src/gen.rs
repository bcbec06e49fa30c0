//! Everything the workloads consume, generated from `--seed` and nothing
//! else: matrices, Poisson arrival schedules, and store op sequences. The
//! program under test only ever receives these generated inputs.

use pulsar_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed used when none is given; issues quote numbers measured with it.
pub const DEFAULT_SEED: u64 = 1;
/// Seed no change is developed against: a claimed gain must also hold here.
pub const HELD_OUT_SEED: u64 = 2;

/// Independent generator for one named input stream of a run, so adding a
/// stream never shifts the values of another.
pub fn stream(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Input streams. Connection-local streams add the connection index.
pub mod streams {
    /// The matrix an offline workload factors, or a daemon workload's pool.
    pub const MATRIX: u64 = 0x100;
    /// Right-hand sides and solution oracles.
    pub const RHS: u64 = 0x200;
    /// Row blocks appended by updates.
    pub const ROWS: u64 = 0x300;
    /// Arrival schedules (plus connection index).
    pub const ARRIVALS: u64 = 0x400;
    /// Store op sequences (plus connection index).
    pub const OPS: u64 = 0x500;
}

/// A dense `m x n` matrix with entries uniform in `[-1, 1)`.
pub fn matrix(rng: &mut StdRng, m: usize, n: usize) -> Matrix {
    Matrix::random(m, n, rng)
}

/// Poisson arrivals at `rate_per_s` for `duration_s`: due times in seconds
/// from the phase start, strictly increasing.
pub fn poisson_schedule(rng: &mut StdRng, rate_per_s: f64, duration_s: f64) -> Vec<f64> {
    let mut due = Vec::with_capacity((rate_per_s * duration_s) as usize + 16);
    let mut t = 0.0;
    loop {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate_per_s;
        if t >= duration_s {
            return due;
        }
        due.push(t);
    }
}

/// One operation of the store mix.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StoreOp {
    /// Least-squares solve (one right-hand side) against ring slot `slot`.
    Solve {
        /// Ring slot of the kept factorization.
        slot: usize,
    },
    /// Append one tile row to ring slot `slot`.
    Update {
        /// Ring slot of the kept factorization.
        slot: usize,
    },
    /// Release the oldest kept factorization and keep pool matrix `pick`.
    Replace {
        /// Index into the matrix pool.
        pick: usize,
    },
}

/// Endless seeded op sequence: every block of ten ops holds exactly seven
/// solves, two updates and one replace in a shuffled order, so the realised
/// mix is 70/20/10 for every seed and any two runs do the same work per op.
pub struct StoreOps {
    rng: StdRng,
    ring: usize,
    pool: usize,
    block: Vec<u8>,
}

impl StoreOps {
    /// Ops over a ring of `ring` handles and a pool of `pool` matrices.
    pub fn new(rng: StdRng, ring: usize, pool: usize) -> Self {
        StoreOps {
            rng,
            ring,
            pool,
            block: Vec::new(),
        }
    }
}

impl Iterator for StoreOps {
    type Item = StoreOp;

    fn next(&mut self) -> Option<StoreOp> {
        if self.block.is_empty() {
            self.block = vec![0, 0, 0, 0, 0, 0, 0, 1, 1, 2];
            for i in (1..self.block.len()).rev() {
                let j = self.rng.random_below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        let kind = self.block.pop().expect("block was just refilled");
        let slot = self.rng.random_below(self.ring as u64) as usize;
        let pick = self.rng.random_below(self.pool as u64) as usize;
        Some(match kind {
            0 => StoreOp::Solve { slot },
            1 => StoreOp::Update { slot },
            _ => StoreOp::Replace { pick },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(m: &Matrix) -> Vec<u8> {
        m.data().iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED, 77] {
            let a = matrix(&mut stream(seed, streams::MATRIX), 48, 16);
            let b = matrix(&mut stream(seed, streams::MATRIX), 48, 16);
            assert_eq!(bytes(&a), bytes(&b));

            let s1 = poisson_schedule(&mut stream(seed, streams::ARRIVALS), 400.0, 2.0);
            let s2 = poisson_schedule(&mut stream(seed, streams::ARRIVALS), 400.0, 2.0);
            assert_eq!(
                s1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                s2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );

            let o1: Vec<_> = StoreOps::new(stream(seed, streams::OPS), 8, 16)
                .take(500)
                .collect();
            let o2: Vec<_> = StoreOps::new(stream(seed, streams::OPS), 8, 16)
                .take(500)
                .collect();
            assert_eq!(o1, o2);
        }
    }

    #[test]
    fn different_seeds_and_streams_differ() {
        let a = matrix(&mut stream(1, streams::MATRIX), 8, 8);
        let b = matrix(&mut stream(2, streams::MATRIX), 8, 8);
        let c = matrix(&mut stream(1, streams::RHS), 8, 8);
        assert_ne!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate_and_order() {
        let s = poisson_schedule(&mut stream(1, streams::ARRIVALS), 400.0, 8.0);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&t| (0.0..8.0).contains(&t)));
        let n = s.len() as f64;
        assert!((n - 3200.0).abs() < 4.0 * 3200f64.sqrt(), "{n} arrivals");
    }

    #[test]
    fn every_block_of_ten_ops_has_the_exact_mix() {
        let ops: Vec<_> = StoreOps::new(stream(3, streams::OPS), 8, 16)
            .take(200)
            .collect();
        for block in ops.chunks(10) {
            let count = |f: fn(&StoreOp) -> bool| block.iter().filter(|o| f(o)).count();
            assert_eq!(count(|o| matches!(o, StoreOp::Solve { .. })), 7);
            assert_eq!(count(|o| matches!(o, StoreOp::Update { .. })), 2);
            assert_eq!(count(|o| matches!(o, StoreOp::Replace { .. })), 1);
        }
        assert!(ops.iter().all(|o| match *o {
            StoreOp::Solve { slot } | StoreOp::Update { slot } => slot < 8,
            StoreOp::Replace { pick } => pick < 16,
        }));
    }
}
