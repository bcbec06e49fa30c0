//! What the five workloads share: run settings, the outcome of a measured
//! phase, and the set-up / measure / tear-down dispatch over the two kinds
//! of state (an offline matrix, or a live daemon with its connections).

use crate::daemon::Check;
use crate::metrics::{Kind, Shape, Workload};
use crate::spans::Tracer;
use crate::stats::{Summary, Windowed};
use crate::{offline, served};
use std::collections::BTreeMap;

/// How one run was asked to run.
#[derive(Copy, Clone, Debug)]
pub struct Settings {
    /// The only source of inputs, schedules and op mixes.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Tiny shapes and single warm-ups, for the harness self-test.
    pub smoke: bool,
}

impl Settings {
    /// The shape this run measures for `w`.
    pub fn shape<'a>(&self, w: &'a Workload) -> &'a Shape {
        if self.smoke {
            &w.smoke
        } else {
            &w.shape
        }
    }

    /// Warm-up factorizations (or bursts) before anything is timed.
    pub fn warmups(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// Set-ups per run: each is timed and all but the last torn down again,
    /// so `setup_s` is a median and not one sample.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// What a measured phase produced.
pub struct Outcome {
    /// The workload's end-to-end metrics by name, as per-window values.
    pub metrics: BTreeMap<&'static str, Windowed>,
    /// Operations attempted and failed.
    pub check: Check,
    /// Ungated extras by name (the open-loop tails of `serve_small`).
    pub tails: BTreeMap<&'static str, Summary>,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(check: Check) -> Self {
        Outcome {
            metrics: BTreeMap::new(),
            check,
            tails: BTreeMap::new(),
        }
    }

    /// Record a metric's windows.
    pub fn put(&mut self, name: &'static str, w: Windowed) {
        self.metrics.insert(name, w);
    }
}

/// A workload's state between set-up and tear-down.
pub enum State {
    /// An offline workload's inputs and oracle.
    Offline(Box<offline::Offline>),
    /// A live daemon, its connections and kept handles.
    Served(Box<served::Served>),
}

/// Everything before the clock starts: input generation, service start and
/// bind, store pre-population, warm-ups. `traced` starts daemons with their
/// own tracing on.
pub fn setup(w: &Workload, s: &Settings, traced: bool) -> State {
    match w.kind {
        Kind::OfflineSmp | Kind::OfflineCluster => State::Offline(Box::new(offline::setup(w, s))),
        Kind::Serve | Kind::Store => State::Served(Box::new(served::setup(w, s, traced))),
    }
}

/// The measured phase. `tails` adds `serve_small`'s ungated 1000 jobs/s
/// phase and its tail latencies.
pub fn measure(
    w: &Workload,
    state: &mut State,
    seconds: f64,
    tracer: Option<&Tracer>,
    tails: bool,
) -> Outcome {
    match state {
        State::Offline(st) => offline::measure(st, seconds, tracer),
        State::Served(st) if w.kind == Kind::Serve => {
            served::measure_serve(st, seconds, tracer, tails)
        }
        State::Served(st) => served::measure_store(st, seconds),
    }
}

/// Stop whatever set-up started; a daemon's final counters join the
/// correctness gate (no evictions, rejections or failed jobs), and its own
/// trace, if it kept one, joins `tracer`.
pub fn teardown(state: State, tracer: Option<&Tracer>) -> Check {
    match state {
        State::Offline(_) => Check::default(),
        State::Served(st) => served::teardown(*st, tracer),
    }
}
