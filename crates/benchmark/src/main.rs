//! The repository's benchmark: five named workloads, ten gated end-to-end
//! metrics, and a per-layer ladder measured from outside the crates. See
//! `README.md` in this directory.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run [--seed <n>] [--seconds <s>] [--traced] [--smoke]
//! benchmark compare <parent.json> <change.json>
//! ```
//!
//! The first form measures one workload in this process and ends with the
//! driver's one-line JSON result. `run` re-executes the binary once per
//! workload, so each has a fresh process and `peak_rss_mb` is its own,
//! prints every metric by name, and writes
//! `target/benchmark/{results,layers}.json`.

mod compare;
mod daemon;
mod gen;
mod host;
mod ladder;
mod metrics;
mod offline;
mod report;
mod served;
mod spans;
mod stats;
mod workload;

use daemon::Check;
use metrics::{
    Better, Kind, MetricDef, Workload, END_TO_END, OPS_FAILED_FRAC, PER_LAYER, SERVE_TAILS,
};
use report::Block;
use stats::Summary;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use workload::Settings;

/// Length of one measured phase; `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;
/// Length of a `--smoke` phase.
const SMOKE_SECONDS: f64 = 0.5;
/// Where results and trace files go, relative to the working directory.
const OUT_DIR: &str = "target/benchmark";
/// Host-probe iterations (about 0.03 s optimised) and the smoke-run count.
const PROBE_ITERS: u64 = 15_000_000;
const SMOKE_PROBE_ITERS: u64 = 200_000;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark run [--seed <n>] [--seconds <s>] [--traced] [--smoke]
  benchmark compare <parent.json> <change.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(|f| run_all(&f)),
        Some("compare") => compare_files(&args[1..]),
        Some(flag) if flag.starts_with("--") => parse_flags(&args).and_then(|f| run_one(&f)),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs; `--traced`, `--smoke` and `--full` (which `run`
/// passes to its children) stand alone.
fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`\n{USAGE}"))?;
        let value = match key {
            "traced" | "smoke" | "full" => "1".to_string(),
            "workload" | "seed" | "seconds" | "trace" => it
                .next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone(),
            _ => return Err(format!("unknown flag --{key}\n{USAGE}")),
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

fn settings(flags: &BTreeMap<String, String>) -> Result<Settings, String> {
    let smoke = flags.contains_key("smoke");
    let seed = match flags.get("seed") {
        Some(s) => s.parse().map_err(|_| format!("bad --seed `{s}`"))?,
        None => gen::DEFAULT_SEED,
    };
    let seconds = match flags.get("seconds") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|x: &f64| *x > 0.0 && *x <= 600.0)
            .ok_or_else(|| format!("bad --seconds `{s}`"))?,
        None if smoke => SMOKE_SECONDS,
        None => RUN_SECONDS,
    };
    Ok(Settings {
        seed,
        seconds,
        smoke,
    })
}

/// Measure one workload in this process; the last line printed is the
/// driver's result object (or the full block with `--full`).
fn run_one(flags: &BTreeMap<String, String>) -> Result<bool, String> {
    let name = flags.get("workload").ok_or(USAGE)?;
    let w = metrics::workloads()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let s = settings(flags)?;
    let traced = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace `{t}` (0 or 1)")),
    };
    let (block, defs) = if traced {
        (run_traced(&w, &s)?, PER_LAYER.to_vec())
    } else {
        (run_untraced(&w, &s), metrics::driver_metrics())
    };
    println!("-- {}: {}", w.name, w.why);
    print!(
        "{}",
        block.table(if traced { PER_LAYER } else { END_TO_END })
    );
    if flags.contains_key("full") {
        println!("{}", block.to_json().write());
    } else {
        println!("{}", block.contract_line(&defs));
    }
    Ok(block.correct())
}

fn new_block(w: &Workload, s: &Settings, traced: bool) -> Block {
    Block {
        workload: w.name.to_string(),
        seed: s.seed,
        seconds: s.seconds,
        timed_s: 0.0,
        traced,
        metrics: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
        probes: vec![probe(s)],
        host_unstable: false,
        self_time_us: BTreeMap::new(),
        trace_file: None,
    }
}

fn probe(s: &Settings) -> f64 {
    host::probe_gflops(if s.smoke {
        SMOKE_PROBE_ITERS
    } else {
        PROBE_ITERS
    })
}

fn finish(block: &mut Block, check: Check, s: &Settings) {
    block.attempted = check.attempted;
    block.failed = check.failed;
    block.notes = check.notes;
    // 0 / 0 is NaN on purpose: a run that attempted nothing is not correct.
    let mut frac = Summary::single(check.failed as f64 / check.attempted as f64);
    frac.n = check.attempted as usize;
    block.put(def(END_TO_END, OPS_FAILED_FRAC), frac);
    block.probes.push(probe(s));
    // A smoke run's probes are too short to mean anything.
    block.host_unstable = !s.smoke && host::unstable(&block.probes);
}

fn def(list: &'static [MetricDef], name: &str) -> &'static MetricDef {
    list.iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("no metric named {name}"))
}

/// Run this binary again on workload `w` with the run's seed and mode plus
/// `extra` flags; returns its standard output split into everything before
/// the last line and the last line (the child's JSON result).
fn reexec(w: &Workload, s: &Settings, extra: &[&str]) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &s.seed.to_string()])
        .args(extra);
    if s.smoke {
        cmd.arg("--smoke");
    }
    let what = format!("`{} {}`", w.name, extra.join(" "));
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {what}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (head, last) = match stdout.trim_end().rsplit_once('\n') {
        Some((head, last)) => (head.to_string(), last.to_string()),
        None => (String::new(), stdout.trim_end().to_string()),
    };
    if last.is_empty() {
        return Err(format!("{what} ended ({}) without a result", out.status));
    }
    Ok((head, last))
}

/// The end-to-end run, tracing off: set up [`Settings::setups`] times (each
/// timed, all but the last torn down again), measure for `--seconds`, tear
/// down. The process's peak RSS is read once, after the first set-up:
/// set-up and its warm-ups are a fixed amount of work, while the timed phase
/// does as much as fits and the daemon keeps every finished job's outcome,
/// so a later peak would grow with the commit's speed.
fn run_untraced(w: &Workload, s: &Settings) -> Block {
    let mut block = new_block(w, s, false);
    let mut check = Check::default();
    let mut setups = Vec::new();
    let mut peak_rss_mb = None;
    let mut state = None;
    for _ in 0..s.setups() {
        if let Some(earlier) = state.take() {
            check.merge(workload::teardown(earlier, None));
        }
        let t = Instant::now();
        state = Some(workload::setup(w, s, false));
        setups.push(t.elapsed().as_secs_f64());
        peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
    }
    let mut state = state.expect("at least one set-up");
    block.probes.push(probe(s));
    let t = Instant::now();
    let out = workload::measure(w, &mut state, s.seconds, None, false);
    block.timed_s = t.elapsed().as_secs_f64();
    check.merge(out.check);
    check.merge(workload::teardown(state, None));

    block.put(
        def(END_TO_END, "setup_s"),
        Summary::of_windows(&setups, setups.len()),
    );
    for (name, windows) in &out.metrics {
        block.put(def(END_TO_END, name), windows.summary());
    }
    block.put(
        def(END_TO_END, "peak_rss_mb"),
        Summary::single(peak_rss_mb.expect("at least one set-up")),
    );
    finish(&mut block, check, s);
    for d in END_TO_END {
        let (has, wants) = (block.metrics.contains_key(d.name), d.measured_on(w));
        assert_eq!(has, wants, "{} on {}", d.name, w.name);
    }
    block
}

/// How much worse `traced` is than `untraced`, as a share of `untraced`.
fn overhead(better: Better, untraced: f64, traced: f64) -> f64 {
    match better {
        Better::Lower => (traced - untraced) / untraced,
        Better::Higher => (untraced - traced) / untraced,
    }
}

/// The traced run: a short untraced and a short traced end-to-end segment
/// (their difference is `trace.overhead_frac`), then the per-layer ladder;
/// the spans go to `target/benchmark/trace-<workload>.json`.
fn run_traced(w: &Workload, s: &Settings) -> Result<Block, String> {
    let mut block = new_block(w, s, true);
    let tracer = spans::Tracer::default();
    let mut check = Check::default();
    let served = matches!(w.kind, Kind::Serve | Kind::Store);
    let primary = w.primary();

    let mut state = workload::setup(w, s, false);
    let t = Instant::now();
    let plain = workload::measure(w, &mut state, s.seconds * 0.15, None, false);
    check.merge(plain.check);
    if served {
        // A daemon traces only if it was started that way.
        check.merge(workload::teardown(state, None));
        state = workload::setup(w, s, true);
    }
    let with_spans = workload::measure(w, &mut state, s.seconds * 0.2, Some(&tracer), true);
    check.merge(with_spans.check);
    check.merge(workload::teardown(state, Some(&tracer)));

    block.probes.push(probe(s));
    let ladder = ladder::measure(w, s, s.seconds * 0.6, &tracer);
    block.timed_s = t.elapsed().as_secs_f64();
    check.merge(ladder.check);
    for (name, value) in ladder.values {
        block.put(def(PER_LAYER, name), Summary::single(value));
    }
    for (name, summary) in with_spans.tails {
        block.put(def(SERVE_TAILS, name), summary);
    }
    block.put(
        def(PER_LAYER, "trace.overhead_frac"),
        Summary::single(overhead(
            primary.better,
            primary.value(&plain.metrics[primary.name].summary()),
            primary.value(&with_spans.metrics[primary.name].summary()),
        )),
    );
    block.put(
        def(PER_LAYER, "host.nproc"),
        Summary::single(host::nproc() as f64),
    );
    block.put(
        def(PER_LAYER, "host.probe_gflops"),
        Summary::single(block.probes[0]),
    );

    block.self_time_us = tracer
        .self_time_us()
        .into_iter()
        .map(|(layer, us)| (layer.to_string(), us))
        .collect();
    let path = format!("{OUT_DIR}/trace-{}.json", w.name);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    std::fs::write(&path, tracer.to_chrome_json()).map_err(|e| format!("write {path}: {e}"))?;
    block.trace_file = Some(path);
    finish(&mut block, check, s);
    Ok(block)
}

/// `run`: every workload in a fresh child process, every metric printed,
/// one results file written. False when any workload was incorrect.
fn run_all(flags: &BTreeMap<String, String>) -> Result<bool, String> {
    let s = settings(flags)?;
    let traced = flags.contains_key("traced");
    let mut blocks = Vec::new();
    for w in metrics::workloads() {
        let seconds = s.seconds.to_string();
        let trace = if traced { "1" } else { "0" };
        let flags = ["--full", "--seconds", &seconds, "--trace", trace];
        let (table, last) = reexec(&w, &s, &flags)?;
        println!("{table}");
        let block = pulsar_tuner::json::Json::parse(&last)
            .and_then(|j| Block::from_json(&j))
            .map_err(|e| format!("the {} child's result does not parse: {e}", w.name))?;
        blocks.push(block);
    }
    let all_correct = blocks.iter().all(Block::correct);
    let file = format!(
        "{OUT_DIR}/{}.json",
        if traced { "layers" } else { "results" }
    );
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    std::fs::write(&file, report::results_json(&blocks) + "\n")
        .map_err(|e| format!("write {file}: {e}"))?;
    let unstable: Vec<&str> = blocks
        .iter()
        .filter(|b| b.host_unstable)
        .map(|b| b.workload.as_str())
        .collect();
    println!(
        "wrote {file}; seed {} (default {}, held out {}); correct: {all_correct}; \
         host_unstable: {}",
        s.seed,
        gen::DEFAULT_SEED,
        gen::HELD_OUT_SEED,
        if unstable.is_empty() {
            "none".to_string()
        } else {
            unstable.join(", ")
        }
    );
    Ok(all_correct)
}

/// `compare a.json b.json`; false when any row regressed.
fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|t| report::parse_results(&t).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare::compare(&load(a)?, &load(b)?);
    print!("{}", compare::render(&rows));
    Ok(rows
        .iter()
        .all(|r| r.verdict != compare::Verdict::Regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let f = parse_flags(&args("--workload tall_fine --seed 2 --seconds 5 --trace 1"))
            .expect("driver flags parse");
        assert_eq!(f["workload"], "tall_fine");
        let s = settings(&f).expect("settings");
        assert_eq!((s.seed, s.seconds, s.smoke), (2, 5.0, false));
        let s = settings(&parse_flags(&args("--smoke")).expect("bare flag")).expect("settings");
        assert_eq!(
            (s.seed, s.seconds, s.smoke),
            (gen::DEFAULT_SEED, SMOKE_SECONDS, true)
        );
        assert!(parse_flags(&args("--bogus 1")).is_err());
        assert!(parse_flags(&args("--seed")).is_err());
        assert!(settings(&parse_flags(&args("--seconds 0")).expect("parses")).is_err());
    }

    #[test]
    fn run_seconds_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = pulsar_tuner::json::Json::parse(
            &std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"),
        )
        .expect("parses");
        assert_eq!(
            doc.get("run_seconds").and_then(|s| s.as_f64()),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn overhead_is_the_share_by_which_tracing_made_it_worse() {
        assert!((overhead(Better::Lower, 1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((overhead(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
    }
}
