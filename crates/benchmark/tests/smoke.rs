//! Drives the built binary end to end in `--smoke` mode: all five workloads
//! untraced through `run`, one traced child, the driver's result line, and
//! `compare` on the results file — fast enough for the tier-1 suite.

use pulsar_tuner::json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

const WORKLOADS: [&str; 5] = [
    "square_1024",
    "tall_fine",
    "cluster_cyclic",
    "serve_small",
    "store_mixed",
];

/// Run the benchmark with `args` in a scratch directory of its own (the
/// binary writes `target/benchmark/` under its working directory).
fn benchmark(dir: &str, args: &[&str]) -> (Output, PathBuf) {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&cwd).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("benchmark binary starts");
    (out, cwd)
}

fn last_line_json(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.trim_end().lines().last().expect("some output");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn metric_names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses")
}

/// The driver's result object: exactly four keys, whole-number counts, and
/// exactly the named metrics, each a finite value with a unit.
fn check_contract_line(line: &Json, names: &[String]) {
    let Json::Obj(top) = line else {
        panic!("result line is an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert!(
        line.get("attempted")
            .and_then(Json::as_usize)
            .expect("attempted")
            >= 1
    );
    assert_eq!(line.get("failed").and_then(Json::as_usize), Some(0));
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics object")
    };
    let got: Vec<&String> = metrics.keys().collect();
    let mut want: Vec<&String> = names.iter().collect();
    want.sort();
    assert_eq!(got, want);
    for (name, m) in metrics {
        let value = m.get("value").and_then(Json::as_f64).expect("value");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            m.get("unit").and_then(Json::as_str).is_some(),
            "{name} unit"
        );
    }
}

#[test]
fn smoke_run_drives_all_five_workloads_in_under_ten_seconds() {
    let t = Instant::now();
    let (out, cwd) = benchmark("run", &["run", "--smoke", "--seed", "3"]);
    let took = t.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "run --smoke failed:\n{stdout}");
    assert!(took < 10.0, "smoke run took {took:.1} s");
    for w in WORKLOADS {
        assert!(stdout.contains(&format!("== {w} ")), "no block for {w}");
    }
    for name in metric_names(&benchmark_json(), "end_to_end") {
        assert!(stdout.contains(&name), "metric {name} not printed");
    }
    assert_eq!(stdout.matches("ops_failed_frac").count(), WORKLOADS.len());
    // A metric is printed for the workloads that measure it and no other.
    assert_eq!(stdout.matches("factor_s_p50").count(), 3);
    assert_eq!(stdout.matches("jobs_per_s").count(), 1);

    let results = cwd.join("target/benchmark/results.json");
    let doc = Json::parse(&std::fs::read_to_string(&results).expect("results.json")).expect("JSON");
    let blocks = doc.get("workloads").and_then(Json::as_arr).expect("blocks");
    assert_eq!(blocks.len(), WORKLOADS.len());
    for b in blocks {
        assert_eq!(b.get("failed").and_then(Json::as_usize), Some(0));
        assert_eq!(b.get("seed").and_then(Json::as_usize), Some(3));
    }

    // A results file compared with itself: nothing regressed, exit 0.
    let file = results.to_str().expect("utf-8 path");
    let (cmp, _) = benchmark("run", &["compare", file, file]);
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "compare failed:\n{table}");
    assert!(table.contains("store_mixed") && !table.contains("regressed"));
    assert_eq!(table.lines().count(), 1 + 24, "one row per measured pair");

    // A change that lost a workload does not pass.
    let fewer = cwd.join("fewer.json");
    let kept = Json::Arr(blocks[1..].to_vec());
    let doc = Json::Obj([("workloads".to_string(), kept)].into());
    std::fs::write(&fewer, doc.write()).expect("write");
    let (cmp, _) = benchmark("run", &["compare", file, fewer.to_str().expect("utf-8")]);
    assert_eq!(cmp.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&cmp.stdout).contains("regressed"));
}

#[test]
fn driver_mode_prints_the_contract_line_untraced_and_traced() {
    let doc = benchmark_json();
    let args = |trace: &'static str| {
        [
            "--workload",
            "serve_small",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ]
    };
    let (out, _) = benchmark("e2e", &args("0"));
    assert!(out.status.success());
    check_contract_line(&last_line_json(&out), &metric_names(&doc, "end_to_end"));

    let (out, cwd) = benchmark("traced", &args("1"));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    check_contract_line(&last_line_json(&out), &metric_names(&doc, "per_layer"));
    let trace = std::fs::read_to_string(cwd.join("target/benchmark/trace-serve_small.json"))
        .expect("a Chrome trace per workload");
    let events = Json::parse(&trace).expect("trace is JSON");
    assert!(events.as_arr().expect("event array").len() > 10);
}

#[test]
fn bad_usage_exits_nonzero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload", "--seed", "1"][..],
        &["--workload", "tall_fine", "--trace", "2"],
        &["frobnicate"],
        &["compare", "only-one.json"],
    ] {
        let (out, _) = benchmark("bad", args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
