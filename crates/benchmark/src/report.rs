//! What one workload's run reports (a [`Block`]), its two renderings — the
//! driver's one-line result and the full JSON the `run` command collects —
//! and the human-readable table.

use crate::metrics::{Better, MetricDef};
use crate::stats::{highest_supported_percentile, Summary};
use pulsar_tuner::json::{obj, Json};
use std::collections::BTreeMap;

/// One workload's results, from one child process.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs came from.
    pub seed: u64,
    /// Length asked of the measured phase, seconds.
    pub seconds: f64,
    /// Wall time the measured phase took, seconds: `seconds` plus the tail
    /// of the operation in flight when the time was up.
    pub timed_s: f64,
    /// True for the traced (per-layer) run.
    pub traced: bool,
    /// Metrics by name: unit and summary.
    pub metrics: BTreeMap<String, (String, Summary)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused, or wrong.
    pub failed: u64,
    /// The first failures.
    pub notes: Vec<String>,
    /// Host-probe readings, GFLOP/s: at the start, before the timed phase
    /// (the ladder, in a traced run), at the end.
    pub probes: Vec<f64>,
    /// One reading is more than 15 % below the median one: the numbers were
    /// taken on a host that changed speed mid-run.
    pub host_unstable: bool,
    /// Self time per layer from the spans, microseconds (traced run only).
    pub self_time_us: BTreeMap<String, f64>,
    /// Where the Chrome trace went (traced run only).
    pub trace_file: Option<String>,
}

impl Block {
    /// Add one metric.
    pub fn put(&mut self, def: &MetricDef, s: Summary) {
        self.metrics
            .insert(def.name.to_string(), (def.unit.to_string(), s));
    }

    /// True when every operation succeeded and every number is finite.
    pub fn correct(&self) -> bool {
        let finite = |s: &Summary| [s.q1, s.median, s.q3].iter().all(|x| x.is_finite());
        self.failed == 0 && self.attempted > 0 && self.metrics.values().all(|(_, s)| finite(s))
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (name to value and unit) for every one of `defs`. A
    /// metric this workload does not measure carries the length of the timed
    /// phase (see [`MetricDef::filler`]).
    pub fn contract_line(&self, defs: &[MetricDef]) -> String {
        let metrics = defs
            .iter()
            .map(|d| {
                let measured = self.metrics.get(d.name).map(|(_, s)| d.value(s));
                let value = measured.unwrap_or_else(|| d.filler(self.timed_s));
                let value = if value.is_finite() { value } else { -1.0 };
                (
                    d.name.to_string(),
                    obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(d.unit.to_string())),
                    ]),
                )
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .write()
    }

    /// Everything, for `results.json` / `layers.json`.
    pub fn to_json(&self) -> Json {
        let num_map = |m: &BTreeMap<String, f64>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
        };
        // JSON has no NaN: a number that is not one is written as null.
        let num = |x: f64| {
            if x.is_finite() {
                Json::Num(x)
            } else {
                Json::Null
            }
        };
        let metrics = self
            .metrics
            .iter()
            .map(|(name, (unit, s))| {
                (
                    name.clone(),
                    obj([
                        ("unit", Json::Str(unit.clone())),
                        ("n", Json::Num(s.n as f64)),
                        ("q1", num(s.q1)),
                        ("median", num(s.median)),
                        ("q3", num(s.q3)),
                    ]),
                )
            })
            .collect();
        obj([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("timed_s", Json::Num(self.timed_s)),
            ("traced", Json::Bool(self.traced)),
            ("metrics", Json::Obj(metrics)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "notes",
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "probes_gflops",
                Json::Arr(self.probes.iter().map(|p| Json::Num(*p)).collect()),
            ),
            ("host_unstable", Json::Bool(self.host_unstable)),
            ("self_time_us", num_map(&self.self_time_us)),
            (
                "trace_file",
                self.trace_file.clone().map_or(Json::Null, Json::Str),
            ),
        ])
    }

    /// Parse what [`Self::to_json`] wrote.
    pub fn from_json(j: &Json) -> Result<Block, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("block lacks `{k}`"));
        let num = |k: &str| field(k)?.as_f64().ok_or_else(|| format!("bad `{k}`"));
        let flag = |k: &str| match field(k)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("bad `{k}`")),
        };
        let Json::Obj(raw) = field("metrics")? else {
            return Err("bad `metrics`".into());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in raw {
            let get = |k: &str| match m.get(k) {
                Some(Json::Null) => Ok(f64::NAN),
                Some(Json::Num(x)) => Ok(*x),
                _ => Err(format!("metric {name} lacks `{k}`")),
            };
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let s = Summary {
                n: get("n")? as usize,
                q1: get("q1")?,
                median: get("median")?,
                q3: get("q3")?,
            };
            metrics.insert(name.clone(), (unit.to_string(), s));
        }
        let self_time_us = match field("self_time_us")? {
            Json::Obj(m) => m
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            _ => BTreeMap::new(),
        };
        Ok(Block {
            workload: field("workload")?
                .as_str()
                .ok_or("bad `workload`")?
                .to_string(),
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            timed_s: num("timed_s")?,
            traced: flag("traced")?,
            metrics,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            notes: field("notes")?
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
            probes: field("probes_gflops")?
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
            host_unstable: flag("host_unstable")?,
            self_time_us,
            trace_file: field("trace_file")?.as_str().map(str::to_string),
        })
    }

    /// The table `run` prints: every metric by name with unit, sample count,
    /// median and quartiles, in the order of `defs` (then any extras).
    pub fn table(&self, defs: &[MetricDef]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}, {} s{}){}",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { ", traced" } else { "" },
            if self.host_unstable {
                "  ** host_unstable: a probe reading is 15 % below the median **"
            } else {
                ""
            },
        );
        let _ = writeln!(
            out,
            "  {:<32} {:>10} {:>8} {:>14} {:>14} {:>14}  gated on",
            "metric", "unit", "n", "q1", "median", "q3"
        );
        let listed = defs.iter().map(|d| d.name);
        let extras = self
            .metrics
            .keys()
            .map(String::as_str)
            .filter(|k| defs.iter().all(|d| d.name != *k));
        for name in listed.chain(extras) {
            if let Some((unit, s)) = self.metrics.get(name) {
                // End-to-end metrics are gated on the quartile of their
                // better side (see `MetricDef::value`).
                let gated = match defs.iter().find(|d| d.name == name) {
                    Some(d) if d.bound.is_none() => "",
                    Some(d) if d.better == Better::Lower => "q1",
                    Some(_) => "q3",
                    None => "",
                };
                let _ = writeln!(
                    out,
                    "  {:<32} {:>10} {:>8} {:>14} {:>14} {:>14}  {gated}",
                    name,
                    unit,
                    s.n,
                    number(s.q1),
                    number(s.median),
                    number(s.q3)
                );
            }
        }
        let probes: Vec<String> = self.probes.iter().map(|p| format!("{p:.2}")).collect();
        let _ = writeln!(out, "  host probe, gflops: {}", probes.join(" "));
        for (name, (_, s)) in &self.metrics {
            // Latency percentiles name the tail they claim; say how far this
            // run's sample count supports going.
            if name.contains("_p9") {
                let limit = highest_supported_percentile(s.n)
                    .map_or("none".to_string(), |p| format!("p{p}"));
                let _ = writeln!(
                    out,
                    "  {name}: n = {}, highest percentile with 10 samples beyond it: {limit}",
                    s.n
                );
            }
        }
        if !self.self_time_us.is_empty() {
            let _ = writeln!(out, "  self time by layer (span minus child spans):");
            for (layer, us) in &self.self_time_us {
                let _ = writeln!(out, "    {layer:<10} {:>12.3} ms", us / 1e3);
            }
        }
        if let Some(f) = &self.trace_file {
            let _ = writeln!(out, "  trace: {f}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "  FAILED: {n}");
        }
        out
    }
}

/// Six significant decimals for ordinary magnitudes, scientific notation for
/// the very small (residuals) and the very large (flop counts).
fn number(x: f64) -> String {
    if x == 0.0 || (1e-3..1e9).contains(&x.abs()) {
        format!("{x:.6}")
    } else {
        format!("{x:.5e}")
    }
}

/// A results file: every workload's block from one `run`.
pub fn results_json(blocks: &[Block]) -> String {
    obj([(
        "workloads",
        Json::Arr(blocks.iter().map(Block::to_json).collect()),
    )])
    .write()
}

/// Parse a results file.
pub fn parse_results(text: &str) -> Result<Vec<Block>, String> {
    Json::parse(text)?
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("results file lacks `workloads`")?
        .iter()
        .map(Block::from_json)
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::metrics::{driver_metrics, workloads, END_TO_END, OPS_FAILED_FRAC, PER_LAYER};

    /// An untraced block of `workload` holding the metrics measured there,
    /// each at `value` with interquartile spread `spread`, and no failures.
    pub(crate) fn block(workload: &str, value: f64, spread: f64) -> Block {
        let w = workloads()
            .into_iter()
            .find(|w| w.name == workload)
            .expect("a workload name");
        let mut b = Block {
            workload: workload.to_string(),
            seed: 1,
            seconds: 20.0,
            timed_s: 20.5,
            traced: false,
            metrics: BTreeMap::new(),
            attempted: 100,
            failed: 0,
            notes: Vec::new(),
            probes: vec![6.0, 6.1],
            host_unstable: false,
            self_time_us: BTreeMap::new(),
            trace_file: None,
        };
        for d in END_TO_END.iter().filter(|d| d.measured_on(&w)) {
            let s = Summary {
                n: 50,
                q1: value * (1.0 - spread / 2.0),
                median: value,
                q3: value * (1.0 + spread / 2.0),
            };
            b.put(d, s);
        }
        b.metrics.get_mut(OPS_FAILED_FRAC).expect("on all").1 = Summary::single(0.0);
        b
    }

    #[test]
    fn contract_line_has_the_four_keys_and_every_listed_metric() {
        let b = block("square_1024", 0.05, 0.0);
        let line = b.contract_line(&driver_metrics());
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).expect("one JSON object");
        let Json::Obj(top) = &j else { panic!("object") };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("attempted").and_then(Json::as_usize), Some(100));
        let Some(Json::Obj(metrics)) = j.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), 9);
        assert!(!metrics.contains_key(OPS_FAILED_FRAC));
        let value = |name: &str| metrics[name].get("value").and_then(Json::as_f64);
        // Measured here: as measured. Not measured here: the 20.5 s the
        // timed phase took, as a time or as one phase per that time.
        assert_eq!(value("factor_s_p50"), Some(0.05));
        assert_eq!(value("peak_rss_mb"), Some(0.05));
        assert_eq!(value("keep_ms_p50"), Some(20_500.0));
        assert_eq!(value("jobs_per_s"), Some(1.0 / 20.5));
        for d in driver_metrics() {
            let unit = metrics[d.name].get("unit").and_then(Json::as_str);
            assert_eq!(unit, Some(d.unit));
        }
    }

    #[test]
    fn a_failure_or_a_non_finite_number_is_not_correct() {
        let mut b = block("tall_fine", 2.0, 0.0);
        assert!(b.correct());
        b.failed = 1;
        assert!(!b.correct());
        let line = |b: &Block| b.contract_line(&driver_metrics());
        assert!(line(&b).contains("\"correct\":false"));
        b.failed = 0;
        b.metrics.get_mut("setup_s").expect("present").1.median = f64::NAN;
        assert!(!b.correct());
        Json::parse(&line(&b)).expect("still valid JSON");
        // The results file carries the NaN as null and reads it back.
        let back = parse_results(&results_json(std::slice::from_ref(&b))).expect("parses");
        assert!(back[0].metrics["setup_s"].1.median.is_nan() && !back[0].correct());
    }

    #[test]
    fn full_json_round_trips_and_the_table_names_every_metric() {
        let mut b = block("serve_small", 3.5, 0.02);
        b.notes.push("solve is off".into());
        b.self_time_us.insert("wire".into(), 12.5);
        b.trace_file = Some("target/benchmark/trace-serve_small.json".into());
        b.host_unstable = true;
        let back = parse_results(&results_json(std::slice::from_ref(&b))).expect("parses");
        assert_eq!(back, vec![b.clone()]);
        let table = b.table(END_TO_END);
        for name in [
            "setup_s",
            "jobs_per_s",
            "job_ms_p50",
            "job_ms_p90",
            "peak_rss_mb",
        ] {
            assert!(table.contains(name), "{name}");
        }
        assert!(table.contains("host_unstable") && table.contains(OPS_FAILED_FRAC));
        // Only what the workload measures is printed.
        assert!(!table.contains("factor_s_p50") && !table.contains("solves_per_s"));
        assert!(PER_LAYER.iter().all(|d| !table.contains(d.name)));
    }
}
