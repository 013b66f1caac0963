//! The metric catalogue, the result line and the per-run `BENCH_*.json`
//! record.
//!
//! Every run prints every metric of its mode (end-to-end untraced,
//! per-layer traced), whatever the workload: the catalogue below is the
//! single list `BENCHMARK.json` mirrors. A per-layer metric of a layer
//! the workload's operations never enter reads 0 (no time, no work).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// `(name, unit)` of every end-to-end metric, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("lineage_p50_ms", "ms"),
    ("flush_p50_ms", "ms"),
    ("billed_requests_per_op", "req/op"),
    ("usd_per_1k_ops", "USD"),
    ("storage_overhead", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of metrics kept in the `BENCH_*.json` record only:
/// measured, but either missing on some workload or too unsteady from
/// run to run on a shared 2-vCPU host to gate a change (see the README).
pub const RECORD_ONLY: &[(&str, &str)] = &[
    ("throughput_ops_s", "ops/s"),
    ("read_p50_ms", "ms"),
    ("record_p50_ms", "ms"),
    ("record_p99_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("query_s", "s"),
];

/// `(name, unit)` of every per-layer metric, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.codec_us_per_op", "us"),
    ("frontend.frame_bytes_per_op", "bytes"),
    ("frontend.transport_us_per_op", "us"),
    ("serve.record_us", "us"),
    ("serve.writer_wait_us", "us"),
    ("serve.read_us", "us"),
    ("serve.query_us", "us"),
    ("arch.persist_us", "us"),
    ("arch.flush_ms", "ms"),
    ("wal.entries_per_op", "count"),
    ("arch3.receive_yield", "ratio"),
    ("closure.values_per_op", "count"),
    ("closure.q3_us", "us"),
    ("readpath.read_us", "us"),
    ("query.s3scan.q1_ms", "ms"),
    ("query.s3scan.q2_ms", "ms"),
    ("query.s3scan.q3_ms", "ms"),
    ("query.simpledb.q1_ms", "ms"),
    ("query.simpledb.q2_ms", "ms"),
    ("query.simpledb.q3_ms", "ms"),
    ("sim_s3.requests_per_op", "count"),
    ("sim_s3.bytes_in_per_op", "bytes"),
    ("sim_s3.bytes_out_per_op", "bytes"),
    ("sim_s3.get_us", "us"),
    ("sim_simpledb.requests_per_op", "count"),
    ("sim_simpledb.batch_entries_per_op", "count"),
    ("sim_simpledb.shard_imbalance", "ratio"),
    ("sim_simpledb.get_us", "us"),
    ("sim_simpledb.query_ms", "ms"),
    ("sim_sqs.requests_per_op", "count"),
    ("sim_sqs.bytes_in_per_op", "bytes"),
    ("simworld.md5_us_per_mib", "us"),
    ("simworld.md5_mib_per_op", "MiB"),
    ("simworld.blob_us_per_mib", "us"),
    ("simworld.virtual_ms_per_op", "ms"),
    ("pass.observe_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// Operations attempted and failed, per operation class.
pub type Classes = BTreeMap<&'static str, (u64, u64)>;

/// Adds `attempted`/`failed` to one class.
pub fn count(classes: &mut Classes, class: &'static str, attempted: u64, failed: u64) {
    let slot = classes.entry(class).or_default();
    slot.0 += attempted;
    slot.1 += failed;
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (the mode's catalogue; extra names are
    /// kept in the record only).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Attempted/failed per operation class.
    pub classes: Classes,
    /// Correctness failures, one line each. Empty means correct.
    pub mismatches: Vec<String>,
    /// Whole rounds run in the measured phase.
    pub rounds: usize,
    /// Workload facts for the record (input make-up, virtual seconds,
    /// exact counts).
    pub facts: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a correctness failure.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        let what = what.into();
        if self.mismatches.len() < 32 {
            eprintln!("provbench: MISMATCH {what}");
        }
        self.mismatches.push(what);
    }

    /// Operations attempted and failed over every class.
    pub fn totals(&self) -> (u64, u64) {
        self.classes
            .values()
            .fold((0, 0), |(a, f), (ca, cf)| (a + ca, f + cf))
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn catalogue(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let (attempted, failed) = outcome.totals();
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        outcome.mismatches.is_empty()
    );
    for (i, (name, unit)) in catalogue(traced).iter().enumerate() {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        );
    }
    out.push_str("}}");
    out
}

/// A human-readable table of the run, for standard error.
pub fn render(workload: &str, outcome: &Outcome, traced: bool) -> String {
    let mut out = format!(
        "provbench {workload} ({} mode, {} rounds)\n",
        if traced { "traced" } else { "untraced" },
        outcome.rounds
    );
    for (name, unit) in catalogue(traced) {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(out, "  {name:<36} {value:>14.4} {unit}");
    }
    for (class, (attempted, failed)) in &outcome.classes {
        let _ = writeln!(
            out,
            "  ops {class:<32} {attempted:>8} attempted {failed:>4} failed"
        );
    }
    out
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git work tree.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_map<V>(map: &BTreeMap<&str, V>, value: impl Fn(&V) -> String) -> String {
    let body: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", value(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The machine-readable record of one run: every metric measured,
/// operations per class, the seed, the host's core count and the
/// revision.
pub fn record_json(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    outcome: &Outcome,
) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let units: BTreeMap<&str, &str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(RECORD_ONLY)
        .copied()
        .collect();
    let metrics: BTreeMap<&str, (f64, &str)> = outcome
        .metrics
        .iter()
        .map(|(k, v)| (*k, (*v, units.get(k).copied().unwrap_or(""))))
        .collect();
    let (attempted, failed) = outcome.totals();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"traced\": {traced}, \
         \"cores\": {cores}, \"revision\": \"{}\", \"correct\": {}, \"rounds\": {}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"classes\": {}, \"metrics\": {}, \"facts\": {}}}\n",
        git_revision(),
        outcome.mismatches.is_empty(),
        outcome.rounds,
        json_map(&outcome.classes, |(a, f)| format!(
            "{{\"attempted\": {a}, \"failed\": {f}}}"
        )),
        json_map(&metrics, |(v, u)| format!(
            "{{\"value\": {}, \"unit\": \"{u}\"}}",
            number(*v)
        )),
        json_map(&outcome.facts, |v| number(*v)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`, in order.
    fn section(json: &str, key: &str, next: &str) -> Vec<(String, String)> {
        let flat: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        let start = flat.find(&format!("\"{key}\":")).expect("section present");
        let end = flat[start..]
            .find(&format!("\"{next}\""))
            .map_or(flat.len(), |e| start + e);
        flat[start..end]
            .split("\"name\":\"")
            .skip(1)
            .map(|item| {
                let (name, rest) = item.split_once('"').expect("quoted name");
                let unit = rest
                    .split_once("\"unit\":\"")
                    .and_then(|(_, u)| u.split_once('"'))
                    .expect("quoted unit")
                    .0;
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the package");
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(section(&json, "end_to_end", "per_layer"), owned(END_TO_END));
        assert_eq!(section(&json, "per_layer", "\u{0}"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut outcome = Outcome::default();
        count(&mut outcome.classes, "read", 3, 1);
        outcome.set("setup_s", 0.5);
        let line = result_line(&outcome, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}
