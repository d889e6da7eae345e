//! Seeded end-to-end and per-layer benchmark of the IR-ORAM timed
//! simulator and the `iroram-kv` store.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload sim-intense --seed 1 --seconds 20 --trace 0 [--out DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with all instrumentation
//! off; `--trace 1` is a separate run that turns on the simulator's phase
//! profiler and the KV store's injected clock and reports the per-layer
//! metrics. The end-to-end times are scaled for the shared host's speed
//! by a reference kernel the benchmark owns (`host.rs`). Both modes run
//! the correctness checks and exit 1 when one fails. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; provenance (commit,
//! core count, CPU model) goes to standard error and, with `--out`, into a
//! result file in that directory. `NOTES.md` beside this package records
//! why each workload exists and which end-to-end metric each per-layer
//! metric should move.

mod host;
mod kv;
mod sim;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;

/// The end-to-end metrics (untraced run), by name and unit. Every
/// workload reports every one; what an operation and a request are
/// depends on the workload, and `NOTES.md` has the table.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("load_ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("completed_ratio", "ratio"),
];

/// The per-layer metrics (traced run), by name and unit. A layer the
/// workload does not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("oram-protocol.init_s", "s"),
    ("sim.construction_s", "s"),
    ("sim.traced_wall_s", "s"),
    ("dram-sim.schedule_s", "s"),
    ("dram-sim.ns_per_request", "ns"),
    ("oram-protocol.stash_s", "s"),
    ("oram-protocol.posmap_s", "s"),
    ("unattributed_s", "s"),
    ("oram-ctrl.ns_per_slot", "ns"),
    ("cache-sim.lookup_s", "s"),
    ("trace-gen.next_record_ns", "ns"),
    ("kv.fanout_overhead_s", "s"),
    ("kv.submit_ns", "ns"),
    ("kv.service_p50_us", "us"),
    ("kv.service_p99_us", "us"),
    ("kv.shard_busy_s", "s"),
    ("kv.init_s", "s"),
    ("kv.kicks_per_put", "ratio"),
    ("oram-protocol.paths_data", "count"),
    ("oram-protocol.paths_posmap", "count"),
    ("oram-protocol.paths_dummy", "count"),
    ("oram-protocol.paths_bg_evict", "count"),
    ("oram-protocol.treetop_hit_ratio", "ratio"),
    ("oram-protocol.stash_peak", "count"),
    ("oram-ctrl.slots", "count"),
    ("oram-ctrl.converted_slots", "count"),
    ("oram-ctrl.sim_cycles", "count"),
    ("dram-sim.requests", "count"),
    ("dram-sim.row_hit_ratio", "ratio"),
    ("cache-sim.llc_miss_ratio", "ratio"),
    ("cache-sim.dirty_writebacks", "count"),
    ("kv.oram_accesses_per_op", "ratio"),
    ("kv.hit_ratio", "ratio"),
    ("kv.stash_peak", "count"),
    ("kv.overflow_peak", "count"),
    ("latency_samples", "count"),
    ("trace_overhead_ratio", "ratio"),
];

/// What one workload run produced.
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (simulation cells, or KV operations).
    pub attempted: u64,
    /// Attempted operations that returned an error.
    pub failed: u64,
    /// The metrics the workload measured, by name: names from
    /// [`END_TO_END`] in an untraced run, from [`PER_LAYER`] in a traced
    /// one.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Every metric of the run's table with its unit, in table order. An
    /// untraced run adds the completed share; a per-layer metric the
    /// workload did not measure reads 0.
    ///
    /// # Panics
    ///
    /// Panics when the workload measured a name outside the table, or an
    /// untraced run left an end-to-end metric out.
    fn table(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let mut measured = self.metrics.clone();
        if !trace {
            measured.push((
                "completed_ratio",
                completed_ratio(self.attempted, self.failed),
            ));
        }
        let table = if trace { PER_LAYER } else { END_TO_END };
        for (name, _) in &measured {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric `{name}` is not in the table"
            );
        }
        table
            .iter()
            .map(|&(name, unit)| {
                let value = measured.iter().find(|(n, _)| *n == name).map(|m| m.1);
                assert!(
                    trace || value.is_some(),
                    "end-to-end metric `{name}` missing"
                );
                (name, value.unwrap_or(0.0), unit)
            })
            .collect()
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Records the outcome of one correctness check on standard error.
pub fn check(ok: bool, what: &str) -> bool {
    eprintln!("check {}: {what}", if ok { "ok" } else { "FAILED" });
    ok
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Share of attempted operations that completed without error.
pub fn completed_ratio(attempted: u64, failed: u64) -> f64 {
    (attempted - failed) as f64 / attempted.max(1) as f64
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: iroram-benchmark --workload sim-intense|kv-zipf \
--seed N --seconds S --trace 0|1 [--out DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unrecognized argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out,
    })
}

/// Short commit hash of the benchmark's source tree, or `unknown` in a
/// checkout without git metadata.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown".to_owned(), |v| {
            v.trim_start_matches([' ', '\t', ':']).to_owned()
        })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(o: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = o
        .table(trace)
        .into_iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a metric that cannot be
            // computed is reported as null.
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_owned()
            };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let provenance = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \"nproc\": {nproc}, \"cpu\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&commit()),
        json_str(&cpu_model()),
    );
    eprintln!("provenance: {provenance}");

    let outcome = match args.workload.as_str() {
        "sim-intense" => sim::run(&sim::INTENSE, args.seed, args.seconds, args.trace),
        "kv-zipf" => kv::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("error: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    let line = result_json(&outcome, args.trace);
    if let Some(dir) = &args.out {
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        let body = format!("{{\"provenance\": {provenance}, \"result\": {line}}}\n");
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    println!("{line}");
    if !outcome.correct {
        eprintln!("error: a correctness check failed");
        std::process::exit(1);
    }
}
