//! Append-only benchmark history (`BENCH_history.jsonl`) and the perf
//! ratchet shared by the perf harness binaries (`perfstat`, `kv_bench`).
//!
//! Each line of the history file is one [`crate::json`] object describing
//! one recorded run. Two *bench families* write to the same file: the
//! simulator-throughput harness (`"bench": "sim"`) and the KV serving-layer
//! harness (`"bench": "kv"`). Ratchet baselines must never cross families —
//! a KV run and a sim run are not rate-comparable even when their scale and
//! job-count labels collide — so every lookup is keyed by a [`HistoryKey`]
//! that includes the family. Lines written before the `bench` field existed
//! are all simulator runs and parse as the `"sim"` family.
//!
//! A run is judged before it is appended, and its line carries the
//! [`Verdict`]. The baseline is the newest line of the lineage whose verdict
//! is not `"regression"` (lines from before the field existed count as
//! passing), so a failed run can never become the next run's baseline.

use std::io::Write as _;
use std::path::Path;

use crate::json::{self, Json};

/// The history file at the repository root.
pub const HISTORY_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl");

/// Process exit code for a ratchet regression.
pub const EXIT_REGRESSION: i32 = 1;

/// Process exit code when the ratchet had no comparable baseline: the gate
/// passed *vacuously*, which must not read as a green perf check. Distinct
/// from [`EXIT_REGRESSION`] so CI can tell "got slower" from "measured
/// nothing". The run's own line is appended, so the next run has a
/// baseline and this self-heals.
pub const EXIT_NO_BASELINE: i32 = 2;

/// One ratchet-comparability key: entries with equal keys measure the same
/// workload and may be rate-compared; everything else is a different
/// lineage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryKey {
    /// Bench family: `"sim"` (perfstat) or `"kv"` (kv_bench).
    pub bench: String,
    /// Scale label (`"quick"`, `"standard"`, `"full"`, `"custom"`).
    pub scale: String,
    /// Worker count the run used.
    pub jobs: u64,
    /// Fold over the full workload configuration: same fingerprint = same
    /// simulated workload, so a rate delta is attributable to the code.
    pub cfg_fp: u64,
}

/// The ratchet's judgement of one run against its lineage's baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The run's rate is at or above the floor.
    Ok {
        /// The run's rate.
        rate: f64,
        /// The baseline's rate.
        prev: f64,
        /// The lowest passing rate: `prev` less the tolerance.
        floor: f64,
    },
    /// The run's rate fell below the floor.
    Regression {
        /// The run's rate.
        rate: f64,
        /// The baseline's rate.
        prev: f64,
        /// The lowest passing rate: `prev` less the tolerance.
        floor: f64,
    },
    /// No passing line of the lineage exists: nothing was gated.
    NoBaseline,
}

impl Verdict {
    /// Judges `rate` against `baseline`, allowing it to fall `tolerance`
    /// (a fraction) below.
    pub fn judge(baseline: Option<f64>, rate: f64, tolerance: f64) -> Self {
        match baseline {
            None => Verdict::NoBaseline,
            Some(prev) => {
                let floor = prev * (1.0 - tolerance);
                if rate < floor {
                    Verdict::Regression { rate, prev, floor }
                } else {
                    Verdict::Ok { rate, prev, floor }
                }
            }
        }
    }

    /// The history line's `"verdict"` value.
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::Ok { .. } => "ok",
            Verdict::Regression { .. } => "regression",
            Verdict::NoBaseline => "no-baseline",
        }
    }

    /// The process exit code of a gated run with this verdict.
    pub fn exit_code(self) -> i32 {
        match self {
            Verdict::Ok { .. } => 0,
            Verdict::Regression { .. } => EXIT_REGRESSION,
            Verdict::NoBaseline => EXIT_NO_BASELINE,
        }
    }
}

impl HistoryKey {
    /// The `cfg-fp <hex>` tag embedded in an entry's `note` field.
    pub fn fp_tag(&self) -> String {
        format!("cfg-fp {:016x}", self.cfg_fp)
    }

    /// Whether the ratchet gates this lineage: only `quick` runs, the
    /// scale the CI perf steps run.
    pub fn gated(&self) -> bool {
        self.scale == "quick"
    }

    /// Whether one parsed history line belongs to this key's lineage.
    pub fn matches(&self, entry: &Json) -> bool {
        let str_of = |k| entry.get(k).and_then(Json::as_str);
        // Missing `bench` field = legacy entry, written by perfstat before
        // the field existed: simulator family by construction.
        str_of("bench").unwrap_or("sim") == self.bench
            && str_of("scale") == Some(self.scale.as_str())
            && entry.get("jobs").and_then(Json::as_u64) == Some(self.jobs)
            && str_of("note").is_some_and(|n| n.contains(&self.fp_tag()))
    }

    /// The ratchet baseline: `rate_field` of the newest line of this
    /// lineage whose verdict is not `"regression"`.
    pub fn baseline(&self, history: &str, rate_field: &str) -> Option<f64> {
        history
            .lines()
            .rev()
            .filter_map(json::parse)
            .find(|e| {
                self.matches(e) && e.get("verdict").and_then(Json::as_str) != Some("regression")
            })
            .and_then(|e| e.get(rate_field)?.as_f64())
    }

    /// One run's history line: the lineage, the rate, `fields`, the
    /// verdict, and a note with the commit and the config fingerprint.
    pub fn line(
        &self,
        rate_field: &str,
        rate: f64,
        fields: Vec<(&str, Json)>,
        verdict: Verdict,
    ) -> Json {
        // lint: allow(determinism, a history line's timestamp is provenance for perf runs; it never reaches a simulation report)
        let epoch_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let mut line = vec![
            ("epoch_secs", Json::from(epoch_secs)),
            ("bench", Json::from(self.bench.as_str())),
            ("scale", Json::from(self.scale.as_str())),
            ("jobs", Json::from(self.jobs)),
            (rate_field, Json::fixed(rate, 1)),
        ];
        line.extend(fields);
        line.push(("verdict", Json::from(verdict.tag())));
        let note = format!("commit {}, {}", git_commit(), self.fp_tag());
        line.push(("note", Json::Str(note)));
        Json::obj(line)
    }

    /// Judges a run at `rate` against this lineage's baseline in the
    /// history at `path`, then appends the run's line, verdict included.
    /// The baseline is read apart from the append, and a failed append is
    /// a warning: an unreadable or unwritable history still yields a
    /// verdict (no baseline).
    pub fn record(
        &self,
        path: impl AsRef<Path>,
        rate_field: &str,
        rate: f64,
        tolerance: f64,
        fields: Vec<(&str, Json)>,
    ) -> Verdict {
        let path = path.as_ref();
        let history = std::fs::read_to_string(path).unwrap_or_default();
        let verdict = Verdict::judge(self.baseline(&history, rate_field), rate, tolerance);
        let line = self.line(rate_field, rate, fields, verdict).write();
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        match appended {
            Ok(()) => println!(
                "appended {} jobs={} run to {}",
                self.bench,
                self.jobs,
                path.display()
            ),
            Err(e) => eprintln!("warning: could not append {}: {e}", path.display()),
        }
        verdict
    }

    /// Reports a gated run's verdict and exits with its code unless it is
    /// ok. Runs at scales the ratchet does not gate return silently.
    pub fn enforce(&self, label: &str, verdict: Verdict) {
        if !self.gated() {
            return;
        }
        match verdict {
            Verdict::Ok { rate, prev, floor } => println!(
                "{label}: ok — {rate:.0} ops/s vs previous passing run {prev:.0} (floor {floor:.0})"
            ),
            Verdict::Regression { rate, prev, floor } => eprintln!(
                "{label}: FAIL — {rate:.0} ops/s is below the floor {floor:.0} \
                 (previous passing run {prev:.0} ops/s)"
            ),
            Verdict::NoBaseline => eprintln!(
                "{label}: WARNING — no prior passing {}/jobs={} entry with {} in \
                 BENCH_history.jsonl; the gate passed vacuously, not green. Once this \
                 run is appended, the next run has a baseline. Exiting {EXIT_NO_BASELINE} \
                 so CI cannot mistake an unmeasured run for a passing one.",
                self.scale,
                self.jobs,
                self.fp_tag()
            ),
        }
        if verdict.exit_code() != 0 {
            std::process::exit(verdict.exit_code());
        }
    }
}

/// Writes a perf snapshot file `name` at the repository root, in the
/// indented form; exits 1 if it cannot.
pub fn write_snapshot(name: &str, snapshot: &Json) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    match std::fs::write(&path, snapshot.pretty()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Short commit hash of the working tree, or `"unknown"` outside a checkout.
fn git_commit() -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    const SIM_LINE: &str = "{\"epoch_secs\": 1754600000, \"bench\": \"sim\", \
        \"scale\": \"quick\", \"jobs\": 1, \"total_mem_ops\": 448000, \
        \"total_wall_seconds\": 0.7, \"total_mem_ops_per_sec\": 640000.0, \
        \"note\": \"commit abc, cfg-fp 00000000000000ff\"}";
    const KV_LINE: &str = "{\"epoch_secs\": 1754600001, \"bench\": \"kv\", \
        \"scale\": \"quick\", \"jobs\": 1, \"kv_ops\": 65536, \
        \"kv_ops_per_sec\": 9000.0, \
        \"note\": \"commit abc, cfg-fp 00000000000000ff\"}";
    const LEGACY_LINE: &str = "{\"epoch_secs\": 1754600002, \
        \"scale\": \"quick\", \"jobs\": 1, \"total_mem_ops\": 448000, \
        \"total_wall_seconds\": 0.7, \"total_mem_ops_per_sec\": 620000.0, \
        \"note\": \"commit abc, cfg-fp 00000000000000ff\"}";

    fn key(bench: &str) -> HistoryKey {
        HistoryKey {
            bench: bench.to_owned(),
            scale: "quick".to_owned(),
            jobs: 1,
            cfg_fp: 0xff,
        }
    }

    fn entry(line: &str) -> Json {
        json::parse(line).expect("history line parses")
    }

    /// A compact line of `key`'s lineage at `rate` with `verdict`.
    fn judged(k: &HistoryKey, rate: f64, verdict: &str) -> String {
        format!(
            "{{\"bench\":\"{}\",\"scale\":\"quick\",\"jobs\":{},\"kv_ops_per_sec\":{rate:.1},\
             \"verdict\":\"{verdict}\",\"note\":\"commit abc, {}\"}}",
            k.bench,
            k.jobs,
            k.fp_tag()
        )
    }

    #[test]
    fn families_cannot_cross_match() {
        // Same scale, same jobs, same cfg-fp — only the family differs.
        // The sim key must reject the kv line and vice versa, else one
        // bench's ratchet would gate against the other's rates.
        assert!(key("sim").matches(&entry(SIM_LINE)));
        assert!(!key("sim").matches(&entry(KV_LINE)));
        assert!(key("kv").matches(&entry(KV_LINE)));
        assert!(!key("kv").matches(&entry(SIM_LINE)));
    }

    #[test]
    fn legacy_lines_without_bench_field_are_sim() {
        assert!(key("sim").matches(&entry(LEGACY_LINE)));
        assert!(!key("kv").matches(&entry(LEGACY_LINE)));
    }

    #[test]
    fn latest_rate_scans_newest_first_within_family() {
        let hist = format!("{LEGACY_LINE}\n{KV_LINE}\n{SIM_LINE}\n");
        assert_eq!(
            key("sim").baseline(&hist, "total_mem_ops_per_sec"),
            Some(640000.0)
        );
        assert_eq!(key("kv").baseline(&hist, "kv_ops_per_sec"), Some(9000.0));
        // A family with no entries yields no baseline, not a cross-match.
        let kv_only = format!("{KV_LINE}\n");
        assert_eq!(key("sim").baseline(&kv_only, "total_mem_ops_per_sec"), None);
    }

    #[test]
    fn mismatched_scale_jobs_or_fp_breaks_the_lineage() {
        let mut k = key("sim");
        k.scale = "full".to_owned();
        assert!(!k.matches(&entry(SIM_LINE)));
        let mut k = key("sim");
        k.jobs = 4;
        assert!(!k.matches(&entry(SIM_LINE)));
        let mut k = key("sim");
        k.cfg_fp = 0xfe;
        assert!(!k.matches(&entry(SIM_LINE)));
    }

    #[test]
    fn field_scanners_parse_writer_lines() {
        let (sim, kv) = (entry(SIM_LINE), entry(KV_LINE));
        assert_eq!(sim.get("scale").and_then(Json::as_str), Some("quick"));
        assert_eq!(sim.get("jobs").and_then(Json::as_u64), Some(1));
        let rate = sim.get("total_mem_ops_per_sec").and_then(Json::as_f64);
        assert_eq!(rate, Some(640000.0));
        assert_eq!(sim.get("absent"), None);
        assert_eq!(kv.get("bench").and_then(Json::as_str), Some("kv"));
    }

    #[test]
    fn compact_and_spaced_lines_read_alike() {
        // The same line in both writers' spacing: a field scan keyed on
        // `"key": "` used to read the compact one as a legacy sim line.
        let compact = judged(&key("kv"), 9000.0, "ok");
        let spaced = compact.replace("\":", "\": ").replace(",\"", ", \"");
        assert_ne!(compact, spaced);
        for line in [&compact, &spaced] {
            assert!(key("kv").matches(&entry(line)), "{line}");
            assert!(!key("sim").matches(&entry(line)), "{line}");
            assert_eq!(key("kv").baseline(line, "kv_ops_per_sec"), Some(9000.0));
        }
    }

    #[test]
    fn a_regressed_run_never_becomes_the_baseline() {
        // 100 passed; a run at 50 regresses against it. A second run at 50
        // must be judged against 100 again, not pass against the failed 50.
        let dir = std::env::temp_dir().join(format!("iroram-history-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.jsonl");
        let k = key("kv");
        std::fs::write(&path, format!("{}\n", judged(&k, 100.0, "ok"))).unwrap();
        for _ in 0..2 {
            let extra = vec![("kv_keys", Json::from(8192))];
            let v = k.record(&path, "kv_ops_per_sec", 50.0, 0.20, extra);
            assert!(matches!(v, Verdict::Regression { prev, .. } if prev == 100.0), "{v:?}");
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let last = entry(text.lines().last().unwrap());
        assert!(k.matches(&last));
        assert_eq!(last.get("verdict").and_then(Json::as_str), Some("regression"));
        assert_eq!(last.get("kv_keys").and_then(Json::as_u64), Some(8192));
        std::fs::remove_dir_all(&dir).ok();
        // No-baseline and legacy (verdict-less) lines count as passing.
        let no_baseline = judged(&k, 70.0, "no-baseline");
        assert_eq!(k.baseline(&no_baseline, "kv_ops_per_sec"), Some(70.0));
        let hist = format!("{no_baseline}\n{KV_LINE}\n");
        assert_eq!(k.baseline(&hist, "kv_ops_per_sec"), Some(9000.0));
    }

    #[test]
    fn unwritable_history_is_a_warning_not_a_panic() {
        // A directory can be neither read nor appended as a file.
        let dir = std::env::temp_dir().join(format!("iroram-history-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v = key("kv").record(&dir, "kv_ops_per_sec", 1.0, 0.20, vec![]);
        assert_eq!(v, Verdict::NoBaseline);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_committed_history_line_keeps_its_baseline() {
        let history = include_str!("../../../BENCH_history.jsonl");
        for line in history.lines() {
            let e = json::parse(line).unwrap_or_else(|| panic!("unparseable: {line}"));
            let str_of = |k| e.get(k).and_then(Json::as_str);
            let Some(fp) = str_of("note").and_then(|n| n.split("cfg-fp ").nth(1)) else {
                continue; // pre-fingerprint lines never keyed a lineage
            };
            let k = HistoryKey {
                bench: str_of("bench").unwrap_or("sim").to_owned(),
                scale: str_of("scale").expect("scale").to_owned(),
                jobs: e.get("jobs").and_then(Json::as_u64).expect("jobs"),
                cfg_fp: u64::from_str_radix(fp, 16).expect("hex cfg-fp"),
            };
            assert!(k.matches(&e), "{line}");
            let rate = if k.bench == "sim" {
                "total_mem_ops_per_sec"
            } else {
                "kv_ops_per_sec"
            };
            let passing = str_of("verdict") != Some("regression");
            assert_eq!(k.baseline(line, rate).is_some(), passing, "{line}");
        }
    }

    #[test]
    fn verdict_tags_and_exit_codes_are_distinct() {
        let ok = Verdict::judge(Some(100.0), 95.0, 0.10);
        let bad = Verdict::judge(Some(100.0), 89.0, 0.10);
        let none = Verdict::judge(None, 1.0, 0.10);
        assert_eq!(
            [ok.tag(), bad.tag(), none.tag()],
            ["ok", "regression", "no-baseline"]
        );
        assert_eq!(
            [ok.exit_code(), bad.exit_code(), none.exit_code()],
            [0, 1, 2]
        );
    }
}
