//! Simulator throughput harness: measures simulated memory operations per
//! second of wall-clock time for every scheme, and writes the results to
//! `BENCH_sim_throughput.json` at the repository root.
//!
//! Unlike the figure binaries (which report *simulated* metrics), this
//! measures the *simulator itself* — the number it reports is how fast the
//! experiment engine chews through work, which is what the hot-path kernels
//! and the `--jobs` worker pool exist to improve. Typical use:
//!
//! ```text
//! cargo run --release --bin perfstat -- --quick
//! cargo run --release --bin perfstat -- --quick --jobs 8
//! ```

use std::time::Instant;

use ir_oram::ALL_SCHEMES;
use iroram_experiments::history::{write_snapshot, HistoryKey, HISTORY_PATH};
use iroram_experiments::journal::fingerprint;
use iroram_experiments::json::Json;
use iroram_experiments::runner::{perf_benches, run_scheme};
use iroram_experiments::ExpOptions;
use iroram_sim_engine::profiler;

/// How much slower than the last passing run of the same lineage a run
/// may be before the ratchet judges it a regression (and, at `--quick`,
/// fails the CI perf step).
const RATCHET_TOLERANCE: f64 = 0.10;

struct SchemeStat {
    scheme: &'static str,
    mem_ops: u64,
    wall_seconds: f64,
    ops_per_sec: f64,
}

fn scale_name(opts: &ExpOptions) -> &'static str {
    let mut probe = opts.clone();
    for (name, base) in [
        ("quick", ExpOptions::quick()),
        ("standard", ExpOptions::standard()),
        ("full", ExpOptions::full()),
    ] {
        probe.jobs = base.jobs;
        probe.profile = base.profile;
        // `--set` overrides don't demote a run to "custom": the config
        // fingerprint in the history note (not the scale label) keys rate
        // comparability, so an overridden quick run is still a quick run —
        // and still ratchet-gated against its own baseline lineage.
        probe.overrides = base.overrides.clone();
        if probe == base {
            return name;
        }
    }
    "custom"
}

fn main() {
    let opts = ExpOptions::from_args();
    let benches = perf_benches();
    let jobs = opts.effective_jobs();
    println!(
        "perfstat: {} schemes x {} benches at {} scale ({} mem-ops/cell, jobs={jobs})",
        ALL_SCHEMES.len(),
        benches.len(),
        scale_name(&opts),
        opts.mem_ops,
    );

    if opts.profile {
        profiler::set_enabled(true);
    }
    let mut stats: Vec<SchemeStat> = Vec::new();
    let total_start = Instant::now();
    for scheme in ALL_SCHEMES {
        if opts.profile {
            profiler::reset();
        }
        let start = Instant::now();
        let reports = run_scheme(&opts, scheme, &benches);
        let wall = start.elapsed().as_secs_f64();
        let mem_ops: u64 = reports.iter().map(|r| r.mem_ops).sum();
        let ops_per_sec = mem_ops as f64 / wall.max(1e-9);
        println!(
            "  {:<22} {:>9} mem-ops in {:>7.3}s  -> {:>12.0} ops/s",
            scheme.name(),
            mem_ops,
            wall,
            ops_per_sec
        );
        if opts.profile {
            for s in profiler::snapshot() {
                println!(
                    "      {:<14} {:>8.3}s {:>10} calls",
                    s.phase.name(),
                    s.seconds(),
                    s.calls
                );
            }
        }
        stats.push(SchemeStat {
            scheme: scheme.name(),
            mem_ops,
            wall_seconds: wall,
            ops_per_sec,
        });
    }
    let total_wall = total_start.elapsed().as_secs_f64();
    let total_ops: u64 = stats.iter().map(|s| s.mem_ops).sum();
    let total_rate = total_ops as f64 / total_wall.max(1e-9);
    println!(
        "total: {total_ops} simulated mem-ops in {total_wall:.3}s -> {total_rate:.0} ops/s"
    );

    let schemes = stats.iter().map(|s| {
        Json::obj(vec![
            ("scheme", Json::from(s.scheme)),
            ("mem_ops", Json::from(s.mem_ops)),
            ("wall_seconds", Json::fixed(s.wall_seconds, 6)),
            ("mem_ops_per_sec", Json::fixed(s.ops_per_sec, 1)),
        ])
    });
    let json = Json::obj(vec![
        ("scale", Json::from(scale_name(&opts))),
        ("jobs", Json::from(jobs as u64)),
        ("mem_ops_per_cell", Json::from(opts.mem_ops)),
        ("benches", Json::Arr(benches.iter().map(|b| Json::from(b.name())).collect())),
        ("schemes", Json::Arr(schemes.collect())),
        ("total_mem_ops", Json::from(total_ops)),
        ("total_wall_seconds", Json::fixed(total_wall, 6)),
        ("total_mem_ops_per_sec", Json::fixed(total_rate, 1)),
    ]);
    write_snapshot("BENCH_sim_throughput.json", &json);

    // Append-only run history, so throughput regressions have a trail to
    // diff against (the snapshot file above only holds the latest run).
    // Each entry carries a `note` with the commit and a fingerprint folded
    // over every (scheme, bench) cell config, so a rate change is
    // attributable: same fingerprint = same simulated workload, so the
    // delta is the simulator; different fingerprint = the workload moved.
    let limit = opts.limit();
    let mut cfg_fp = 0u64;
    for scheme in ALL_SCHEMES {
        for &bench in &benches {
            cfg_fp = cfg_fp
                .rotate_left(9)
                .wrapping_add(fingerprint(&opts.system(scheme), bench, limit));
        }
    }

    // Ratchet lineage: the same bench family, scale, job count *and*
    // config fingerprint. Other shapes are not rate-comparable — in
    // particular, `--set` overrides that change the simulated workload
    // (e.g. `pipeline_depth`) get their own lineage instead of poisoning
    // the default one, and `kv_bench` entries in the same file can never
    // match a sim key.
    let key = HistoryKey {
        bench: "sim".to_owned(),
        scale: scale_name(&opts).to_owned(),
        jobs: jobs as u64,
        cfg_fp,
    };
    let verdict = key.record(
        HISTORY_PATH,
        "total_mem_ops_per_sec",
        total_rate,
        RATCHET_TOLERANCE,
        history_fields(total_ops, total_wall),
    );
    key.enforce("perf ratchet", verdict);
}

/// The history line's fields besides the lineage and the rate.
fn history_fields(total_ops: u64, total_wall: f64) -> Vec<(&'static str, Json)> {
    vec![
        ("total_mem_ops", Json::from(total_ops)),
        ("total_wall_seconds", Json::fixed(total_wall, 6)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use iroram_experiments::history::{Verdict, EXIT_NO_BASELINE, EXIT_REGRESSION};
    use iroram_experiments::json;

    #[test]
    fn set_overrides_do_not_demote_the_scale() {
        let mut o = ExpOptions::quick();
        assert_eq!(scale_name(&o), "quick");
        // A `--set` run is still a quick run (its own cfg-fp lineage keys
        // the ratchet baseline) — it must not escape the gate as "custom".
        o.overrides
            .push(("pipeline_depth".to_owned(), "4".to_owned()));
        o.jobs = 1;
        assert_eq!(scale_name(&o), "quick");
        // A genuinely different shape still classifies as custom.
        o.mem_ops += 1;
        assert_eq!(scale_name(&o), "custom");
    }

    fn key(scale: &str) -> HistoryKey {
        HistoryKey {
            bench: "sim".to_owned(),
            scale: scale.to_owned(),
            jobs: 4,
            cfg_fp: 0xff,
        }
    }

    #[test]
    fn ratchet_gates_only_quick_scale() {
        assert!(!key("standard").gated());
        assert!(!key("full").gated());
        assert!(key("quick").gated());
    }

    #[test]
    fn ratchet_accepts_within_tolerance_and_fails_below() {
        // 10% tolerance on a 100 ops/s baseline: floor is 90.
        match Verdict::judge(Some(100.0), 91.0, RATCHET_TOLERANCE) {
            Verdict::Ok { prev, floor, .. } => {
                assert_eq!(prev, 100.0);
                assert!((floor - 90.0).abs() < 1e-9);
            }
            other => panic!("expected Ok, got {other:?}"),
        }
        assert!(matches!(
            Verdict::judge(Some(100.0), 89.0, RATCHET_TOLERANCE),
            Verdict::Regression { .. }
        ));
        // Improvements obviously pass.
        assert!(matches!(
            Verdict::judge(Some(100.0), 250.0, RATCHET_TOLERANCE),
            Verdict::Ok { .. }
        ));
    }

    #[test]
    fn missing_baseline_is_distinct_from_both_pass_and_regression() {
        let v = Verdict::judge(None, 1e9, RATCHET_TOLERANCE);
        assert_eq!(v, Verdict::NoBaseline);
        assert_ne!(EXIT_NO_BASELINE, 0, "vacuous pass must not exit 0");
        assert_ne!(
            EXIT_NO_BASELINE, EXIT_REGRESSION,
            "CI must be able to tell 'got slower' from 'measured nothing'"
        );
        assert_eq!(v.exit_code(), EXIT_NO_BASELINE);
    }

    #[test]
    fn writer_line_matches_its_own_history_key() {
        // The line main() appends: if the writer's shape drifts away from
        // what HistoryKey::matches reads, the ratchet silently loses its
        // baseline — catch that here.
        let k = key("quick");
        let line = k
            .line("total_mem_ops_per_sec", 74880.0, history_fields(936_000, 12.5), Verdict::NoBaseline)
            .write();
        let entry = json::parse(&line).expect("writer line parses");
        assert!(k.matches(&entry));
        assert_eq!(k.baseline(&line, "total_mem_ops_per_sec"), Some(74880.0));
        let kv = HistoryKey { bench: "kv".to_owned(), ..k };
        assert!(!kv.matches(&entry), "kv ratchet must not see sim entries");
    }
}
