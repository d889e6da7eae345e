//! KV serving-layer throughput and latency harness: drives the sharded
//! oblivious KV store (`iroram-kv`) through a load phase and two mixed
//! phases (uniform and Zipf key popularity), recording p50/p99/p999
//! latency histograms and per-shard throughput.
//!
//! Every invocation benchmarks the same workload at 1 shard and at 4
//! shards, writes `BENCH_kv_latency.json`, and appends provenance-stamped
//! entries (`"bench": "kv"`) to `BENCH_history.jsonl`. On the `--quick`
//! scale the 4-shard run is ratchet-gated against its own recorded
//! lineage (same exit conventions as `perfstat`: 1 = regression, 2 = no
//! baseline, i.e. a vacuous pass), and the 4-vs-1 shard scaling is
//! asserted to reach [`MIN_QUICK_SPEEDUP`].
//!
//! Two throughput views are reported, because they answer different
//! questions:
//!
//! * **wall-clock throughput** — mixed ops / elapsed seconds on *this*
//!   host. On a machine with ≥ 4 cores the 4-shard run overlaps its
//!   workers and this shows the parallel speedup directly; on a 1-core
//!   CI box it can only show the algorithmic gain from smaller
//!   per-shard trees.
//! * **aggregate service capacity** — Σ over shards of
//!   `ops_i / busy_i`, where `busy_i` is each shard's own uncontended
//!   serving time from the injected clock. Workers are clamped to the
//!   host's available parallelism, so shards never time-slice against
//!   each other and `busy_i` measures real per-shard service rate. This
//!   is the throughput the sharded layer delivers once each worker has
//!   a core, and it is the machine-independent quantity the scaling
//!   gate asserts on.
//!
//! ```text
//! cargo run --release --bin kv_bench -- --quick
//! cargo run --release --bin kv_bench -- --full     # 1M+ keys
//! ```

use std::time::Instant;

use iroram_bench::hist::Histogram;
use iroram_experiments::history::{write_snapshot, HistoryKey, EXIT_REGRESSION, HISTORY_PATH};
use iroram_experiments::json::Json;
use iroram_hash::mix64;
use iroram_kv::{KvConfig, KvOp, KvService, ShardReport};
use iroram_sim_engine::SimRng;

/// How much slower than the last passing run of the same shape a run may
/// be before the ratchet judges it a regression. Wider than perfstat's
/// 10%: wall-clock KV rates swing ±15% run-to-run on a shared 1-core host.
const RATCHET_TOLERANCE: f64 = 0.20;

/// The 4-shard quick run must beat the 1-shard run by at least this
/// factor in aggregate service capacity, or the sharding layer has
/// stopped paying for itself.
const MIN_QUICK_SPEEDUP: f64 = 1.5;

/// Zipf skew for the hot-key phase (the classic YCSB-style 0.99).
const ZIPF_S: f64 = 0.99;

#[derive(Debug, Clone)]
struct BenchOptions {
    scale: &'static str,
    keys: u64,
    mixed_ops: u64,
    seed: u64,
}

const USAGE: &str = "usage: kv_bench [--quick|--full] [--keys N] [--ops N] [--seed N]";

impl BenchOptions {
    /// Parses an argument list (`--quick`/`--full`, `--keys N`, `--ops N`,
    /// `--seed N`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unrecognized argument or
    /// malformed/missing flag value.
    fn parse(args: &[String]) -> Result<Self, String> {
        fn num(args: &[String], i: usize, flag: &str) -> Result<u64, String> {
            let v = args
                .get(i)
                .ok_or_else(|| format!("{flag} requires a value"))?;
            v.parse()
                .map_err(|_| format!("{flag} expects a number, got `{v}`"))
        }
        let mut o = BenchOptions {
            scale: "standard",
            keys: 262_144,
            mixed_ops: 131_072,
            seed: 0xC0FFEE,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => {
                    o.scale = "quick";
                    o.keys = 8_192;
                    o.mixed_ops = 32_768;
                }
                "--full" => {
                    o.scale = "full";
                    o.keys = 1_048_576;
                    o.mixed_ops = 262_144;
                }
                "--keys" => {
                    i += 1;
                    o.keys = num(args, i, "--keys")?;
                    o.scale = "custom";
                }
                "--ops" => {
                    i += 1;
                    o.mixed_ops = num(args, i, "--ops")?;
                    o.scale = "custom";
                }
                "--seed" => {
                    i += 1;
                    o.seed = num(args, i, "--seed")?;
                    o.scale = "custom";
                }
                other => return Err(format!("unrecognized argument `{other}`")),
            }
            i += 1;
        }
        Ok(o)
    }
}

/// A Zipf(s) sampler over `1..=n` via precomputed CDF + binary search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(s);
            cdf.push(acc);
        }
        Zipf { cdf }
    }

    /// Ranks are popularity order; scramble them through `mix64` so hot
    /// keys spread across shards instead of clustering at small ids.
    fn sample(&self, rng: &mut SimRng, keys: u64) -> u32 {
        let total = *self.cdf.last().expect("nonempty");
        let r = rng.next_f64() * total;
        let rank = self.cdf.partition_point(|&c| c < r) as u64;
        1 + (mix64(rank) % keys) as u32
    }
}

struct Phase {
    name: &'static str,
    ops: u64,
    wall_seconds: f64,
    hist: Histogram,
}

struct RunResult {
    shards: usize,
    load_seconds: f64,
    phases: Vec<Phase>,
    shard_ops: Vec<u64>,
    shard_busy_ns: Vec<u64>,
    reports: Vec<ShardReport>,
    mixed_ops_per_sec: f64,
}

impl RunResult {
    /// Σ per-shard service rate — the throughput the run delivers once
    /// each worker has its own core. Workers never exceed the host's
    /// parallelism (see [`run_one`]), so `busy` is uncontended time.
    fn capacity_ops_per_sec(&self) -> f64 {
        self.shard_ops
            .iter()
            .zip(&self.shard_busy_ns)
            .map(|(&ops, &busy)| ops as f64 / (busy as f64 / 1e9).max(1e-9))
            .sum()
    }
}

/// One full benchmark run at a given shard count: load phase, then the
/// uniform and Zipf mixed phases.
fn run_one(opts: &BenchOptions, shards: usize) -> RunResult {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cfg = KvConfig::for_keys(opts.keys, shards);
    // More workers than cores would make shards time-slice against each
    // other, corrupting the per-shard busy-time measurement (and adding
    // switch overhead for nothing). Results are worker-count independent
    // by construction, so this only affects timing.
    cfg.workers = shards.min(cores);
    cfg.seed = opts.seed;
    let mut kv = KvService::new(cfg);
    let epoch = Instant::now();
    let clock = move || epoch.elapsed().as_nanos() as u64;

    // Load phase: insert every key in mix64-scrambled order.
    let t0 = Instant::now();
    let mut loaded = 0u64;
    let mut k = 0u64;
    while loaded < opts.keys {
        let mut window = 0;
        while loaded < opts.keys && window < 16_384 {
            k += 1;
            let key = 1 + (mix64(k) % opts.keys) as u32;
            if kv
                .submit(KvOp::Put { key, value: key.wrapping_mul(2_654_435_761) })
                .is_err()
            {
                break;
            }
            loaded += 1;
            window += 1;
        }
        kv.flush();
    }
    let load_seconds = t0.elapsed().as_secs_f64();

    // Mixed phases: 70% get / 25% put / 5% delete. Deleted keys are
    // eligible for re-insertion by later puts, so the store stays near
    // its loaded size.
    let zipf = Zipf::new(opts.keys, ZIPF_S);
    let mut rng = SimRng::seed_from(opts.seed ^ 0x4B56_4245_4E43); // "KVBENC"
    let mut phases = Vec::new();
    let mut shard_ops = vec![0u64; shards];
    let mut shard_busy_ns = vec![0u64; shards];
    let mut mixed_wall = 0.0f64;
    for name in ["uniform", "zipf"] {
        let mut hist = Histogram::new();
        let t0 = Instant::now();
        let mut done = 0u64;
        while done < opts.mixed_ops {
            let window = (opts.mixed_ops - done).min(16_384);
            for _ in 0..window {
                let key = match name {
                    "uniform" => 1 + rng.next_below(opts.keys) as u32,
                    _ => zipf.sample(&mut rng, opts.keys),
                };
                let op = match rng.next_below(100) {
                    0..=69 => KvOp::Get { key },
                    70..=94 => KvOp::Put { key, value: rng.next_u64() as u32 },
                    _ => KvOp::Delete { key },
                };
                kv.submit(op).expect("queue sized for the window");
            }
            let outcome = kv.flush_with_clock(Some(&clock));
            for lat in outcome.latencies {
                hist.record(lat);
            }
            for (acc, ops) in shard_ops.iter_mut().zip(&outcome.shard_ops) {
                *acc += ops;
            }
            for (acc, busy) in shard_busy_ns.iter_mut().zip(&outcome.shard_busy) {
                *acc += busy;
            }
            done += window;
        }
        let wall_seconds = t0.elapsed().as_secs_f64();
        mixed_wall += wall_seconds;
        phases.push(Phase { name, ops: opts.mixed_ops, wall_seconds, hist });
    }

    let total_mixed: u64 = phases.iter().map(|p| p.ops).sum();
    RunResult {
        shards,
        load_seconds,
        phases,
        shard_ops,
        shard_busy_ns,
        reports: kv.reports(),
        mixed_ops_per_sec: total_mixed as f64 / mixed_wall.max(1e-9),
    }
}

fn print_run(r: &RunResult) {
    println!(
        "  S={} load {:.2}s, mixed {:.0} ops/s wall, {:.0} ops/s aggregate capacity",
        r.shards,
        r.load_seconds,
        r.mixed_ops_per_sec,
        r.capacity_ops_per_sec()
    );
    for p in &r.phases {
        println!(
            "    {:<8} {:>7} ops in {:>6.2}s  {}",
            p.name,
            p.ops,
            p.wall_seconds,
            p.hist.summary("ns")
        );
    }
    for (i, (&ops, &busy)) in r.shard_ops.iter().zip(&r.shard_busy_ns).enumerate() {
        let tput = ops as f64 / (busy as f64 / 1e9).max(1e-9);
        println!(
            "    shard {i}: {ops} mixed ops, busy {:.2}s -> {tput:.0} ops/s \
             ({} ORAM accesses, stash peak {})",
            busy as f64 / 1e9,
            r.reports[i].oram.accesses,
            r.reports[i].stash_peak
        );
    }
}

fn json_run(r: &RunResult) -> Json {
    let phases = r.phases.iter().map(|p| {
        Json::obj(vec![
            ("name", Json::from(p.name)),
            ("ops", Json::from(p.ops)),
            ("wall_seconds", Json::fixed(p.wall_seconds, 6)),
            ("p50_ns", Json::from(p.hist.value_at(0.50))),
            ("p99_ns", Json::from(p.hist.value_at(0.99))),
            ("p999_ns", Json::from(p.hist.value_at(0.999))),
            ("max_ns", Json::from(p.hist.max())),
            ("mean_ns", Json::fixed(p.hist.mean(), 1)),
        ])
    });
    let busy = r.shard_busy_ns.iter().map(|&b| Json::fixed(b as f64 / 1e9, 6));
    Json::obj(vec![
        ("shards", Json::from(r.shards as u64)),
        ("load_seconds", Json::fixed(r.load_seconds, 6)),
        ("mixed_ops_per_sec", Json::fixed(r.mixed_ops_per_sec, 1)),
        ("capacity_ops_per_sec", Json::fixed(r.capacity_ops_per_sec(), 1)),
        ("phases", Json::Arr(phases.collect())),
        ("shard_mixed_ops", Json::Arr(r.shard_ops.iter().map(|&o| Json::from(o)).collect())),
        ("shard_busy_seconds", Json::Arr(busy.collect())),
    ])
}

/// The workload fingerprint for history provenance: the service config
/// fold extended with the op counts that shape the run.
fn workload_fp(cfg: &KvConfig, opts: &BenchOptions) -> u64 {
    let mut fp = cfg.fingerprint();
    for field in [opts.keys, opts.mixed_ops, opts.seed] {
        fp = mix64(fp.rotate_left(9) ^ field);
    }
    fp
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = BenchOptions::parse(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n{USAGE}");
        std::process::exit(2);
    });
    println!(
        "kv_bench: {} keys, {} mixed ops/phase (uniform + zipf {ZIPF_S}), scale {}",
        opts.keys, opts.mixed_ops, opts.scale
    );

    let runs: Vec<RunResult> = [1usize, 4]
        .iter()
        .map(|&shards| {
            println!("running S={shards}…");
            let r = run_one(&opts, shards);
            print_run(&r);
            r
        })
        .collect();
    let wall_speedup = runs[1].mixed_ops_per_sec / runs[0].mixed_ops_per_sec.max(1e-9);
    let capacity_speedup =
        runs[1].capacity_ops_per_sec() / runs[0].capacity_ops_per_sec().max(1e-9);
    println!(
        "4-shard vs 1-shard: {wall_speedup:.2}x wall-clock (host has {} core(s)), \
         {capacity_speedup:.2}x aggregate service capacity",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Snapshot JSON for the latest run.
    let json = Json::obj(vec![
        ("scale", Json::from(opts.scale)),
        ("keys", Json::from(opts.keys)),
        ("mixed_ops_per_phase", Json::from(opts.mixed_ops)),
        ("zipf_s", Json::fixed(ZIPF_S, 2)),
        ("runs", Json::Arr(runs.iter().map(json_run).collect())),
        ("wall_speedup_4_vs_1", Json::fixed(wall_speedup, 4)),
        ("capacity_speedup_4_vs_1", Json::fixed(capacity_speedup, 4)),
    ]);
    write_snapshot("BENCH_kv_latency.json", &json);

    // Append-only history entries, one per run, namespaced to the kv
    // bench family so the sim ratchet can never cross-match them. Each
    // run is judged against its own lineage before its line is appended.
    let judged: Vec<_> = runs
        .iter()
        .map(|r| {
            let mut cfg = KvConfig::for_keys(opts.keys, r.shards);
            cfg.seed = opts.seed;
            let key = HistoryKey {
                bench: "kv".to_owned(),
                scale: opts.scale.to_owned(),
                jobs: r.shards as u64,
                cfg_fp: workload_fp(&cfg, &opts),
            };
            let verdict = key.record(
                HISTORY_PATH,
                "kv_ops_per_sec",
                r.mixed_ops_per_sec,
                RATCHET_TOLERANCE,
                vec![
                    ("kv_keys", Json::from(opts.keys)),
                    ("kv_ops", Json::from(opts.mixed_ops * 2)),
                    ("kv_capacity_ops_per_sec", Json::fixed(r.capacity_ops_per_sec(), 1)),
                ],
            );
            (key, verdict)
        })
        .collect();

    // Shard-scaling gate: the whole point of the sharded layer. Gated on
    // aggregate capacity (machine-independent); wall-clock speedup on a
    // box with fewer cores than shards only reflects the algorithmic
    // gain from smaller per-shard trees.
    if opts.scale == "quick" {
        if capacity_speedup < MIN_QUICK_SPEEDUP {
            eprintln!(
                "kv scaling: FAIL — 4 shards delivered only {capacity_speedup:.2}x \
                 the 1-shard service capacity (required {MIN_QUICK_SPEEDUP}x)"
            );
            std::process::exit(EXIT_REGRESSION);
        }
        println!(
            "kv scaling: ok — {capacity_speedup:.2}x capacity at 4 shards \
             (gate {MIN_QUICK_SPEEDUP}x)"
        );
    }

    // CI perf ratchet on the quick 4-shard lineage, perfstat conventions:
    // exit 1 = regression, exit 2 = vacuous pass (no baseline; this run's
    // line was appended above, so the next run has one).
    let (key, verdict) = &judged[1];
    key.enforce("kv ratchet", *verdict);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchOptions, String> {
        let args: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
        BenchOptions::parse(&args)
    }

    #[test]
    fn numeric_flags_parse_and_mark_the_scale_custom() {
        let o = parse(&["--quick", "--keys", "64", "--ops", "128", "--seed", "7"]).unwrap();
        assert_eq!((o.keys, o.mixed_ops, o.seed), (64, 128, 7));
        assert_eq!(o.scale, "custom");
        assert_eq!(parse(&["--quick"]).unwrap().scale, "quick");
    }

    /// A missing or malformed value is a typed error naming the flag, not
    /// an index-out-of-bounds or parse panic.
    #[test]
    fn missing_or_malformed_values_are_errors() {
        for flag in ["--keys", "--ops", "--seed"] {
            let missing = parse(&["--quick", flag]).unwrap_err();
            assert_eq!(missing, format!("{flag} requires a value"));
            let malformed = parse(&[flag, "many"]).unwrap_err();
            assert_eq!(malformed, format!("{flag} expects a number, got `many`"));
        }
        assert_eq!(
            parse(&["--bogus"]).unwrap_err(),
            "unrecognized argument `--bogus`"
        );
    }
}
