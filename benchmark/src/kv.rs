//! The `kv-zipf` workload: a load phase that puts every key, then a
//! closed loop of mixed operations over Zipf(0.99) keys against a
//! two-shard `KvService` served by two workers.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use iroram_hash::mix64;
use iroram_kv::{FlushOutcome, KvConfig, KvError, KvOp, KvService, ShardReport};
use iroram_protocol::PathOram;
use iroram_sim_engine::SimRng;

use crate::host::Reference;
use crate::stats::{median, percentile, tail_percentile};
use crate::{check, peak_rss_mib, ratio, Outcome};

/// Keys loaded. 2^16 keys over two shards give each shard 2^16 slots, a
/// 15-level tree under its 7-level tree-top.
const KEYS: u64 = 1 << 16;
const SHARDS: usize = 2;
const WORKERS: usize = 2;
/// Closed-loop clients: each submits one operation per round, and every
/// round ends with one flush.
const CLIENTS: usize = 64;
/// Puts submitted per flush in the load phase.
const LOAD_WINDOW: usize = 1024;
/// Load flushes between two samples of the host-speed reference.
const LOAD_GROUP: usize = 16;
/// Stores an untraced run builds, loads and serves in turn, each for an
/// equal share of `--seconds`. Set-up and load samples are taken once per
/// stage, so they spread over the run rather than falling into whichever
/// stretch of host speed its first seconds happen to meet.
const STAGES: usize = 5;
/// Fresh services built per stage; set-up time is the median over all
/// builds, and the last of each stage's builds is loaded and served.
const BUILDS_PER_STAGE: usize = 3;
/// Fresh services built by a traced run, which serves one store.
const TRACED_BUILDS: usize = 15;
/// Mixed rounds per window. Throughput and reply latency are measured
/// per window (6,400 replies) and reported as medians over windows.
const WINDOW_ROUNDS: usize = 100;
/// Windows between two samples of the host-speed reference, which is
/// taken between windows, outside them.
const HOST_EVERY: usize = 4;
/// Mixed rounds a traced run serves, however short `--seconds` is: enough
/// replies for any percentile up to p99 to have ten samples beyond it.
const MIN_ROUNDS: usize = 1000 / CLIENTS + 1;
/// The reply-latency tail percentile within a window. The replies of a
/// round share the flush that ends them, so the tail rule counts rounds:
/// p90 is the highest percentile with ten of a window's rounds beyond it.
/// But a flush waits for both workers, and the hypervisor preempting
/// either stalls the round: on the host in `NOTES.md`, in stretches
/// where it took 7% of the VM's CPU time, p90 sat among the stalled
/// rounds and read up to 1.8x its usual value, so the tail is reported
/// at p75.
const TAIL: f64 = 75.0;
/// Mixed rounds the one-worker twin replays after the load phase.
const TWIN_ROUNDS: usize = 300;
const ZIPF_S: f64 = 0.99;

type Reply = Result<Option<u32>, KvError>;

fn config(seed: u64, workers: usize) -> KvConfig {
    KvConfig {
        workers,
        seed,
        ..KvConfig::for_keys(KEYS, SHARDS)
    }
}

/// Zipf(s) over key ranks `0..n` by inverse CDF; rank r maps to a key
/// through `mix64`, so hot keys scatter over both shards.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, s: f64) -> Self {
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|i| {
                acc += (i as f64).powf(-s);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// A rank drawn from one uniform number: the first rank whose
    /// cumulative weight reaches it.
    fn rank(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64() * self.cdf.last().copied().unwrap_or(0.0);
        self.cdf.partition_point(|&c| c < u) as u64
    }

    fn key(&self, rng: &mut SimRng) -> u32 {
        1 + (mix64(self.rank(rng)) % KEYS) as u32
    }
}

/// The seeded inputs: the load order and the mixed-operation stream.
struct Inputs {
    load: Vec<KvOp>,
    zipf: Zipf,
    rng: SimRng,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = SimRng::seed_from(mix64(seed ^ 0x4B56_5A49_5046)); // "KVZIPF"
        let mut keys: Vec<u32> = (1..=KEYS as u32).collect();
        rng.shuffle(&mut keys);
        let load = keys
            .into_iter()
            .map(|key| KvOp::Put {
                key,
                value: rng.next_u64() as u32,
            })
            .collect();
        Inputs {
            load,
            zipf: Zipf::new(KEYS, ZIPF_S),
            rng,
        }
    }

    /// The next mixed operation: 70% get, 25% put, 5% delete.
    fn next_op(&mut self) -> KvOp {
        let key = self.zipf.key(&mut self.rng);
        let pick = self.rng.next_f64();
        if pick < 0.70 {
            KvOp::Get { key }
        } else if pick < 0.95 {
            KvOp::Put {
                key,
                value: self.rng.next_u64() as u32,
            }
        } else {
            KvOp::Delete { key }
        }
    }

    fn round(&mut self) -> Vec<KvOp> {
        (0..CLIENTS).map(|_| self.next_op()).collect()
    }
}

/// Closed-loop reply latency: each op waits from its own submission until
/// the flush that serves it returns.
pub fn reply_latencies(submitted: &[u64], flush_end: u64) -> impl Iterator<Item = u64> + '_ {
    submitted.iter().map(move |&s| flush_end.saturating_sub(s))
}

/// Nanoseconds since `epoch`.
fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What serving one batch of ops produced.
struct Served {
    replies: Vec<Reply>,
    /// Submission instants, aligned with `replies`.
    submitted: Vec<u64>,
    /// Nanoseconds spent inside `submit` calls.
    submit_ns: u64,
    flush: FlushOutcome,
    flush_start: u64,
    flush_end: u64,
}

/// Submits `ops` in order and flushes once. A refused submission is
/// that op's reply; accepted ops take their replies from the flush.
fn serve(kv: &mut KvService, ops: &[KvOp], epoch: Instant, clocked: bool) -> Served {
    let mut refused: Vec<Option<Reply>> = Vec::with_capacity(ops.len());
    let mut submitted = Vec::with_capacity(ops.len());
    let mut submit_ns = 0;
    for &op in ops {
        let t = ns_since(epoch);
        refused.push(kv.submit(op).err().map(Err));
        let after = ns_since(epoch);
        submit_ns += after - t;
        submitted.push(t);
    }
    let clock = move || ns_since(epoch);
    let flush_start = ns_since(epoch);
    let flush = kv.flush_with_clock(if clocked { Some(&clock) } else { None });
    let flush_end = ns_since(epoch);
    let mut accepted = flush.replies.iter().map(|r| r.reply);
    let replies = refused
        .into_iter()
        .map(|r| r.unwrap_or_else(|| accepted.next().expect("flush replies to every accepted op")))
        .collect();
    Served {
        replies,
        submitted,
        submit_ns,
        flush,
        flush_start,
        flush_end,
    }
}

/// Runs the load phase, returning its replies and the puts per second of
/// each flush. With `host`, the reference is sampled after every
/// [`LOAD_GROUP`] flushes and scales their rates.
fn load(
    kv: &mut KvService,
    inputs: &Inputs,
    epoch: Instant,
    mut host: Option<&mut Reference>,
) -> (Vec<Reply>, Vec<f64>) {
    let mut replies = Vec::with_capacity(inputs.load.len());
    let mut rates = Vec::new();
    for group in inputs.load.chunks(LOAD_WINDOW * LOAD_GROUP) {
        let mut group_rates = Vec::with_capacity(LOAD_GROUP);
        for chunk in group.chunks(LOAD_WINDOW) {
            let t = Instant::now();
            replies.extend(serve(kv, chunk, epoch, false).replies);
            group_rates.push(chunk.len() as f64 / t.elapsed().as_secs_f64());
        }
        let slow = host.as_deref_mut().map_or(1.0, Reference::sample);
        rates.extend(group_rates.iter().map(|r| r * slow));
    }
    (replies, rates)
}

/// The reference the replies are checked against: a `BTreeMap` fed the
/// same operations in submission order. A failed op must leave the store
/// as it was, so the model skips it.
#[derive(Default)]
struct Model {
    map: BTreeMap<u32, u32>,
    checked: u64,
    mismatches: u64,
    failed: u64,
}

impl Model {
    fn feed(&mut self, ops: &[KvOp], replies: &[Reply]) {
        if ops.len() != replies.len() {
            self.mismatches += 1;
        }
        for (op, reply) in ops.iter().zip(replies) {
            self.checked += 1;
            if matches!(reply, Err(KvError::StoreFull | KvError::QueueFull)) {
                self.failed += 1;
                continue;
            }
            let want = match *op {
                KvOp::Put { key, value } => self.map.insert(key, value),
                KvOp::Get { key } => self.map.get(&key).copied(),
                KvOp::Delete { key } => self.map.remove(&key),
            };
            self.mismatches += u64::from(*reply != Ok(want));
        }
    }

    /// Starts over against an empty store, keeping the counts.
    fn restart(&mut self) {
        self.map.clear();
    }

    fn verdict(&self) -> bool {
        check(
            self.mismatches == 0,
            &format!(
                "{} replies match the BTreeMap model ({} mismatches)",
                self.checked, self.mismatches
            ),
        )
    }
}

/// Builds a fresh service `builds` times, returning the last and the
/// seconds of each `KvService::new`.
fn build(cfg: &KvConfig, builds: usize) -> (KvService, Vec<f64>) {
    let mut setup_s = Vec::with_capacity(builds);
    let mut kv = None;
    for _ in 0..builds {
        drop(kv.take());
        let t = Instant::now();
        kv = Some(black_box(KvService::new(cfg.clone())));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    (kv.expect("at least one build"), setup_s)
}

/// Replays the load phase and the first mixed rounds on a one-worker
/// service and checks its replies and shard reports match the two-worker
/// run's.
fn twin_check(seed: u64, rounds: &[Vec<KvOp>], replies: &[Reply], reports: &[ShardReport]) -> bool {
    let mut twin = KvService::new(config(seed, 1));
    let epoch = Instant::now();
    let inputs = Inputs::new(seed);
    let mut got: Vec<Reply> = load(&mut twin, &inputs, epoch, None).0;
    for round in rounds {
        got.extend(serve(&mut twin, round, epoch, false).replies);
    }
    check(
        got == replies && twin.reports() == reports,
        &format!(
            "{} replies and shard reports identical at workers = 1 and {WORKERS}",
            got.len()
        ),
    )
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    if trace {
        run_traced(seed, seconds)
    } else {
        run_untraced(seed, seconds)
    }
}

/// The reply latencies of one window, in ms: its median and its tail.
fn window_latency(ms: &mut [f64]) -> (f64, f64) {
    ms.sort_by(f64::total_cmp);
    (percentile(ms, 50.0), percentile(ms, TAIL))
}

/// One window's reply rate, p50 and tail, as measured.
type Window = (f64, f64, f64);

/// Samples the host-speed reference and moves the `pending` windows,
/// scaled by it, into `scaled`.
fn scale_windows(host: &mut Reference, pending: &mut Vec<Window>, scaled: &mut Vec<Window>) {
    if pending.is_empty() {
        return;
    }
    let slow = host.sample();
    scaled.extend(
        pending
            .drain(..)
            .map(|(rate, p50, tail)| (rate * slow, p50 / slow, tail / slow)),
    );
}

/// `STAGES` stages, each building `BUILDS_PER_STAGE` fresh stores,
/// loading the last and serving mixed rounds on it until its share of
/// `seconds` is over. Every stage loads the same puts, so every load must
/// reply alike and leave the same shard reports; the mixed rounds carry
/// on one seeded stream across stages. The host-speed reference is
/// sampled after each stage's builds, after every [`LOAD_GROUP`] load
/// flushes and after every [`HOST_EVERY`] windows, outside them, and the samples on either side of
/// a piece of work scale it; each metric is a median of scaled builds,
/// load flushes or windows.
fn run_untraced(seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let mut inputs = Inputs::new(seed);
    let epoch = Instant::now();
    let cfg = config(seed, WORKERS);
    let mut correct = true;
    let (mut setup_s, mut load_rates) = (Vec::new(), Vec::new());
    let (mut windows, mut pending, mut raw_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_load: Option<(Vec<Reply>, Vec<ShardReport>)> = None;
    let mut loads_alike = true;
    let mut model = Model::default();
    let mut host = Reference::new(WORKERS);
    let mut peak_rss = None;
    let (mut twin_replies, mut twin_rounds, mut twin_reports) = (Vec::new(), Vec::new(), None);
    let (mut rounds, mut replies_seen) = (0usize, 0usize);
    for stage in 0..STAGES {
        let (mut kv, builds) = build(&cfg, BUILDS_PER_STAGE);
        // The resident peak with a store built (its trees are allocated
        // in full by `KvService::new`), before the reference's tree adds
        // to it; later stages hold a store of the same size.
        peak_rss.get_or_insert_with(peak_rss_mib);
        let slow = host.sample();
        setup_s.extend(builds.iter().map(|s| s / slow));
        let (replies, rates) = load(&mut kv, &inputs, epoch, Some(&mut host));
        load_rates.extend(rates);
        model.restart();
        model.feed(&inputs.load, &replies);
        let reports = kv.reports();
        match &first_load {
            None => {
                twin_replies.clone_from(&replies);
                first_load = Some((replies, reports));
            }
            Some(first) => loads_alike &= first.0 == replies && first.1 == reports,
        }
        let until = seconds * (stage + 1) as f64 / STAGES as f64;
        let mut stage_rounds = 0usize;
        let mut lat_ms = Vec::with_capacity(WINDOW_ROUNDS * CLIENTS);
        let mut window = Instant::now();
        // At least one whole window per stage, however short `seconds` is.
        while stage_rounds < WINDOW_ROUNDS || start.elapsed().as_secs_f64() < until {
            let round = inputs.round();
            let s = serve(&mut kv, &round, epoch, false);
            lat_ms.extend(reply_latencies(&s.submitted, s.flush_end).map(|n| n as f64 / 1e6));
            model.feed(&round, &s.replies);
            rounds += 1;
            stage_rounds += 1;
            if stage == 0 && stage_rounds <= TWIN_ROUNDS {
                twin_replies.extend(s.replies);
                twin_rounds.push(round);
                if stage_rounds == TWIN_ROUNDS {
                    twin_reports = Some(kv.reports());
                }
            }
            if stage_rounds.is_multiple_of(WINDOW_ROUNDS) {
                let rate = lat_ms.len() as f64 / window.elapsed().as_secs_f64();
                replies_seen += lat_ms.len();
                let (p50, tail) = window_latency(&mut lat_ms);
                lat_ms.clear();
                raw_rates.push(rate);
                pending.push((rate, p50, tail));
                if pending.len() == HOST_EVERY {
                    scale_windows(&mut host, &mut pending, &mut windows);
                }
                window = Instant::now();
            }
        }
        scale_windows(&mut host, &mut pending, &mut windows);
        if twin_reports.is_none() {
            twin_reports = Some(kv.reports());
        }
    }
    correct &= check(loads_alike, "every load of the store replies alike");
    correct &= model.verdict();
    correct &= twin_check(
        seed,
        &twin_rounds,
        &twin_replies,
        twin_reports.as_deref().unwrap_or_default(),
    );

    eprintln!(
        "{STAGES} stages, {rounds} rounds of {CLIENTS} clients in {} windows of {WINDOW_ROUNDS} rounds ({replies_seen} replies in all); highest percentile with >= 10 rounds of a window beyond it: {:?}; median host slowdown {:.4} over {} reference samples; unscaled ops_per_s {:.1}",
        windows.len(),
        tail_percentile(WINDOW_ROUNDS),
        host.median_slowdown(),
        host.samples(),
        median(&raw_rates),
    );
    correct &= check(
        tail_percentile(WINDOW_ROUNDS) >= Some(TAIL),
        "enough rounds in a window for the tail percentile",
    );
    let column = |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    Outcome {
        correct,
        attempted: model.checked,
        failed: model.failed,
        metrics: vec![
            ("setup_s", median(&setup_s)),
            ("ops_per_s", column(|w| w.0)),
            ("load_ops_per_s", median(&load_rates)),
            ("latency_p50_ms", column(|w| w.1)),
            ("latency_tail_ms", column(|w| w.2)),
            ("peak_rss_mib", peak_rss.unwrap_or(f64::NAN)),
        ],
    }
}

/// Two services with the same seed serve the same rounds, alternately: one
/// plain, one with the injected clock. Their replies must be identical.
fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let cfg = config(seed, WORKERS);
    let mut protocol_init_s = 0.0;
    for s in 0..SHARDS {
        let t = Instant::now();
        let oram = black_box(PathOram::new(cfg.oram_config(s)));
        protocol_init_s += t.elapsed().as_secs_f64();
        drop(oram);
    }
    let mut inputs = Inputs::new(seed);
    let epoch = Instant::now();
    let (mut plain, builds) = build(&cfg, TRACED_BUILDS);
    let kv_init_s = median(&builds);
    let replies = load(&mut plain, &inputs, epoch, None).0;
    let mut model = Model::default();
    model.feed(&inputs.load, &replies);
    let mut correct = true;
    let mut clocked = KvService::new(cfg.clone());
    let mut same = true;
    for chunk in inputs.load.chunks(LOAD_WINDOW) {
        same &= serve(&mut clocked, chunk, epoch, true)
            .replies
            .iter()
            .all(|r| *r == Ok(None));
    }

    let (mut wall_off, mut wall_on) = (0.0f64, 0.0f64);
    let (mut service_ns, mut reply_n, mut submit_ns) = (Vec::new(), 0usize, 0u64);
    let (mut busy_ns, mut fanout_ns) = (0u64, 0u64);
    let mut rounds = 0usize;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        let round = inputs.round();
        let t0 = ns_since(epoch);
        let p = serve(&mut plain, &round, epoch, false);
        let t1 = ns_since(epoch);
        let s = serve(&mut clocked, &round, epoch, true);
        let t2 = ns_since(epoch);
        wall_off += (t1 - t0) as f64 / 1e9;
        wall_on += (t2 - t1) as f64 / 1e9;
        submit_ns += s.submit_ns;
        reply_n += s.submitted.len();
        service_ns.extend(s.flush.latencies.iter().map(|&n| n as f64));
        let max_busy = s.flush.shard_busy.iter().copied().max().unwrap_or(0);
        busy_ns += s.flush.shard_busy.iter().sum::<u64>();
        fanout_ns += (s.flush_end - s.flush_start).saturating_sub(max_busy);
        model.feed(&round, &p.replies);
        same &= p.replies == s.replies;
    }
    correct &= model.verdict();
    correct &= check(
        same && plain.reports() == clocked.reports(),
        "replies and shard reports identical with the clock on and off",
    );

    service_ns.sort_by(f64::total_cmp);
    let pct = |p| {
        if service_ns.is_empty() {
            0.0
        } else {
            percentile(&service_ns, p) / 1e3
        }
    };
    let reports = clocked.reports();
    let sum = |f: &dyn Fn(&ShardReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let kv_ops = sum(&|r| r.kv.puts + r.kv.gets + r.kv.deletes);
    let stash_peak = reports.iter().map(|r| r.stash_peak).max().unwrap_or(0) as f64;
    Outcome {
        correct,
        attempted: model.checked,
        failed: model.failed,
        metrics: vec![
            ("oram-protocol.init_s", protocol_init_s),
            ("kv.init_s", kv_init_s),
            ("kv.service_p50_us", pct(50.0)),
            ("kv.service_p99_us", pct(99.0)),
            ("kv.submit_ns", ratio(submit_ns as f64, reply_n as f64)),
            ("kv.shard_busy_s", busy_ns as f64 / 1e9),
            ("kv.fanout_overhead_s", fanout_ns as f64 / 1e9),
            ("latency_samples", reply_n as f64),
            ("trace_overhead_ratio", ratio(wall_on, wall_off)),
            (
                "kv.kicks_per_put",
                ratio(sum(&|r| r.kv.kicks), sum(&|r| r.kv.puts)),
            ),
            (
                "kv.hit_ratio",
                ratio(sum(&|r| r.kv.hits), sum(&|r| r.kv.hits + r.kv.misses)),
            ),
            (
                "kv.oram_accesses_per_op",
                ratio(sum(&|r| r.oram.accesses), kv_ops),
            ),
            ("kv.stash_peak", stash_peak),
            ("kv.overflow_peak", sum(&|r| r.kv.overflow_peak)),
            ("oram-protocol.paths_data", sum(&|r| r.oram.data_paths)),
            (
                "oram-protocol.paths_posmap",
                sum(&|r| r.oram.posmap_paths()),
            ),
            ("oram-protocol.paths_dummy", sum(&|r| r.oram.dummy_paths)),
            (
                "oram-protocol.paths_bg_evict",
                sum(&|r| r.oram.bg_evict_paths),
            ),
            (
                "oram-protocol.treetop_hit_ratio",
                ratio(sum(&|r| r.oram.treetop_hits), sum(&|r| r.oram.accesses)),
            ),
            ("oram-protocol.stash_peak", stash_peak),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_latency_runs_from_each_submission_to_the_flush_return() {
        // Three clients submit at 100, 130 and 190 ns; the flush returns
        // at 1000 ns. The first client waited longest.
        let lat: Vec<u64> = reply_latencies(&[100, 130, 190], 1000).collect();
        assert_eq!(lat, vec![900, 870, 810]);
    }

    #[test]
    fn served_replies_line_up_with_submissions() {
        let mut kv = KvService::new(KvConfig {
            queue_capacity: 2,
            workers: 1,
            ..KvConfig::for_keys(64, 1)
        });
        let epoch = Instant::now();
        let ops = [
            KvOp::Put { key: 5, value: 7 },
            KvOp::Get { key: 5 },
            KvOp::Get { key: 6 },
        ];
        let s = serve(&mut kv, &ops, epoch, true);
        // The queue holds two ops; the third is refused and replies
        // QueueFull in its own position.
        assert_eq!(
            s.replies,
            vec![Ok(None), Ok(Some(7)), Err(KvError::QueueFull)]
        );
        assert!(s.submitted.windows(2).all(|w| w[0] <= w[1]));
        assert!(reply_latencies(&s.submitted, s.flush_end).all(|l| l > 0));
    }

    #[test]
    fn zipf_ranks_follow_the_distribution() {
        // Rank r has probability r^-s / H, where H sums the weights, so
        // the hottest rank comes up 1/H of the time (about 8.6% at
        // s = 0.99 over 2^16 ranks) and rank 1 half a step less often.
        let zipf = Zipf::new(KEYS, ZIPF_S);
        let h: f64 = (1..=KEYS).map(|i| (i as f64).powf(-ZIPF_S)).sum();
        let mut rng = SimRng::seed_from(3);
        let draws = 200_000;
        let mut counts = [0u64; 2];
        let mut beyond_1000 = 0u64;
        for _ in 0..draws {
            match zipf.rank(&mut rng) {
                r @ 0..=1 => counts[r as usize] += 1,
                r if r >= 1000 => beyond_1000 += 1,
                _ => {}
            }
        }
        let share = |c: u64| c as f64 / f64::from(draws);
        for (r, &c) in counts.iter().enumerate() {
            let want = ((r + 1) as f64).powf(-ZIPF_S) / h;
            assert!(
                (share(c) / want - 1.0).abs() < 0.1,
                "rank {r}: {} against {want}",
                share(c)
            );
        }
        // The tail beyond rank 1000 carries 1 - H_1000 / H of the mass.
        let head: f64 = (1..=1000).map(|i| (i as f64).powf(-ZIPF_S)).sum();
        let want = 1.0 - head / h;
        assert!((share(beyond_1000) / want - 1.0).abs() < 0.1);
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        let (mut a, mut b) = (Inputs::new(9), Inputs::new(9));
        assert_eq!(a.load, b.load);
        assert_eq!(a.round(), b.round());
        assert_ne!(Inputs::new(10).load, a.load);
    }
}
