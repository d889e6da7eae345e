//! The timed-simulator workload: a fixed matrix of (scheme, benchmark)
//! cells, each run serially through `Simulation::try_run_bench`.

use std::hint::black_box;
use std::time::Instant;

use ir_oram::{
    RhoController, RunLimit, Scheme, SimReport, Simulation, SystemConfig, TimedController, TraceCpu,
};
use iroram_cache::MemoryHierarchy;
use iroram_experiments::ExpOptions;
use iroram_protocol::PathOram;
use iroram_sim_engine::profiler::{self, Phase};
use iroram_trace::{Bench, WorkloadGen};

use crate::host::Reference;
use crate::stats::{median, percentile, self_time, tail_percentile};
use crate::{check, peak_rss_mib, ratio, Outcome};

/// The simulator workload: the cross product of `schemes` and `benches`
/// on a `levels`-high tree, `mem_ops` memory operations per cell.
pub struct Shape {
    levels: usize,
    mem_ops: u64,
    schemes: &'static [Scheme],
    benches: &'static [Bench],
    /// The cell that also runs audited, with the profiler on, and the
    /// memory operations it runs for: the audit sweeps the whole tree
    /// every 256 slots, so a full-length audited cell would cost more
    /// than the rest of the run.
    audited: (Scheme, Bench, u64),
    /// Seconds one untraced pass over the cells takes on the reference
    /// host (`NOTES.md`). It fixes the pass count for a given
    /// `--seconds`, so a faster build makes as many passes as a slower
    /// one and each cell's median is over the same count.
    pass_s: f64,
}

/// The L=17 system of `ExpOptions::standard()`, where the per-access
/// layers carry the run: mcf reads (PT_d and PT_p paths), lbm write-backs
/// (IR-DWB conversions), xz both; both timed controllers run.
pub const INTENSE: Shape = Shape {
    levels: 17,
    // Long enough that the per-access phases, not construction, carry
    // each cell; short enough that a run makes several passes.
    mem_ops: 60_000,
    schemes: &[Scheme::Baseline, Scheme::IrOram, Scheme::Rho],
    benches: &[Bench::Mcf, Bench::Lbm, Bench::Xz],
    audited: (Scheme::IrOram, Bench::Lbm, 4_000),
    pass_s: 5.5,
};

impl Shape {
    fn config(&self, scheme: Scheme, seed: u64) -> SystemConfig {
        ExpOptions {
            timed_levels: self.levels,
            mem_ops: self.mem_ops,
            seed,
            ..ExpOptions::standard()
        }
        .system(scheme)
    }

    fn cells(&self) -> Vec<(Scheme, Bench)> {
        self.schemes
            .iter()
            .flat_map(|&s| self.benches.iter().map(move |&b| (s, b)))
            .collect()
    }
}

/// Seconds to build `cfg`'s timed controller (the drop is not timed).
fn build_controller(cfg: &SystemConfig) -> f64 {
    let t = Instant::now();
    if cfg.scheme.uses_rho() {
        let c = black_box(RhoController::new(cfg));
        let s = t.elapsed().as_secs_f64();
        drop(c);
        s
    } else {
        let c = black_box(TimedController::new(cfg));
        let s = t.elapsed().as_secs_f64();
        drop(c);
        s
    }
}

/// Seconds to build the rest of a cell: hierarchy, CPU model and workload
/// generator.
fn build_frontend(cfg: &SystemConfig, bench: Bench) -> f64 {
    let t = Instant::now();
    black_box(MemoryHierarchy::new(cfg.hierarchy));
    black_box(TraceCpu::new(cfg.rob_insts, cfg.ipc, cfg.mshrs));
    black_box(WorkloadGen::for_bench(bench, cfg.data_blocks(), cfg.seed));
    t.elapsed().as_secs_f64()
}

/// Runs one cell, returning its report and wall seconds.
fn run_cell(cfg: &SystemConfig, bench: Bench, mem_ops: u64) -> (Result<SimReport, String>, f64) {
    let t = Instant::now();
    let r = Simulation::try_run_bench(cfg, bench, RunLimit::mem_ops(mem_ops));
    (r.map_err(|e| e.to_string()), t.elapsed().as_secs_f64())
}

fn cell_name(scheme: Scheme, bench: Bench) -> String {
    format!("{}/{}", scheme.name(), bench.name())
}

/// Runs the audited cell plain, then audited with the profiler on, and
/// checks the audited run reports no violation and the same report as
/// the plain one. Untimed.
fn audited_check(shape: &Shape, seed: u64) -> bool {
    let (scheme, bench, mem_ops) = shape.audited;
    let mut cfg = shape.config(scheme, seed);
    let name = format!("{} ({mem_ops} mem ops)", cell_name(scheme, bench));
    let plain = Simulation::try_run_bench(&cfg, bench, RunLimit::mem_ops(mem_ops));
    cfg.audit = true;
    profiler::set_enabled(true);
    let run = Simulation::try_run_bench_audited(&cfg, bench, RunLimit::mem_ops(mem_ops));
    profiler::set_enabled(false);
    profiler::reset();
    match (plain, run) {
        (Ok(plain), Ok((report, audit))) => {
            let violations = audit.map_or(u64::MAX, |a| a.violations);
            let clean = check(
                violations == 0,
                &format!("{name} audited: {violations} violations"),
            );
            let same = check(
                format!("{plain:?}") == format!("{report:?}"),
                &format!("{name} report identical audited+profiled and plain"),
            );
            clean && same
        }
        (p, a) => check(
            false,
            &format!("{name} audited run failed: {:?} / {:?}", p.err(), a.err()),
        ),
    }
}

/// Runs `shape` for the seed: end-to-end metrics when `trace` is off,
/// per-layer metrics when it is on.
pub fn run(shape: &Shape, seed: u64, seconds: f64, trace: bool) -> Outcome {
    profiler::set_enabled(false);
    if trace {
        run_traced(shape, seed)
    } else {
        run_untraced(shape, seed, seconds)
    }
}

/// Passes every untraced run makes, however short `seconds` is: set-up
/// time is a median of repeats, and 45 cell samples hold ten beyond p75.
const MIN_PASSES: usize = 5;

/// The untraced passes for `seconds`: as many nominal passes as fit.
fn passes(shape: &Shape, seconds: f64) -> usize {
    ((seconds / shape.pass_s).floor() as usize).max(MIN_PASSES)
}

/// A fixed number of whole passes over every cell. Each pass first
/// builds one controller per scheme and each cell's front end separately
/// (the set-up sample), then runs every cell. The host-speed reference is
/// sampled between these pieces of work (after each controller build,
/// the front ends and each cell), and the samples on either side of a
/// piece scale its time. A cell's time is its median scaled time over the
/// passes. After the timed passes, untimed, the audited cell runs with
/// the phase profiler on; the traced run checks every cell against the
/// profiler.
fn run_untraced(shape: &Shape, seed: u64, seconds: f64) -> Outcome {
    let cells = shape.cells();
    let passes = passes(shape, seconds);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut diverged = 0u64;
    let mut setup = Vec::new();
    // Scaled seconds of each scheme's controller builds, one per pass.
    let mut builds: Vec<Vec<f64>> = vec![Vec::new(); shape.schemes.len()];
    // Each cell's wall seconds per pass: scaled, and as measured.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut raw_walls: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut reports: Vec<Option<String>> = vec![None; cells.len()];
    let mut host = Reference::new(1);
    // Untimed: the first build in a process also maps fresh memory, which
    // no later build in the same process pays.
    build_controller(&shape.config(shape.schemes[0], seed));
    // The sample before the first builds.
    host.sample();
    for _ in 0..passes {
        let mut pass_setup = 0.0;
        for (b, &s) in builds.iter_mut().zip(shape.schemes) {
            let secs = build_controller(&shape.config(s, seed)) / host.sample();
            b.push(secs);
            pass_setup += secs;
        }
        let fe: f64 = cells
            .iter()
            .map(|&(s, b)| build_frontend(&shape.config(s, seed), b))
            .sum();
        setup.push(pass_setup + fe / host.sample());
        for (i, &(scheme, bench)) in cells.iter().enumerate() {
            attempted += 1;
            let (r, w) = run_cell(&shape.config(scheme, seed), bench, shape.mem_ops);
            let slow = host.sample();
            match r {
                Ok(r) => {
                    walls[i].push(w / slow);
                    raw_walls[i].push(w);
                    let d = format!("{r:?}");
                    match &reports[i] {
                        None => reports[i] = Some(d),
                        Some(first) => diverged += u64::from(*first != d),
                    }
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("cell {} failed: {e}", cell_name(scheme, bench));
                }
            }
        }
    }
    let mut correct = check(
        diverged == 0,
        &format!("every cell's report repeats exactly over {passes} passes"),
    );
    // The resident peak of the measured passes, before the audit's
    // shadow state adds to it.
    let peak_rss = peak_rss_mib();
    correct &= audited_check(shape, seed);

    let medians = |w: &[Vec<f64>]| -> Vec<f64> {
        w.iter()
            .filter(|w| !w.is_empty())
            .map(|w| median(w))
            .collect()
    };
    let ops_per_s =
        |cell_s: &[f64]| (cell_s.len() as u64 * shape.mem_ops) as f64 / cell_s.iter().sum::<f64>();
    let cell_s = medians(&walls);
    let blocks: u64 = shape
        .schemes
        .iter()
        .map(|&s| shape.config(s, seed).data_blocks())
        .sum();
    eprintln!(
        "{passes} passes of {} cells; a cell's time is its median scaled pass; median host slowdown {:.4} over {} reference samples; unscaled ops_per_s {:.1}",
        cells.len(),
        host.median_slowdown(),
        host.samples(),
        ops_per_s(&medians(&raw_walls)),
    );
    // Latency: every scaled cell sample, pooled over cells and passes.
    let mut samples: Vec<f64> = walls.concat();
    samples.sort_by(f64::total_cmp);
    let tail_p = tail_percentile(samples.len());
    eprintln!(
        "{} cell samples; latency tail at p{tail_p:?}, the highest percentile with >= 10 samples beyond it",
        samples.len()
    );
    let pct = |p: Option<f64>| match p {
        Some(p) if !samples.is_empty() => percentile(&samples, p) * 1e3,
        _ => f64::NAN,
    };
    Outcome {
        correct,
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&setup)),
            ("ops_per_s", ops_per_s(&cell_s)),
            (
                "load_ops_per_s",
                blocks as f64 / builds.iter().map(|b| median(b)).sum::<f64>(),
            ),
            ("latency_p50_ms", pct(Some(50.0))),
            ("latency_tail_ms", pct(tail_p)),
            ("peak_rss_mib", peak_rss),
        ],
    }
}

/// Totals a traced pass accumulates over its cells.
#[derive(Default)]
struct Totals {
    construction_s: f64,
    paths_data: u64,
    paths_posmap: u64,
    paths_dummy: u64,
    paths_bg_evict: u64,
    accesses: u64,
    treetop_hits: u64,
    stash_peak: u64,
    slots: u64,
    converted_slots: u64,
    sim_cycles: u64,
    dram_requests: u64,
    row_hits: u64,
    llc_lookups: u64,
    llc_misses: u64,
    dirty_writebacks: u64,
}

impl Totals {
    fn add(&mut self, r: &SimReport) {
        for p in std::iter::once(&r.protocol).chain(r.protocol_small.as_ref()) {
            self.paths_data += p.data_paths;
            self.paths_dummy += p.dummy_paths;
            self.paths_bg_evict += p.bg_evict_paths;
            self.accesses += p.accesses;
            self.treetop_hits += p.treetop_hits;
        }
        self.paths_posmap += r.posmap_paths();
        self.stash_peak = self.stash_peak.max(r.stash.max_occupancy);
        self.slots += r.slots.total_slots;
        self.converted_slots += r.slots.converted_slots;
        self.sim_cycles += r.cycles;
        self.dram_requests += r.dram.requests;
        self.row_hits += r.dram.row_hits;
        self.llc_lookups += r.hierarchy.accesses - r.hierarchy.l1_hits;
        self.llc_misses += r.hierarchy.misses;
        self.dirty_writebacks += r.hierarchy.dirty_writebacks;
    }
}

/// One pass: every cell runs plain and then with the phase profiler on;
/// the two reports must be identical.
fn run_traced(shape: &Shape, seed: u64) -> Outcome {
    let cells = shape.cells();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut correct = true;
    let mut protocol_init_s = 0.0;
    for &s in shape.schemes {
        let cfg = shape.config(s, seed);
        let t = Instant::now();
        let oram = black_box(PathOram::new(cfg.oram.clone()));
        protocol_init_s += t.elapsed().as_secs_f64();
        drop(oram);
    }
    let mut t = Totals::default();
    let (mut wall_off, mut wall_on) = (0.0f64, 0.0f64);
    let (mut replay_s, mut records) = (0.0f64, 0u64);
    profiler::reset();
    for &(scheme, bench) in &cells {
        let cfg = shape.config(scheme, seed);
        let name = cell_name(scheme, bench);
        attempted += 1;
        let construction = build_controller(&cfg) + build_frontend(&cfg, bench);
        let (plain, w_off) = run_cell(&cfg, bench, shape.mem_ops);
        profiler::set_enabled(true);
        let (traced, w_on) = run_cell(&cfg, bench, shape.mem_ops);
        profiler::set_enabled(false);
        let (plain, traced) = match (plain, traced) {
            (Ok(p), Ok(t)) => (p, t),
            (p, t) => {
                failed += 1;
                eprintln!("cell {name} failed: {:?} / {:?}", p.err(), t.err());
                continue;
            }
        };
        correct &= check(
            format!("{plain:?}") == format!("{traced:?}"),
            &format!("{name} report identical with the profiler on and off"),
        );
        t.construction_s += construction;
        wall_off += w_off;
        wall_on += w_on;

        let mut gen = WorkloadGen::for_bench(bench, cfg.data_blocks(), cfg.seed);
        let start = Instant::now();
        for _ in 0..traced.mem_ops {
            black_box(gen.next_record());
        }
        replay_s += start.elapsed().as_secs_f64();
        records += traced.mem_ops;
        t.add(&traced);
    }
    let phases = profiler::snapshot();
    profiler::reset();
    let secs = |p: Phase| phases[p as usize].seconds();
    let (schedule_s, stash_s, posmap_s, llc_s) = (
        secs(Phase::DramSchedule),
        secs(Phase::Stash),
        secs(Phase::PosMap),
        secs(Phase::Llc),
    );
    let unattributed_s = self_time(
        wall_on,
        &[t.construction_s, schedule_s, stash_s, posmap_s, llc_s],
    );
    eprintln!(
        "traced wall {wall_on:.3} s = construction {:.3} + phases {:.3} + unattributed {unattributed_s:.3}",
        t.construction_s,
        schedule_s + stash_s + posmap_s + llc_s,
    );
    correct &= audited_check(shape, seed);
    let count = |n: u64| n as f64;
    Outcome {
        correct,
        attempted,
        failed,
        metrics: vec![
            ("oram-protocol.init_s", protocol_init_s),
            ("sim.construction_s", t.construction_s),
            ("sim.traced_wall_s", wall_on),
            ("dram-sim.schedule_s", schedule_s),
            (
                "dram-sim.ns_per_request",
                ratio(schedule_s * 1e9, count(t.dram_requests)),
            ),
            ("oram-protocol.stash_s", stash_s),
            ("oram-protocol.posmap_s", posmap_s),
            ("unattributed_s", unattributed_s),
            (
                "oram-ctrl.ns_per_slot",
                ratio((wall_on - t.construction_s) * 1e9, count(t.slots)),
            ),
            ("cache-sim.lookup_s", llc_s),
            (
                "trace-gen.next_record_ns",
                ratio(replay_s * 1e9, count(records)),
            ),
            ("oram-protocol.paths_data", count(t.paths_data)),
            ("oram-protocol.paths_posmap", count(t.paths_posmap)),
            ("oram-protocol.paths_dummy", count(t.paths_dummy)),
            ("oram-protocol.paths_bg_evict", count(t.paths_bg_evict)),
            (
                "oram-protocol.treetop_hit_ratio",
                ratio(count(t.treetop_hits), count(t.accesses)),
            ),
            ("oram-protocol.stash_peak", count(t.stash_peak)),
            ("oram-ctrl.slots", count(t.slots)),
            ("oram-ctrl.converted_slots", count(t.converted_slots)),
            ("oram-ctrl.sim_cycles", count(t.sim_cycles)),
            ("dram-sim.requests", count(t.dram_requests)),
            (
                "dram-sim.row_hit_ratio",
                ratio(count(t.row_hits), count(t.dram_requests)),
            ),
            (
                "cache-sim.llc_miss_ratio",
                ratio(count(t.llc_misses), count(t.llc_lookups)),
            ),
            ("cache-sim.dirty_writebacks", count(t.dirty_writebacks)),
            ("latency_samples", count(attempted - failed)),
            ("trace_overhead_ratio", ratio(wall_on, wall_off)),
        ],
    }
}
