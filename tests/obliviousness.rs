//! Security-property tests: the externally visible memory trace must not
//! depend on what the ORAM controller is doing internally.
//!
//! Section IV-E's two uniformity arguments, checked mechanically:
//!
//! 1. **Path accesses are indistinguishable** — every path access of a
//!    given configuration touches exactly the same number of blocks at each
//!    tree level, whatever its internal type (data / PosMap / dummy /
//!    converted), and leaf choices are uniform.
//! 2. **Access intensity is workload-independent** — with timing protection
//!    on, the slot *count per unit time* is a function of the configuration
//!    alone, not of the request stream.

use ir_oram::{RunLimit, Scheme, Simulation, SystemConfig};
use iroram_dram::SubtreeLayout;
use iroram_protocol::{OramConfig, PathOram, PathType};
use iroram_sim_engine::SimRng;
use iroram_trace::Bench;

fn tiny(scheme: Scheme) -> SystemConfig {
    let mut cfg = SystemConfig::scaled(scheme);
    cfg.oram.levels = 11;
    cfg.oram.data_blocks = 1 << 12;
    cfg.oram.zalloc = iroram_protocol::ZAllocation::uniform(11, 4);
    cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: 4 };
    cfg.with_scheme(scheme)
}

/// Every path, whatever the leaf, reads the same number of memory blocks —
/// including under IR-Alloc's non-uniform (but public) bucket sizes.
#[test]
fn path_footprint_is_leaf_independent() {
    for scheme in [Scheme::Baseline, Scheme::IrAlloc, Scheme::IrOram] {
        let cfg = tiny(scheme);
        let cached = cfg.oram.treetop.cached_levels();
        let z = iroram_protocol::TreeLayout::new(cfg.oram.zalloc.clone());
        let layout = SubtreeLayout::new(&z.memory_z(cached), cfg.subtree_group);
        let expect = layout.path_slots(0, 0).len();
        let mut rng = SimRng::seed_from(3);
        for _ in 0..200 {
            let leaf = rng.next_below(1 << 10);
            assert_eq!(
                layout.path_slots(leaf, 0).len(),
                expect,
                "{scheme:?}: leaf {leaf} has a different footprint"
            );
        }
    }
}

/// Internal path types produce identical external shapes: same leaf-space,
/// same per-path block count. We drive the protocol and check that dummy
/// and real paths are drawn from statistically indistinguishable leaf
/// distributions (coarse chi-square on leaf high bits).
#[test]
fn dummy_and_real_leaves_are_equally_distributed() {
    let mut oram = PathOram::new(OramConfig::tiny());
    let n_leaves = oram.layout().num_leaves();
    let mut rng = SimRng::seed_from(17);
    const BUCKETS: usize = 8;
    let mut real = [0f64; BUCKETS];
    let mut dummy = [0f64; BUCKETS];
    for i in 0..4_000u64 {
        let bucket = |leaf: u64| (leaf * BUCKETS as u64 / n_leaves) as usize;
        if i % 2 == 0 {
            let rec = oram.run_access(
                iroram_protocol::BlockAddr(rng.next_below(oram.config().data_blocks)),
                None,
            );
            for p in rec.paths {
                real[bucket(p.leaf.0)] += 1.0;
            }
        } else {
            let p = oram.dummy_path();
            dummy[bucket(p.leaf.0)] += 1.0;
        }
    }
    let total_real: f64 = real.iter().sum();
    let total_dummy: f64 = dummy.iter().sum();
    assert!(total_real > 100.0 && total_dummy > 100.0, "need samples");
    // Two-sample chi-square over the 8 buckets.
    let mut chi2 = 0.0;
    for b in 0..BUCKETS {
        let expect_real = total_real / BUCKETS as f64;
        let expect_dummy = total_dummy / BUCKETS as f64;
        chi2 += (real[b] - expect_real).powi(2) / expect_real;
        chi2 += (dummy[b] - expect_dummy).powi(2) / expect_dummy;
    }
    // 14 degrees of freedom, p=0.001 critical value ≈ 36.1.
    assert!(chi2 < 36.1, "leaf distributions distinguishable: chi2 {chi2}");
}

/// With timing protection, the number of slots issued over a window is the
/// same whether the workload is idle (all dummies) or saturated (all real):
/// the attacker learns nothing from access intensity.
#[test]
fn slot_rate_is_workload_independent() {
    use iroram_sim_engine::Cycle;

    for scheme in [Scheme::Baseline, Scheme::Rho] {
        let cfg = tiny(scheme);
        let (idle, busy) = idle_and_busy(&cfg, Cycle(400_000));
        let idle_slots = idle.slot_stats().total_slots;
        let busy_slots = busy.slot_stats().total_slots;

        // Path service time varies slightly with row-buffer state, so allow
        // a small band — but idle and busy must be within a few percent.
        let lo = idle_slots.min(busy_slots) as f64;
        let hi = idle_slots.max(busy_slots) as f64;
        assert!(
            hi / lo < 1.05,
            "{scheme:?}: slot rate leaks load: idle {idle_slots} vs busy {busy_slots}"
        );
    }
}

/// Runs an idle controller (dummies only) and a saturated one (a deep
/// queue of real requests) up to `horizon`.
fn idle_and_busy(
    cfg: &SystemConfig,
    horizon: iroram_sim_engine::Cycle,
) -> (ir_oram::TimedController, ir_oram::TimedController) {
    use ir_oram::TimedController;
    use iroram_cache::MemoryHierarchy;
    use iroram_protocol::BlockAddr;
    use iroram_sim_engine::Cycle;

    let mut idle = TimedController::new(cfg);
    let mut h1 = MemoryHierarchy::new(cfg.hierarchy);
    idle.advance_until(horizon, &mut h1).unwrap();

    let mut busy = TimedController::new(cfg);
    let mut h2 = MemoryHierarchy::new(cfg.hierarchy);
    let mut id = 0;
    for a in (0..4096u64).step_by(3) {
        if busy.front_try(BlockAddr(a), Cycle(0)).is_none() {
            id += 1;
            busy.submit(ir_oram::OramRequest {
                id,
                addr: BlockAddr(a),
                arrival: Cycle(0),
                blocking: false,
            });
        }
    }
    busy.advance_until(horizon, &mut h2).unwrap();
    (idle, busy)
}

/// DRAM lines `n` slots must move: one read and one write per memory slot
/// of each path. Single-tree paths all have the main tree's length; ρ's
/// fixed pattern puts slots 0, 3, 6, … on the main tree and the rest on
/// the small tree.
fn expected_dram_lines(ctl: &ir_oram::TimedController, cfg: &SystemConfig, n: u64) -> u64 {
    let main_len = ctl
        .protocol
        .layout()
        .path_len_memory(cfg.oram.treetop.cached_levels());
    match ctl.small_protocol() {
        None => 2 * n * main_len,
        Some(small) => {
            let main_slots = n.div_ceil(3);
            let small_len = small.layout().path_len_memory(0);
            2 * (main_slots * main_len + (n - main_slots) * small_len)
        }
    }
}

/// The pipelined controllers keep both uniformity arguments at every
/// depth: over a fixed horizon, an idle (all-dummy) and a saturated
/// (all-real) controller issue the same number of slots, and every slot
/// carries exactly the DRAM request count its tree's path shape dictates —
/// so the externally visible address *volume and rate* are
/// request-content-independent at depths 1, 2 and 4. Runs are audited, so
/// the depth-k exact-schedule, conservation and oracle checks all gate the
/// overlapped schedules too.
#[test]
fn dram_traffic_is_workload_independent_at_every_pipeline_depth() {
    use iroram_sim_engine::Cycle;

    for scheme in [Scheme::Baseline, Scheme::Rho] {
        for depth in [1u32, 2, 4] {
            let mut cfg = tiny(scheme);
            cfg.pipeline_depth = depth;
            cfg.audit = true;
            let (idle, busy) = idle_and_busy(&cfg, Cycle(300_000));
            let idle_slots = idle.slot_stats().total_slots;
            let busy_slots = busy.slot_stats().total_slots;

            let lo = idle_slots.min(busy_slots) as f64;
            let hi = idle_slots.max(busy_slots) as f64;
            assert!(
                hi / lo < 1.05,
                "{scheme:?} depth {depth}: slot rate leaks load: idle {idle_slots} vs busy {busy_slots}"
            );
            for (name, ctl) in [("idle", &idle), ("busy", &busy)] {
                // Every slot moves exactly its path shape's DRAM lines,
                // whatever it carries. The pipelined controller
                // legitimately holds one write batch in its deferred
                // buffer mid-run; count it so the identity stays exact.
                let slots = ctl.slot_stats().total_slots;
                assert_eq!(
                    ctl.dram_stats().requests + ctl.deferred_write_lines(),
                    expected_dram_lines(ctl, &cfg, slots),
                    "{scheme:?} depth {depth}: {name} DRAM request count depends on the \
                     workload ({slots} slots)"
                );
                let report = ctl.audit_report().expect("audit enabled");
                assert!(
                    report.is_clean(),
                    "{scheme:?} depth {depth}: {name} audit violations: {:?}",
                    report.samples
                );
                assert!(report.checks > 0, "audit must actually run");
            }
            if depth == 1 {
                assert!(
                    idle.pipeline_stats().is_none(),
                    "depth 1 must run the serial code path"
                );
            } else {
                assert!(idle.pipeline_stats().is_some());
            }
        }
    }
}

/// IR-DWB conversions must not change the external slot rate either.
#[test]
fn dwb_keeps_slot_rate() {
    use iroram_cache::MemoryHierarchy;
    use iroram_sim_engine::Cycle;

    let base_cfg = tiny(Scheme::Baseline);
    let dwb_cfg = tiny(Scheme::IrDwb);
    let horizon = Cycle(300_000);

    let mut base = ir_oram::TimedController::new(&base_cfg);
    let mut h1 = MemoryHierarchy::new(base_cfg.hierarchy);
    base.advance_until(horizon, &mut h1).unwrap();

    let mut dwb = ir_oram::TimedController::new(&dwb_cfg);
    let mut h2 = MemoryHierarchy::new(dwb_cfg.hierarchy);
    // Dirty some LLC lines so conversions actually happen.
    for a in 0..32u64 {
        h2.access(a, true);
    }
    dwb.advance_until(horizon, &mut h2).unwrap();

    let b = base.slot_stats().total_slots as f64;
    let d = dwb.slot_stats().total_slots as f64;
    assert!(
        (b - d).abs() / b < 0.05,
        "IR-DWB changed the external rate: {b} vs {d}"
    );
    assert!(
        dwb.slot_stats().converted_slots > 0,
        "conversions should have occurred"
    );
}

/// End-to-end: per-benchmark external path counts depend only on the time
/// horizon, not on which benchmark runs (fixed-rate discipline).
#[test]
fn paths_per_cycle_stable_across_benchmarks() {
    let cfg = tiny(Scheme::Baseline);
    let mut rates = Vec::new();
    for bench in [Bench::Xal, Bench::Lbm] {
        let r = Simulation::run_bench(&cfg, bench, RunLimit::mem_ops(2_000));
        rates.push(r.slots.total_slots as f64 / r.cycles as f64);
    }
    let (a, b) = (rates[0], rates[1]);
    assert!(
        (a - b).abs() / a.max(b) < 0.1,
        "slots per cycle differ: {a:.6} vs {b:.6}"
    );
}

/// Dummy paths are indistinguishable in *effect* too: they read and rewrite
/// a full path, so their DRAM footprint equals a real path's.
#[test]
fn dummy_dram_footprint_equals_real() {
    let mut oram = PathOram::new(OramConfig::tiny());
    let before = oram.stats().blocks_from_memory;
    oram.dummy_path();
    let dummy_blocks = oram.stats().blocks_from_memory - before;

    let before = oram.stats().blocks_from_memory;
    let rec = oram.run_access(iroram_protocol::BlockAddr(5), None);
    assert!(
        rec.paths
            .iter()
            .all(|p| !matches!(p.ptype, PathType::Dummy)),
        "a demand access issues no dummies"
    );
    let per_real = if rec.paths.is_empty() {
        dummy_blocks // served on-chip: nothing to compare
    } else {
        (oram.stats().blocks_from_memory - before) / rec.paths.len() as u64
    };
    assert_eq!(
        dummy_blocks,
        per_real,
        "dummy and real paths must move the same number of blocks"
    );
}
