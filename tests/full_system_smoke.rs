//! Full-system smoke tests: every scheme runs every workload class to
//! completion with self-consistent reports.

use ir_oram::{RunLimit, Scheme, SimReport, Simulation, SystemConfig, ALL_SCHEMES};
use iroram_trace::Bench;

fn tiny(scheme: Scheme) -> SystemConfig {
    let mut cfg = SystemConfig::scaled(scheme);
    cfg.oram.levels = 11;
    cfg.oram.data_blocks = 1 << 12;
    cfg.oram.zalloc = iroram_protocol::ZAllocation::uniform(11, 4);
    cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: 4 };
    cfg.hierarchy = iroram_cache::HierarchyConfig {
        l1_sets: 16,
        l1_assoc: 2,
        llc_sets: 64,
        llc_assoc: 8,
    };
    cfg.with_scheme(scheme)
}

fn check_consistency(r: &SimReport, scheme: Scheme) {
    let label = format!("{scheme:?}/{}", r.workload);
    assert!(r.cycles > 0, "{label}: no time elapsed");
    assert!(r.instructions >= r.mem_ops, "{label}: gap accounting");
    // Slot accounting balances.
    let s = &r.slots;
    assert_eq!(
        s.total_slots,
        s.real_slots + s.bg_slots + s.dummy_slots + s.converted_slots,
        "{label}: slot categories must partition the total"
    );
    // Every slot carried exactly one path access (real, bg, dummy or
    // converted), all recorded by the protocol — and nothing else did.
    assert_eq!(
        r.total_paths(),
        s.total_slots,
        "{label}: protocol paths must equal issued slots"
    );
    // DRAM traffic exists iff paths were issued.
    if s.total_slots > 0 {
        assert!(r.dram.requests > 0, "{label}: paths without DRAM traffic");
    }
    // Reads and writes to DRAM are symmetric (each path reads and rewrites
    // the same slots).
    assert_eq!(r.dram.reads, r.dram.writes, "{label}: path symmetry");
}

#[test]
fn every_scheme_on_light_medium_heavy() {
    for scheme in ALL_SCHEMES {
        for bench in [Bench::Xal, Bench::Bla, Bench::Lbm] {
            let cfg = tiny(scheme);
            let r = Simulation::run_bench(&cfg, bench, RunLimit::mem_ops(2_500));
            assert_eq!(r.mem_ops, 2_500);
            check_consistency(&r, scheme);
        }
    }
}

#[test]
fn mix_and_random_workloads_run() {
    for scheme in [Scheme::Baseline, Scheme::IrOram, Scheme::Rho] {
        for bench in [Bench::Mix, Bench::RandomUniform] {
            let cfg = tiny(scheme);
            let r = Simulation::run_bench(&cfg, bench, RunLimit::mem_ops(2_000));
            check_consistency(&r, scheme);
        }
    }
}

#[test]
fn protocol_invariants_hold_after_timed_runs() {
    use ir_oram::TimedController;
    use iroram_cache::MemoryHierarchy;
    use iroram_protocol::BlockAddr;
    use iroram_sim_engine::Cycle;

    for scheme in [Scheme::Baseline, Scheme::IrAlloc, Scheme::IrStash, Scheme::IrOram] {
        let cfg = tiny(scheme);
        let mut ctl = TimedController::new(&cfg);
        let mut h = MemoryHierarchy::new(cfg.hierarchy);
        let mut id = 0;
        for a in (0..2048u64).step_by(7) {
            if ctl.front_try(BlockAddr(a), Cycle(0)).is_none() {
                id += 1;
                ctl.submit(ir_oram::OramRequest {
                    id,
                    addr: BlockAddr(a),
                    arrival: Cycle(0),
                    blocking: false,
                });
            }
        }
        ctl.drain(&mut h).unwrap();
        ctl.protocol
            .check_invariants()
            .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
    }
}

#[test]
fn timing_protection_ablation_runs_faster_or_equal_traffic() {
    // Without timing protection there are no dummy paths, so total DRAM
    // traffic must not exceed the protected run's.
    let cfg = tiny(Scheme::Baseline);
    let with_tp = Simulation::run_bench(&cfg, Bench::Gcc, RunLimit::mem_ops(2_000));
    let mut cfg2 = cfg.clone();
    cfg2.timing_protection = false;
    let without = Simulation::run_bench(&cfg2, Bench::Gcc, RunLimit::mem_ops(2_000));
    assert!(without.dram.requests <= with_tp.dram.requests);
    assert_eq!(without.slots.dummy_slots, 0);
    assert!(with_tp.slots.dummy_slots > 0);
}

#[test]
fn rho_small_tree_carries_traffic() {
    let cfg = tiny(Scheme::Rho);
    // mcf's uniform misses re-reference addresses within the reuse filter's
    // window, so some blocks install into the small tree.
    let r = Simulation::run_bench(&cfg, Bench::Mcf, RunLimit::mem_ops(4_000));
    let small = r.protocol_small.as_ref().expect("rho has a small tree");
    assert!(
        small.total_paths() > 0,
        "the 1:2 pattern must exercise the small tree"
    );
    check_consistency(&r, Scheme::Rho);
}

/// ρ under stash pressure issues background-eviction slots; each must be
/// counted once (as a bg slot, not also as a real one) for the slot
/// categories to partition the total.
#[test]
fn rho_bg_eviction_slots_are_counted_once() {
    let opts = iroram_experiments::ExpOptions::quick();
    let mut cfg = opts.system(Scheme::Rho);
    cfg.oram.stash_capacity = 8;
    let r = Simulation::run_bench(&cfg, Bench::Lbm, RunLimit::mem_ops(40_000));
    assert!(
        r.slots.bg_slots > 0,
        "the pressured run must evict in the background"
    );
    check_consistency(&r, Scheme::Rho);
}
