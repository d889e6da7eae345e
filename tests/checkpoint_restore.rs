//! Crash-consistency regressions for the checkpoint/restore subsystem.
//!
//! The contract under test: a run that snapshots every N slots produces a
//! report identical to an unsnapshotted run; a run *resumed* from any
//! mid-run snapshot finishes with that same report (at every scheme and
//! pipeline depth); a controller saved mid-flight and restored into a
//! fresh twin is indistinguishable from the original from then on; and a
//! corrupted, truncated, or mismatched snapshot surfaces as a typed
//! [`SimError::Snapshot`], never a panic or silent misresume.

use std::path::PathBuf;

use ir_oram::{
    CheckpointSpec, OramRequest, RunLimit, Scheme, SimError, Simulation, SystemConfig,
    TimedController,
};
use iroram_cache::{HierarchyConfig, MemoryHierarchy};
use iroram_protocol::{BlockAddr, TreeTopMode, ZAllocation};
use iroram_sim_engine::{checkpoint, Cycle, SnapError, SnapReader, SnapWriter};
use iroram_trace::{Bench, WorkloadGen};
use proptest::prelude::*;

/// The tiny-but-real full-system scale the sim tests use.
fn tiny(scheme: Scheme) -> SystemConfig {
    let mut cfg = SystemConfig::scaled(scheme);
    cfg.oram.levels = 10;
    cfg.oram.data_blocks = 1 << 11;
    cfg.oram.zalloc = ZAllocation::uniform(10, 4);
    cfg.oram.treetop = TreeTopMode::Dedicated { levels: 4 };
    cfg.oram.plb_sets = 8;
    cfg.oram.plb_ways = 2;
    cfg.hierarchy = HierarchyConfig {
        l1_sets: 16,
        l1_assoc: 2,
        llc_sets: 64,
        llc_assoc: 4,
    };
    cfg.with_scheme(scheme)
}

/// A unique snapshot path under the system temp dir (no tempfile dep).
fn snap_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("iroram-ckpt-tests");
    std::fs::create_dir_all(&dir).expect("create snapshot test dir");
    dir.join(format!("{tag}-{}.snap", std::process::id()))
}

fn run_plain(cfg: &SystemConfig, bench: Bench, limit: RunLimit) -> String {
    let r = Simulation::try_run_bench(cfg, bench, limit).expect("plain run");
    format!("{r:?}")
}

fn run_ckpt(cfg: &SystemConfig, bench: Bench, limit: RunLimit, spec: &CheckpointSpec) -> String {
    let gen = WorkloadGen::for_bench(bench, cfg.data_blocks(), cfg.seed);
    let (r, _) = Simulation::try_run_checkpointed(cfg, gen, limit, bench.name(), Some(spec))
        .expect("checkpointed run");
    format!("{r:?}")
}

/// One full equivalence cycle at a given scheme and pipeline depth:
/// checkpointing must not perturb the report, and resuming from the last
/// mid-run snapshot must reproduce the uninterrupted report exactly.
fn assert_resume_equivalence(scheme: Scheme, depth: u32, interval: u64, tag: &str) {
    let mut cfg = tiny(scheme);
    cfg.pipeline_depth = depth;
    cfg.checkpoint_interval = interval;
    let limit = RunLimit::mem_ops(1_500);
    let straight = run_plain(&cfg, Bench::Gcc, limit);

    let spec = CheckpointSpec {
        path: snap_path(tag),
        fingerprint: 0x1207_0000 ^ u64::from(depth) ^ interval << 8,
    };
    let _ = std::fs::remove_file(&spec.path);
    let with_ckpt = run_ckpt(&cfg, Bench::Gcc, limit, &spec);
    assert_eq!(
        with_ckpt, straight,
        "{scheme:?}/depth {depth}: snapshotting must not perturb the run"
    );

    // The completed run leaves its last mid-run snapshot behind; it must
    // be a genuine mid-run cut, and resuming from it must land on the
    // very same report.
    let header = checkpoint::read_header(&spec.path)
        .expect("snapshot header readable")
        .expect("a mid-run snapshot must remain after the run");
    assert!(header.slots_done > 0, "snapshot taken before any progress");
    assert_eq!(header.fingerprint, spec.fingerprint);
    let resumed = run_ckpt(&cfg, Bench::Gcc, limit, &spec);
    assert_eq!(
        resumed, straight,
        "{scheme:?}/depth {depth}: resumed run diverged from the uninterrupted one"
    );
    let _ = std::fs::remove_file(&spec.path);
}

#[test]
fn resume_equals_straight_through_across_schemes_and_depths() {
    for (i, scheme) in [Scheme::Baseline, Scheme::Rho, Scheme::IrOram, Scheme::LlcD]
        .into_iter()
        .enumerate()
    {
        for depth in [1u32, 4] {
            assert_resume_equivalence(scheme, depth, 8, &format!("eq-{i}-{depth}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The equivalence holds at *any* checkpoint cadence, not just the one
    /// the fixed test uses: a snapshot is a consistent cut wherever it
    /// lands.
    #[test]
    fn resume_equivalence_at_any_cadence(
        interval in 1u64..24,
        scheme_idx in 0usize..3,
        depth_idx in 0usize..2,
    ) {
        let scheme = [Scheme::Baseline, Scheme::Rho, Scheme::IrDwb][scheme_idx];
        let depth = [1u32, 4][depth_idx];
        assert_resume_equivalence(
            scheme,
            depth,
            interval,
            &format!("prop-{scheme_idx}-{depth}-{interval}"),
        );
    }
}

/// Drives a controller for a while, saves it mid-flight, restores into a
/// fresh twin, then drives both identically and requires identical
/// observable behavior — the restore really is a bit-faithful resume.
#[test]
fn timed_controller_roundtrips_mid_flight() {
    let cfg = tiny(Scheme::Baseline);
    let mut hier_a = MemoryHierarchy::new(cfg.hierarchy);
    let mut a = TimedController::new(&cfg);
    for i in 0..24u64 {
        a.submit(OramRequest {
            id: i + 1,
            addr: BlockAddr(i * 37 % (1 << 11)),
            blocking: i % 3 == 0,
            arrival: Cycle(i * 50),
        });
    }
    a.advance_until(Cycle(4_000), &mut hier_a).expect("advance");
    let done_a = a.take_completions();

    let mut w = SnapWriter::new();
    a.save_state(&mut w);
    let bytes = w.into_bytes();
    let mut b = TimedController::new(&cfg);
    let mut r = SnapReader::new(&bytes);
    b.restore_state(&mut r).expect("restore");
    r.finish().expect("no trailing snapshot bytes");

    let mut hier_b = hier_a.clone();
    for c in [&mut a, &mut b] {
        c.submit(OramRequest {
            id: 1000,
            addr: BlockAddr(99),
            blocking: true,
            arrival: Cycle(4_100),
        });
    }
    let end_a = a.drain(&mut hier_a).expect("drain a");
    let end_b = b.drain(&mut hier_b).expect("drain b");
    assert_eq!(end_a, end_b, "drain cycles diverged after restore");
    let mut rest_a = done_a.clone();
    rest_a.extend(a.take_completions());
    let mut rest_b = done_a; // the twin resumed after these completed
    rest_b.extend(b.take_completions());
    assert_eq!(rest_a, rest_b, "completion streams diverged after restore");
    assert_eq!(
        format!("{:?}{:?}{:?}", a.slot_stats(), a.stash_pressure(), a.dram_stats()),
        format!("{:?}{:?}{:?}", b.slot_stats(), b.stash_pressure(), b.dram_stats()),
        "controller statistics diverged after restore"
    );
}

#[test]
fn rho_controller_roundtrips_mid_flight() {
    let cfg = tiny(Scheme::Rho);
    let mut hier_a = MemoryHierarchy::new(cfg.hierarchy);
    let mut a = TimedController::new(&cfg);
    for i in 0..24u64 {
        a.submit(OramRequest {
            id: i + 1,
            addr: BlockAddr(i * 53 % (1 << 11)),
            blocking: i % 4 == 0,
            arrival: Cycle(i * 60),
        });
    }
    a.advance_until(Cycle(5_000), &mut hier_a).expect("advance");
    let done_a = a.take_completions();

    let mut w = SnapWriter::new();
    a.save_state(&mut w);
    let bytes = w.into_bytes();
    let mut b = TimedController::new(&cfg);
    let mut r = SnapReader::new(&bytes);
    b.restore_state(&mut r).expect("restore");
    r.finish().expect("no trailing snapshot bytes");

    let mut hier_b = hier_a.clone();
    let end_a = a.drain(&mut hier_a).expect("drain a");
    let end_b = b.drain(&mut hier_b).expect("drain b");
    assert_eq!(end_a, end_b, "drain cycles diverged after restore");
    let mut rest_a = done_a.clone();
    rest_a.extend(a.take_completions());
    let mut rest_b = done_a;
    rest_b.extend(b.take_completions());
    assert_eq!(rest_a, rest_b, "completion streams diverged after restore");
    assert_eq!(
        format!("{:?}{:?}{:?}", a.slot_stats(), a.stash_pressure(), a.dram_stats()),
        format!("{:?}{:?}{:?}", b.slot_stats(), b.stash_pressure(), b.dram_stats()),
        "controller statistics diverged after restore"
    );
}

/// Every way a snapshot can be damaged must surface as a typed
/// [`SimError::Snapshot`] from the resuming run — never a panic, never a
/// silent fresh start over bad state.
#[test]
fn damaged_snapshots_are_typed_errors() {
    let mut cfg = tiny(Scheme::Baseline);
    cfg.checkpoint_interval = 32;
    let limit = RunLimit::mem_ops(400);
    let fp = 0xC0FF_EE00u64;
    let path = snap_path("damaged");
    let try_resume = |path: &PathBuf, fp: u64| {
        let spec = CheckpointSpec {
            path: path.clone(),
            fingerprint: fp,
        };
        let gen = WorkloadGen::for_bench(Bench::Gcc, cfg.data_blocks(), cfg.seed);
        Simulation::try_run_checkpointed(&cfg, gen, limit, "gcc", Some(&spec)).map(|_| ())
    };

    // Well-framed snapshot whose payload is garbage: the restore path must
    // reject it structurally.
    checkpoint::persist(&path, fp, 7, &[0xAB; 64]).expect("persist garbage payload");
    match try_resume(&path, fp) {
        Err(SimError::Snapshot(_)) => {}
        other => panic!("garbage payload must be a typed snapshot error, got {other:?}"),
    }

    // Same file claimed by a different configuration: fingerprint mismatch.
    match try_resume(&path, fp ^ 1) {
        Err(SimError::Snapshot(SnapError::ConfigMismatch { .. })) => {}
        other => panic!("wrong fingerprint must be ConfigMismatch, got {other:?}"),
    }

    // A flipped payload byte: checksum failure.
    let mut bytes = std::fs::read(&path).expect("read frame");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write corrupted frame");
    match try_resume(&path, fp) {
        Err(SimError::Snapshot(SnapError::BadChecksum)) => {}
        other => panic!("flipped byte must be BadChecksum, got {other:?}"),
    }

    // A truncated file: torn write detected before any state is touched.
    bytes[last] ^= 0x40;
    bytes.truncate(bytes.len() - 10);
    std::fs::write(&path, &bytes).expect("write truncated frame");
    match try_resume(&path, fp) {
        Err(SimError::Snapshot(SnapError::Truncated)) => {}
        other => panic!("truncated frame must be Truncated, got {other:?}"),
    }

    // Garbage magic: a foreign file is never interpreted.
    std::fs::write(&path, b"definitely not a snapshot, sorry").expect("write foreign file");
    match try_resume(&path, fp) {
        Err(SimError::Snapshot(SnapError::BadMagic)) => {}
        other => panic!("foreign bytes must be BadMagic, got {other:?}"),
    }

    let _ = std::fs::remove_file(&path);
}
