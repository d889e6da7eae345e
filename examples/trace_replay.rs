//! Trace capture and replay: persist a calibrated workload to disk in the
//! IRTR format, read it back, and replay it through the full-system
//! simulator — the workflow for comparing schemes on a *fixed* trace
//! (exactly the paper's Pin-trace methodology).
//!
//! Run with:
//! `cargo run --release -p ir-oram --example trace_replay [bench] [ops]`

use ir_oram::{OramRequest, Scheme, SystemConfig, TimedController};
use iroram_cache::MemoryHierarchy;
use iroram_protocol::BlockAddr;
use iroram_sim_engine::Cycle;
use iroram_trace::{read_trace, write_trace, Bench, TraceRecord, WorkloadGen, ALL_BENCHES};

fn main() -> std::io::Result<()> {
    let bench = std::env::args()
        .nth(1)
        .and_then(|name| ALL_BENCHES.iter().copied().find(|b| b.name() == name))
        .unwrap_or(Bench::Xz);
    let ops: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3_000);

    // 1. Capture: synthesize and persist the trace.
    let mut cfg = SystemConfig::scaled(Scheme::Baseline);
    cfg.oram.levels = 13;
    cfg.oram.data_blocks = 1 << 14;
    cfg.oram.zalloc = iroram_protocol::ZAllocation::uniform(13, 4);
    cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: 5 };
    let cfg = cfg.with_scheme(Scheme::Baseline);

    let records: Vec<TraceRecord> =
        WorkloadGen::for_bench(bench, cfg.data_blocks(), 42).take_records(ops);
    let path = std::env::temp_dir().join(format!("iroram_{}.irtr", bench.name()));
    write_trace(std::fs::File::create(&path)?, &records)?;
    println!(
        "captured {} records of '{}' to {} ({} bytes)",
        records.len(),
        bench.name(),
        path.display(),
        std::fs::metadata(&path)?.len()
    );

    // 2. Replay: read the trace back and drive the ORAM controller with it
    //    directly (a miss-stream replay at one request per record).
    let replay = read_trace(std::fs::File::open(&path)?)?;
    assert_eq!(replay, records, "round-trip must be lossless");

    for scheme in [Scheme::Baseline, Scheme::IrOram] {
        let cfg = cfg.with_scheme(scheme);
        let mut ctl = TimedController::new(&cfg);
        let mut hierarchy = MemoryHierarchy::new(cfg.hierarchy);
        let mut t = Cycle::ZERO;
        let mut served_onchip = 0u64;
        for (i, rec) in replay.iter().enumerate() {
            t += rec.gap as u64 / cfg.ipc + 1;
            let (outcome, _) = hierarchy.access_full(rec.addr, rec.is_write);
            if outcome != iroram_cache::AccessOutcome::Miss {
                continue;
            }
            if ctl.front_try(BlockAddr(rec.addr), t).is_some() {
                served_onchip += 1;
            } else {
                ctl.submit(OramRequest {
                    id: i as u64,
                    addr: BlockAddr(rec.addr),
                    arrival: t,
                    blocking: false,
                });
                ctl.advance_until(t, &mut hierarchy).expect("replay");
            }
        }
        let end = ctl.drain(&mut hierarchy).expect("replay");
        let slots = *ctl.slot_stats();
        println!(
            "{:<10} finished at {:>12}  slots: {} real / {} dummy / {} converted  (on-chip serves: {})",
            scheme.name(),
            end,
            slots.real_slots,
            slots.dummy_slots,
            slots.converted_slots,
            served_onchip,
        );
    }
    std::fs::remove_file(&path)?;
    Ok(())
}
