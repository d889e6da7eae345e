//! Resume journal: a per-cell append-only JSONL store of finished results.
//!
//! Long sweeps die — OOM killers, pre-empted CI runners, a fault-injection
//! campaign tripping a real bug. The journal lets a re-run skip every cell
//! that already finished: each completed cell appends one line keyed by a
//! *fingerprint* of everything that determines its result (the full system
//! config, the benchmark, and the run length). On `--resume`, cells whose
//! fingerprint is already present are answered from the journal, so an
//! interrupted-then-resumed sweep produces byte-identical output to an
//! uninterrupted one.
//!
//! Each line is one [`crate::json`] object: the fingerprint and the full
//! [`ir_oram::SimReport`]. Unknown object keys are ignored on read and
//! malformed lines are skipped, so journals survive schema drift and torn
//! final writes.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ir_oram::{
    FaultStats, RunLimit, Scheme, SimReport, StashPressure, SystemConfig, ALL_SCHEMES,
};
use iroram_trace::Bench;

use crate::json::{self, Json};

/// Fingerprints one simulation cell: every input that determines its
/// report, hashed with FNV-1a over a field-by-field rendering.
///
/// The config is destructured **exhaustively** (no `..`): adding a field
/// to [`SystemConfig`] without extending this key is a compile error, and
/// `tests/config_fingerprint.rs` checks that every field changes the
/// fingerprint. Structured fields (`oram`, `hierarchy`, `dram`,
/// `clock`, `faults`) contribute their full `Debug` rendering.
pub fn fingerprint(cfg: &SystemConfig, bench: Bench, limit: RunLimit) -> u64 {
    let SystemConfig {
        scheme,
        oram,
        hierarchy,
        dram,
        t_interval,
        timing_protection,
        clock,
        rob_insts,
        ipc,
        mshrs,
        l1_hit_lat,
        llc_hit_lat,
        front_hit_lat,
        decrypt_lat,
        subtree_group,
        seed,
        audit,
        faults,
        refetch_lat,
        stash_hard_limit,
        sched_threads,
        pipeline_depth,
        checkpoint_interval,
    } = cfg;
    let key = format!(
        "scheme={scheme:?}|oram={oram:?}|hierarchy={hierarchy:?}|dram={dram:?}\
         |t_interval={t_interval}|timing_protection={timing_protection}\
         |clock={clock:?}|rob_insts={rob_insts}|ipc={ipc}|mshrs={mshrs}\
         |l1_hit_lat={l1_hit_lat}|llc_hit_lat={llc_hit_lat}\
         |front_hit_lat={front_hit_lat}|decrypt_lat={decrypt_lat}\
         |subtree_group={subtree_group}|seed={seed}|audit={audit}\
         |faults={faults:?}|refetch_lat={refetch_lat}\
         |stash_hard_limit={stash_hard_limit}|sched_threads={sched_threads}\
         |pipeline_depth={pipeline_depth}|checkpoint_interval={checkpoint_interval}\
         |{bench:?}|{}",
        limit.mem_ops
    );
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// An append-only journal file plus the fingerprints it already contains.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    done: BTreeMap<u64, SimReport>,
    // lint: allow(thread-order, append-only journal writer shared with par_map workers; one line per finished cell, order-independent by fingerprint)
    writer: Mutex<std::fs::File>,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path` and indexes every
    /// well-formed line already present. Malformed or truncated lines —
    /// e.g. a torn final write from a killed run — are skipped, not fatal.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be opened for append.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let mut done = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(path) {
            for line in text.lines() {
                if let Some((fp, report)) = decode_line(line) {
                    done.insert(fp, report);
                }
            }
        }
        let writer = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Journal {
            path: path.to_owned(),
            done,
            // lint: allow(thread-order, append-only journal writer shared with par_map workers; one line per finished cell, order-independent by fingerprint)
            writer: Mutex::new(writer),
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of cells already recorded.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether no cells are recorded yet.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// The stored report for `fp`, if this cell already finished.
    pub fn lookup(&self, fp: u64) -> Option<SimReport> {
        self.done.get(&fp).cloned()
    }

    /// Appends one finished cell. The line is flushed immediately so a
    /// killed process loses at most the cell in flight.
    pub fn record(&self, fp: u64, report: &SimReport) {
        let line = encode_line(fp, report);
        let mut file = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Journal append failures must not kill the sweep mid-run; the
        // worst case is re-simulating this cell on resume.
        let _ = writeln!(file, "{line}");
        let _ = file.flush();
    }

    /// Rewrites the journal as exactly one line per distinct cell, dropping
    /// duplicate lines (cells re-recorded across interrupted runs) and any
    /// malformed lines skipped at open. Written atomically: a temp sibling
    /// is written, synced, and renamed over the journal, so a kill during
    /// compaction leaves either the old or the new file, never a torn one.
    /// Call after a matrix completes — mid-sweep the append-only form is
    /// the crash-safety mechanism.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the rewrite fails; the original journal is
    /// left untouched in that case.
    pub fn compact(&self) -> std::io::Result<()> {
        // Hold the append lock for the whole read-rewrite-rename so a
        // concurrent `record` can neither be dropped from the rewrite nor
        // land on the file being replaced. `record` flushes every line, so
        // the file is the complete, current state.
        let mut file = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut cells: BTreeMap<u64, SimReport> = BTreeMap::new();
        for line in std::fs::read_to_string(&self.path)?.lines() {
            if let Some((fp, report)) = decode_line(line) {
                cells.insert(fp, report);
            }
        }
        let tmp = self.path.with_extension("jsonl.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            for (fp, report) in &cells {
                writeln!(f, "{}", encode_line(*fp, report))?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Reopen the writer: the old handle would keep appending to the
        // unlinked inode.
        *file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        Ok(())
    }
}

/// A type the journal stores: one JSON encoding and its inverse.
trait Codec: Sized {
    fn encode(&self) -> Json;
    fn decode(j: &Json) -> Option<Self>;
}

impl Codec for u64 {
    fn encode(&self) -> Json {
        Json::from(*self)
    }
    fn decode(j: &Json) -> Option<Self> {
        j.as_u64()
    }
}

impl Codec for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }
    fn decode(j: &Json) -> Option<Self> {
        j.as_str().map(str::to_owned)
    }
}

impl Codec for Scheme {
    fn encode(&self) -> Json {
        Json::from(self.name())
    }
    fn decode(j: &Json) -> Option<Self> {
        ALL_SCHEMES.into_iter().find(|s| Some(s.name()) == j.as_str())
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }
    fn decode(j: &Json) -> Option<Self> {
        match j {
            Json::Arr(items) => items.iter().map(T::decode).collect(),
            _ => None,
        }
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }
    fn decode(j: &Json) -> Option<Self> {
        match j {
            Json::Null => Some(None),
            j => T::decode(j).map(Some),
        }
    }
}

/// Field `key` of `obj`, or `default` when the key is absent.
fn field<T: Codec>(obj: &Json, key: &str, default: Option<T>) -> Option<T> {
    obj.get(key).map_or(default, T::decode)
}

/// Implements [`Codec`] for a struct as an object keyed by field name.
/// One field list serves both directions, and the decoder's struct
/// literal is exhaustive, so a new field that is not listed here fails to
/// compile. `field = default` marks a field that older journals lack.
macro_rules! struct_codec {
    ($ty:path { $($f:ident $(= $default:expr)?),* $(,)? }) => {
        impl Codec for $ty {
            fn encode(&self) -> Json {
                Json::obj(vec![$((stringify!($f), self.$f.encode())),*])
            }
            fn decode(j: &Json) -> Option<Self> {
                Some(Self { $($f: field(j, stringify!($f), None $(.or(Some($default)))?)?),* })
            }
        }
    };
}

struct_codec!(SimReport {
    scheme, workload, cycles, instructions, mem_ops, protocol, protocol_small, slots, dram,
    hierarchy, dwb, faults, stash,
});
struct_codec!(iroram_protocol::ProtocolStats {
    accesses, fstash_hits, sstash_hits, escrow_hits, treetop_hits, pos1_paths, pos2_paths,
    data_paths, bg_evict_paths, dummy_paths, served_level, served_stash, blocks_from_memory,
    blocks_to_memory, sstash_rejects, delayed_inserts,
});
struct_codec!(ir_oram::SlotStats {
    total_slots, real_slots, bg_slots, dummy_slots, converted_slots,
});
struct_codec!(iroram_dram::DramStats {
    row_hits, row_empties, row_conflicts, requests, reads, writes, total_latency,
    bus_busy_cycles, last_completion,
});
struct_codec!(iroram_cache::HierarchyStats {
    accesses, reads, writes, l1_hits, llc_hits, misses, read_misses, write_misses,
    dirty_writebacks,
});
struct_codec!(ir_oram::DwbStats {
    converted_slots, converted_posmap, converted_data, completed, aborted,
});
struct_codec!(FaultStats {
    injected_corruptions, detected, recovered, undetected, bank_stalls, stall_cycles, storms,
    mangled_records, rejected_records, refetch_penalty_cycles,
});
// Journals written before degradation accounting lack the last two.
struct_codec!(StashPressure {
    soft_capacity, max_occupancy, overflow_slots, bg_escalations, degraded_slots = 0,
    throttled_admissions = 0,
});

fn encode_line(fp: u64, r: &SimReport) -> String {
    Json::obj(vec![("fp", Json::Str(format!("{fp:016x}"))), ("report", r.encode())]).write()
}

fn decode_line(line: &str) -> Option<(u64, SimReport)> {
    let v = json::parse(line)?;
    let fp = u64::from_str_radix(v.get("fp")?.as_str()?, 16).ok()?;
    Some((fp, SimReport::decode(v.get("report")?)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_oram::Simulation;

    fn small_report() -> SimReport {
        let opts = crate::ExpOptions::quick();
        let mut cfg = opts.system(Scheme::IrOram);
        cfg.oram.levels = 10;
        cfg.oram.data_blocks = 1 << 11;
        cfg.oram.zalloc = iroram_protocol::ZAllocation::uniform(10, 4);
        cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: 4 };
        let cfg = cfg.with_scheme(Scheme::IrOram);
        Simulation::run_bench(&cfg, Bench::Gcc, RunLimit::mem_ops(800))
    }

    #[test]
    fn report_round_trips_exactly() {
        let r = small_report();
        let line = encode_line(7, &r);
        let (fp, back) = decode_line(&line).expect("decodes");
        assert_eq!(fp, 7);
        assert_eq!(format!("{back:?}"), format!("{r:?}"));
    }

    #[test]
    fn escaped_workload_and_u64_max_round_trip() {
        let mut r = small_report();
        r.workload = "q\"uote b\\ack\ttab é€😀".to_owned();
        r.dram.total_latency = u64::MAX;
        let (_, back) = decode_line(&encode_line(u64::MAX, &r)).expect("decodes");
        assert_eq!(back.workload, r.workload);
        assert_eq!(back.dram.total_latency, u64::MAX);
        assert_eq!(format!("{back:?}"), format!("{r:?}"));
    }

    /// A line as the previous hand-rolled writer emitted it (fig2
    /// `--quick`, first cell).
    const LEGACY_LINE: &str = r#"{"fp":"233a5e4795b9e0f8","report":{"scheme":"Baseline","workload":"ima","cycles":101084,"instructions":82988,"mem_ops":4000,"protocol":{"accesses":0,"fstash_hits":0,"sstash_hits":0,"escrow_hits":0,"treetop_hits":0,"pos1_paths":32,"pos2_paths":2,"data_paths":143,"bg_evict_paths":0,"dummy_paths":15,"served_level":[0,0,0,0,0,0,0,1,1,3,14,158],"served_stash":0,"blocks_from_memory":6144,"blocks_to_memory":6144,"sstash_rejects":0,"delayed_inserts":0},"protocol_small":null,"slots":{"total_slots":192,"real_slots":177,"bg_slots":0,"dummy_slots":15,"converted_slots":0},"dram":{"row_hits":11452,"row_empties":32,"row_conflicts":804,"requests":12288,"reads":6144,"writes":6144,"total_latency":1077420,"bus_busy_cycles":49152,"last_completion":25271},"hierarchy":{"accesses":4000,"reads":2671,"writes":1329,"l1_hits":3776,"llc_hits":82,"misses":142,"read_misses":19,"write_misses":123,"dirty_writebacks":1},"dwb":null,"faults":{"injected_corruptions":0,"detected":0,"recovered":0,"undetected":0,"bank_stalls":0,"stall_cycles":0,"storms":0,"mangled_records":0,"rejected_records":0,"refetch_penalty_cycles":0},"stash":{"soft_capacity":200,"max_occupancy":21,"overflow_slots":0,"bg_escalations":0,"degraded_slots":0,"throttled_admissions":0}}}"#;

    #[test]
    fn legacy_writer_lines_still_decode() {
        let (fp, r) = decode_line(LEGACY_LINE).expect("decodes");
        assert_eq!(fp, 0x233a_5e47_95b9_e0f8);
        assert_eq!((r.scheme, r.workload.as_str(), r.cycles), (Scheme::Baseline, "ima", 101_084));
        assert_eq!(r.protocol.served_level.len(), 12);
        // The codec writes the same bytes the old writer did.
        assert_eq!(encode_line(fp, &r), LEGACY_LINE);
        // Journals from before degradation accounting lack two stash keys.
        let older = LEGACY_LINE.replace(",\"degraded_slots\":0,\"throttled_admissions\":0", "");
        assert_ne!(older, LEGACY_LINE);
        let (_, r2) = decode_line(&older).expect("decodes without degraded_slots");
        assert_eq!(format!("{r2:?}"), format!("{r:?}"));
    }

    #[test]
    fn rho_report_round_trips_with_small_tree() {
        let opts = crate::ExpOptions::quick();
        let mut cfg = opts.system(Scheme::Rho);
        cfg.oram.levels = 10;
        cfg.oram.data_blocks = 1 << 11;
        cfg.oram.zalloc = iroram_protocol::ZAllocation::uniform(10, 4);
        cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: 4 };
        let cfg = cfg.with_scheme(Scheme::Rho);
        let r = Simulation::run_bench(&cfg, Bench::Mcf, RunLimit::mem_ops(600));
        assert!(r.protocol_small.is_some());
        let (_, back) = decode_line(&encode_line(1, &r)).expect("decodes");
        assert_eq!(format!("{back:?}"), format!("{r:?}"));
    }

    #[test]
    fn malformed_lines_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("iroram-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let r = small_report();
        let good = encode_line(42, &r);
        let torn = &good[..good.len() / 2];
        std::fs::write(&path, format!("{good}\nnot json at all\n{torn}\n")).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        assert!(j.lookup(42).is_some());
        assert!(j.lookup(43).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_then_reopen_finds_the_cell() {
        let dir = std::env::temp_dir().join(format!("iroram-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.jsonl");
        std::fs::remove_file(&path).ok();
        let r = small_report();
        let j = Journal::open(&path).unwrap();
        j.record(99, &r);
        j.record(100, &r);
        drop(j);
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.len(), 2);
        assert_eq!(format!("{:?}", j2.lookup(99).unwrap()), format!("{r:?}"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_dedupes_and_preserves_every_cell() {
        let dir = std::env::temp_dir().join(format!("iroram-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compact.jsonl");
        std::fs::remove_file(&path).ok();
        let r = small_report();
        // Duplicate lines (the same cell re-recorded across interrupted
        // runs) plus garbage, as a crashed-and-resumed sweep leaves behind.
        let good = encode_line(7, &r);
        std::fs::write(
            &path,
            format!("{good}\n{good}\nnot json\n{}\n{good}\n", encode_line(8, &r)),
        )
        .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2);
        j.compact().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "one line per distinct cell");
        // Appending still works after compaction (the writer is reopened on
        // the new inode).
        j.record(9, &r);
        drop(j);
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.len(), 3);
        assert!(j2.lookup(7).is_some() && j2.lookup(8).is_some() && j2.lookup(9).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_separates_cells() {
        let opts = crate::ExpOptions::quick();
        let a = opts.system(Scheme::Baseline);
        let b = opts.system(Scheme::IrOram);
        let lim = RunLimit::mem_ops(100);
        assert_ne!(fingerprint(&a, Bench::Gcc, lim), fingerprint(&b, Bench::Gcc, lim));
        assert_ne!(
            fingerprint(&a, Bench::Gcc, lim),
            fingerprint(&a, Bench::Mcf, lim)
        );
        assert_ne!(
            fingerprint(&a, Bench::Gcc, lim),
            fingerprint(&a, Bench::Gcc, RunLimit::mem_ops(101))
        );
        assert_eq!(
            fingerprint(&a, Bench::Gcc, lim),
            fingerprint(&opts.system(Scheme::Baseline), Bench::Gcc, lim)
        );
    }
}
