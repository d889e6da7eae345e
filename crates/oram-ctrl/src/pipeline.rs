//! The k-deep access pipeline of the timed controller.
//!
//! The serial controller issues one path access at a time: each slot's
//! issue time is floored at the previous access's read completion
//! (`next_slot = (t + T).max(read_floor)`). With
//! [`SystemConfig::pipeline_depth`](crate::SystemConfig) `= k > 1`, up to
//! `k` accesses are in flight at once:
//!
//! * **Pacing** — the floor comes from the access `k` slots back (a
//!   [`FloorRing`] of recent read floors), so request `i+1`'s path read
//!   overlaps request `i`'s write-back across the DRAM channels. The
//!   issue *rate* is still one slot per `T` cycles minimum, and the floor
//!   is derived only from DRAM read completions — the same
//!   workload-independent quantities as the serial rule — so the timing
//!   channel argument is unchanged.
//! * **Write deferral** — the write-back batch of slot `i` is not handed
//!   to the memory controller until slot `i+1`'s read batch has been
//!   scheduled, so in the per-bank queues the younger *read* outranks the
//!   older *write* (the read-priority write buffer every real memory
//!   controller implements). Serially the calls land read/write/read/
//!   write…, which silently serializes consecutive paths on every shared
//!   bank; deferral is what makes the overlap the pacing rule permits
//!   actually materialize. At most one batch is deferred at a time — each
//!   slot flushes its predecessor — so the write backlog is bounded and
//!   the bank state still throttles issue through the read floor.
//! * **Conflicts** — two in-flight paths that share a memory-backed bucket
//!   (decided by [`PathTable::paths_share_memory_bucket`]) would race on
//!   that bucket's slots, so the younger path's DRAM batch is held until
//!   the older path's write-back retires. Functionally the younger
//!   access's blocks simply wait in the stash escrow (delayed remap) or
//!   F-Stash until then — the protocol state machine is already serial, so
//!   only the modeled timing must account for the hold. A conflict with
//!   the still-deferred batch flushes it first (write-before-read on a
//!   genuinely shared bucket), then holds the read at its completion.
//! * **Speculation** — while request `i` occupies the protocol, request
//!   `i+1`'s PosMap resolution is performed speculatively so its first
//!   path can issue the moment a slot frees. A mismatch (the speculated
//!   request was served on-chip meanwhile) discards the cached resolution.
//!
//! Depth 1 (the default) takes none of these paths: the controller keeps
//! the verbatim serial assignment, which is what makes depth-1 reports
//! byte-identical to pre-pipeline builds. The [`serial`] switch forces
//! depth 1 regardless of configuration — the reference twin used by the
//! equivalence suite, mirroring `iroram_dram::reference`.

use std::collections::VecDeque;

use iroram_dram::PathTable;
use iroram_protocol::BlockAddr;
use iroram_sim_engine::{Cycle, FloorRing, SnapError, SnapReader, SnapWriter};

/// One scheduled-but-unretired path access.
#[derive(Debug, Clone, Copy)]
struct InFlightPath {
    /// Leaf of the path (within its tree).
    leaf: u64,
    /// Which tree the path belongs to (ρ's small tree vs main; always
    /// `false` for single-tree schemes). Paths in different trees
    /// occupy disjoint DRAM regions and never conflict.
    small_tree: bool,
    /// DRAM-clock time the path's write phase retires.
    write_done: Cycle,
}

/// Metadata of the one write-back batch currently deferred behind the
/// next slot's read (the request buffer itself lives in the controller's
/// reusable scratch).
#[derive(Debug, Clone, Copy)]
pub struct PendingWrite {
    /// Leaf of the path whose write-back is deferred.
    pub leaf: u64,
    /// Tree the path belongs to.
    pub small_tree: bool,
    /// DRAM-clock read completion of the path — the arrival the write
    /// batch carries when it is eventually flushed.
    pub read_done: Cycle,
}

/// Counters the pipeline accumulates (surfaced via controller accessors;
/// deliberately *not* part of `SimReport`, whose encoding is frozen).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Bucket-sharing conflicts that held a path's DRAM batch.
    pub conflicts: u64,
    /// Speculative PosMap resolutions consumed by the request they
    /// predicted.
    pub spec_hits: u64,
    /// Speculative resolutions discarded (request served on-chip first, or
    /// a different request arrived).
    pub spec_misses: u64,
    /// Write-back batches deferred behind the following read batch.
    pub deferred_writes: u64,
}

/// Pipeline state of the timed controller. Exists only at effective depth
/// ≥ 2 — a depth-1 controller carries `None` and runs the untouched serial
/// code path.
#[derive(Debug)]
pub struct PipelineState {
    ring: FloorRing,
    inflight: VecDeque<InFlightPath>,
    spec: Option<(BlockAddr, VecDeque<BlockAddr>)>,
    pending: Option<PendingWrite>,
    stats: PipelineStats,
}

impl PipelineState {
    /// Pipeline state for `cfg_depth`, or `None` when the effective depth
    /// (after the [`serial`] force switch) is 1 and the serial code path
    /// should run.
    pub fn new(cfg_depth: u32) -> Option<PipelineState> {
        let depth = effective_depth(cfg_depth);
        (depth > 1).then(|| PipelineState {
            ring: FloorRing::new(depth),
            inflight: VecDeque::with_capacity(depth as usize),
            spec: None,
            pending: None,
            stats: PipelineStats::default(),
        })
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Applies the depth-k pacing rule for a slot issued at `t` whose read
    /// phase floors at `read_floor`: records the floor and returns the next
    /// slot time `(t + t_interval).max(oldest floor in the window)`.
    pub fn pace(&mut self, t: Cycle, t_interval: u64, read_floor: Cycle) -> Cycle {
        self.ring.push(read_floor);
        (t + t_interval).max(self.ring.floor())
    }

    /// Checks the new path to `leaf` against unretired in-flight paths of
    /// the same tree; on a shared memory bucket, returns the held DRAM
    /// arrival (the latest conflicting write-back retirement) and counts
    /// the conflict. `arrival` is the un-held DRAM arrival of the new path.
    pub fn conflict_hold(
        &mut self,
        table: &PathTable,
        leaf: u64,
        small_tree: bool,
        arrival: Cycle,
    ) -> Option<Cycle> {
        let hold = self
            .inflight
            .iter()
            .filter(|p| {
                p.small_tree == small_tree
                    && p.write_done > arrival
                    && table.paths_share_memory_bucket(p.leaf, leaf)
            })
            .map(|p| p.write_done)
            .max()?;
        self.stats.conflicts += 1;
        Some(hold)
    }

    /// Records a just-scheduled path as in flight; at most `depth` paths
    /// are tracked (older ones have retired by the pacing rule).
    pub fn record(&mut self, leaf: u64, small_tree: bool, write_done: Cycle) {
        if self.inflight.len() == self.ring.depth() {
            self.inflight.pop_front();
        }
        self.inflight.push_back(InFlightPath {
            leaf,
            small_tree,
            write_done,
        });
    }

    /// Defers a just-read path's write-back: the controller keeps the
    /// batch in its scratch buffer and flushes it only after the next
    /// slot's read has been scheduled. At most one batch is ever pending
    /// (the previous one is flushed before this is called).
    pub fn stash_write(&mut self, leaf: u64, small_tree: bool, read_done: Cycle) {
        debug_assert!(self.pending.is_none(), "unflushed write batch");
        self.pending = Some(PendingWrite {
            leaf,
            small_tree,
            read_done,
        });
        self.stats.deferred_writes += 1;
    }

    /// Takes the deferred write-back's metadata for flushing, if any.
    pub fn take_pending(&mut self) -> Option<PendingWrite> {
        self.pending.take()
    }

    /// Whether a new path to `leaf` shares a memory bucket with the
    /// still-deferred write batch of the same tree — if so the caller must
    /// flush that batch *before* scheduling the read (write-before-read on
    /// a genuinely shared bucket) and the event counts as a conflict.
    pub fn pending_conflicts(&mut self, table: &PathTable, leaf: u64, small_tree: bool) -> bool {
        let hit = self.pending.as_ref().is_some_and(|p| {
            p.small_tree == small_tree && table.paths_share_memory_bucket(p.leaf, leaf)
        });
        // lint: allow(secret-flow, conflict bookkeeping on revealed leaves; both operands are public path addresses)
        if hit {
            self.stats.conflicts += 1;
        }
        hit
    }

    /// Caches a speculative PosMap resolution for the predicted next
    /// request `addr`.
    pub fn set_spec(&mut self, addr: BlockAddr, pm: VecDeque<BlockAddr>) {
        self.spec = Some((addr, pm));
    }

    /// Consumes the speculative resolution if it predicted `addr`; a
    /// mismatch discards it (the caller resolves normally).
    pub fn take_spec(&mut self, addr: BlockAddr) -> Option<VecDeque<BlockAddr>> {
        match self.spec.take() {
            Some((spec_addr, pm)) if spec_addr == addr => {
                self.stats.spec_hits += 1;
                Some(pm)
            }
            Some(_) => {
                self.stats.spec_misses += 1;
                None
            }
            None => None,
        }
    }

    /// Whether a speculative resolution is already cached.
    pub fn has_spec(&self) -> bool {
        self.spec.is_some()
    }

    /// Serializes the pipeline's logical state (floor ring, in-flight
    /// paths, cached speculation, deferred-write metadata, counters) for a
    /// checkpoint snapshot.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.ring.save_state(w);
        w.put_usize(self.inflight.len());
        for p in &self.inflight {
            w.put_u64(p.leaf);
            w.put_bool(p.small_tree);
            w.put_u64(p.write_done.0);
        }
        match &self.spec {
            None => w.put_u8(0),
            Some((addr, pm)) => {
                w.put_u8(1);
                w.put_u64(addr.0);
                w.put_usize(pm.len());
                for a in pm {
                    w.put_u64(a.0);
                }
            }
        }
        match &self.pending {
            None => w.put_u8(0),
            Some(p) => {
                w.put_u8(1);
                w.put_u64(p.leaf);
                w.put_bool(p.small_tree);
                w.put_u64(p.read_done.0);
            }
        }
        w.put_u64(self.stats.conflicts);
        w.put_u64(self.stats.spec_hits);
        w.put_u64(self.stats.spec_misses);
        w.put_u64(self.stats.deferred_writes);
    }

    /// Restores state written by [`PipelineState::save_state`] into a
    /// freshly built pipeline of the same configured depth.
    ///
    /// # Errors
    ///
    /// [`SnapError`] when the payload is malformed or does not fit this
    /// pipeline's depth.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.ring.restore_state(r)?;
        let n = r.take_seq_len(17)?;
        if n > self.ring.depth() {
            return Err(SnapError::Corrupt("more in-flight paths than depth"));
        }
        self.inflight.clear();
        for _ in 0..n {
            let leaf = r.take_u64()?;
            let small_tree = r.take_bool()?;
            let write_done = Cycle(r.take_u64()?);
            self.inflight.push_back(InFlightPath {
                leaf,
                small_tree,
                write_done,
            });
        }
        self.spec = match r.take_u8()? {
            0 => None,
            1 => {
                let addr = BlockAddr(r.take_u64()?);
                let len = r.take_seq_len(8)?;
                let mut pm = VecDeque::with_capacity(len);
                for _ in 0..len {
                    pm.push_back(BlockAddr(r.take_u64()?));
                }
                Some((addr, pm))
            }
            _ => return Err(SnapError::Corrupt("bad speculation tag")),
        };
        self.pending = match r.take_u8()? {
            0 => None,
            1 => Some(PendingWrite {
                leaf: r.take_u64()?,
                small_tree: r.take_bool()?,
                read_done: Cycle(r.take_u64()?),
            }),
            _ => return Err(SnapError::Corrupt("bad pending-write tag")),
        };
        self.stats.conflicts = r.take_u64()?;
        self.stats.spec_hits = r.take_u64()?;
        self.stats.spec_misses = r.take_u64()?;
        self.stats.deferred_writes = r.take_u64()?;
        Ok(())
    }
}

/// The configured depth after clamping (`0` deserializes from field-absent
/// shims) and the [`serial`] force switch.
pub fn effective_depth(cfg_depth: u32) -> u32 {
    #[cfg(any(test, feature = "serial-pipeline"))]
    if serial::forced() {
        return 1;
    }
    cfg_depth.max(1)
}

/// Thread-local switch forcing every controller built while it is on to
/// the serial (depth-1) pipeline, whatever the config says — the reference
/// twin for differential tests, mirroring `iroram_dram::reference`.
#[cfg(any(test, feature = "serial-pipeline"))]
pub mod serial {
    use std::cell::Cell;

    thread_local! {
        static FORCE: Cell<bool> = const { Cell::new(false) };
    }

    /// Forces (or releases) the serial pipeline on this thread.
    pub fn force(on: bool) {
        FORCE.with(|f| f.set(on));
    }

    /// Whether the serial pipeline is forced on this thread.
    pub fn forced() -> bool {
        FORCE.with(Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_one_has_no_pipeline_state() {
        assert!(PipelineState::new(0).is_none());
        assert!(PipelineState::new(1).is_none());
        assert!(PipelineState::new(2).is_some());
    }

    #[test]
    fn force_serial_wins_over_config() {
        serial::force(true);
        assert_eq!(effective_depth(4), 1);
        assert!(PipelineState::new(4).is_none());
        serial::force(false);
        assert_eq!(effective_depth(4), 4);
    }

    #[test]
    fn pacing_overlaps_up_to_depth() {
        let mut p = PipelineState::new(2).expect("depth 2");
        // First access: a huge read floor does not stall the second slot.
        let next = p.pace(Cycle(1000), 500, Cycle(90_000));
        assert_eq!(next, Cycle(1500));
        // Second access: the first access's floor now binds.
        let next = p.pace(Cycle(1500), 500, Cycle(91_000));
        assert_eq!(next, Cycle(90_000));
    }

    #[test]
    fn conflicts_only_within_a_tree_and_while_unretired() {
        use iroram_dram::SubtreeLayout;
        let table = SubtreeLayout::new(&[4; 5], 2).path_table(2);
        let mut p = PipelineState::new(4).expect("depth 4");
        p.record(0b0000, false, Cycle(500));
        // Same top bucket, same tree, unretired: held until write_done.
        assert_eq!(p.conflict_hold(&table, 0b0001, false, Cycle(100)), Some(Cycle(500)));
        // Different tree: disjoint DRAM regions, no conflict.
        assert_eq!(p.conflict_hold(&table, 0b0001, true, Cycle(100)), None);
        // Disjoint top bucket: no shared memory bucket.
        assert_eq!(p.conflict_hold(&table, 0b1100, false, Cycle(100)), None);
        // Already retired by the new arrival: no hold.
        assert_eq!(p.conflict_hold(&table, 0b0001, false, Cycle(600)), None);
        assert_eq!(p.stats().conflicts, 1);
    }

    #[test]
    fn deferred_write_flushes_on_bucket_conflict_only() {
        use iroram_dram::SubtreeLayout;
        let table = SubtreeLayout::new(&[4; 5], 2).path_table(2);
        let mut p = PipelineState::new(2).expect("depth 2");
        assert!(p.take_pending().is_none());
        p.stash_write(0b0000, false, Cycle(700));
        // Disjoint top bucket or other tree: the batch stays deferred.
        assert!(!p.pending_conflicts(&table, 0b1100, false));
        assert!(!p.pending_conflicts(&table, 0b0001, true));
        // Shared bucket, same tree: flush-first, counted as a conflict.
        assert!(p.pending_conflicts(&table, 0b0001, false));
        let pw = p.take_pending().expect("pending");
        assert_eq!(
            (pw.leaf, pw.small_tree, pw.read_done),
            (0, false, Cycle(700))
        );
        assert!(p.take_pending().is_none(), "take drains");
        assert_eq!(p.stats().conflicts, 1);
        assert_eq!(p.stats().deferred_writes, 1);
    }

    #[test]
    fn speculation_hits_only_on_the_predicted_address() {
        let mut p = PipelineState::new(2).expect("depth 2");
        assert!(p.take_spec(BlockAddr(7)).is_none());
        p.set_spec(BlockAddr(7), VecDeque::from([BlockAddr(100)]));
        assert!(p.has_spec());
        assert_eq!(
            p.take_spec(BlockAddr(7)),
            Some(VecDeque::from([BlockAddr(100)]))
        );
        p.set_spec(BlockAddr(7), VecDeque::new());
        assert!(p.take_spec(BlockAddr(8)).is_none(), "mismatch discards");
        let s = p.stats();
        assert_eq!((s.spec_hits, s.spec_misses), (1, 1));
    }
}
