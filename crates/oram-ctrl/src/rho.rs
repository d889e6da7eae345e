//! The ρ (relaxed hierarchical ORAM) baseline \[23\]: the ρ path source of
//! the timed controller.
//!
//! ρ adds a second, smaller ORAM tree that absorbs most accesses: recently
//! used blocks live in the small tree (cheap paths), cold blocks in the main
//! tree. To defend the timing channel with two path lengths, paths issue in
//! a **fixed pattern** — the paper evaluates 1 main-tree access per 2
//! small-tree accesses — with dummies of the matching kind inserted when a
//! slot has no real work. The main tree runs the delayed remapping policy
//! (a block fetched into the small tree leaves the main tree and is
//! re-inserted when evicted from the small tree).
//!
//! This models exactly the behaviour the paper measures against: the
//! average win from cheaper small-tree paths, and the pathology on
//! low-locality benchmarks (mcf) where most requests need scarce main-tree
//! slots and the fixed pattern inflates dummy traffic.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use iroram_dram::{PathTable, SubtreeLayout};
use iroram_protocol::{BlockAddr, OramConfig, PathOram, RemapPolicy, TreeTopMode, ZAllocation};
use iroram_sim_engine::{profiler, Cycle, SnapError, SnapReader, SnapWriter};

use crate::controller::{
    finish_wb, restore_addr_deque, restore_req, restore_work, save_addr_deque, save_req, save_work,
    Ctx, Pick, Work,
};
use crate::{OramRequest, SimError, SystemConfig};

/// Small-tree work: pending PosMap fetches, then the slot's data access.
/// A demand hit carries its request; an install of a freshly fetched
/// block carries none.
#[derive(Debug)]
struct SmallWork {
    req: Option<OramRequest>,
    slot: u64,
    pm: VecDeque<BlockAddr>,
}

/// ρ's second, smaller tree and where its paths land in DRAM.
#[derive(Debug)]
pub(crate) struct SmallTree {
    /// Small-tree protocol (immediate remapping, on-chip position map).
    pub(crate) oram: PathOram,
    /// Precomputed path→line-address table of the small tree.
    pub(crate) table: PathTable,
    /// First DRAM line of the small tree's region (after the main tree's).
    pub(crate) offset: u64,
}

/// The ρ path source: the small tree, its directory and LRU, the reuse
/// filter, the main/small queues and the 1:2 pattern index.
#[derive(Debug)]
pub(crate) struct RhoSource {
    pub(crate) small: SmallTree,
    /// small slot → resident data address.
    slots: Vec<Option<u64>>,
    /// data address → small slot.
    directory: BTreeMap<u64, u64>,
    last_use: Vec<u64>,
    use_tick: u64,
    /// Position in the 1 main : 2 small pattern.
    slot_idx: u64,
    main_queue: VecDeque<Work>,
    current_main: Option<Work>,
    small_queue: VecDeque<SmallWork>,
    current_small: Option<SmallWork>,
    /// Recently missed addresses (install gate).
    // lint: allow(snapshot-drift, rebuilt from the serialized reuse_order deque on restore)
    reuse_filter: BTreeSet<u64>,
    reuse_order: VecDeque<u64>,
    // lint: allow(snapshot-drift, configuration; restore validates the snapshot against it)
    reuse_capacity: usize,
}

impl RhoSource {
    /// Builds the small tree (two levels shorter than `cfg.oram`, `Z=2`,
    /// fully on-chip position map) at DRAM line `small_offset`, with an
    /// empty directory.
    pub(crate) fn new(cfg: &SystemConfig, small_offset: u64) -> Self {
        let small_levels = cfg.oram.levels.saturating_sub(2).max(3);
        let small_cfg = OramConfig {
            levels: small_levels,
            data_blocks: 1u64 << (small_levels - 1),
            zalloc: ZAllocation::from_z(vec![2; small_levels]),
            treetop: TreeTopMode::None,
            stash_capacity: cfg.oram.stash_capacity,
            // Big enough to hold the whole small position map on-chip.
            plb_sets: 512,
            plb_ways: 4,
            remap: RemapPolicy::Immediate,
            max_bg_evicts_per_access: cfg.oram.max_bg_evicts_per_access,
            encrypt_payloads: cfg.oram.encrypt_payloads,
            integrity: cfg.oram.integrity,
            seed: cfg.oram.seed ^ 0x5A11,
        };
        let mut oram = PathOram::new(small_cfg);
        // Warm the small PLB so the on-chip position map never misses.
        let n_small = oram.config().data_blocks;
        for a in (0..n_small).step_by(16) {
            for pm in oram.posmap_resolve(BlockAddr(a)) {
                oram.fetch_posmap_block(pm);
            }
        }
        oram.reset_stats();
        let table = SubtreeLayout::new(&oram.layout().memory_z(0), cfg.subtree_group).path_table(0);
        let n_slots = n_small as usize;
        RhoSource {
            small: SmallTree {
                oram,
                table,
                offset: small_offset,
            },
            slots: vec![None; n_slots],
            directory: BTreeMap::new(),
            last_use: vec![0; n_slots],
            use_tick: 0,
            slot_idx: 0,
            main_queue: VecDeque::new(),
            current_main: None,
            small_queue: VecDeque::new(),
            current_small: None,
            reuse_filter: BTreeSet::new(),
            reuse_order: VecDeque::new(),
            reuse_capacity: 2 * n_slots,
        }
    }

    /// Demand-queue depth (in-progress work excluded).
    pub(crate) fn queue_len(&self) -> usize {
        self.main_queue.len() + self.small_queue.len()
    }

    /// Whether queued or in-progress work remains in either tree.
    pub(crate) fn has_work(&self) -> bool {
        self.current_main.is_some()
            || self.current_small.is_some()
            || !self.main_queue.is_empty()
            || !self.small_queue.is_empty()
    }

    fn touch(&mut self, slot: u64) {
        self.use_tick += 1;
        self.last_use[slot as usize] = self.use_tick;
    }

    /// On-chip front check: the small-tree stash for directory residents,
    /// the main stash otherwise.
    pub(crate) fn front_try(
        &mut self,
        cx: &mut Ctx<'_>,
        addr: BlockAddr,
        now: Cycle,
    ) -> Option<Cycle> {
        if let Some(&slot) = self.directory.get(&addr.0) {
            self.touch(slot);
            return self
                .small
                .oram
                .front_access(BlockAddr(slot), None)
                .map(|_| now + cx.front_hit_lat);
        }
        // Not small-resident → escrow cannot hit (escrow == small-resident),
        // so this only serves genuine main-stash residents.
        cx.front_try(addr, now)
    }

    /// Queues a demand request on the tree that holds its block.
    pub(crate) fn submit(&mut self, cx: &mut Ctx<'_>, req: OramRequest) {
        if let Some(&slot) = self.directory.get(&req.addr.0) {
            self.touch(slot);
            let pm = {
                let _p = profiler::enter(profiler::Phase::PosMap);
                self.small.oram.posmap_resolve(BlockAddr(slot)).into()
            };
            self.small_queue.push_back(SmallWork {
                req: Some(req),
                slot,
                pm,
            });
        } else {
            let pm: VecDeque<BlockAddr> = {
                let _p = profiler::enter(profiler::Phase::PosMap);
                cx.protocol.posmap_resolve(req.addr).into()
            };
            // Install only blocks with observed re-reference behaviour: a
            // miss whose address was missed before (within the filter
            // window) has mid-range reuse worth caching in the small tree;
            // a streaming sweep or a uniform-random probe does not.
            let install = self.reuse_filter.contains(&req.addr.0);
            self.remember_miss(req.addr.0);
            self.main_queue
                .push_back(Work::Request { req, pm, install });
        }
    }

    /// Records a missed address in the bounded reuse filter.
    fn remember_miss(&mut self, addr: u64) {
        if self.reuse_filter.insert(addr) {
            self.reuse_order.push_back(addr);
            if self.reuse_order.len() > self.reuse_capacity {
                if let Some(old) = self.reuse_order.pop_front() {
                    self.reuse_filter.remove(&old);
                }
            }
        }
    }

    /// LLC eviction notification.
    pub(crate) fn on_llc_eviction(
        &mut self,
        cx: &mut Ctx<'_>,
        addr: BlockAddr,
        dirty: bool,
        now: Cycle,
    ) {
        if self.directory.contains_key(&addr.0) {
            // Block is small-tree resident; its content is already owned by
            // the small tree (dirty data merges on the next small access).
            return;
        }
        if cx.protocol.is_escrowed(addr) {
            let pm = {
                let _p = profiler::enter(profiler::Phase::PosMap);
                cx.protocol.posmap_resolve(addr).into()
            };
            self.main_queue.push_back(Work::Wb { addr, pm });
        } else if dirty {
            // Still mapped in the main tree: a write access re-fetches it.
            let pm = {
                let _p = profiler::enter(profiler::Phase::PosMap);
                cx.protocol.posmap_resolve(addr).into()
            };
            self.main_queue.push_back(Work::Request {
                req: OramRequest {
                    id: u64::MAX,
                    addr,
                    arrival: now,
                    blocking: false,
                },
                pm,
                install: false,
            });
        }
    }

    /// Picks the path the slot issuing at `t` carries, following the
    /// 1 main : 2 small fixed pattern (the index advances on every slot,
    /// idle ones included).
    pub(crate) fn issue(
        &mut self,
        cx: &mut Ctx<'_>,
        t: Cycle,
        throttle: bool,
        storm: bool,
    ) -> Result<Pick, SimError> {
        let is_main = self.slot_idx.is_multiple_of(3);
        self.slot_idx += 1;
        if is_main {
            self.main_slot(cx, t, throttle, storm)
        } else {
            self.small_slot(cx, t, throttle, storm)
        }
    }

    /// Finds the path for a main-tree slot.
    fn main_slot(
        &mut self,
        cx: &mut Ctx<'_>,
        t: Cycle,
        throttle: bool,
        storm: bool,
    ) -> Result<Pick, SimError> {
        loop {
            if let Some(mut work) = self.current_main.take() {
                if let Some(pm_addr) = work.pm_mut().pop_front() {
                    let path = cx.fetch_posmap(pm_addr);
                    self.current_main = Some(work);
                    if let Some(path) = path {
                        return Ok(Pick::Real(path, false, None));
                    }
                    continue;
                }
                match work {
                    Work::Request { req, install, .. } => {
                        // A duplicate request may find the block already
                        // small-resident (escrowed) — serve it without a
                        // path.
                        if cx.protocol.is_escrowed(req.addr)
                            || self.directory.contains_key(&req.addr.0)
                            || cx.protocol.front_access(req.addr, None).is_some()
                        {
                            if req.blocking {
                                cx.complete_on_chip(req.id, t);
                            }
                            continue;
                        }
                        // Data phase: fetch, then install into the small
                        // tree — but only blocks showing locality (their
                        // PosMap₁ entry was PLB-resident). Installing every
                        // random-access block would churn the small tree
                        // with install/evict traffic for data that will
                        // never be re-referenced, which is not what ρ's
                        // hierarchy does for streaming / pointer-chasing
                        // workloads.
                        let path = cx.data_access(req.addr)?;
                        let completes = req.blocking.then_some(req.id);
                        if install {
                            self.schedule_install(cx.protocol, req.addr);
                        } else if cx.protocol.is_escrowed(req.addr) {
                            // Not worth caching: send it straight back to
                            // the main tree (a free stash insert under
                            // delayed remapping — the PosMap is already
                            // resolved).
                            cx.protocol.delayed_insert_block(req.addr)?;
                        }
                        match path {
                            Some(path) => return Ok(Pick::Real(path, false, completes)),
                            None => {
                                if let Some(id) = completes {
                                    cx.complete_on_chip(id, t);
                                }
                            }
                        }
                    }
                    Work::Wb { addr, .. } => finish_wb(cx, addr)?,
                }
                continue;
            }
            if !storm && cx.protocol.bg_evict_pending() {
                let _p = profiler::enter(profiler::Phase::Stash);
                return Ok(Pick::Bg(cx.protocol.bg_evict_once(), false));
            }
            // Degraded mode: queued work waits while background eviction
            // (which already outranks admission) drains the stash.
            if throttle || self.main_queue.is_empty() {
                return Ok(Pick::Idle {
                    small_tree: false,
                    throttled: throttle && !self.main_queue.is_empty(),
                });
            }
            self.current_main = self.main_queue.pop_front();
        }
    }

    /// Finds the path for a small-tree slot.
    fn small_slot(
        &mut self,
        cx: &mut Ctx<'_>,
        t: Cycle,
        throttle: bool,
        storm: bool,
    ) -> Result<Pick, SimError> {
        let small = &mut self.small.oram;
        loop {
            if let Some(SmallWork { req, slot, mut pm }) = self.current_small.take() {
                if let Some(pm_addr) = pm.pop_front() {
                    let rec = {
                        let _p = profiler::enter(profiler::Phase::PosMap);
                        small.fetch_posmap_block(pm_addr)
                    };
                    self.current_small = Some(SmallWork { req, slot, pm });
                    if let Some(&path) = rec.paths.first() {
                        return Ok(Pick::Real(path, true, None));
                    }
                    continue;
                }
                let rec = {
                    let _p = profiler::enter(profiler::Phase::Stash);
                    small.data_access(BlockAddr(slot), None)?
                };
                let completes = req.filter(|r| r.blocking).map(|r| r.id);
                match rec.paths.first() {
                    Some(&path) => return Ok(Pick::Real(path, true, completes)),
                    None => {
                        if let Some(id) = completes {
                            cx.complete_on_chip(id, t);
                        }
                        continue;
                    }
                }
            }
            if !storm && small.bg_evict_pending() {
                let _p = profiler::enter(profiler::Phase::Stash);
                return Ok(Pick::Bg(small.bg_evict_once(), true));
            }
            if throttle || self.small_queue.is_empty() {
                return Ok(Pick::Idle {
                    small_tree: true,
                    throttled: throttle && !self.small_queue.is_empty(),
                });
            }
            self.current_small = self.small_queue.pop_front();
        }
    }

    /// Allocates a small-tree slot for `addr` (evicting the LRU resident if
    /// needed) and enqueues the install path.
    fn schedule_install(&mut self, main: &mut PathOram, addr: BlockAddr) {
        let slot = match self.slots.iter().position(Option::is_none) {
            Some(free) => free as u64,
            None => {
                let victim = (0..self.slots.len())
                    .min_by_key(|&i| self.last_use[i])
                    .expect("small tree has slots") as u64;
                let old = self.slots[victim as usize].take().expect("occupied victim");
                self.directory.remove(&old);
                // The evicted block returns to the main tree.
                let pm = {
                    let _p = profiler::enter(profiler::Phase::PosMap);
                    main.posmap_resolve(BlockAddr(old)).into()
                };
                self.main_queue.push_back(Work::Wb {
                    addr: BlockAddr(old),
                    pm,
                });
                victim
            }
        };
        self.slots[slot as usize] = Some(addr.0);
        self.directory.insert(addr.0, slot);
        self.touch(slot);
        let pm = {
            let _p = profiler::enter(profiler::Phase::PosMap);
            self.small.oram.posmap_resolve(BlockAddr(slot)).into()
        };
        self.small_queue.push_back(SmallWork {
            req: None,
            slot,
            pm,
        });
    }

    /// Serializes ρ's own state (small tree, directory, LRU, pattern
    /// index, queues, reuse filter). The small tree's path table and
    /// offset are rebuilt from configuration.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        self.small.oram.save_state(w);
        w.put_usize(self.slots.len());
        for s in &self.slots {
            w.put_opt_u64(*s);
        }
        w.put_usize(self.directory.len());
        for (&addr, &slot) in &self.directory {
            w.put_u64(addr);
            w.put_u64(slot);
        }
        w.put_usize(self.last_use.len());
        for &tick in &self.last_use {
            w.put_u64(tick);
        }
        w.put_u64(self.use_tick);
        w.put_u64(self.slot_idx);
        w.put_usize(self.main_queue.len());
        for work in &self.main_queue {
            save_work(w, Some(work));
        }
        save_work(w, self.current_main.as_ref());
        w.put_usize(self.small_queue.len());
        for work in &self.small_queue {
            save_small_work(w, work);
        }
        match &self.current_small {
            None => w.put_u8(0),
            Some(work) => {
                w.put_u8(1);
                save_small_work(w, work);
            }
        }
        w.put_usize(self.reuse_order.len());
        for &addr in &self.reuse_order {
            w.put_u64(addr);
        }
    }

    /// Restores state written by [`RhoSource::save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] when the payload is malformed or inconsistent with
    /// this source's configuration (slot-table size, reuse-filter
    /// capacity).
    pub(crate) fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.small.oram.restore_state(r)?;
        let n = r.take_seq_len(1)?;
        if n != self.slots.len() {
            return Err(SnapError::Corrupt("small-tree slot table size mismatch"));
        }
        for s in &mut self.slots {
            *s = r.take_opt_u64()?;
        }
        let n = r.take_seq_len(16)?;
        if n > self.slots.len() {
            return Err(SnapError::Corrupt("directory larger than the slot table"));
        }
        self.directory.clear();
        let mut last_addr = None;
        for _ in 0..n {
            let addr = r.take_u64()?;
            let slot = r.take_u64()?;
            if last_addr.is_some_and(|prev| addr <= prev) {
                return Err(SnapError::Corrupt("directory entries out of order"));
            }
            last_addr = Some(addr);
            if slot as usize >= self.slots.len() {
                return Err(SnapError::Corrupt("directory points past the slot table"));
            }
            self.directory.insert(addr, slot);
        }
        let n = r.take_seq_len(8)?;
        if n != self.last_use.len() {
            return Err(SnapError::Corrupt("LRU table size mismatch"));
        }
        for tick in &mut self.last_use {
            *tick = r.take_u64()?;
        }
        self.use_tick = r.take_u64()?;
        self.slot_idx = r.take_u64()?;
        let n = r.take_seq_len(9)?;
        self.main_queue.clear();
        for _ in 0..n {
            let work = restore_work(r)?.ok_or(SnapError::Corrupt("empty main-queue entry"))?;
            self.main_queue.push_back(work);
        }
        self.current_main = restore_work(r)?;
        let n = r.take_seq_len(9)?;
        self.small_queue.clear();
        for _ in 0..n {
            let work = restore_small_work(r)?;
            self.small_queue.push_back(work);
        }
        self.current_small = match r.take_u8()? {
            0 => None,
            1 => Some(restore_small_work(r)?),
            _ => return Err(SnapError::Corrupt("bad current-small tag")),
        };
        let n = r.take_seq_len(8)?;
        if n > self.reuse_capacity {
            return Err(SnapError::Corrupt("reuse filter larger than its capacity"));
        }
        self.reuse_order.clear();
        self.reuse_filter.clear();
        for _ in 0..n {
            let addr = r.take_u64()?;
            if !self.reuse_filter.insert(addr) {
                return Err(SnapError::Corrupt("duplicate reuse-filter entry"));
            }
            self.reuse_order.push_back(addr);
        }
        Ok(())
    }
}

fn save_small_work(w: &mut SnapWriter, work: &SmallWork) {
    match &work.req {
        None => w.put_u8(0),
        Some(req) => {
            w.put_u8(1);
            save_req(w, req);
        }
    }
    w.put_u64(work.slot);
    save_addr_deque(w, &work.pm);
}

fn restore_small_work(r: &mut SnapReader<'_>) -> Result<SmallWork, SnapError> {
    let req = match r.take_u8()? {
        0 => None,
        1 => Some(restore_req(r)?),
        _ => return Err(SnapError::Corrupt("bad small-work tag")),
    };
    Ok(SmallWork {
        req,
        slot: r.take_u64()?,
        pm: restore_addr_deque(r)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::PathSource;
    use crate::{Scheme, TimedController};
    use iroram_cache::{HierarchyConfig, MemoryHierarchy};

    fn source(ctl: &TimedController) -> &RhoSource {
        match &ctl.source {
            PathSource::Rho(r) => r,
            PathSource::Single(_) => panic!("a ρ config builds the ρ source"),
        }
    }

    fn tiny_rho() -> (TimedController, MemoryHierarchy) {
        let mut cfg = SystemConfig::scaled(Scheme::Rho);
        cfg.oram.levels = 9;
        cfg.oram.data_blocks = 1 << 10;
        cfg.oram.zalloc = ZAllocation::uniform(9, 4);
        cfg.oram.treetop = TreeTopMode::Dedicated { levels: 3 };
        cfg.oram.plb_sets = 4;
        cfg.oram.plb_ways = 2;
        let cfg = cfg.with_scheme(Scheme::Rho);
        let h = MemoryHierarchy::new(HierarchyConfig {
            l1_sets: 8,
            l1_assoc: 2,
            llc_sets: 32,
            llc_assoc: 4,
        });
        (TimedController::new(&cfg), h)
    }

    #[test]
    fn re_referenced_block_installs_into_small_tree() {
        let (mut rho, mut h) = tiny_rho();
        let addr = BlockAddr(17);
        if rho.front_try(addr, Cycle(0)).is_some() {
            return;
        }
        // First touch: PLB cold → no locality signal → no install.
        rho.submit(OramRequest {
            id: 1,
            addr,
            arrival: Cycle(0),
            blocking: true,
        });
        let done = rho.advance_until_complete(1, &mut h).unwrap();
        assert!(done > Cycle(0));
        rho.drain(&mut h).unwrap();
        assert!(
            !source(&rho).directory.contains_key(&addr.0),
            "cold first touch must not install"
        );
        // Second touch: the PosMap1 entry is PLB-resident → install.
        if rho.front_try(addr, Cycle(1_000_000)).is_none() {
            rho.submit(OramRequest {
                id: 2,
                addr,
                arrival: Cycle(1_000_000),
                blocking: true,
            });
            rho.advance_until_complete(2, &mut h).unwrap();
            rho.drain(&mut h).unwrap();
            assert!(
                source(&rho).directory.contains_key(&addr.0),
                "re-referenced block installs in the small tree"
            );
            assert!(rho.protocol.is_escrowed(addr), "left the main tree");
        }
    }

    #[test]
    fn small_resident_access_avoids_main_tree() {
        let (mut rho, mut h) = tiny_rho();
        let addr = BlockAddr(33);
        // Touch twice so the block installs (locality gate).
        let mut id = 0;
        for t in [0u64, 1_000_000] {
            if rho.front_try(addr, Cycle(t)).is_none() {
                id += 1;
                rho.submit(OramRequest {
                    id,
                    addr,
                    arrival: Cycle(t),
                    blocking: true,
                });
                rho.advance_until_complete(id, &mut h).unwrap();
                rho.drain(&mut h).unwrap();
            }
        }
        if !source(&rho).directory.contains_key(&addr.0) {
            return; // served on-chip throughout; nothing to check
        }
        let main_data_before = rho.protocol.stats().data_paths;
        // Re-access: must be served without main-tree data paths.
        if rho.front_try(addr, Cycle(2_000_000)).is_none() {
            rho.submit(OramRequest {
                id: 99,
                addr,
                arrival: Cycle(2_000_000),
                blocking: true,
            });
            rho.advance_until_complete(99, &mut h).unwrap();
        }
        assert_eq!(
            rho.protocol.stats().data_paths,
            main_data_before,
            "small-tree hit must not touch the main tree"
        );
    }

    #[test]
    fn fixed_pattern_issues_dummies_of_both_kinds() {
        let (mut rho, mut h) = tiny_rho();
        for _ in 0..30 {
            rho.process_slot(&mut h).unwrap();
        }
        assert_eq!(rho.slot_stats().dummy_slots, 30);
        assert!(rho.protocol.stats().dummy_paths >= 9);
        assert!(
            rho.small_protocol()
                .expect("small tree")
                .stats()
                .dummy_paths
                >= 19
        );
    }

    #[test]
    fn small_tree_eviction_writes_back_to_main() {
        let (mut rho, mut h) = tiny_rho();
        let capacity = source(&rho).slots.len();
        // Fill the small tree beyond capacity (two passes: the locality
        // gate installs on the second touch).
        let mut id = 0;
        for pass in 0..2u64 {
            for a in 0..(capacity as u64 + 4) {
                let addr = BlockAddr(a);
                if rho.front_try(addr, Cycle(pass)).is_none() {
                    id += 1;
                    rho.submit(OramRequest {
                        id,
                        addr,
                        arrival: Cycle(pass),
                        blocking: false,
                    });
                }
            }
            rho.drain(&mut h).unwrap();
        }
        assert!(
            source(&rho).directory.len() <= capacity,
            "directory bounded by small-tree capacity"
        );
        // Evicted blocks must be back in the main tree (not escrowed).
        let escrowed: usize = rho.protocol.escrowed().count();
        assert_eq!(
            escrowed,
            source(&rho).directory.len(),
            "escrow == small residents"
        );
    }

    #[test]
    fn small_plb_is_warm() {
        let (rho, _) = tiny_rho();
        let (hits, misses) = rho.small_protocol().expect("small tree").plb_counters();
        assert_eq!(hits, 0, "stats were reset after warmup");
        assert_eq!(misses, 0);
    }
}
