//! The host-speed reference: a fixed Path ORAM kernel that
//! belongs to the benchmark, not to the program, so no change to the
//! program moves it. Runs sample it between their timed pieces of work,
//! and each end-to-end time is scaled by how fast the reference ran on
//! either side of it against its nominal time.
//!
//! The shared host this benchmark was tuned on changes speed by up to
//! 1.5x from one minute to the next, and the simulator slows with it
//! while a plain arithmetic loop does not (`NOTES.md`). A kernel that does
//! what the simulator does (fill a tree of about the same size, then read
//! random paths into a stash and evict greedily back down them) slows by
//! a similar share, so the scaled times move with the program and much
//! less with the host.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Levels under the reference tree's root: 2^18 - 1 buckets of one
/// 64-byte line each (four block ids and their payload words), 16 MiB,
/// about the size of one simulator controller's tree.
const LEVELS: u32 = 17;
const SLOTS: usize = 4;
/// Words in a bucket: the slot ids, then two payload words per slot.
const WORDS: usize = 16;
/// Accesses in one sample, after the fill; a sample takes about 25 ms on
/// the reference host, half of it the fill.
const ACCESSES: usize = 10_000;
/// Median seconds of one sample on the reference host (`NOTES.md`).
/// Scaled times are what the run would have measured had the reference
/// run at this speed.
pub const NOMINAL_S: f64 = 0.025;

/// A Path ORAM over block ids: the tree, a position map and a stash.
struct Tree {
    buckets: Vec<[u32; WORDS]>,
    pos: Vec<u32>,
    /// Ids of the blocks held on the client side.
    stash: Vec<u32>,
    state: u64,
}

impl Tree {
    /// A full tree: every block in the deepest bucket of its path with a
    /// free slot (id 0 marks one), or in the stash. Seeded by a constant,
    /// so every sample does the same work.
    fn new() -> Self {
        let blocks = 1u32 << (LEVELS + 1);
        let mut t = Tree {
            buckets: vec![[0; WORDS]; (2usize << LEVELS) - 1],
            pos: vec![0; blocks as usize],
            stash: Vec::new(),
            state: 0x9E37_79B9_7F4A_7C15,
        };
        for id in 1..=blocks {
            let leaf = t.leaf();
            t.pos[id as usize - 1] = leaf;
            let free = (0..=LEVELS).rev().find_map(|depth| {
                let n = Self::bucket(leaf, depth);
                t.buckets[n][..SLOTS]
                    .iter()
                    .position(|&s| s == 0)
                    .map(|slot| (n, slot))
            });
            match free {
                Some((n, slot)) => t.put(n, slot, id),
                None => t.stash.push(id),
            }
        }
        t
    }

    /// xorshift64: the kernel draws its own numbers so that nothing in it
    /// comes from the program.
    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    fn leaf(&mut self) -> u32 {
        (self.next() as u32) & ((1 << LEVELS) - 1)
    }

    fn bucket(leaf: u32, depth: u32) -> usize {
        ((1usize << depth) - 1) + (leaf >> (LEVELS - depth)) as usize
    }

    /// Stores block `id` in `slot` of bucket `n`, with its payload.
    fn put(&mut self, n: usize, slot: usize, id: u32) {
        let leaf = self.pos[id as usize - 1];
        let b = &mut self.buckets[n];
        b[slot] = id;
        b[SLOTS + 2 * slot] = id.rotate_left(16);
        b[SLOTS + 2 * slot + 1] = leaf;
    }

    /// Writes the stash back along `leaf`'s path, deepest bucket first,
    /// each bucket taking the stashed blocks whose paths pass through it.
    fn evict(&mut self, leaf: u32) {
        for depth in (0..=LEVELS).rev() {
            let n = Self::bucket(leaf, depth);
            let (mut filled, mut i) = (0, 0);
            while i < self.stash.len() && filled < SLOTS {
                let id = self.stash[i];
                if self.pos[id as usize - 1] >> (LEVELS - depth) == leaf >> (LEVELS - depth) {
                    self.put(n, filled, id);
                    filled += 1;
                    self.stash.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            self.buckets[n][filled..SLOTS].fill(0);
        }
    }

    /// One access: remap a random block, read its path into the stash,
    /// evict along the same path.
    fn access(&mut self) {
        let block = (self.next() % self.pos.len() as u64) as usize;
        let leaf = self.pos[block];
        self.pos[block] = self.leaf();
        for depth in 0..=LEVELS {
            let n = Self::bucket(leaf, depth);
            self.stash
                .extend(self.buckets[n][..SLOTS].iter().filter(|&&id| id != 0));
        }
        self.evict(leaf);
    }
}

/// Seconds of one fresh tree's fill and [`ACCESSES`] accesses on it, as a
/// simulator cell builds its tree and then serves its accesses.
fn run_once() -> f64 {
    let t = Instant::now();
    let mut tree = Tree::new();
    for _ in 0..ACCESSES {
        tree.access();
    }
    black_box(tree.stash.len());
    t.elapsed().as_secs_f64()
}

/// The reference samples a run has taken.
pub struct Reference {
    /// Threads a sample runs on at once: as many as the measured work
    /// keeps busy.
    threads: usize,
    samples: Vec<f64>,
}

impl Reference {
    pub fn new(threads: usize) -> Self {
        Reference {
            threads: threads.max(1),
            samples: Vec::new(),
        }
    }

    /// Runs one sample and returns the host's slowdown over the interval
    /// since the previous sample: the mean of the two samples' times over
    /// [`NOMINAL_S`] (this sample's alone for the first). The times
    /// measured in that interval are divided by it, rates multiplied. On
    /// several threads, each runs the kernel on its own tree and the
    /// sample's time is the slowest thread's, as work fanned out over the
    /// threads waits for its slowest part.
    pub fn sample(&mut self) -> f64 {
        let secs = if self.threads == 1 {
            run_once()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..self.threads).map(|_| s.spawn(run_once)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a reference thread panicked"))
                    .fold(0.0, f64::max)
            })
        };
        let before = self.samples.last().copied().unwrap_or(secs);
        self.samples.push(secs);
        (before + secs) / 2.0 / NOMINAL_S
    }

    /// The median slowdown over the run's samples, or NaN before the
    /// first.
    pub fn median_slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            f64::NAN
        } else {
            median(&self.samples) / NOMINAL_S
        }
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_stays_in_the_tree_or_the_stash_on_its_path() {
        let mut t = Tree::new();
        for _ in 0..2_000 {
            t.access();
        }
        let mut seen = vec![false; t.pos.len()];
        for (n, bucket) in t.buckets.iter().enumerate() {
            // Bucket n sits at depth floor(log2(n + 1)).
            let depth = (n + 1).ilog2();
            for (slot, &id) in bucket[..SLOTS]
                .iter()
                .enumerate()
                .filter(|(_, &id)| id != 0)
            {
                let b = id as usize - 1;
                assert!(!seen[b], "block {b} stored twice");
                seen[b] = true;
                assert_eq!(Tree::bucket(t.pos[b], depth), n, "block {b} off its path");
                assert_eq!(bucket[SLOTS + 2 * slot + 1], t.pos[b], "stale payload");
            }
        }
        for &id in &t.stash {
            assert!(!seen[id as usize - 1]);
            seen[id as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s), "a block was lost");
    }

    #[test]
    fn a_sample_reports_the_mean_slowdown_since_the_previous_one() {
        let mut r = Reference::new(2);
        let first = r.sample();
        assert!((first - r.samples[0] / NOMINAL_S).abs() < 1e-12);
        let second = r.sample();
        let want = (r.samples[0] + r.samples[1]) / 2.0 / NOMINAL_S;
        assert!((second - want).abs() < 1e-12);
    }

    #[test]
    fn median_slowdown_is_the_median_sample_over_nominal() {
        let r = Reference {
            threads: 1,
            samples: vec![3.0 * NOMINAL_S, NOMINAL_S, 2.0 * NOMINAL_S],
        };
        assert!((r.median_slowdown() - 2.0).abs() < 1e-12);
        assert!(Reference::new(1).median_slowdown().is_nan());
    }
}
