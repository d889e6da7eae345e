//! Physical address decomposition.

/// How line addresses interleave across channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interleave {
    /// Consecutive cache lines rotate across channels (maximizes parallelism
    /// for streaming accesses such as ORAM path reads).
    CacheLine,
    /// Whole rows rotate across channels (keeps a row's lines on one
    /// channel).
    Row,
}

/// Decoded coordinates of a cache-line address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAddr {
    /// Memory channel.
    pub channel: u32,
    /// Bank within the channel (rank folded into bank for this model).
    pub bank: u32,
    /// DRAM row within the bank.
    pub row: u64,
    /// Column (line slot) within the row.
    pub col: u32,
}

/// Maps flat cache-line addresses to (channel, bank, row, column).
///
/// Addresses are *line* addresses (one unit = one 64 B cache line). The
/// mapping places `lines_per_row` consecutive (post-interleave) lines in one
/// row and rotates rows across banks, the standard open-page-friendly
/// XOR-free layout used by USIMM's default address mapper.
///
/// # Examples
///
/// ```
/// use iroram_dram::{AddressMapping, Interleave};
/// let m = AddressMapping::new(4, 8, 128, Interleave::CacheLine);
/// let d0 = m.decode(0);
/// let d1 = m.decode(1);
/// assert_ne!(d0.channel, d1.channel); // line-interleaved
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    channels: u32,
    banks: u32,
    lines_per_row: u32,
    interleave: Interleave,
}

impl AddressMapping {
    /// Creates a mapping.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(channels: u32, banks: u32, lines_per_row: u32, interleave: Interleave) -> Self {
        assert!(
            channels > 0 && banks > 0 && lines_per_row > 0,
            "address mapping dimensions must be nonzero"
        );
        AddressMapping {
            channels,
            banks,
            lines_per_row,
            interleave,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// Banks per channel.
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Lines per DRAM row.
    pub fn lines_per_row(&self) -> u32 {
        self.lines_per_row
    }

    /// Decodes a line address.
    pub fn decode(&self, line_addr: u64) -> DecodedAddr {
        // The dimensions are runtime values, so without help the compiler
        // emits real 64-bit divisions here — and the scheduler decodes
        // every request of every batch. All stock geometries are powers of
        // two, so strength-reduce to shift/mask when possible.
        #[inline(always)]
        fn divmod(v: u64, d: u64) -> (u64, u64) {
            if d.is_power_of_two() {
                (v >> d.trailing_zeros(), v & (d - 1))
            } else {
                (v / d, v % d)
            }
        }
        let ch_u64 = self.channels as u64;
        let lpr = self.lines_per_row as u64;
        let banks = self.banks as u64;
        match self.interleave {
            Interleave::CacheLine => {
                let (within, channel) = divmod(line_addr, ch_u64);
                let (row_seq, col) = divmod(within, lpr);
                let (row, bank) = divmod(row_seq, banks);
                DecodedAddr {
                    channel: channel as u32,
                    bank: bank as u32,
                    row,
                    col: col as u32,
                }
            }
            Interleave::Row => {
                let (row_seq, col) = divmod(line_addr, lpr);
                let (rest, channel) = divmod(row_seq, ch_u64);
                let (row, bank) = divmod(rest, banks);
                DecodedAddr {
                    channel: channel as u32,
                    bank: bank as u32,
                    row,
                    col: col as u32,
                }
            }
        }
    }
}

impl Default for AddressMapping {
    /// Paper-scale default: 4 channels (Table I), 8 banks, 8 KB rows
    /// (128 × 64 B lines), cache-line interleaved.
    fn default() -> Self {
        AddressMapping::new(4, 8, 128, Interleave::CacheLine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_line_interleave_rotates_channels() {
        let m = AddressMapping::default();
        for a in 0..16u64 {
            assert_eq!(m.decode(a).channel, (a % 4) as u32);
        }
    }

    #[test]
    fn contiguous_lines_share_row_within_channel() {
        let m = AddressMapping::default();
        // Lines 0,4,8,… are channel 0; the first 128 of them share row 0 of
        // bank 0.
        let first = m.decode(0);
        for i in 0..128u64 {
            let d = m.decode(i * 4);
            assert_eq!(d.channel, 0);
            assert_eq!(d.row, first.row);
            assert_eq!(d.bank, first.bank);
            assert_eq!(d.col, i as u32);
        }
        // The 129th rotates to the next bank.
        let next = m.decode(128 * 4);
        assert_eq!(next.bank, first.bank + 1);
    }

    #[test]
    fn row_interleave_keeps_row_on_one_channel() {
        let m = AddressMapping::new(4, 8, 128, Interleave::Row);
        let c0 = m.decode(0).channel;
        for a in 0..128u64 {
            assert_eq!(m.decode(a).channel, c0);
        }
        assert_ne!(m.decode(128).channel, c0);
    }

    #[test]
    fn decode_is_injective_on_window() {
        use std::collections::HashSet;
        for il in [Interleave::CacheLine, Interleave::Row] {
            let m = AddressMapping::new(2, 4, 16, il);
            let set: HashSet<(u32, u32, u64, u32)> = (0..4096u64)
                .map(|a| {
                    let d = m.decode(a);
                    (d.channel, d.bank, d.row, d.col)
                })
                .collect();
            assert_eq!(set.len(), 4096);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn rejects_zero_dims() {
        let _ = AddressMapping::new(0, 8, 128, Interleave::CacheLine);
    }
}
