//! Trace records.

/// One memory operation of a workload trace.
///
/// Addresses are cache-line (= ORAM block) granular and index the protected
/// data space `[0, n_data)`. `gap` is the number of non-memory instructions
/// the core retires before this operation — the quantity the trace-driven
/// CPU model uses to advance time (the paper's traces are Pin instruction
/// traces reduced the same way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Block address within the protected data space.
    pub addr: u64,
    /// Whether this is a store.
    pub is_write: bool,
    /// Instructions retired since the previous memory operation.
    pub gap: u32,
}

impl TraceRecord {
    /// A load of `addr` after `gap` instructions.
    pub fn load(addr: u64, gap: u32) -> Self {
        TraceRecord {
            addr,
            is_write: false,
            gap,
        }
    }

    /// A store to `addr` after `gap` instructions.
    pub fn store(addr: u64, gap: u32) -> Self {
        TraceRecord {
            addr,
            is_write: true,
            gap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let l = TraceRecord::load(5, 10);
        assert!(!l.is_write);
        assert_eq!(l.addr, 5);
        assert_eq!(l.gap, 10);
        let s = TraceRecord::store(6, 0);
        assert!(s.is_write);
    }
}
