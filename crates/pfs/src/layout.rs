//! Striping arithmetic: mapping file byte extents onto stripe-unit requests
//! against individual I/O servers.

/// Striping geometry of a file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeLayout {
    /// Stripe unit in bytes.
    pub stripe_unit: usize,
    /// Number of stripe directories / servers.
    pub stripe_factor: usize,
}

/// One per-server request produced by splitting a byte extent along stripe
/// unit boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeRequest {
    /// Index of the serving stripe directory.
    pub server: usize,
    /// Global stripe-unit number within the file (`offset / stripe_unit`).
    pub unit: u64,
    /// Byte offset inside the stripe unit where this request starts.
    pub offset_in_unit: usize,
    /// Bytes covered by this request (≤ stripe_unit).
    pub len: usize,
    /// Byte offset within the whole file where this request starts.
    pub file_offset: u64,
}

impl StripeLayout {
    /// Creates a layout.
    ///
    /// # Panics
    /// Panics when either parameter is zero.
    pub fn new(stripe_unit: usize, stripe_factor: usize) -> Self {
        assert!(stripe_unit > 0, "stripe unit must be positive");
        assert!(stripe_factor > 0, "stripe factor must be positive");
        Self { stripe_unit, stripe_factor }
    }

    /// The server holding stripe unit number `unit` (round-robin layout).
    #[inline]
    pub fn server_of_unit(&self, unit: u64) -> usize {
        (unit % self.stripe_factor as u64) as usize
    }

    /// Splits the byte extent `[offset, offset+len)` into per-stripe-unit
    /// requests, in ascending file order.
    pub fn map_extent(&self, offset: u64, len: usize) -> Vec<StripeRequest> {
        let mut out = Vec::new();
        if len == 0 {
            return out;
        }
        let su = self.stripe_unit as u64;
        let mut cur = offset;
        let end = offset + len as u64;
        while cur < end {
            let unit = cur / su;
            let offset_in_unit = (cur % su) as usize;
            let take = ((su as usize) - offset_in_unit).min((end - cur) as usize);
            out.push(StripeRequest {
                server: self.server_of_unit(unit),
                unit,
                offset_in_unit,
                len: take,
                file_offset: cur,
            });
            cur += take as u64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_extent_splits_into_full_units() {
        let l = StripeLayout::new(1024, 4);
        let reqs = l.map_extent(0, 4096);
        assert_eq!(reqs.len(), 4);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.server, i % 4);
            assert_eq!(r.unit, i as u64);
            assert_eq!(r.offset_in_unit, 0);
            assert_eq!(r.len, 1024);
            assert_eq!(r.file_offset, (i * 1024) as u64);
        }
    }

    #[test]
    fn unaligned_extent_has_partial_ends() {
        let l = StripeLayout::new(100, 3);
        let reqs = l.map_extent(250, 200); // covers units 2,3,4 partially
        assert_eq!(reqs.len(), 3);
        assert_eq!(
            reqs[0],
            StripeRequest { server: 2, unit: 2, offset_in_unit: 50, len: 50, file_offset: 250 }
        );
        assert_eq!(
            reqs[1],
            StripeRequest { server: 0, unit: 3, offset_in_unit: 0, len: 100, file_offset: 300 }
        );
        assert_eq!(
            reqs[2],
            StripeRequest { server: 1, unit: 4, offset_in_unit: 0, len: 50, file_offset: 400 }
        );
    }

    #[test]
    fn requests_partition_the_extent() {
        let l = StripeLayout::new(64, 5);
        let (off, len) = (37u64, 1000usize);
        let reqs = l.map_extent(off, len);
        let total: usize = reqs.iter().map(|r| r.len).sum();
        assert_eq!(total, len);
        // Contiguity.
        let mut cur = off;
        for r in &reqs {
            assert_eq!(r.file_offset, cur);
            cur += r.len as u64;
        }
        assert_eq!(cur, off + len as u64);
    }

    #[test]
    fn round_robin_uses_all_servers() {
        let l = StripeLayout::new(8, 7);
        let reqs = l.map_extent(0, 8 * 14);
        let mut seen = [0usize; 7];
        for r in &reqs {
            seen[r.server] += 1;
        }
        assert!(seen.iter().all(|&c| c == 2));
    }

    #[test]
    fn empty_extent_maps_to_nothing() {
        let l = StripeLayout::new(64, 2);
        assert!(l.map_extent(100, 0).is_empty());
    }

    #[test]
    fn paper_file_is_256_units() {
        // 16 MiB file, 64 KiB units → 256 stripe units, "distributed across
        // all stripe directories in all the parallel file systems".
        let l = StripeLayout::new(64 * 1024, 64);
        assert_eq!(l.map_extent(0, 16 * 1024 * 1024).len(), 256);
    }

    #[test]
    #[should_panic(expected = "stripe unit")]
    fn zero_unit_rejected() {
        StripeLayout::new(0, 4);
    }
}
