//! Work-distribution helpers: the "Round Robin Scheduling" of the paper's
//! figures, plus block partitioning.
//!
//! The Doppler task's output bins are dealt to the weight/beamforming nodes
//! round-robin; range gates are dealt to I/O and Doppler nodes in blocks.
//! All scheduling happens *across* nodes, in the stage-to-node map.

/// Owner of item `i` under round-robin distribution over `nodes` nodes.
pub fn round_robin_owner(item: usize, nodes: usize) -> usize {
    assert!(nodes > 0, "need at least one node");
    item % nodes
}

/// The items (out of `total`) owned by `local` under round-robin
/// distribution over `nodes`.
pub fn round_robin_items(total: usize, nodes: usize, local: usize) -> Vec<usize> {
    assert!(local < nodes, "local index out of range");
    (local..total).step_by(nodes).collect()
}

/// Block (contiguous) partition: the `[start, end)` interval owned by
/// `local` when `total` items split over `nodes` nodes, remainder to the
/// front.
pub fn block_range(total: usize, nodes: usize, local: usize) -> (usize, usize) {
    assert!(local < nodes, "local index out of range");
    let base = total / nodes;
    let extra = total % nodes;
    let start = local * base + local.min(extra);
    let len = base + usize::from(local < extra);
    (start, start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_covers_all_items_once() {
        let total = 17;
        let nodes = 5;
        let mut seen = vec![false; total];
        for local in 0..nodes {
            for i in round_robin_items(total, nodes, local) {
                assert!(!seen[i], "item {i} assigned twice");
                seen[i] = true;
                assert_eq!(round_robin_owner(i, nodes), local);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn round_robin_is_balanced() {
        let counts: Vec<usize> = (0..4).map(|l| round_robin_items(10, 4, l).len()).collect();
        assert_eq!(counts, vec![3, 3, 2, 2]);
    }

    #[test]
    fn block_ranges_tile_the_interval() {
        let total = 23;
        let nodes = 4;
        let mut cursor = 0;
        for local in 0..nodes {
            let (s, e) = block_range(total, nodes, local);
            assert_eq!(s, cursor);
            cursor = e;
        }
        assert_eq!(cursor, total);
    }

    #[test]
    fn block_sizes_differ_by_at_most_one() {
        let sizes: Vec<usize> = (0..7)
            .map(|l| {
                let (s, e) = block_range(40, 7, l);
                e - s
            })
            .collect();
        let max = sizes.iter().max().unwrap();
        let min = sizes.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(block_range(0, 3, 1), (0, 0));
        assert_eq!(round_robin_items(0, 3, 2), Vec::<usize>::new());
        assert_eq!(block_range(5, 1, 0), (0, 5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn local_bounds_checked() {
        block_range(10, 2, 2);
    }
}
