//! World construction: wiring `n` endpoints together.

use crate::endpoint::{AbortHandle, Endpoint};
use crate::message::Envelope;
use crossbeam::channel::unbounded;

/// Factory for fully-connected endpoint sets.
pub struct CommWorld;

impl CommWorld {
    /// Creates `n` endpoints, each able to reach every other (and itself),
    /// sharing one world abort.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn create(n: usize) -> Vec<Endpoint> {
        assert!(n > 0, "world size must be positive");
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..n).map(|_| unbounded::<Envelope>()).unzip();
        let world = AbortHandle::new(senders);
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| Endpoint::new(rank, world.clone(), rx))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_assigns_ranks_in_order() {
        let eps = CommWorld::create(4);
        for (i, e) in eps.iter().enumerate() {
            assert_eq!(e.rank(), i);
        }
        eps[3].abort_handle().trigger();
        assert!(eps.iter().all(Endpoint::aborted));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_world_rejected() {
        CommWorld::create(0);
    }
}
