//! Per-rank communication endpoint: tagged point-to-point sends, selective
//! receive, and the world abort that wakes blocked receivers.

use crate::error::CommError;
use crate::message::{Envelope, Tag};
use crossbeam::channel::{Receiver, Sender};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One rank's endpoint: a mailbox plus senders to every peer.
///
/// Not `Clone`: exactly one thread owns each endpoint, like a rank in MPI.
pub struct Endpoint {
    rank: usize,
    /// Senders into every inbox of the world, plus its abort.
    world: AbortHandle,
    inbox: Receiver<Envelope>,
    /// Unexpected-message queue: arrived envelopes that did not match a
    /// pending selective receive.
    pending: VecDeque<Envelope>,
}

impl Endpoint {
    pub(crate) fn new(rank: usize, world: AbortHandle, inbox: Receiver<Envelope>) -> Self {
        Self { rank, world, inbox, pending: VecDeque::new() }
    }

    /// True once the world has been aborted.
    pub fn aborted(&self) -> bool {
        self.world.is_aborted()
    }

    /// A cloneable handle that aborts this endpoint's world, usable from
    /// threads that do not own an endpoint (a failing node's runner, a
    /// watchdog monitor).
    pub fn abort_handle(&self) -> AbortHandle {
        self.world.clone()
    }

    /// This endpoint's rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Sends `value` to rank `dst` with `tag`. Buffered: never blocks on the
    /// receiver (the NX `csend`-to-ready-receiver fast path). Once the
    /// world is aborted every send fails with [`CommError::Aborted`], so a
    /// node that only sends stops at its next send.
    pub fn send<T: Send + 'static>(
        &mut self,
        dst: usize,
        tag: Tag,
        value: T,
    ) -> Result<(), CommError> {
        if self.aborted() {
            return Err(CommError::Aborted);
        }
        let inboxes = &self.world.inboxes;
        let inbox =
            inboxes.get(dst).ok_or(CommError::InvalidRank { rank: dst, size: inboxes.len() })?;
        inbox
            .send(Envelope::new(self.rank, tag, value))
            .map_err(|_| CommError::Disconnected { peer: dst })
    }

    /// Blocking selective receive: waits for a message matching the
    /// optional source and tag selectors and downcasts it to `T`. Returns
    /// [`CommError::Aborted`] once the world is aborted, whether the abort
    /// came before the call or while it was blocked.
    pub fn recv<T: 'static>(
        &mut self,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<T, CommError> {
        // First serve the unexpected-message queue.
        if let Some(pos) = self.pending.iter().position(|e| e.matches(src, tag)) {
            let env = self.pending.remove(pos).expect("position just found");
            return Self::downcast(env);
        }
        loop {
            if self.aborted() {
                return Err(CommError::Aborted);
            }
            // The abort raises its flag before it posts the wake envelope,
            // so whatever this wait returns, the flag check above sees it.
            let env = self.inbox.recv().map_err(|_| CommError::Disconnected { peer: self.rank })?;
            if self.aborted() {
                return Err(CommError::Aborted);
            }
            if env.matches(src, tag) {
                return Self::downcast(env);
            }
            self.pending.push_back(env);
        }
    }

    fn downcast<T: 'static>(env: Envelope) -> Result<T, CommError> {
        let src = env.src;
        let tag = env.tag;
        env.downcast::<T>().map_err(|_| CommError::TypeMismatch { src, tag })
    }
}

/// The world abort, detached from any endpoint: the shared flag plus a
/// sender into every inbox.
#[derive(Debug, Clone)]
pub struct AbortHandle {
    flag: Arc<AtomicBool>,
    inboxes: Vec<Sender<Envelope>>,
}

impl AbortHandle {
    pub(crate) fn new(inboxes: Vec<Sender<Envelope>>) -> Self {
        Self { flag: Arc::new(AtomicBool::new(false)), inboxes }
    }

    /// Aborts the world: raises the flag, then posts one wake envelope to
    /// every inbox, so each receive blocked in the world returns
    /// [`CommError::Aborted`]. Idempotent: only the first call posts.
    pub fn trigger(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            for inbox in &self.inboxes {
                // An inbox whose endpoint is gone has no receive to wake.
                let _ = inbox.send(Envelope::new(usize::MAX, 0, ()));
            }
        }
    }

    /// True once the world is aborting.
    pub fn is_aborted(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.rank)
            .field("size", &self.world.inboxes.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::world::CommWorld;
    use crate::CommError;

    #[test]
    fn point_to_point_round_trip() {
        let mut eps = CommWorld::create(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e0.send(1, 5, vec![1u8, 2, 3]).unwrap();
        let got: Vec<u8> = e1.recv(Some(0), Some(5)).unwrap();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn selective_receive_reorders() {
        let mut eps = CommWorld::create(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e0.send(1, 1, 10u32).unwrap();
        e0.send(1, 2, 20u32).unwrap();
        // Receive tag 2 first even though tag 1 arrived earlier.
        let b: u32 = e1.recv(Some(0), Some(2)).unwrap();
        let a: u32 = e1.recv(Some(0), Some(1)).unwrap();
        assert_eq!((a, b), (10, 20));
    }

    #[test]
    fn fifo_per_source_and_tag() {
        let mut eps = CommWorld::create(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        for i in 0..10u32 {
            e0.send(1, 3, i).unwrap();
        }
        for i in 0..10u32 {
            let got: u32 = e1.recv(Some(0), Some(3)).unwrap();
            assert_eq!(got, i);
        }
    }

    #[test]
    fn type_mismatch_is_reported() {
        let mut eps = CommWorld::create(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e0.send(1, 4, 1.5f64).unwrap();
        let err = e1.recv::<u32>(Some(0), Some(4)).unwrap_err();
        assert_eq!(err, CommError::TypeMismatch { src: 0, tag: 4 });
    }

    #[test]
    fn invalid_destination_rejected() {
        let mut eps = CommWorld::create(1);
        let mut e0 = eps.pop().unwrap();
        assert_eq!(e0.send(5, 0, ()).unwrap_err(), CommError::InvalidRank { rank: 5, size: 1 });
    }

    #[test]
    fn self_send_works() {
        let mut eps = CommWorld::create(1);
        let mut e0 = eps.pop().unwrap();
        e0.send(0, 1, 99u64).unwrap();
        let got: u64 = e0.recv(Some(0), Some(1)).unwrap();
        assert_eq!(got, 99);
    }

    #[test]
    fn abort_unblocks_a_blocked_receive() {
        let mut eps = CommWorld::create(2);
        let mut e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let t = std::thread::spawn(move || e1.recv::<u32>(Some(0), Some(1)));
        e0.abort_handle().trigger();
        assert_eq!(t.join().unwrap().unwrap_err(), CommError::Aborted);
        assert!(e0.aborted());
    }

    #[test]
    fn after_an_abort_sends_and_receives_fail_and_the_wake_is_never_delivered() {
        let mut eps = CommWorld::create(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e0.send(1, 2, 7u32).unwrap();
        let abort = e0.abort_handle();
        abort.trigger();
        abort.trigger();
        assert_eq!(e0.send(1, 2, 8u32).unwrap_err(), CommError::Aborted);
        // Neither the queued message nor the wake envelope surfaces, on a
        // selective or a wildcard receive.
        assert_eq!(e1.recv::<u32>(Some(0), Some(2)).unwrap_err(), CommError::Aborted);
        assert_eq!(e1.recv::<()>(None, None).unwrap_err(), CommError::Aborted);
    }

    #[test]
    fn cross_thread_transfer() {
        let mut eps = CommWorld::create(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        let t = std::thread::spawn(move || {
            let v: Vec<f32> = e1.recv(Some(0), Some(7)).unwrap();
            v.iter().sum::<f32>()
        });
        e0.send(1, 7, vec![1.0f32, 2.0, 3.0]).unwrap();
        assert_eq!(t.join().unwrap(), 6.0);
    }
}
