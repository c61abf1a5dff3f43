//! Per-rank communication endpoint with MPI-style selective receive.

use crate::error::CommError;
use crate::message::{Envelope, Tag};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a blocked receive re-checks the world abort flag.
const ABORT_POLL: Duration = Duration::from_millis(10);

/// One rank's endpoint: a mailbox plus senders to every peer.
///
/// Not `Clone`: exactly one thread owns each endpoint, like a rank in MPI.
pub struct Endpoint {
    rank: usize,
    peers: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    abort: Arc<AtomicBool>,
    /// Unexpected-message queue: arrived envelopes that did not match a
    /// pending selective receive.
    pending: VecDeque<Envelope>,
}

impl Endpoint {
    pub(crate) fn new(
        rank: usize,
        peers: Vec<Sender<Envelope>>,
        inbox: Receiver<Envelope>,
        abort: Arc<AtomicBool>,
    ) -> Self {
        Self { rank, peers, inbox, abort, pending: VecDeque::new() }
    }

    /// Raises the world-wide abort flag: every endpoint currently blocked
    /// in (or later entering) a receive returns [`CommError::Aborted`].
    /// Used to tear down the whole node set when one node hits a fatal
    /// error, instead of leaving its peers blocked forever.
    pub fn trigger_abort(&self) {
        self.abort.store(true, Ordering::SeqCst);
    }

    /// True once any endpoint of this world has triggered an abort.
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// A cloneable handle onto this world's abort flag, usable from
    /// threads that do not own an endpoint (e.g. a watchdog monitor).
    pub fn abort_handle(&self) -> AbortHandle {
        AbortHandle { abort: Arc::clone(&self.abort) }
    }

    /// This endpoint's rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    #[inline]
    pub fn size(&self) -> usize {
        self.peers.len()
    }

    /// Sends `value` to rank `dst` with `tag`. Buffered: never blocks on the
    /// receiver (the NX `csend`-to-ready-receiver fast path).
    pub fn send<T: Send + 'static>(
        &mut self,
        dst: usize,
        tag: Tag,
        value: T,
    ) -> Result<(), CommError> {
        let sender = self
            .peers
            .get(dst)
            .ok_or(CommError::InvalidRank { rank: dst, size: self.peers.len() })?;
        sender.send(Envelope::new(self.rank, tag, value)).map_err(|_| {
            // A peer that vanished during a world abort is teardown fallout,
            // not a root cause.
            if self.aborted() {
                CommError::Aborted
            } else {
                CommError::Disconnected { peer: dst }
            }
        })
    }

    /// Blocking selective receive: waits for a message matching the
    /// optional source and tag selectors and downcasts it to `T`.
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
            match self.inbox.recv_timeout(ABORT_POLL) {
                Ok(env) if env.matches(src, tag) => return Self::downcast(env),
                Ok(env) => self.pending.push_back(env),
                Err(RecvTimeoutError::Timeout) => {} // re-check the abort flag
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { peer: usize::MAX })
                }
            }
        }
    }

    /// Non-blocking receive; `Ok(None)` when no matching message is queued.
    pub fn try_recv<T: 'static>(
        &mut self,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Result<Option<T>, CommError> {
        if let Some(pos) = self.pending.iter().position(|e| e.matches(src, tag)) {
            let env = self.pending.remove(pos).expect("position just found");
            return Self::downcast(env).map(Some);
        }
        loop {
            match self.inbox.try_recv() {
                Ok(env) if env.matches(src, tag) => return Self::downcast(env).map(Some),
                Ok(env) => self.pending.push_back(env),
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => {
                    return Err(CommError::Disconnected { peer: usize::MAX })
                }
            }
        }
    }

    /// Receive with a deadline.
    pub fn recv_timeout<T: 'static>(
        &mut self,
        src: Option<usize>,
        tag: Option<Tag>,
        timeout: Duration,
    ) -> Result<T, CommError> {
        let deadline = Instant::now() + timeout;
        if let Some(pos) = self.pending.iter().position(|e| e.matches(src, tag)) {
            let env = self.pending.remove(pos).expect("position just found");
            return Self::downcast(env);
        }
        loop {
            if self.aborted() {
                return Err(CommError::Aborted);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout);
            }
            let tick = (deadline - now).min(ABORT_POLL);
            match self.inbox.recv_timeout(tick) {
                Ok(env) if env.matches(src, tag) => return Self::downcast(env),
                Ok(env) => self.pending.push_back(env),
                Err(RecvTimeoutError::Timeout) => {} // re-check flag/deadline
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { peer: usize::MAX })
                }
            }
        }
    }

    /// True when a matching message is available without blocking
    /// (MPI `Iprobe`).
    pub fn probe(&mut self, src: Option<usize>, tag: Option<Tag>) -> bool {
        if self.pending.iter().any(|e| e.matches(src, tag)) {
            return true;
        }
        loop {
            match self.inbox.try_recv() {
                Ok(env) => {
                    let hit = env.matches(src, tag);
                    self.pending.push_back(env);
                    if hit {
                        return true;
                    }
                }
                Err(_) => return false,
            }
        }
    }

    fn downcast<T: 'static>(env: Envelope) -> Result<T, CommError> {
        let src = env.src;
        let tag = env.tag;
        env.downcast::<T>().map_err(|_| CommError::TypeMismatch { src, tag })
    }
}

/// A clone of the world-wide abort flag, detached from any endpoint. Lets
/// an external observer (a stage watchdog, a signal handler) tear the
/// world down exactly as [`Endpoint::trigger_abort`] would.
#[derive(Debug, Clone)]
pub struct AbortHandle {
    abort: Arc<AtomicBool>,
}

impl AbortHandle {
    /// Raises the world-wide abort flag.
    pub fn trigger(&self) {
        self.abort.store(true, Ordering::SeqCst);
    }

    /// True once the world is aborting.
    pub fn is_aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.rank)
            .field("size", &self.peers.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::world::CommWorld;
    use crate::CommError;
    use std::time::Duration;

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
    fn try_recv_returns_none_when_empty() {
        let mut eps = CommWorld::create(2);
        let mut e1 = eps.pop().unwrap();
        assert_eq!(e1.try_recv::<u32>(None, None).unwrap(), None);
    }

    #[test]
    fn recv_timeout_expires() {
        let mut eps = CommWorld::create(2);
        let mut e1 = eps.pop().unwrap();
        let err = e1.recv_timeout::<u32>(None, None, Duration::from_millis(20)).unwrap_err();
        assert_eq!(err, CommError::Timeout);
    }

    #[test]
    fn probe_sees_buffered_and_queued() {
        let mut eps = CommWorld::create(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        assert!(!e1.probe(Some(0), Some(9)));
        e0.send(1, 9, ()).unwrap();
        // May need a moment for the channel, but crossbeam delivery into an
        // unbounded channel is immediate once send returns.
        assert!(e1.probe(Some(0), Some(9)));
        // Probing must not consume.
        let _: () = e1.recv(Some(0), Some(9)).unwrap();
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
    fn probed_envelopes_are_delivered_once_in_order() {
        let mut eps = CommWorld::create(2);
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e0.send(1, 7, 1u32).unwrap();
        e0.send(1, 7, 2u32).unwrap();
        // Probing parks the envelope in the pending queue without
        // delivering it.
        while !e1.probe(Some(0), Some(7)) {
            std::thread::yield_now();
        }
        assert_eq!(e1.recv::<u32>(Some(0), Some(7)).unwrap(), 1);
        assert_eq!(e1.recv::<u32>(Some(0), Some(7)).unwrap(), 2);
        assert_eq!(e1.try_recv::<u32>(None, None).unwrap(), None, "inbox drained");
    }

    #[test]
    fn abort_unblocks_a_blocked_receive() {
        let mut eps = CommWorld::create(2);
        let mut e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let t = std::thread::spawn(move || e1.recv::<u32>(Some(0), Some(1)));
        std::thread::sleep(Duration::from_millis(30));
        e0.trigger_abort();
        assert_eq!(t.join().unwrap().unwrap_err(), CommError::Aborted);
        assert!(e0.aborted());
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
