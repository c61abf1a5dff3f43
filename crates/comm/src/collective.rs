//! The message-based barrier over a [`Group`].
//!
//! Built from point-to-point sends/receives on tags in the reserved
//! [`COLLECTIVE_BIT`] space, so it interleaves safely with user traffic.
//! Every member of the group must call it with the same `op_tag`.

use crate::endpoint::Endpoint;
use crate::error::CommError;
use crate::group::Group;
use crate::message::{Tag, COLLECTIVE_BIT};

fn ctag(op_tag: Tag) -> Tag {
    COLLECTIVE_BIT | op_tag
}

/// Barrier: returns once every group member has entered.
///
/// Linear fan-in to the group root then fan-out — adequate for the node
/// counts the real executor runs with.
pub fn barrier(ep: &mut Endpoint, group: &Group, op_tag: Tag) -> Result<(), CommError> {
    let me = ep.rank();
    let root = group.root();
    let t = ctag(op_tag);
    if me == root {
        for &r in group.ranks() {
            if r != root {
                let _: () = ep.recv(Some(r), Some(t))?;
            }
        }
        for &r in group.ranks() {
            if r != root {
                ep.send(r, t, ())?;
            }
        }
    } else {
        ep.send(root, t, ())?;
        let _: () = ep.recv(Some(root), Some(t))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::spawn_world;

    #[test]
    fn barrier_synchronizes_all() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let entered = AtomicUsize::new(0);
        spawn_world(5, |mut ep| {
            let g = Group::contiguous(0, 5);
            entered.fetch_add(1, Ordering::SeqCst);
            barrier(&mut ep, &g, 1).unwrap();
            // After the barrier everyone must observe all 5 entries.
            assert_eq!(entered.load(Ordering::SeqCst), 5);
        });
    }

    #[test]
    fn barrier_interleaves_with_user_traffic() {
        // A user message sent before the barrier is still queued, on its
        // own tag, after the barrier's reserved-bit traffic has matched.
        spawn_world(2, |mut ep| {
            let g = Group::contiguous(0, 2);
            if ep.rank() == 0 {
                ep.send(1, 42, String::from("user")).unwrap();
            }
            barrier(&mut ep, &g, 42).unwrap();
            if ep.rank() == 1 {
                let s: String = ep.recv(Some(0), Some(42)).unwrap();
                assert_eq!(s, "user");
            }
        });
    }
}
