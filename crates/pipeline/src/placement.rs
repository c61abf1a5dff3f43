//! Where node threads run: every node of a run is bound to one CPU, the
//! way an MPI launcher binds ranks to cores.
//!
//! A node is a processor in the paper's model, and the runtime's numbers
//! are only as steady as that mapping. Left to the kernel, a dozen node
//! threads that block and wake each other every few hundred microseconds
//! are placed by wake-up affinity: on a small host they can sit on one CPU
//! with the next one idle for a second at a time, and which way a run falls
//! changes its throughput by 2× and its tail latency by half (EXPERIMENTS.md,
//! "Node placement"). Binding takes the choice away from the wake-up path:
//! consecutive ranks — the nodes of one stage — land on different CPUs, and
//! stay there.
//!
//! Slots are dealt from one process-wide counter, so pipelines that run at
//! the same time (`stap-serve` missions, the test suite) continue where the
//! previous one stopped instead of all starting at the first CPU. On a
//! launcher that may use a single CPU, on a target other than Linux, or when the
//! kernel refuses, nothing is bound and the run proceeds as before.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Next free slot of the process-wide deal.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

/// The CPUs one run's node threads are dealt onto.
#[derive(Debug)]
pub(crate) struct Placement {
    /// CPUs the launching thread may run on; empty when nothing is bound.
    cpus: Vec<usize>,
    /// Slot of rank 0.
    first: usize,
}

/// CPUs the calling thread may run on, ascending; empty when the platform
/// does not say.
pub(crate) fn allowed_cpus() -> Vec<usize> {
    sys::allowed_cpus()
}

impl Placement {
    /// Reads the calling (launching) thread's CPU set and reserves `nodes`
    /// consecutive slots of the deal.
    pub(crate) fn for_run(nodes: usize) -> Self {
        let mut cpus = allowed_cpus();
        if cpus.len() < 2 {
            cpus.clear();
        }
        Self { cpus, first: NEXT_SLOT.fetch_add(nodes, Ordering::Relaxed) }
    }

    /// The CPU node `rank` is bound to, if this run binds at all.
    pub(crate) fn cpu_of(&self, rank: usize) -> Option<usize> {
        (!self.cpus.is_empty()).then(|| self.cpus[self.first.wrapping_add(rank) % self.cpus.len()])
    }

    /// Binds the calling thread, node `rank` of the run, to its CPU.
    pub(crate) fn bind(&self, rank: usize) {
        if let Some(cpu) = self.cpu_of(rank) {
            sys::bind_to(cpu);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_ulong};

    /// Words of glibc's and musl's 1024-CPU `cpu_set_t`.
    const WORDS: usize = 1024 / c_ulong::BITS as usize;
    type CpuSet = [c_ulong; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
    }

    /// CPUs the calling thread may run on, ascending; empty when the kernel
    /// does not say (more than 1024 CPUs, a seccomp filter).
    pub(super) fn allowed_cpus() -> Vec<usize> {
        let mut set: CpuSet = [0; WORDS];
        // SAFETY: pid 0 is the calling thread, and `set` is a writable
        // buffer of exactly the `size_of_val` bytes passed as its size.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        let bits = c_ulong::BITS as usize;
        (0..WORDS * bits).filter(|cpu| set[cpu / bits] >> (cpu % bits) & 1 == 1).collect()
    }

    /// Restricts the calling thread to `cpu`; a refusal leaves it unbound.
    pub(super) fn bind_to(cpu: usize) {
        let bits = c_ulong::BITS as usize;
        let mut set: CpuSet = [0; WORDS];
        set[cpu / bits] = 1 << (cpu % bits);
        // SAFETY: pid 0 is the calling thread, and `set` is a readable
        // buffer of exactly the `size_of_val` bytes passed as its size.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub(super) fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub(super) fn bind_to(_cpu: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_ranks_are_dealt_onto_consecutive_cpus() {
        let p = Placement { cpus: vec![2, 5, 7], first: 4 };
        let dealt: Vec<_> = (0..4).map(|rank| p.cpu_of(rank)).collect();
        assert_eq!(dealt, [Some(5), Some(7), Some(2), Some(5)]);
    }

    #[test]
    fn runs_reserve_disjoint_slots_of_one_deal() {
        let a = Placement::for_run(11);
        let b = Placement::for_run(3);
        // Other tests launch pipelines meanwhile, so `b` starts at or after
        // the end of `a`'s reservation, never inside it.
        assert!(b.first.wrapping_sub(a.first) >= 11);
    }

    #[test]
    fn a_single_cpu_launcher_binds_nothing() {
        let p = Placement { cpus: Vec::new(), first: 0 };
        assert_eq!(p.cpu_of(3), None);
        p.bind(3); // and does not touch the calling thread
    }

    #[test]
    fn a_bound_thread_may_run_on_its_cpu_only_and_its_launcher_anywhere() {
        let before = allowed_cpus();
        let p = Placement::for_run(2);
        let seen: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|rank| {
                    let p = &p;
                    scope.spawn(move || {
                        p.bind(rank);
                        allowed_cpus()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("bound thread panicked")).collect()
        });
        assert_eq!(allowed_cpus(), before, "the launcher keeps its CPU set");
        match (p.cpu_of(0), p.cpu_of(1)) {
            // Two or more usable CPUs on Linux: one each, and not the same.
            (Some(c0), Some(c1)) => {
                assert_eq!(seen, [vec![c0], vec![c1]]);
                assert_ne!(c0, c1);
            }
            // Anywhere else the threads keep what they inherited.
            _ => assert_eq!(seen, [before.clone(), before]),
        }
    }
}
