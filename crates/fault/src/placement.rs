//! Which core a thread runs on — the one thing about scheduling the
//! checkpoint publisher cannot leave to the kernel.
//!
//! The publisher sleeps between checkpoints and is woken by the matching
//! thread. A kernel may run a woken thread on its waker's core, ahead of
//! the waker, rather than on an idle one — Linux does when it takes the
//! idle core for unavailable, which is what a halted vCPU looks like to a
//! KVM guest whose host marks it preempted. Nothing then separates the
//! two: the publisher has gone back to sleep by the time a balancer
//! looks, and wakes where it slept. Measured on a 2-vCPU guest (Linux
//! 6.18): a process that starts out that way keeps the matching thread
//! off its core for the whole of every push, 700 µs in each checkpoint
//! cycle, while the other core idles — the chain push might as well not
//! have left the matching thread.
//!
//! So the hand-off says which core it was made on, and a publisher that
//! finds itself there steps aside: it narrows its affinity to the other
//! cores it may use, which migrates it at once, and widens it again. It
//! then sleeps on the core it moved to, and that is where the next
//! wake-up finds it. Outside Linux both functions do nothing.

#[cfg(target_os = "linux")]
mod sys {
    use core::ffi::c_int;

    /// `cpu_set_t` as glibc and musl lay it out: 1024 bits.
    pub(super) type CpuSet = [u64; 16];

    extern "C" {
        pub(super) fn sched_getcpu() -> c_int;
        pub(super) fn sched_getaffinity(pid: c_int, len: usize, set: *mut CpuSet) -> c_int;
        pub(super) fn sched_setaffinity(pid: c_int, len: usize, set: *const CpuSet) -> c_int;
    }
}

/// The core the calling thread is on right now, where the platform
/// tells.
pub(crate) fn current_core() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: takes no arguments and touches no memory of ours.
        usize::try_from(unsafe { sys::sched_getcpu() }).ok()
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Moves the calling thread off `core` if it is on it and allowed on
/// another, and leaves its affinity as it was. Does nothing where that
/// cannot be done; a push is correct on any core.
pub(crate) fn leave_core(core: usize) {
    #[cfg(target_os = "linux")]
    {
        let len = std::mem::size_of::<sys::CpuSet>();
        let mut allowed: sys::CpuSet = [0; 16];
        if current_core() != Some(core) || core >= 64 * allowed.len() {
            return;
        }
        // SAFETY: `allowed` is `len` writable bytes, and pid 0 names the
        // calling thread.
        if unsafe { sys::sched_getaffinity(0, len, &mut allowed) } != 0 {
            return;
        }
        let mut elsewhere = allowed;
        elsewhere[core / 64] &= !(1 << (core % 64));
        if elsewhere.iter().all(|word| *word == 0) {
            return;
        }
        // SAFETY: both sets are `len` readable bytes. A set the kernel
        // refuses leaves the thread where it was.
        unsafe {
            if sys::sched_setaffinity(0, len, &elsewhere) == 0 {
                sys::sched_setaffinity(0, len, &allowed);
            }
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = core;
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_thread_leaves_its_core_and_keeps_its_affinity() {
        let affinity = || {
            let mut set: sys::CpuSet = [0; 16];
            // SAFETY: as in `leave_core`.
            let read = unsafe { sys::sched_getaffinity(0, 128, &mut set) };
            assert_eq!(read, 0);
            set
        };
        let before = affinity();
        let here = current_core().expect("linux says");
        leave_core(here);
        assert_eq!(affinity(), before);
        let cores: u32 = before.iter().map(|word| word.count_ones()).sum();
        if cores > 1 {
            assert_ne!(current_core(), Some(here), "moved at once");
        }
        // Not on that core: nothing to leave.
        leave_core(usize::MAX);
        assert_eq!(affinity(), before);
    }
}
