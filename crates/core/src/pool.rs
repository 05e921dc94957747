//! The work-first worker pool behind the parallel engine.
//!
//! The paper's hardware task scheduler hands an activation to a
//! processor in one bus cycle; a software pool that parks every worker
//! between phases and futex-wakes the crew for each one pays tens of
//! microseconds per phase, which on a five-change batch is more than
//! the match itself. [`WorkerPool`] therefore schedules *work first*:
//!
//! * **The caller is worker 0.** [`WorkerPool::run`] executes the phase
//!   job on the calling thread straight away; a pool of `threads`
//!   workers owns `threads − 1` helper threads, and `threads: 1` owns
//!   none and touches no shared state at all.
//! * **Wake only when it pays.** The engine runs a batch too short to
//!   repay the phases without the pool, so every phase the pool runs
//!   wakes the helpers.
//! * **Enter / close.** A phase is published as an `epoch|open`
//!   word and the parked helpers are notified. A helper joins by
//!   incrementing `active` and then re-reading the word: only if it is
//!   still the same open epoch does the helper run the job. The caller
//!   ends the phase by storing the closed word and then waiting for
//!   `active == 0` — that is, only for helpers that actually entered. A
//!   helper that is slow to wake finds the word closed and is never
//!   waited for. After running a phase a helper polls the word for a
//!   bounded, yielding interval (so the second phase of a bulk batch
//!   finds it awake) and then parks again.
//! * **Respawn** — a helper that panics mid-phase dies cleanly; the
//!   caller joins it after the phase and respawns a replacement under
//!   the *same worker index*. A panic in the caller's own copy of the
//!   job is caught and the job re-entered, so the phase always drains.
//!   All panic payloads are handed back to the caller of `run`, which
//!   decides whether to contain or propagate them.
//! * **Join** — helpers are joined once, on [`Drop`].
//!
//! The phase job borrows caller stack state; its lifetime is erased to
//! show it to the long-lived helpers. The enter/close protocol is what
//! makes that sound, see [`Shared::job`].

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// What a worker carried out of a panic.
pub type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Lifetime-erased phase job (`fn(worker_index)`).
type Job = *const (dyn Fn(usize) + Sync);

/// Polls of the phase word a helper makes, yielding between them,
/// after it ran a phase (or was woken) and before it parks again: as
/// long as a wake costs, the usual spin-then-park break-even. On the
/// 2-CPU reference host 256 `yield_now` calls on an otherwise idle CPU
/// take ~51 µs and a condvar notify puts a parked helper on a CPU in
/// 45 µs (p50). That bridges the caller's epilogue between the remove
/// and the add phase of one batch (a few µs) with room to spare, and
/// has the helper off the CPU again soon after a bulk batch.
const SPIN_POLLS: u32 = 256;

/// State the parked helpers and the caller share under one mutex.
struct Park {
    /// Helpers waiting on `wake` right now.
    parked: usize,
    /// Set once, by `Drop`; helpers exit.
    shutdown: bool,
}

/// Phase-word bit: the epoch is open for entry.
const OPEN: u64 = 1;

struct Shared {
    /// `epoch << 1 | OPEN?`. Written by the caller only.
    word: AtomicU64,
    /// Helpers inside the current phase's job.
    active: AtomicUsize,
    /// The job of the open epoch.
    ///
    /// Written by the caller only while the word is closed and
    /// `active == 0`; read by a helper only after it incremented
    /// `active` and *then* saw the word open. All four accesses are
    /// `SeqCst`, so either the helper's re-read sees the close (and it
    /// backs out without touching the job), or the caller's read of
    /// `active` after the close sees the helper (and `run` does not
    /// return, nor the next `run` write, until the helper has left).
    job: UnsafeCell<Option<Job>>,
    park: Mutex<Park>,
    wake: Condvar,
    /// Helpers that panicked this phase, with their payloads; pushed
    /// before the helper leaves `active`.
    dead: Mutex<Vec<(usize, PanicPayload)>>,
}

// SAFETY: `job` is the only field that is not already `Sync`; the
// protocol on it (above) never lets a write overlap another access, and
// the pointee is `Sync`, so sharing it across helpers is sound.
unsafe impl Sync for Shared {}
// SAFETY: the raw job pointer is only dereferenced under the same
// protocol; nothing else in `Shared` is thread-affine.
unsafe impl Send for Shared {}

/// Locks `m`, recovering from poison: pool bookkeeping is only mutated
/// in short critical sections that cannot unwind mid-update.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Lifetime counters for one pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Helper threads created over the pool's lifetime (initial crew
    /// plus respawns): `threads − 1` on a healthy run, however many
    /// phases executed.
    pub spawned: u64,
    /// Dead helpers replaced after a phase.
    pub respawns: u64,
    /// Live helper threads right now (`threads − 1` whenever the pool
    /// is quiescent; the caller, worker 0, is not a pool thread).
    pub live: usize,
    /// Phases on which parked helpers were actually notified. Zero
    /// means every phase so far ran without a futex wake.
    pub helper_wakes: u64,
}

/// A crew of `threads − 1` helpers around the calling thread, executing
/// one phase job at a time. See the module docs for the protocol.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Helper `me` lives in slot `me − 1`.
    handles: Vec<Option<JoinHandle<()>>>,
    epoch: u64,
    stats: PoolStats,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .field("stats", &self.stats)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `threads − 1` parked helpers (`threads` clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            word: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            job: UnsafeCell::new(None),
            park: Mutex::new(Park {
                parked: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            dead: Mutex::new(Vec::new()),
        });
        let mut pool = WorkerPool {
            shared,
            handles: (1..threads.max(1)).map(|_| None).collect(),
            epoch: 0,
            stats: PoolStats::default(),
        };
        for me in 1..pool.threads() {
            pool.spawn_helper(me);
        }
        pool
    }

    /// Configured worker count, the caller included.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Lifetime spawn / respawn / wake counters and current liveness.
    pub fn stats(&self) -> PoolStats {
        let mut s = self.stats;
        s.live = self.handles.iter().flatten().count();
        s
    }

    fn spawn_helper(&mut self, me: usize) {
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("psm-worker-{me}"))
            .spawn(move || helper_loop(&shared, me))
            .expect("worker thread spawns");
        self.handles[me - 1] = Some(handle);
        self.stats.spawned += 1;
    }

    /// Runs one phase: `job(0)` on the calling thread and `job(me)` on
    /// every helper that enters before the caller's copy returns (the
    /// parked ones are notified first). `job` must return only once the
    /// phase's work is complete — a helper may still be inside its own
    /// copy then, and `run` waits for exactly those. Returns the panic
    /// payloads of this phase in arrival order, `(0, _)` for the
    /// caller's own; dead helpers have been respawned by then.
    pub fn run(&mut self, job: &(dyn Fn(usize) + Sync)) -> Vec<(usize, PanicPayload)> {
        let helpers = !self.handles.is_empty();
        if helpers {
            // SAFETY: only the borrow's lifetime is erased. Helpers use
            // the pointer between entering and leaving `active` only,
            // and this call does not return before `active == 0` (see
            // `Shared::job`), so it never outlives the borrow.
            let erased: Job = unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
            };
            // SAFETY: the word is closed and `active == 0` (the last
            // `run` waited for it), so no helper reads the cell.
            unsafe { *self.shared.job.get() = Some(erased) };
            self.epoch += 1;
            self.shared.word.store((self.epoch << 1) | OPEN, SeqCst);
            if lock(&self.shared.park).parked > 0 {
                self.shared.wake.notify_all();
                self.stats.helper_wakes += 1;
            }
        }
        let mut dead = Vec::new();
        // The caller cannot be replaced, so its "respawn" is immediate:
        // a panic in one task must not strand the rest of the phase.
        while let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(0))) {
            dead.push((0, payload));
        }
        if helpers {
            self.shared.word.store(self.epoch << 1, SeqCst);
            // An entered helper is finishing its last task or just
            // about to see the phase drained.
            while self.shared.active.load(SeqCst) != 0 {
                std::thread::yield_now();
            }
            // SAFETY: closed word, `active == 0`: no reader.
            unsafe { *self.shared.job.get() = None };
            let mut died = std::mem::take(&mut *lock(&self.shared.dead));
            died.sort_by_key(|(me, _)| *me);
            for (me, _) in &died {
                if let Some(h) = self.handles[*me - 1].take() {
                    let _ = h.join();
                }
                self.spawn_helper(*me);
                self.stats.respawns += 1;
            }
            dead.append(&mut died);
        }
        dead
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared.park).shutdown = true;
        self.shared.wake.notify_all();
        for h in &mut self.handles {
            if let Some(h) = h.take() {
                let _ = h.join();
            }
        }
    }
}

/// The helper thread body: park → (woken) poll → enter → poll → park.
fn helper_loop(shared: &Shared, me: usize) {
    // The epoch this helper last ran; a drained phase is not re-entered.
    let mut seen = 0u64;
    loop {
        {
            let mut g = lock(&shared.park);
            if g.shutdown {
                return;
            }
            // The caller publishes the word before it takes this lock
            // to notify, so an open phase is seen here or the notify
            // finds this helper parked — never neither.
            let word = shared.word.load(SeqCst);
            if word & OPEN == 0 || word >> 1 == seen {
                g.parked += 1;
                g = shared
                    .wake
                    .wait(g)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                g.parked -= 1;
                if g.shutdown {
                    return;
                }
            }
        }
        let mut polls = 0;
        while polls < SPIN_POLLS {
            let word = shared.word.load(SeqCst);
            if word & OPEN != 0 && word >> 1 != seen {
                shared.active.fetch_add(1, SeqCst);
                if shared.word.load(SeqCst) == word {
                    seen = word >> 1;
                    // SAFETY: entered (see `Shared::job`): the cell was
                    // written before this epoch opened, and until this
                    // helper leaves `active` the caller can neither
                    // rewrite it nor return from `run`, so the job it
                    // points to is still borrowed there.
                    let job = unsafe { (*shared.job.get()).expect("open epoch carries a job") };
                    let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*job)(me) }));
                    if let Err(payload) = outcome {
                        // The thread exits; the caller joins it and
                        // respawns a replacement under the same index.
                        lock(&shared.dead).push((me, payload));
                        shared.active.fetch_sub(1, SeqCst);
                        return;
                    }
                    polls = 0;
                }
                shared.active.fetch_sub(1, SeqCst);
            } else {
                polls += 1;
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    /// A phase job in which the caller stays until `helpers` helpers
    /// have entered, so a test decides who runs instead of the
    /// scheduler; `body` runs on every worker after it was counted.
    fn rendezvous<'a>(
        helpers: usize,
        entered: &'a AtomicUsize,
        body: impl Fn(usize) + Sync + 'a,
    ) -> impl Fn(usize) + Sync + 'a {
        move |me| {
            if me == 0 {
                while entered.load(Ordering::SeqCst) < helpers {
                    std::thread::yield_now();
                }
            } else {
                entered.fetch_add(1, Ordering::SeqCst);
            }
            body(me);
        }
    }

    #[test]
    fn one_thread_runs_on_the_caller_and_spawns_nothing() {
        let mut pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let runs = AtomicU64::new(0);
        for _ in 0..10 {
            let dead = pool.run(&|me| {
                assert_eq!(me, 0);
                assert_eq!(std::thread::current().id(), caller);
                runs.fetch_add(1, Ordering::Relaxed);
            });
            assert!(dead.is_empty());
        }
        assert_eq!(runs.load(Ordering::Relaxed), 10);
        assert_eq!(pool.stats(), PoolStats::default(), "no thread, no wake");
    }

    #[test]
    fn woken_helpers_enter_and_spawns_stay_flat() {
        let mut pool = WorkerPool::new(4);
        let hits = AtomicU64::new(0);
        for _ in 0..10 {
            let entered = AtomicUsize::new(0);
            let dead = pool.run(&rendezvous(3, &entered, |me| {
                hits.fetch_add(1 << (16 * me as u64), Ordering::Relaxed);
            }));
            assert!(dead.is_empty());
        }
        let h = hits.load(Ordering::Relaxed);
        for me in 0..4 {
            assert_eq!((h >> (16 * me)) & 0xFFFF, 10, "worker {me} ran every phase");
        }
        let s = pool.stats();
        assert_eq!(s.spawned, 3, "threads - 1 helpers per pool lifetime");
        assert_eq!(s.respawns, 0);
        assert_eq!(s.live, 3);
    }

    #[test]
    fn dead_helpers_are_respawned_with_stable_indices() {
        let mut pool = WorkerPool::new(2);
        let ran: Vec<AtomicU64> = (0..2).map(|_| AtomicU64::new(0)).collect();
        for p in 0..6u64 {
            let entered = AtomicUsize::new(0);
            let dead = pool.run(&rendezvous(1, &entered, |me| {
                ran[me].fetch_add(1, Ordering::Relaxed);
                if p == 2 && me == 1 {
                    panic!("die once");
                }
            }));
            if p == 2 {
                assert_eq!(dead.len(), 1);
                assert_eq!(dead[0].0, 1, "helper 1 died");
            } else {
                assert!(dead.is_empty(), "phase {p} clean");
            }
        }
        for (me, r) in ran.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 6, "worker {me} ran all phases");
        }
        let s = pool.stats();
        assert_eq!(s.respawns, 1);
        assert_eq!(s.spawned, 2, "1 initial + 1 respawn");
        assert_eq!(s.live, 1, "no thread leak");
    }

    #[test]
    fn caller_panic_is_caught_and_its_job_reentered() {
        let mut pool = WorkerPool::new(1);
        let first = AtomicBool::new(true);
        let completed = AtomicU64::new(0);
        let dead = pool.run(&|_| {
            if first.swap(false, Ordering::Relaxed) {
                panic!("one task of the phase");
            }
            completed.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].0, 0, "the caller's own payload comes back");
        assert_eq!(completed.load(Ordering::Relaxed), 1, "the phase drained");
    }

    #[test]
    fn tiny_phases_race_enter_against_close() {
        // Helpers woken for a tiny phase arrive while the caller is
        // already closing it, and keep polling into the ones that
        // follow. No helper may still be inside the job (which borrows
        // this loop's stack) once `run` has returned, and none may see
        // another phase's job.
        let phases: u64 = if cfg!(miri) { 200 } else { 10_000 };
        let mut pool = WorkerPool::new(3);
        let inside = AtomicUsize::new(0);
        let mut caller_runs = 0;
        for i in 0..phases {
            let tag = AtomicU64::new(i);
            let runs = AtomicU64::new(0);
            let dead = pool.run(&|me| {
                inside.fetch_add(1, Ordering::SeqCst);
                assert_eq!(tag.load(Ordering::SeqCst), i, "stale job on worker {me}");
                runs.fetch_add(u64::from(me == 0), Ordering::SeqCst);
                inside.fetch_sub(1, Ordering::SeqCst);
            });
            assert!(dead.is_empty());
            assert_eq!(
                inside.load(Ordering::SeqCst),
                0,
                "phase {i} left a helper inside"
            );
            caller_runs += runs.into_inner();
            tag.store(u64::MAX, Ordering::SeqCst);
        }
        assert_eq!(caller_runs, phases, "the caller ran every phase once");
        let s = pool.stats();
        assert_eq!((s.spawned, s.respawns, s.live), (2, 0, 2));
        drop(pool); // joins: must not hang on a parked or polling helper
    }

    #[test]
    fn drop_joins_quietly() {
        let pool = WorkerPool::new(8);
        drop(pool); // must not hang or panic
    }
}
