//! The process-wide pool of preprocessing helpers.
//!
//! One pool serves every pass in the process: `available_cores() − 1`
//! helper threads, started by the first pass that publishes a job and
//! kept for the life of the process. Between jobs they sleep on a
//! condition variable. A pass publishes its job as tickets, one per
//! helper it may take; helpers serve tickets first in, first out, so the
//! passes of several systems in one process (concurrent tests, a daemon
//! beside a facade twin) share the pool. A helper holding a ticket calls
//! the job's [`Help::help`] with the buffers it keeps across jobs.
//!
//! The publishing thread never waits for a helper to start: it filters
//! the job's runs itself, and when the runs are done it takes back the
//! tickets no helper has taken ([`Pool::retract`]). So no helper starts
//! on a job after its pass, and no work of a pass outlives the call that
//! published it. Waking a sleeping helper costs about 12 µs on a 2-vCPU
//! host, against about 45 µs to start and join a scoped thread.

use crate::sir::Particles;
use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A pass's work as a helper sees it.
pub(crate) trait Help: Send + Sync {
    /// Filters the job's queued runs in `particles` until none is left.
    fn help(&self, particles: &mut Particles);
}

/// `std::thread::available_parallelism`, read once per process (1 when
/// the platform cannot tell). The pool holds one helper fewer, so a pass
/// never runs on more threads than the machine has cores.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

thread_local! {
    static PUBLISHED: Cell<u64> = const { Cell::new(0) };
}

/// How many jobs passes on the calling thread have published to the
/// helper pool. A pass publishes one only when it has more than one run,
/// may use more than one worker, and the machine has more than one core;
/// otherwise it filters on the calling thread alone.
pub fn jobs_published() -> u64 {
    PUBLISHED.with(Cell::get)
}

/// Locks `mutex`, keeping its data when a panicking thread poisoned it:
/// every critical section of the pool and of a job leaves its data valid
/// at each step, so a poisoned guard is still a consistent one.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The tickets waiting for a helper, and how many helpers run.
struct Board {
    tickets: VecDeque<Arc<dyn Help>>,
    helpers: usize,
}

/// The helper pool.
pub(crate) struct Pool {
    board: Mutex<Board>,
    /// Signalled once per ticket published.
    ticket: Condvar,
    /// The most helpers the pool starts.
    size: usize,
}

impl Pool {
    /// The process's pool; its helpers start with the first job.
    pub(crate) fn get() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            board: Mutex::new(Board {
                tickets: VecDeque::new(),
                helpers: 0,
            }),
            ticket: Condvar::new(),
            size: available_cores() - 1,
        })
    }

    /// Publishes `job` to at most `helpers` helpers, and to no more than
    /// the pool holds. Nothing is published when no helper may join.
    pub(crate) fn publish(&'static self, job: &Arc<dyn Help>, helpers: usize) {
        let helpers = helpers.min(self.size);
        if helpers == 0 {
            return;
        }
        let mut board = lock(&self.board);
        while board.helpers < self.size {
            let started = std::thread::Builder::new()
                .name(format!("ripq-pf-helper-{}", board.helpers + 1))
                .spawn(move || self.serve());
            if started.is_err() {
                break;
            }
            board.helpers += 1;
        }
        if board.helpers == 0 {
            return;
        }
        board
            .tickets
            .extend(std::iter::repeat_with(|| Arc::clone(job)).take(helpers));
        drop(board);
        PUBLISHED.with(|n| n.set(n.get() + 1));
        for _ in 0..helpers {
            self.ticket.notify_one();
        }
    }

    /// Takes back the tickets of `job` that no helper has taken yet. A
    /// helper that wakes afterwards finds none of them, so the job is held
    /// only by its publisher and by helpers that took a ticket before.
    pub(crate) fn retract(&self, job: &Arc<dyn Help>) {
        lock(&self.board)
            .tickets
            .retain(|ticket| !Arc::ptr_eq(ticket, job));
    }

    /// A helper's life: take the oldest ticket, help its job, sleep when
    /// none is left. A panic that escapes a job's own isolation loses the
    /// runs the helper held (the job's guard tells the publisher), not the
    /// helper.
    fn serve(&self) {
        let mut particles = Particles::default();
        loop {
            let job = {
                let mut board = lock(&self.board);
                loop {
                    if let Some(job) = board.tickets.pop_front() {
                        break job;
                    }
                    board = self
                        .ticket
                        .wait(board)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let _ = catch_unwind(AssertUnwindSafe(|| job.help(&mut particles)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A job of `runs` unit runs; the run numbered `poison` panics.
    struct Count {
        runs: Mutex<usize>,
        done: AtomicUsize,
        poison: Option<usize>,
    }

    impl Help for Count {
        fn help(&self, _: &mut Particles) {
            loop {
                let run = {
                    let mut runs = lock(&self.runs);
                    let Some(next) = runs.checked_sub(1) else {
                        return;
                    };
                    *runs = next;
                    next
                };
                assert_ne!(Some(run), self.poison, "poisoned run");
                self.done.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn helpers_survive_a_panicking_job_and_serve_the_next() {
        let pool = Pool::get();
        let poisoned: Arc<Count> = Arc::new(Count {
            runs: Mutex::new(1),
            done: AtomicUsize::new(0),
            poison: Some(0),
        });
        let job: Arc<dyn Help> = poisoned.clone();
        pool.publish(&job, pool.size);
        // Every helper that took a ticket has now either panicked on the
        // one run or found none left; the next job is still served.
        let clean = Arc::new(Count {
            runs: Mutex::new(64),
            done: AtomicUsize::new(0),
            poison: None,
        });
        let job: Arc<dyn Help> = clean.clone();
        pool.publish(&job, pool.size);
        clean.help(&mut Particles::default());
        while clean.done.load(Ordering::SeqCst) < 64 {
            std::thread::yield_now();
        }
        assert_eq!(*lock(&clean.runs), 0);
        // Take the poisoned run here if no helper took it.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            poisoned.help(&mut Particles::default())
        }));
        assert_eq!(poisoned.done.load(Ordering::SeqCst), 0);
        assert!(caught.is_err() || *lock(&poisoned.runs) == 0);
    }

    /// A job that holds every helper serving it until the gate opens.
    #[derive(Default)]
    struct Gate {
        open: Mutex<bool>,
        opened: Condvar,
        inside: AtomicUsize,
    }

    impl Help for Gate {
        fn help(&self, _: &mut Particles) {
            self.inside.fetch_add(1, Ordering::SeqCst);
            let mut open = lock(&self.open);
            while !*open {
                open = self
                    .opened
                    .wait(open)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    #[test]
    fn retracted_tickets_are_never_served() {
        let pool = Pool::get();
        if pool.size == 0 {
            return;
        }
        // Occupy every helper, so the next job's tickets stay queued.
        let gate = Arc::new(Gate::default());
        let held: Arc<dyn Help> = gate.clone();
        pool.publish(&held, pool.size);
        while gate.inside.load(Ordering::SeqCst) < pool.size {
            std::thread::yield_now();
        }
        let count = Arc::new(Count {
            runs: Mutex::new(8),
            done: AtomicUsize::new(0),
            poison: None,
        });
        let job: Arc<dyn Help> = count.clone();
        pool.publish(&job, pool.size);
        pool.retract(&job);
        // No ticket is left and no helper took one: the publisher holds
        // the job through `count` and `job` alone.
        assert_eq!(Arc::strong_count(&count), 2);
        *lock(&gate.open) = true;
        gate.opened.notify_all();
        drop(held);
        while Arc::strong_count(&gate) > 1 {
            std::thread::yield_now();
        }
        assert_eq!(count.done.load(Ordering::SeqCst), 0);
        assert_eq!(*lock(&count.runs), 8);
    }

    #[test]
    fn publishing_counts_per_thread_and_only_with_helpers() {
        let pool = Pool::get();
        let job: Arc<dyn Help> = Arc::new(Count {
            runs: Mutex::new(0),
            done: AtomicUsize::new(0),
            poison: None,
        });
        let before = jobs_published();
        pool.publish(&job, 0);
        assert_eq!(jobs_published(), before, "no helper asked");
        pool.publish(&job, 1);
        let expected = before + u64::from(pool.size > 0);
        assert_eq!(jobs_published(), expected);
        // Another thread's count starts at zero.
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(jobs_published(), 0));
        });
    }
}
