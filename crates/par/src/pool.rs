//! The process-wide worker pool and scoped job execution.
//!
//! One pool is spawned lazily and lives for the process. Each worker
//! owns a deque: it pops its own back (LIFO, cache-warm) and steals
//! other deques' fronts (FIFO, oldest work first). Idle workers sleep
//! on a `Condvar` guarded by a pending-task counter; the counter is
//! only mutated under the same mutex, so wakeups cannot be lost.
//!
//! The counter is exact by construction: a publisher raises it *before*
//! it enqueues, and a claimer lowers it *after* it dequeues. It
//! therefore never falls below the number of queued tasks, a claim
//! always finds it at least 1, and it returns to exactly 0 once the
//! deques drain — so idle workers park instead of rescanning.
//!
//! A *job* is a stack-allocated [`JobCore`] — a lifetime-erased
//! reference to the task closure plus a completion latch. Workers never
//! touch a job after bumping its latch to the total, and the submitting
//! thread does not return (and thus cannot drop the `JobCore`) until
//! the latch reaches the total, which makes the erasure sound.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;

/// A unit of work: which job, and which task index within it.
#[derive(Clone, Copy)]
struct Task {
    job: *const JobCore,
    index: usize,
}

// Tasks only travel between threads inside the pool, and the pointed-to
// JobCore outlives every task referencing it (see module docs).
unsafe impl Send for Task {}

/// Shared state of a running job.
struct JobCore {
    /// The task body, lifetime-erased. Valid for the job's duration.
    body: *const (dyn Fn(usize) + Sync),
    /// Completion latch: tasks finished so far.
    done: Mutex<usize>,
    /// Signalled when the latch reaches `total`.
    done_cv: Condvar,
    /// Total number of tasks in the job.
    total: usize,
    /// Set if any task panicked; the submitter re-panics.
    panicked: AtomicBool,
}

// The body pointer is only dereferenced while the job is alive, and the
// closure itself is Sync.
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

impl JobCore {
    /// Runs one task and bumps the completion latch. This is the only
    /// path that touches a job from a worker; nothing is accessed after
    /// the latch update's unlock.
    fn run_task(&self, index: usize) {
        let body = unsafe { &*self.body };
        if panic::catch_unwind(AssertUnwindSafe(|| body(index))).is_err() {
            self.panicked.store(true, Ordering::Relaxed);
        }
        let mut done = self.done.lock().unwrap();
        *done += 1;
        if *done == self.total {
            self.done_cv.notify_all();
        }
    }
}

/// Worker-visible pool state.
struct Shared {
    /// One deque per worker; callers push round-robin.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// The sleep/wake bookkeeping, under one mutex so sleepers and
    /// publishers cannot race.
    idle: Mutex<Idle>,
    /// Wakes idle workers when tasks arrive.
    wake: Condvar,
}

/// Counts guarded by [`Shared::idle`].
struct Idle {
    /// Tasks published and not yet claimed: always at least the number
    /// of tasks in the deques (see module docs).
    pending: usize,
    /// Workers waiting on [`Shared::wake`].
    parked: usize,
}

impl Shared {
    /// Claims a task: own deque from the back, then steals others from
    /// the front. `me` is the worker's own index (callers pass an
    /// arbitrary slot).
    fn claim(&self, me: usize) -> Option<Task> {
        let n = self.deques.len();
        if let Some(task) = self.deques[me % n].lock().unwrap().pop_back() {
            self.settle();
            return Some(task);
        }
        for offset in 1..n {
            let victim = (me + offset) % n;
            if let Some(task) = self.deques[victim].lock().unwrap().pop_front() {
                self.settle();
                return Some(task);
            }
        }
        None
    }

    /// Accounts for one claimed task. Its publisher raised the count
    /// before enqueueing it, so the count covers it.
    fn settle(&self) {
        let mut idle = self.idle.lock().unwrap();
        debug_assert!(idle.pending > 0, "ev-par: claimed a task the count missed");
        idle.pending -= 1;
    }

    /// Publishes `tasks` across the deques starting at `home` and wakes
    /// sleepers. The count rises before any task is enqueued: a worker
    /// may claim a task the moment it lands, and its [`Shared::settle`]
    /// must find the task already counted. A worker that sees the count
    /// before the tasks land rescans until they do.
    fn publish(&self, home: usize, tasks: impl ExactSizeIterator<Item = Task>) {
        self.idle.lock().unwrap().pending += tasks.len();
        let n = self.deques.len();
        for (i, task) in tasks.enumerate() {
            self.deques[(home + i) % n].lock().unwrap().push_back(task);
        }
        self.wake.notify_all();
    }
}

/// The persistent pool.
pub(crate) struct Pool {
    shared: &'static Shared,
    workers: usize,
}

/// Per-worker observability counters, registered once at worker start
/// (the leaked names live as long as the worker thread — forever).
struct WorkerMetrics {
    tasks: &'static ev_trace::Counter,
    busy_ns: &'static ev_trace::Counter,
    idle_ns: &'static ev_trace::Counter,
}

impl WorkerMetrics {
    fn new(me: usize) -> WorkerMetrics {
        let name = |suffix: &str| -> &'static str {
            Box::leak(format!("par.worker{me}.{suffix}").into_boxed_str())
        };
        WorkerMetrics {
            tasks: ev_trace::counter(name("tasks")),
            busy_ns: ev_trace::counter(name("busy_ns")),
            idle_ns: ev_trace::counter(name("idle_ns")),
        }
    }
}

fn worker_loop(shared: &'static Shared, me: usize) {
    let metrics = WorkerMetrics::new(me);
    loop {
        if let Some(task) = shared.claim(me) {
            // Clock reads only while tracing is on; workers record into
            // counters and never reorder work, so the `--threads`
            // determinism contract is untouched.
            if ev_trace::enabled() {
                let start = ev_trace::now_ns();
                unsafe { (*task.job).run_task(task.index) };
                metrics.busy_ns.add(ev_trace::now_ns() - start);
                metrics.tasks.inc();
            } else {
                unsafe { (*task.job).run_task(task.index) };
            }
            continue;
        }
        let mut idle = shared.idle.lock().unwrap();
        // Re-check under the lock: a publish between our failed scan
        // and this lock raised the counter, so skip the wait and scan
        // again rather than sleeping through the notification.
        if idle.pending == 0 {
            idle.parked += 1;
            let start = ev_trace::enabled().then(ev_trace::now_ns);
            idle = shared.wake.wait(idle).unwrap();
            if let Some(start) = start {
                metrics.idle_ns.add(ev_trace::now_ns() - start);
            }
            idle.parked -= 1;
        }
    }
}

static POOL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    /// The process-wide pool, spawning workers on first use.
    pub(crate) fn global() -> &'static Pool {
        POOL.get_or_init(|| Pool::spawn(crate::max_threads()))
    }

    /// Spawns a pool of `workers` threads that live for the process.
    fn spawn(workers: usize) -> Pool {
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Mutex::new(Idle {
                pending: 0,
                parked: 0,
            }),
            wake: Condvar::new(),
        }));
        for me in 0..workers {
            thread::Builder::new()
                .name(format!("ev-par-{me}"))
                .spawn(move || worker_loop(shared, me))
                .expect("spawn ev-par worker");
        }
        Pool { shared, workers }
    }

    /// Number of workers in the pool.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `total` tasks (`body(0..total)`) on the pool and blocks
    /// until all complete, helping with this job's tasks while waiting.
    ///
    /// # Panics
    ///
    /// Re-panics on the calling thread if any task panicked.
    pub(crate) fn run_scope(&self, total: usize, body: &(dyn Fn(usize) + Sync)) {
        if total == 0 {
            return;
        }
        if total == 1 {
            body(0);
            return;
        }
        // Erase the borrow: the JobCore stays on this stack frame and
        // this function does not return until every task has finished,
        // so extending the closure's lifetime is sound.
        let body_static: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(body) };
        let job = JobCore {
            body: body_static,
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            total,
            panicked: AtomicBool::new(false),
        };
        let job_ptr: *const JobCore = &job;

        // Keep the last task for ourselves (submitter participates),
        // publish the rest.
        let home = job_ptr as usize / 64; // spread jobs across deques
        self.shared.publish(
            home,
            (0..total - 1).map(|index| Task { job: job_ptr, index }),
        );
        job.run_task(total - 1);

        // Help drain while waiting: any task we claim (even from an
        // unrelated concurrent job) makes progress toward our latch
        // being reachable.
        loop {
            {
                let done = job.done.lock().unwrap();
                if *done == job.total {
                    break;
                }
            }
            match self.shared.claim(home) {
                Some(task) => unsafe { (*task.job).run_task(task.index) },
                None => {
                    let done = job.done.lock().unwrap();
                    if *done == job.total {
                        break;
                    }
                    drop(job.done_cv.wait(done).unwrap());
                }
            }
        }

        if job.panicked.load(Ordering::Relaxed) {
            panic!("ev-par: a parallel task panicked");
        }
    }
}

#[cfg(test)]
impl Pool {
    /// Tasks published and not yet claimed.
    fn pending(&self) -> usize {
        self.shared.idle.lock().unwrap().pending
    }

    /// Workers parked on the wake condvar.
    fn parked(&self) -> usize {
        self.shared.idle.lock().unwrap().parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pending_count_is_exact_after_every_job() {
        // A private pool: the global one is shared with concurrently
        // running tests, whose jobs would show up in its count.
        let pool = Pool::spawn(4);
        let ran = AtomicUsize::new(0);
        for job in 0..20_000 {
            pool.run_scope(8, &|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(pool.pending(), 0, "job {job} left the count raised");
        }
        assert_eq!(ran.load(Ordering::Relaxed), 8 * 20_000);
    }

    #[test]
    fn idle_workers_park_after_a_burst() {
        let pool = Pool::spawn(3);
        for _ in 0..20_000 {
            pool.run_scope(8, &|i| {
                std::hint::black_box(i);
            });
        }
        // Parked workers hold no task and wait for a publish; a worker
        // that kept rescanning would never count as parked. The bound
        // only keeps a broken pool from hanging the suite.
        let mut polls = 0;
        while pool.parked() < pool.workers() {
            polls += 1;
            assert!(
                polls < 30_000,
                "workers never parked (pending {})",
                pool.pending()
            );
            thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(pool.pending(), 0);
        // Parked workers wake for the next job.
        let hits = AtomicUsize::new(0);
        pool.run_scope(16, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }
}
