//! A reusable scoped worker pool over `std::thread` + channels.
//!
//! The offline build has no rayon/tokio, and spawning OS threads per healing
//! batch would dwarf the per-component work it parallelizes. [`WorkerPool`]
//! keeps a fixed set of workers alive for the life of the engine and hands
//! out [`Scope`]s: short-lived fan-out regions whose jobs may borrow from the
//! caller's stack (like `std::thread::scope`, but without thread spawn/join
//! on every batch).
//!
//! Guarantees:
//!
//! - [`WorkerPool::scope`] does not return until every job spawned in it has
//!   finished, so borrowed data stays valid for exactly the scope's lifetime.
//! - A panicking job poisons only its scope: the first panic payload is
//!   captured and re-thrown from `scope()` on the caller's thread after the
//!   remaining jobs drain. The pool itself stays usable.
//! - Job execution order is unspecified; callers that need deterministic
//!   merges tag results (e.g. with an index) and sort after the barrier.
//!
//! Nested scopes (calling [`WorkerPool::scope`] from inside a job) are not
//! supported and can deadlock; fan out from one coordinating thread only.

// `deny` rather than `forbid`: the one sanctioned exception is the
// lifetime-erasing `transmute` in `Scope::spawn` (see its safety comment).
#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A job after lifetime erasure; only ever run inside the owning scope.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Injector {
    queue: Mutex<(VecDeque<Job>, bool)>,
    available: Condvar,
}

struct ScopeState {
    /// Jobs spawned but not yet finished, with the barrier condvar.
    pending: Mutex<usize>,
    done: Condvar,
    /// First panic payload raised by a job of this scope.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A fixed-size, reusable worker pool. See the crate docs for the contract.
pub struct WorkerPool {
    injector: Arc<Injector>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let injector = Arc::new(Injector {
            queue: Mutex::new((VecDeque::new(), false)),
            available: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|_| {
                let injector = Arc::clone(&injector);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut guard = injector.queue.lock().expect("pool queue poisoned");
                        loop {
                            if let Some(job) = guard.0.pop_front() {
                                break job;
                            }
                            if guard.1 {
                                return;
                            }
                            guard = injector.available.wait(guard).expect("pool queue poisoned");
                        }
                    };
                    // Jobs are pre-wrapped: they catch their own panics and
                    // do their scope's completion bookkeeping.
                    job();
                })
            })
            .collect();
        WorkerPool {
            injector,
            workers,
            threads,
        }
    }

    /// A pool sized to the host's available parallelism.
    pub fn with_default_threads() -> Self {
        WorkerPool::new(default_threads())
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with a [`Scope`] whose jobs may borrow anything outliving
    /// `'env`, blocking until all spawned jobs complete. If any job panicked,
    /// the first captured payload is re-thrown here (after the barrier, so
    /// borrowed data is never observed by a live worker past this call).
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: Mutex::new(0),
                done: Condvar::new(),
                panic: Mutex::new(None),
            }),
            _env: PhantomData,
        };
        // Run the scope body, always waiting out spawned jobs before
        // returning or unwinding — a job holding borrows into the caller's
        // stack must never outlive this frame.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.wait();
        let job_panic = scope
            .state
            .panic
            .lock()
            .expect("scope panic slot poisoned")
            .take();
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = job_panic {
                    resume_unwind(payload);
                }
                value
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut guard = self.injector.queue.lock().expect("pool queue poisoned");
            guard.1 = true;
        }
        self.injector.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A fan-out region tied to a [`WorkerPool`]; created by [`WorkerPool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Queues `job` on the pool. The job may borrow anything that outlives
    /// `'env`; the enclosing [`WorkerPool::scope`] call joins it.
    pub fn spawn<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'env,
    {
        {
            let mut pending = self.state.pending.lock().expect("scope barrier poisoned");
            *pending += 1;
        }
        let state = Arc::clone(&self.state);
        let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                let mut slot = state.panic.lock().expect("scope panic slot poisoned");
                slot.get_or_insert(payload);
            }
            let mut pending = state.pending.lock().expect("scope barrier poisoned");
            *pending -= 1;
            if *pending == 0 {
                state.done.notify_all();
            }
        });
        // SAFETY: only the lifetime is erased; the fat-pointer layout of
        // `Box<dyn FnOnce + Send>` is identical for `'env` and `'static`.
        // `WorkerPool::scope` blocks (even on unwind) until `pending` hits
        // zero, so the job — and every `'env` borrow it captures — is gone
        // before the scope frame is.
        #[allow(unsafe_code)]
        let wrapped: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(
                wrapped,
            )
        };
        {
            let mut guard = self
                .pool
                .injector
                .queue
                .lock()
                .expect("pool queue poisoned");
            guard.0.push_back(wrapped);
        }
        self.pool.injector.available.notify_one();
    }

    /// Blocks until every job spawned in this scope has finished.
    fn wait(&self) {
        let mut pending = self.state.pending.lock().expect("scope barrier poisoned");
        while *pending > 0 {
            pending = self
                .state
                .done
                .wait(pending)
                .expect("scope barrier poisoned");
        }
    }
}

/// The host's available parallelism (1 if it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn scope_runs_all_jobs_and_joins() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn jobs_may_borrow_caller_stack() {
        let pool = WorkerPool::new(2);
        let inputs: Vec<u64> = (0..64).collect();
        let (tx, rx) = mpsc::channel();
        pool.scope(|s| {
            for (i, x) in inputs.iter().enumerate() {
                let tx = tx.clone();
                s.spawn(move || {
                    tx.send((i, x * 2)).unwrap();
                });
            }
        });
        drop(tx);
        let mut out: Vec<(usize, u64)> = rx.iter().collect();
        out.sort_unstable();
        let expect: Vec<(usize, u64)> =
            inputs.iter().enumerate().map(|(i, x)| (i, x * 2)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn job_panic_propagates_to_scope_caller() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("poisoned worker"));
                for _ in 0..8 {
                    s.spawn(|| {});
                }
            });
        }));
        let payload = result.expect_err("job panic must reach the scope caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "poisoned worker");
    }

    #[test]
    fn pool_survives_a_poisoned_scope() {
        let pool = WorkerPool::new(2);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| s.spawn(|| panic!("first scope dies")));
        }));
        // The same pool must still run later scopes to completion.
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let mut hit = false;
        pool.scope(|s| s.spawn(|| {}));
        pool.scope(|_| hit = true);
        assert!(hit);
    }
}
