//! A small persistent worker pool shared by every compute kernel.
//!
//! ## Determinism contract
//!
//! Kernels built on this module decompose their work into a **task grid that
//! depends only on problem shape** (never on the thread budget), and every
//! task owns a disjoint region of the output. The per-element accumulation
//! order is therefore fixed by the kernel, so results are **bit-identical at
//! any thread count** — `RFL_THREADS=1` and `RFL_THREADS=64` produce the same
//! bytes. [`parallel_for`] only decides *which thread* runs each task.
//!
//! ## Thread budget
//!
//! The budget is read once from the `RFL_THREADS` environment variable
//! (falling back to [`std::thread::available_parallelism`]) and can be
//! overridden programmatically with [`set_thread_budget`]. It sizes the
//! pool: a process's compute threads are its caller plus at most
//! `budget − 1` `rfl-worker`s. The federation's client-level fan-out is a
//! job on this pool like any kernel's; the kernels a client job calls find
//! the pool taken and run inline inside the job (see [`parallel_for`]), so
//! client- and kernel-level parallelism never add up past the budget.
//!
//! The pool is std-only: plain worker threads parked on a condvar, a job
//! published as a type-erased closure pointer, and an atomic task counter
//! that workers and the caller drain together.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Hard cap on worker threads (a backstop against absurd `RFL_THREADS`).
const MAX_THREADS: usize = 256;

static BUDGET: OnceLock<AtomicUsize> = OnceLock::new();

fn budget_cell() -> &'static AtomicUsize {
    BUDGET.get_or_init(|| {
        let default = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let raw = std::env::var_os("RFL_THREADS").map(|v| v.to_string_lossy().into_owned());
        let n = parse_threads(raw.as_deref())
            .unwrap_or_else(|e| panic!("{e}"))
            .unwrap_or(default);
        AtomicUsize::new(n.min(MAX_THREADS))
    })
}

/// Parses `RFL_THREADS`: unset means "one worker per core" (`None`),
/// anything else must be an integer ≥ 1. A typo must not silently run the
/// default configuration, so everything else is an error.
fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(format!(
            "RFL_THREADS={raw:?} is not valid: expected an integer >= 1, \
             or unset for one worker per core"
        )),
    }
}

/// The current thread budget shared by kernel- and client-level parallelism.
pub fn thread_budget() -> usize {
    budget_cell().load(Ordering::Relaxed)
}

/// Overrides the thread budget (clamped to `1..=256`). Results never depend
/// on this value — only wall-clock time does.
pub fn set_thread_budget(n: usize) {
    budget_cell().store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

thread_local! {
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A published job: a type-erased borrow of the caller's closure plus the
/// shared task counter. Only valid while the submitting `parallel_for` frame
/// is alive; the caller does not return until `active == 0`, i.e. until no
/// worker can still dereference these pointers.
#[derive(Clone, Copy)]
struct Job {
    body: *const (dyn Fn(usize) + Sync),
    next: *const AtomicUsize,
    tasks: usize,
    /// Max workers that may join this job (budget − 1, capped by tasks).
    helpers: usize,
}

// SAFETY: the pointers are only dereferenced by workers between job pickup
// and the matching `active -= 1`, and the submitting caller blocks until
// `active == 0` before the pointees go out of scope.
unsafe impl Send for Job {}

struct PoolState {
    job: Option<Job>,
    /// Bumped once per published job so a worker never re-enters a job it
    /// has already seen.
    generation: u64,
    /// Workers that joined the current generation.
    joined: usize,
    /// Workers currently executing the current job.
    active: usize,
    spawned: usize,
    /// The payload of the current job's first panicking task.
    panic: Option<Box<dyn Any + Send>>,
}

struct Pool {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    work_done: Condvar,
    /// Serializes job submission; `try_lock` failure means another thread is
    /// using the pool and the caller runs inline instead (deadlock-free
    /// under nesting, and bounds total concurrency near the budget).
    submit: Mutex<()>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            job: None,
            generation: 0,
            joined: 0,
            active: 0,
            spawned: 0,
            panic: None,
        }),
        work_ready: Condvar::new(),
        work_done: Condvar::new(),
        submit: Mutex::new(()),
    })
}

fn worker_loop(pool: &'static Pool) {
    let mut seen_gen = 0u64;
    loop {
        let job = {
            let mut st = pool.state.lock().unwrap();
            loop {
                if st.generation != seen_gen {
                    seen_gen = st.generation;
                    if let Some(job) = st.job {
                        if st.joined < job.helpers {
                            st.joined += 1;
                            st.active += 1;
                            break job;
                        }
                    }
                }
                st = pool.work_ready.wait(st).unwrap();
            }
        };
        // SAFETY: see `Job` — the submitter keeps the pointees alive until
        // this worker decrements `active` below.
        let body = unsafe { &*job.body };
        let next = unsafe { &*job.next };
        IN_POOL_WORKER.with(|f| f.set(true));
        let result = catch_unwind(AssertUnwindSafe(|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= job.tasks {
                break;
            }
            body(i);
        }));
        IN_POOL_WORKER.with(|f| f.set(false));
        let mut st = pool.state.lock().unwrap();
        if let Err(payload) = result {
            st.panic.get_or_insert(payload);
        }
        st.active -= 1;
        if st.active == 0 {
            pool.work_done.notify_all();
        }
    }
}

/// Runs `body(i)` exactly once for every `i in 0..tasks`, on the caller plus
/// up to `thread_budget() − 1` pool workers. Tasks must write disjoint data;
/// execution order is unspecified, so any cross-task reduction must be done
/// by the caller afterwards in a fixed order. A task's panic is re-raised
/// on the caller with its own payload (the first one, if several panicked).
///
/// Falls back to an inline serial loop (identical arithmetic) when the
/// budget is 1, when called from inside a pool worker, or when the pool is
/// busy with another job. The last two are the nested-call rule: a
/// `parallel_for` inside a task runs inline on the thread running that task
/// — a helper is marked as a pool worker, and the caller holds the pool —
/// which is how a client job's kernels run. The busy fallback also keeps
/// threads that call kernels concurrently (in-process socket clients, each
/// with its own model) running side by side instead of queueing for the
/// pool.
pub fn parallel_for(tasks: usize, body: &(dyn Fn(usize) + Sync)) {
    let budget = thread_budget();
    if tasks <= 1 || budget <= 1 || IN_POOL_WORKER.with(|f| f.get()) {
        for i in 0..tasks {
            body(i);
        }
        return;
    }
    let pool = pool();
    let Ok(submit) = pool.submit.try_lock() else {
        for i in 0..tasks {
            body(i);
        }
        return;
    };
    let helpers = (budget - 1).min(tasks - 1);
    let next = AtomicUsize::new(0);
    // SAFETY: lifetime erasure only; the job is retired (and `active`
    // drained) before `body`/`next` leave scope.
    let body_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
    {
        let mut st = pool.state.lock().unwrap();
        while st.spawned < helpers {
            std::thread::Builder::new()
                .name("rfl-worker".into())
                .spawn(move || worker_loop(pool))
                .expect("failed to spawn rfl-tensor worker");
            st.spawned += 1;
        }
        st.generation = st.generation.wrapping_add(1);
        st.joined = 0;
        st.job = Some(Job {
            body: body_static,
            next: &next,
            tasks,
            helpers,
        });
        pool.work_ready.notify_all();
    }
    // The caller participates in its own job.
    let caller_result = catch_unwind(AssertUnwindSafe(|| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= tasks {
            break;
        }
        body(i);
    }));
    // Retire the job and wait until no worker still references it.
    let panic = {
        let mut st = pool.state.lock().unwrap();
        if let Err(payload) = caller_result {
            st.panic.get_or_insert(payload);
        }
        st.job = None;
        while st.active > 0 {
            st = pool.work_done.wait(st).unwrap();
        }
        st.panic.take()
    };
    // Released first: a guard dropped while unwinding would poison it.
    drop(submit);
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// Wrapper making a raw pointer shareable across the pool; disjointness of
/// the regions derived from it is the caller's responsibility.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper under edition-2021 disjoint capture.
    fn offset(&self, n: usize) -> *mut T {
        // SAFETY: callers stay within the buffer the pointer was taken from.
        unsafe { self.0.add(n) }
    }
}

/// Splits `data` into contiguous chunks of `chunk_len` (last one ragged) and
/// runs `body(chunk_index, chunk)` for each in parallel. The chunk grid
/// depends only on `data.len()` and `chunk_len`, preserving the determinism
/// contract.
pub fn parallel_for_chunks<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let len = data.len();
    let tasks = len.div_ceil(chunk_len);
    let base = SendPtr(data.as_mut_ptr());
    parallel_for(tasks, &|i| {
        let start = i * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: chunks [start, end) are pairwise disjoint per task index
        // and in-bounds; `data` is mutably borrowed for the whole call.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.offset(start), end - start) };
        body(i, chunk);
    });
}

/// Like [`parallel_for_chunks`] but over two output buffers advancing in
/// lock-step (task `i` gets chunk `i` of both). Used by kernels that produce
/// a main output plus per-task partials reduced afterwards in task order.
pub fn parallel_for_chunks2<T: Send, U: Send>(
    d1: &mut [T],
    chunk1: usize,
    d2: &mut [U],
    chunk2: usize,
    body: impl Fn(usize, &mut [T], &mut [U]) + Sync,
) {
    assert!(chunk1 > 0 && chunk2 > 0, "chunk lengths must be positive");
    let (l1, l2) = (d1.len(), d2.len());
    let tasks = l1.div_ceil(chunk1);
    assert_eq!(
        tasks,
        l2.div_ceil(chunk2),
        "chunk grids must have the same task count"
    );
    let b1 = SendPtr(d1.as_mut_ptr());
    let b2 = SendPtr(d2.as_mut_ptr());
    parallel_for(tasks, &|i| {
        let (s1, e1) = (i * chunk1, ((i + 1) * chunk1).min(l1));
        let (s2, e2) = (i * chunk2, ((i + 1) * chunk2).min(l2));
        // SAFETY: as in `parallel_for_chunks`, chunks are disjoint per task.
        let c1 = unsafe { std::slice::from_raw_parts_mut(b1.offset(s1), e1 - s1) };
        let c2 = unsafe { std::slice::from_raw_parts_mut(b2.offset(s2), e2 - s2) };
        body(i, c1, c2);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn rfl_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("4")), Ok(Some(4)));
        assert_eq!(parse_threads(Some(" 1 ")), Ok(Some(1)));
        for bad in ["four", "0", "-2", "", "4.0"] {
            let err = parse_threads(Some(bad)).unwrap_err();
            assert!(err.contains("RFL_THREADS") && err.contains(bad), "{err}");
            assert!(err.contains("integer >= 1"), "{err}");
        }
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(1000, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunks_cover_the_buffer() {
        let mut data = vec![0u32; 103];
        parallel_for_chunks(&mut data, 10, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i as u32 + 1;
            }
        });
        assert!(data.iter().all(|&v| v != 0));
        assert_eq!(data[0], 1);
        assert_eq!(data[102], 11); // 11th chunk (index 10) is ragged (3 elems)
    }

    #[test]
    fn chunks2_advance_in_lockstep() {
        let mut a = vec![0u8; 12];
        let mut b = vec![0u64; 6];
        parallel_for_chunks2(&mut a, 4, &mut b, 2, |i, ca, cb| {
            assert_eq!(ca.len(), 4);
            assert_eq!(cb.len(), 2);
            ca.fill(i as u8 + 1);
            cb.fill(i as u64 + 1);
        });
        assert_eq!(a, [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
        assert_eq!(b, [1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        let sum = AtomicU64::new(0);
        parallel_for(8, &|_| {
            parallel_for(8, &|j| {
                sum.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 8 * 28);
    }

    #[test]
    fn budget_override_round_trips() {
        let before = thread_budget();
        set_thread_budget(3);
        assert_eq!(thread_budget(), 3);
        set_thread_budget(0); // clamped
        assert_eq!(thread_budget(), 1);
        set_thread_budget(before);
    }

    #[test]
    fn task_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            parallel_for(4, &|i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        });
        let payload = result.expect_err("the task's panic was swallowed");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // A poisoned submit lock would send every later job inline.
        assert!(!pool().submit.is_poisoned(), "the panic disabled the pool");
    }
}
