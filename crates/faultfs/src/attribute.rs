//! Task attribution for I/O and logical-resource accesses.
//!
//! The dependency-soundness checker (`minicc depcheck`) needs every file
//! access and every logical-input read (a source file, the project
//! manifest, a module's dormancy record) attributed to the *query task*
//! that performed it, so it can diff actual accesses against the engine's
//! declared dependencies. Two pieces live here:
//!
//! * a **thread-local task-context stack** ([`task_scope`]): the build
//!   system pushes the active task's label around each task body, and the
//!   work-stealing pool carries a cloneable snapshot ([`current_task`] /
//!   [`TaskCtx::enter`]) across `spawn`, so work executed on a worker
//!   thread is attributed to the task that spawned it — mirroring how
//!   `sfcc_trace` propagates span contexts;
//! * a **process-global access log** ([`record_accesses`] /
//!   [`note_access`]): while a recording guard is alive, every access
//!   noted *by its recording session* is appended as an [`AccessRecord`]
//!   tagged with the calling thread's active task. The log is global (not
//!   thread-local) precisely because pool workers access resources on
//!   behalf of tasks; an install lock serializes concurrent recorders the
//!   same way `sfcc_trace::install` does.
//!
//! A recorder belongs to one session: the thread that installs it, plus
//! every thread that enters a [`TaskCtx`] captured inside it (the session
//! id travels with the task label across pool spawns). Accesses noted by
//! other sessions — an unaudited build running concurrently in the same
//! process, another daemon session — are not recorded, so they can never
//! be charged to a task of the audited build that happens to share its
//! label.
//!
//! When no recorder is installed, [`note_access`] is one relaxed atomic
//! load — recording sites stay in the hot path unconditionally.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

thread_local! {
    /// Stack of active task labels on this thread; the top attributes.
    static TASK_STACK: RefCell<Vec<Arc<str>>> = const { RefCell::new(Vec::new()) };
    /// The recording session this thread works for; 0 is none.
    static SESSION: Cell<u64> = const { Cell::new(0) };
}

/// Pushes `label` as the thread's active task until the guard drops.
/// Nested scopes attribute to the innermost label.
#[must_use = "the task context pops when the guard drops"]
pub fn task_scope(label: impl Into<String>) -> TaskGuard {
    let label: Arc<str> = Arc::from(label.into());
    TASK_STACK.with(|s| s.borrow_mut().push(label));
    TaskGuard { _priv: () }
}

/// Pops the task label pushed by [`task_scope`] on drop.
#[derive(Debug)]
pub struct TaskGuard {
    _priv: (),
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        TASK_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// The thread's active task label, if any (the innermost [`task_scope`]).
pub fn active_task() -> Option<String> {
    TASK_STACK.with(|s| s.borrow().last().map(|l| l.to_string()))
}

/// A cloneable snapshot of the calling thread's task context and recording
/// session, for carrying attribution across thread boundaries (a pool
/// `spawn`). Entering an empty context is free and changes nothing.
#[derive(Debug, Clone)]
pub struct TaskCtx {
    label: Option<Arc<str>>,
    session: u64,
}

/// Captures the calling thread's current task context.
pub fn current_task() -> TaskCtx {
    TaskCtx {
        label: TASK_STACK.with(|s| s.borrow().last().cloned()),
        session: SESSION.with(Cell::get),
    }
}

impl TaskCtx {
    /// Makes this context the thread's active task (and recording session)
    /// until the guard drops.
    #[must_use = "the task context pops when the guard drops"]
    pub fn enter(&self) -> TaskCtxGuard {
        let pushed = match &self.label {
            Some(label) => {
                TASK_STACK.with(|s| s.borrow_mut().push(Arc::clone(label)));
                true
            }
            None => false,
        };
        let prev_session = (self.session != 0).then(|| SESSION.with(|s| s.replace(self.session)));
        TaskCtxGuard {
            pushed,
            prev_session,
        }
    }
}

/// RAII guard restoring the previous task context; see [`TaskCtx::enter`].
#[derive(Debug)]
pub struct TaskCtxGuard {
    pushed: bool,
    prev_session: Option<u64>,
}

impl Drop for TaskCtxGuard {
    fn drop(&mut self) {
        if self.pushed {
            TASK_STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
        if let Some(prev) = self.prev_session {
            SESSION.with(|s| s.set(prev));
        }
    }
}

/// One logical-resource access noted while a recorder was installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// The task active on the accessing thread, if any. Accesses outside
    /// any task scope (driver/session-level work) carry `None`.
    pub task: Option<String>,
    /// The logical resource name (domain-defined, e.g. `src:lib`,
    /// `manifest`, `state:lib`).
    pub resource: String,
}

/// Session id of the installed recorder; 0 when none is installed.
static ACCESS_SESSION: AtomicU64 = AtomicU64::new(0);
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);
static ACCESS_INSTALL: Mutex<()> = Mutex::new(());
static ACCESS_LOG: Mutex<Vec<AccessRecord>> = Mutex::new(Vec::new());

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs the process-global access recorder for a new session owned by
/// the calling thread. Holds a static install lock for the guard's
/// lifetime, so concurrent recorders (parallel tests) serialize instead of
/// mixing logs. Dropping the guard stops recording, clears the log and
/// restores the thread's previous session.
#[must_use = "recording stops when the guard drops"]
pub fn record_accesses() -> AccessLogGuard {
    let guard = ACCESS_INSTALL.lock().unwrap_or_else(|e| e.into_inner());
    lock(&ACCESS_LOG).clear();
    let session = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
    let prev_session = SESSION.with(|s| s.replace(session));
    ACCESS_SESSION.store(session, Ordering::SeqCst);
    AccessLogGuard {
        _guard: guard,
        prev_session,
    }
}

/// Owner of the installed access recorder; see [`record_accesses`].
pub struct AccessLogGuard {
    _guard: MutexGuard<'static, ()>,
    prev_session: u64,
}

impl AccessLogGuard {
    /// Takes the accesses recorded so far (recording stays active with an
    /// empty log).
    pub fn take(&self) -> Vec<AccessRecord> {
        std::mem::take(&mut lock(&ACCESS_LOG))
    }
}

impl Drop for AccessLogGuard {
    fn drop(&mut self) {
        ACCESS_SESSION.store(0, Ordering::SeqCst);
        SESSION.with(|s| s.set(self.prev_session));
        lock(&ACCESS_LOG).clear();
    }
}

/// Notes a logical-resource access, attributed to the calling thread's
/// active task. Recorded only when the calling thread works for the
/// installed recorder's session. One relaxed atomic load when no recorder
/// is installed.
#[inline]
pub fn note_access(resource: &str) {
    let session = ACCESS_SESSION.load(Ordering::Relaxed);
    if session == 0 || SESSION.with(Cell::get) != session {
        return;
    }
    lock(&ACCESS_LOG).push(AccessRecord {
        task: active_task(),
        resource: resource.to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_scopes_nest_and_pop() {
        assert_eq!(active_task(), None);
        let outer = task_scope("outer");
        assert_eq!(active_task().as_deref(), Some("outer"));
        {
            let _inner = task_scope("inner");
            assert_eq!(active_task().as_deref(), Some("inner"));
        }
        assert_eq!(active_task().as_deref(), Some("outer"));
        drop(outer);
        assert_eq!(active_task(), None);
    }

    #[test]
    fn ctx_carries_attribution_across_threads() {
        let rec = record_accesses();
        let ctx = {
            let _scope = task_scope("optimize(lib)");
            current_task()
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                let _enter = ctx.enter();
                note_access("state:lib");
            });
        });
        note_access("manifest"); // outside any task scope
        let log = rec.take();
        assert_eq!(
            log,
            vec![
                AccessRecord {
                    task: Some("optimize(lib)".into()),
                    resource: "state:lib".into()
                },
                AccessRecord {
                    task: None,
                    resource: "manifest".into()
                },
            ]
        );
    }

    #[test]
    fn accesses_of_other_sessions_are_not_recorded() {
        let rec = record_accesses();
        let ctx = {
            let _scope = task_scope("optimizefn(base::g)");
            current_task()
        };
        std::thread::scope(|s| {
            // A concurrent, unaudited build: same task label, no session.
            s.spawn(|| {
                let _scope = task_scope("optimizefn(base::g)");
                note_access("cas:base::g");
            });
            // Work spawned by the audited session keeps its session.
            s.spawn(|| {
                let _enter = ctx.enter();
                note_access("state:base::g");
            });
        });
        assert_eq!(
            rec.take(),
            vec![AccessRecord {
                task: Some("optimizefn(base::g)".into()),
                resource: "state:base::g".into()
            }]
        );
        drop(rec);
        // The installing thread leaves the session with the guard.
        assert_eq!(SESSION.with(Cell::get), 0);
    }

    #[test]
    fn disabled_recording_is_inert() {
        // The install lock guarantees no recorder is alive concurrently.
        let _lock = ACCESS_INSTALL.lock().unwrap_or_else(|e| e.into_inner());
        note_access("src:lib");
        assert!(lock(&ACCESS_LOG).is_empty());
    }
}
