//! Panic containment for batch pipelines.
//!
//! [`catch_task_panic`] runs a closure and converts any panic into a
//! [`TaskPanic`] value carrying the panic message and source location,
//! *without* letting the default panic hook print a message or backtrace
//! to stderr. A long-lived batch run over a messy input corpus must not
//! interleave panic spew from one bad item with the report of the 999 good
//! ones — the caught message is surfaced through the caller's own error
//! channel instead.
//!
//! The suppression is scoped: a process-wide hook is installed once, but
//! it only swallows (and records) panics raised on threads that are
//! currently inside a `catch_task_panic` call; every other thread keeps
//! the previous hook's behavior. Calls nest — an inner catch consumes its
//! own panic before an outer one can observe it.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// A panic captured at a task boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic message, with `file:line` location when known.
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

impl TaskPanic {
    /// The panic carried by a payload that unwound past every
    /// [`catch_task_panic`] — what a failed `join` of a thread returns.
    /// Without the hook's capture the location is unknown.
    pub fn from_payload(payload: &(dyn std::any::Any + Send)) -> TaskPanic {
        TaskPanic {
            message: payload_message(payload),
        }
    }
}

thread_local! {
    /// Nesting depth of active `catch_task_panic` calls on this thread.
    static SUPPRESS_DEPTH: Cell<usize> = const { Cell::new(0) };
    /// Message of the most recent suppressed panic on this thread.
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

static HOOK: Once = Once::new();

fn install_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SUPPRESS_DEPTH.with(|d| d.get()) > 0 {
                let msg = payload_message(info.payload());
                let full = match info.location() {
                    Some(l) => format!("{msg} (at {}:{})", l.file(), l.line()),
                    None => msg,
                };
                LAST_PANIC.with(|s| *s.borrow_mut() = Some(full));
            } else {
                prev(info);
            }
        }));
    });
}

fn payload_message(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f`, converting a panic into `Err(TaskPanic)` and keeping stderr
/// clean of panic output. Panics that cannot unwind (aborts) are out of
/// scope; everything the pipeline raises unwinds.
pub fn catch_task_panic<T>(f: impl FnOnce() -> T) -> Result<T, TaskPanic> {
    install_hook();
    SUPPRESS_DEPTH.with(|d| d.set(d.get() + 1));
    let result = catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_DEPTH.with(|d| d.set(d.get() - 1));
    match result {
        Ok(v) => Ok(v),
        Err(payload) => {
            // Prefer the hook's capture (it has the location); fall back to
            // the raw payload if another hook got there first.
            let message = LAST_PANIC
                .with(|s| s.borrow_mut().take())
                .unwrap_or_else(|| payload_message(payload.as_ref()));
            Err(TaskPanic { message })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_results_pass_through() {
        assert_eq!(catch_task_panic(|| 41 + 1), Ok(42));
    }

    #[test]
    fn panic_is_captured_with_message_and_location() {
        let err = catch_task_panic(|| -> i32 { panic!("boom {}", 7) }).unwrap_err();
        assert!(err.message.contains("boom 7"), "{}", err.message);
        assert!(err.message.contains("panic.rs:"), "{}", err.message);
    }

    #[test]
    fn nested_catches_attribute_to_the_inner_frame() {
        let outer = catch_task_panic(|| {
            let inner = catch_task_panic(|| -> i32 { panic!("inner") });
            assert!(inner.unwrap_err().message.contains("inner"));
            "outer ok"
        });
        assert_eq!(outer.unwrap(), "outer ok");
    }

    #[test]
    fn joined_thread_panics_keep_their_message() {
        let joined = std::thread::spawn(|| {
            // Caught inside the thread to keep stderr clean, then
            // re-raised as a bare payload the way an uncaught panic
            // reaches `join`.
            let p = catch_task_panic(|| -> i32 { panic!("lost {}", 3) }).unwrap_err();
            std::panic::resume_unwind(Box::new(p.message))
        })
        .join()
        .unwrap_err();
        let p = TaskPanic::from_payload(joined.as_ref());
        assert!(p.message.contains("lost 3"), "{}", p.message);
        let p = TaskPanic::from_payload(&"static message");
        assert_eq!(p.message, "static message");
    }

    #[test]
    fn unwrap_and_index_panics_are_contained() {
        let err = catch_task_panic(|| {
            let v: Vec<i32> = vec![];
            v[3]
        })
        .unwrap_err();
        assert!(
            err.message.contains("index out of bounds"),
            "{}",
            err.message
        );
        let err = catch_task_panic(|| {
            let v: Vec<i32> = vec![];
            v.first().copied().unwrap()
        })
        .unwrap_err();
        assert!(err.message.contains("None"), "{}", err.message);
    }
}
