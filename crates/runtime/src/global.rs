//! Process-global annotation API: `mark_begin` / `mark_end` exactly as
//! in the paper's Listing 1.
//!
//! The explicit [`ThreadScope`] handles give full
//! control, but instrumenting existing code is easier with implicit
//! state — which is what Caliper's C/C++ annotation macros provide.
//! This module keeps one process-global [`Caliper`] and a thread-local
//! scope per thread:
//!
//! ```
//! use caliper_runtime::global;
//! use caliper_runtime::{Clock, Config};
//!
//! global::init_with_clock(
//!     Config::event_aggregate("function,loop.iteration", "count,sum(time.duration)"),
//!     Clock::virtual_clock(),
//! );
//!
//! for i in 0..4i64 {
//!     global::mark_begin("loop.iteration", i);
//!     global::mark_begin("function", "foo");
//!     global::advance_time(40_000); // ... work ...
//!     global::mark_end("function");
//!     global::mark_end("loop.iteration");
//! }
//!
//! let profile = global::flush();
//! assert!(!profile.is_empty());
//! ```
//!
//! Values choose the attribute flavor automatically: string values
//! create nested region attributes, numeric values create immediate
//! (`AS_VALUE`) attributes — matching how Listing 1 uses `"function"`
//! vs. `"loop.iteration"`.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock, RwLock};

use caliper_data::{Attribute, Properties, Value, ValueType};
use caliper_format::Dataset;

use crate::clock::Clock;
use crate::config::Config;
use crate::runtime::Caliper;
use crate::thread::ThreadScope;

static INSTANCE: OnceLock<RwLock<Arc<Caliper>>> = OnceLock::new();

thread_local! {
    static SCOPE: RefCell<Option<ThreadScope>> = const { RefCell::new(None) };
}

/// Initialize the global runtime with a real clock. Returns `false` if
/// it was already initialized (the existing instance stays active).
pub fn init(config: Config) -> bool {
    init_with_clock(config, Clock::real())
}

/// Initialize the global runtime with an explicit clock. If already
/// initialized, *replaces* the instance (new thread scopes serve the
/// new instance; this thread's scope is reset) and returns `false`.
pub fn init_with_clock(config: Config, clock: Clock) -> bool {
    let caliper = Caliper::with_clock(config, clock);
    match INSTANCE.set(RwLock::new(Arc::clone(&caliper))) {
        Ok(()) => true,
        Err(_) => {
            // Poison-tolerant: a panic in another thread while holding
            // this lock must not cascade into every later annotation.
            *INSTANCE
                .get()
                .expect("just checked")
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = caliper;
            SCOPE.with(|scope| *scope.borrow_mut() = None);
            false
        }
    }
}

/// The global runtime, initializing with [`Config::from_env`] on first
/// use (the `CALI_…` environment variables, as in real Caliper).
pub fn instance() -> Arc<Caliper> {
    let lock = INSTANCE.get_or_init(|| RwLock::new(Caliper::new(Config::from_env())));
    Arc::clone(&lock.read().unwrap_or_else(std::sync::PoisonError::into_inner))
}

/// Run `f` with this thread's scope (created on first use). The scope
/// is re-created if the global instance was re-initialized.
pub fn with_scope<R>(f: impl FnOnce(&mut ThreadScope) -> R) -> R {
    SCOPE.with(|cell| {
        let mut slot = cell.borrow_mut();
        let current = instance();
        let stale = slot
            .as_ref()
            .map(|s| !Arc::ptr_eq(s.caliper(), &current))
            .unwrap_or(true);
        if stale {
            *slot = Some(current.make_thread_scope());
        }
        f(slot.as_mut().expect("scope just ensured"))
    })
}

fn attribute_for(value: &Value, name: &str) -> Attribute {
    let caliper = instance();
    match value {
        Value::Str(_) => caliper.attribute(name, ValueType::Str, Properties::NESTED),
        other => caliper.attribute(name, other.value_type(), Properties::AS_VALUE),
    }
}

/// `mark_begin(name, value)` from Listing 1: push `name=value`.
pub fn mark_begin(name: &str, value: impl Into<Value>) {
    let value = value.into();
    let attr = attribute_for(&value, name);
    with_scope(|scope| scope.begin(&attr, value));
}

/// `mark_end(name)`: pop the innermost value of `name`. Unbalanced ends
/// are debug-asserted and otherwise ignored (matching the forgiving C
/// annotation API).
pub fn mark_end(name: &str) {
    if let Some(attr) = instance().store().find(name) {
        with_scope(|scope| {
            let result = scope.end(&attr);
            debug_assert!(result.is_ok(), "unbalanced mark_end({name}): {result:?}");
        });
    } else {
        debug_assert!(false, "mark_end for unknown attribute '{name}'");
    }
}

/// Replace the innermost value of `name`.
pub fn mark_set(name: &str, value: impl Into<Value>) {
    let value = value.into();
    let attr = attribute_for(&value, name);
    with_scope(|scope| scope.set(&attr, value));
}

/// Trigger an explicit snapshot on this thread.
pub fn snapshot() {
    with_scope(|scope| scope.snapshot());
}

/// Advance a virtual global clock (no-op on a real clock).
pub fn advance_time(ns: u64) {
    with_scope(|scope| scope.advance_time(ns));
}

/// Flush this thread's scope and take the default channel's dataset.
pub fn flush() -> Dataset {
    with_scope(|scope| scope.flush());
    instance().take_dataset()
}

#[cfg(test)]
mod tests {
    // The global API is process-wide state; all assertions live in one
    // test so parallel test execution cannot interleave instances.
    use super::*;

    #[test]
    fn listing1_through_the_global_api() {
        init_with_clock(
            Config::event_aggregate("function,loop.iteration", "count,sum(time.duration)"),
            Clock::virtual_clock(),
        );
        for i in 0..4i64 {
            mark_begin("loop.iteration", i);
            for (name, us) in [("foo", 10u64), ("foo", 30), ("bar", 10)] {
                mark_begin("function", name);
                advance_time(us * 1_000);
                mark_end("function");
            }
            mark_end("loop.iteration");
        }
        let profile = flush();
        let result = caliper_query::run_query(
            &profile,
            "AGGREGATE sum(sum#time.duration) AS t WHERE function=foo, loop.iteration=0 \
             GROUP BY function, loop.iteration",
        )
        .unwrap();
        assert_eq!(result.records.len(), 1);
        let t = result.store.find("t").unwrap();
        assert_eq!(result.records.row(0).get(t.id()).unwrap().to_f64(), Some(40.0));

        // set + snapshot also route through the global scope.
        mark_set("phase", "solve");
        snapshot();
        mark_end("phase");

        // Re-initialization replaces the instance and resets the scope.
        assert!(!init_with_clock(
            Config::event_trace(),
            Clock::virtual_clock()
        ));
        mark_begin("function", "fresh");
        mark_end("function");
        let trace = flush();
        assert_eq!(trace.len(), 2);
    }
}
