//! High-level annotation API: the `mark_begin` / `mark_end` interface
//! from the paper's Listing 1, modeled after Caliper's `cali::Annotation`
//! C++ class.
//!
//! ```
//! use caliper_runtime::{Annotation, Caliper, Clock, Config};
//!
//! let caliper = Caliper::with_clock(Config::event_trace(), Clock::virtual_clock());
//! let mut scope = caliper.make_thread_scope();
//!
//! let function = Annotation::new(&caliper, "function");
//! let iteration = Annotation::value_attribute(&caliper, "loop.iteration");
//!
//! for i in 0..4i64 {
//!     iteration.begin(&mut scope, i);
//!     function.begin(&mut scope, "foo");
//!     // ... work ...
//!     function.end(&mut scope);
//!     iteration.end(&mut scope);
//! }
//! ```

use std::sync::Arc;

use caliper_data::{Attribute, Properties, Value, ValueType};

use crate::runtime::Caliper;
use crate::thread::ThreadScope;

/// A reusable annotation handle for one attribute.
#[derive(Clone)]
pub struct Annotation {
    attr: Attribute,
}

impl Annotation {
    /// A nested string annotation (source-code regions, function names,
    /// user-defined phases).
    pub fn new(caliper: &Arc<Caliper>, name: &str) -> Annotation {
        Annotation {
            attr: caliper.attribute(name, ValueType::Str, Properties::NESTED),
        }
    }

    /// An integer annotation stored as an immediate value (loop
    /// iteration numbers, AMR levels, ranks).
    pub fn value_attribute(caliper: &Arc<Caliper>, name: &str) -> Annotation {
        Annotation {
            attr: caliper.attribute(name, ValueType::Int, Properties::AS_VALUE),
        }
    }

    /// The underlying attribute.
    pub fn attribute(&self) -> &Attribute {
        &self.attr
    }

    /// `mark_begin`: push a value.
    pub fn begin(&self, scope: &mut ThreadScope, value: impl Into<Value>) {
        scope.begin(&self.attr, value);
    }

    /// `mark_end`: pop the innermost value. Unbalanced ends are
    /// reported by the scope; the annotation API swallows the error
    /// after debug-asserting, matching Caliper's forgiving C API.
    pub fn end(&self, scope: &mut ThreadScope) {
        let result = scope.end(&self.attr);
        debug_assert!(result.is_ok(), "unbalanced end: {result:?}");
    }

    /// Replace the current value.
    pub fn set(&self, scope: &mut ThreadScope, value: impl Into<Value>) {
        scope.set(&self.attr, value);
    }

    /// Run `body` inside a begin/end pair.
    pub fn scoped<R>(
        &self,
        scope: &mut ThreadScope,
        value: impl Into<Value>,
        body: impl FnOnce(&mut ThreadScope) -> R,
    ) -> R {
        scope.scoped(&self.attr, value, body)
    }
}

impl std::fmt::Debug for Annotation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Annotation({})", self.attr.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::config::Config;

    #[test]
    fn annotation_roundtrip() {
        let caliper = Caliper::with_clock(Config::event_trace(), Clock::virtual_clock());
        let mut scope = caliper.make_thread_scope();
        let func = Annotation::new(&caliper, "function");
        let iter = Annotation::value_attribute(&caliper, "loop.iteration");

        iter.begin(&mut scope, 7i64);
        func.begin(&mut scope, "foo");
        assert_eq!(
            scope.blackboard().get(func.attribute()),
            Some(Value::str("foo"))
        );
        assert_eq!(
            scope.blackboard().get(iter.attribute()),
            Some(Value::Int(7))
        );
        func.end(&mut scope);
        iter.end(&mut scope);
        assert!(scope.blackboard().is_empty());
    }

    #[test]
    fn scoped_nests() {
        let caliper = Caliper::with_clock(Config::baseline(), Clock::virtual_clock());
        let mut scope = caliper.make_thread_scope();
        let phase = Annotation::new(&caliper, "phase");
        let result = phase.scoped(&mut scope, "outer", |scope| {
            phase.scoped(scope, "inner", |scope| {
                scope
                    .blackboard()
                    .get(phase.attribute())
                    .map(|v| v.to_string())
            })
        });
        assert_eq!(result.as_deref(), Some("inner"));
    }
}
