//! The identity a cache checks it is answering for.
//!
//! A cache keyed by one value's ids — a context tree's nodes, a store's
//! attributes, a string table's codes, an aggregator's groups — keeps
//! beside them the [`Identity`] of the value they belong to, and starts
//! over when it is handed another value.

use std::sync::atomic::{AtomicU64, Ordering};

/// A process-unique number: new for every value made, [`Default`] and
/// [`Clone`] alike, and kept when the value moves. Unlike an address, it
/// never becomes another value's once this one is dropped.
#[derive(Debug)]
pub struct Identity(u64);

impl Identity {
    /// The number, for a cache to keep and compare.
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl Default for Identity {
    fn default() -> Identity {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Identity(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for Identity {
    fn clone(&self) -> Identity {
        Identity::default()
    }
}
