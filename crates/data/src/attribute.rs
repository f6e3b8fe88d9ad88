//! Attributes: the user-defined keys of the key:value data model (§III-A).
//!
//! Each attribute has a unique label, a value type, and a set of property
//! flags that control how the runtime stores and processes its values.
//! Attributes are interned in an [`AttributeStore`](crate::store::AttributeStore),
//! which assigns each label a stable numeric id for fast lookups.

use std::fmt;
use std::sync::Arc;

use crate::value::ValueType;

/// Numeric identifier of an interned attribute.
pub type AttrId = u32;

/// Sentinel id meaning "no attribute".
pub const ATTR_NONE: AttrId = u32::MAX;

/// Property flags for attributes.
///
/// These mirror the Caliper attribute properties that matter for the
/// aggregation system described in the paper:
///
/// * `NESTED` attributes form begin/end hierarchies on the blackboard and
///   are stored in the context tree (e.g. `function`, annotations).
/// * `AS_VALUE` attributes are stored as immediate values in snapshot
///   records rather than as context-tree nodes (e.g. `time.duration`).
/// * `AGGREGATABLE` marks numeric measurement attributes that reduction
///   operators may be applied to.
/// * `SKIP` attributes are excluded from snapshots entirely.
/// * `GLOBAL` attributes describe the whole dataset (metadata), not
///   individual snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Properties(u32);

impl Properties {
    /// No special properties.
    pub const DEFAULT: Properties = Properties(0);
    /// Values form a begin/end nesting hierarchy.
    pub const NESTED: Properties = Properties(1 << 0);
    /// Store values directly in snapshot records (not in the context tree).
    pub const AS_VALUE: Properties = Properties(1 << 1);
    /// Numeric measurement value; reduction operators apply.
    pub const AGGREGATABLE: Properties = Properties(1 << 2);
    /// Never include in snapshots.
    pub const SKIP: Properties = Properties(1 << 3);
    /// Dataset-wide metadata attribute.
    pub const GLOBAL: Properties = Properties(1 << 4);
    /// Process-scope blackboard entry (default is thread scope).
    pub const SCOPE_PROCESS: Properties = Properties(1 << 5);

    /// Combine two property sets.
    pub const fn union(self, other: Properties) -> Properties {
        Properties(self.0 | other.0)
    }

    /// Test whether all flags in `other` are set.
    pub const fn contains(self, other: Properties) -> bool {
        (self.0 & other.0) == other.0
    }

    /// The raw flag bits (used by the `.cali` codec).
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Rebuild from raw flag bits.
    pub const fn from_bits(bits: u32) -> Properties {
        Properties(bits)
    }

    /// Encode as a comma-separated list of property names.
    pub fn encode(self) -> String {
        let mut parts = Vec::new();
        if self.contains(Properties::NESTED) {
            parts.push("nested");
        }
        if self.contains(Properties::AS_VALUE) {
            parts.push("asvalue");
        }
        if self.contains(Properties::AGGREGATABLE) {
            parts.push("aggregatable");
        }
        if self.contains(Properties::SKIP) {
            parts.push("skip");
        }
        if self.contains(Properties::GLOBAL) {
            parts.push("global");
        }
        if self.contains(Properties::SCOPE_PROCESS) {
            parts.push("process_scope");
        }
        if parts.is_empty() {
            parts.push("default");
        }
        parts.join(",")
    }

    /// Parse a comma-separated list of property names. Unknown names are
    /// ignored so newer streams remain readable.
    pub fn parse(text: &str) -> Properties {
        let mut props = Properties::DEFAULT;
        for part in text.split(',') {
            props = props.union(match part.trim() {
                "nested" => Properties::NESTED,
                "asvalue" => Properties::AS_VALUE,
                "aggregatable" => Properties::AGGREGATABLE,
                "skip" => Properties::SKIP,
                "global" => Properties::GLOBAL,
                "process_scope" => Properties::SCOPE_PROCESS,
                _ => Properties::DEFAULT,
            });
        }
        props
    }
}

impl std::ops::BitOr for Properties {
    type Output = Properties;
    fn bitor(self, rhs: Properties) -> Properties {
        self.union(rhs)
    }
}

/// Immutable metadata of an interned attribute.
#[derive(Debug)]
pub struct AttrMeta {
    pub(crate) id: AttrId,
    pub(crate) name: Arc<str>,
    pub(crate) vtype: ValueType,
    pub(crate) props: Properties,
}

/// A handle to an interned attribute.
///
/// Cloning is cheap (one `Arc` bump). Equality and hashing use only the
/// numeric id, which is unique within one [`AttributeStore`](crate::AttributeStore).
#[derive(Debug, Clone)]
pub struct Attribute {
    pub(crate) meta: Arc<AttrMeta>,
}

impl Attribute {
    /// The attribute's numeric id in its store.
    pub fn id(&self) -> AttrId {
        self.meta.id
    }

    /// The attribute's unique label.
    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// The label as a shared string.
    pub fn name_arc(&self) -> Arc<str> {
        Arc::clone(&self.meta.name)
    }

    /// The declared value type.
    pub fn value_type(&self) -> ValueType {
        self.meta.vtype
    }

    /// The property flags.
    pub fn properties(&self) -> Properties {
        self.meta.props
    }

    /// Whether the attribute participates in begin/end nesting.
    pub fn is_nested(&self) -> bool {
        self.meta.props.contains(Properties::NESTED)
    }

    /// Whether values are stored immediately in snapshot records.
    pub fn is_as_value(&self) -> bool {
        self.meta.props.contains(Properties::AS_VALUE)
    }

    /// Whether reduction operators apply to this attribute.
    pub fn is_aggregatable(&self) -> bool {
        self.meta.props.contains(Properties::AGGREGATABLE)
    }
}

impl PartialEq for Attribute {
    fn eq(&self, other: &Self) -> bool {
        self.meta.id == other.meta.id
    }
}

impl Eq for Attribute {}

impl std::hash::Hash for Attribute {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u32(self.meta.id);
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}[{}]",
            self.meta.name,
            self.meta.vtype,
            self.meta.props.encode()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn property_flags_combine() {
        let p = Properties::NESTED | Properties::AGGREGATABLE;
        assert!(p.contains(Properties::NESTED));
        assert!(p.contains(Properties::AGGREGATABLE));
        assert!(!p.contains(Properties::AS_VALUE));
        assert!(p.contains(Properties::DEFAULT));
    }

    #[test]
    fn property_encode_parse_roundtrip() {
        let p = Properties::AS_VALUE | Properties::AGGREGATABLE | Properties::SCOPE_PROCESS;
        assert_eq!(Properties::parse(&p.encode()), p);
        assert_eq!(Properties::parse("default"), Properties::DEFAULT);
        assert_eq!(Properties::parse("bogus,nested"), Properties::NESTED);
    }

    #[test]
    fn default_encodes_as_default() {
        assert_eq!(Properties::DEFAULT.encode(), "default");
    }
}
