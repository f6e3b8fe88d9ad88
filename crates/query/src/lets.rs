//! LET-clause evaluation: derived attributes computed per input record
//! before filtering and aggregation — the "derive aggregation variables"
//! capability the paper's related-work section credits to Cube's metric
//! language, generalized here to arbitrary attributes.

use std::cell::Cell;
use std::sync::Arc;

use caliper_data::{AttrId, AttributeStore, FlatRecord, Properties, Value, ValueType};

use crate::ast::{LetDef, LetExpr};

impl LetExpr {
    /// The labels the expression reads, in argument order.
    pub(crate) fn inputs(&self) -> Vec<&str> {
        match self {
            LetExpr::Scale(a, _) | LetExpr::Truncate(a, _) => vec![a],
            LetExpr::Ratio(a, b) => vec![a, b],
            LetExpr::First(labels) => labels.iter().map(String::as_str).collect(),
        }
    }

    /// The value type every result of the expression has.
    fn value_type(&self) -> ValueType {
        match self {
            LetExpr::Scale(..) | LetExpr::Ratio(..) | LetExpr::Truncate(..) => ValueType::Float,
            LetExpr::First(..) => ValueType::Str,
        }
    }

    /// Evaluate over one record, however it is laid out: `number(i)` is
    /// the numeric view of the innermost occurrence of input `i` (`None`
    /// when absent or not a number), `present(i)` whether input `i`
    /// occurs at all. Absent inputs produce no output. Both the row
    /// path ([`LetSet::apply`]) and the block fold evaluate through
    /// this, so the forms mean the same on either.
    pub(crate) fn eval(
        &self,
        number: impl Fn(usize) -> Option<f64>,
        present: impl Fn(usize) -> bool,
    ) -> Option<LetResult> {
        match self {
            LetExpr::Scale(_, factor) => Some(LetResult::Number(number(0)? * factor)),
            LetExpr::Ratio(..) => {
                let (num, den) = (number(0)?, number(1)?);
                (den != 0.0).then(|| LetResult::Number(num / den))
            }
            LetExpr::First(labels) => (0..labels.len()).find(|&i| present(i)).map(LetResult::TextOf),
            LetExpr::Truncate(_, width) => {
                Some(LetResult::Number((number(0)? / width).floor() * width))
            }
        }
    }
}

/// What [`LetExpr::eval`] computed.
pub(crate) enum LetResult {
    /// A float value.
    Number(f64),
    /// The text of the innermost occurrence of input `i`, as a string.
    TextOf(usize),
}

/// One compiled binding: the definition plus lazily resolved attribute
/// ids (on-line, attributes appear as the program runs).
struct Binding {
    def: LetDef,
    out: Cell<Option<AttrId>>,
    /// Whether `out` is an attribute this binding added to the store,
    /// the data not having declared the label by then.
    added: Cell<bool>,
    /// The expression's input labels in argument order, each with its
    /// attribute id once the label resolves.
    inputs: Vec<(String, Cell<Option<AttrId>>)>,
}

/// Compiled LET bindings bound to an attribute store.
pub struct LetSet {
    bindings: Vec<Binding>,
    store: Arc<AttributeStore>,
}

impl LetSet {
    /// Compile LET definitions. Output attributes are interned when the
    /// first record is evaluated, or when the pipeline finishes; input
    /// labels are looked up until they resolve, then never again.
    pub fn new(defs: Vec<LetDef>, store: Arc<AttributeStore>) -> LetSet {
        let bindings = defs
            .into_iter()
            .map(|def| Binding {
                inputs: def
                    .expr
                    .inputs()
                    .into_iter()
                    .map(|label| (label.to_string(), Cell::new(None)))
                    .collect(),
                out: Cell::new(None),
                added: Cell::new(false),
                def,
            })
            .collect();
        LetSet { bindings, store }
    }

    /// True if there are no bindings.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// The binding's output attribute, interned on first use. A label
    /// the data already declares keeps the data's attribute, whatever
    /// its type — which is why this waits for the input's dictionary
    /// instead of running at compile time, where it would claim the
    /// label first.
    fn out_attr(&self, binding: &Binding) -> AttrId {
        if let Some(id) = binding.out.get() {
            return id;
        }
        let name = &binding.def.name;
        let attr = self.store.find(name).unwrap_or_else(|| {
            binding.added.set(true);
            self.store
                .create(name, binding.def.expr.value_type(), Properties::AS_VALUE)
                .unwrap_or_else(|_| self.store.find(name).expect("exists"))
        });
        binding.out.set(Some(attr.id()));
        attr.id()
    }

    /// Whether `attr` is an output some binding added to the store —
    /// not something the input declared.
    pub(crate) fn added(&self, attr: AttrId) -> bool {
        self.bindings.iter().any(|b| b.added.get() && b.out.get() == Some(attr))
    }

    /// Intern every output attribute, in definition order.
    pub(crate) fn intern_outputs(&self) {
        for binding in &self.bindings {
            self.out_attr(binding);
        }
    }

    /// Evaluate all bindings, appending derived values to the record.
    /// Bindings whose inputs are absent produce no output.
    pub fn apply(&self, record: &mut FlatRecord) {
        for binding in &self.bindings {
            let out = self.out_attr(binding);
            let lookup = |i: usize| -> Option<&Value> {
                let (label, attr) = &binding.inputs[i];
                if attr.get().is_none() {
                    attr.set(self.store.find(label).map(|attr| attr.id()));
                }
                record.get(attr.get()?)
            };
            let result = binding.def.expr.eval(
                |i| lookup(i).and_then(Value::to_f64),
                |i| lookup(i).is_some(),
            );
            let value = match result {
                Some(LetResult::Number(x)) => Value::Float(x),
                Some(LetResult::TextOf(i)) => {
                    Value::str(lookup(i).expect("present input").to_string())
                }
                None => continue,
            };
            record.push(out, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_data::RecordBuilder;

    fn letset(defs: Vec<LetDef>, store: &Arc<AttributeStore>) -> LetSet {
        LetSet::new(defs, Arc::clone(store))
    }

    #[test]
    fn scale_converts_units() {
        let store = Arc::new(AttributeStore::new());
        let mut rec = RecordBuilder::new(&store).with("time.duration", 2500.0).build();
        let ls = letset(
            vec![LetDef {
                name: "time.ms".into(),
                expr: LetExpr::Scale("time.duration".into(), 0.001),
            }],
            &store,
        );
        ls.apply(&mut rec);
        let ms = store.find("time.ms").unwrap();
        assert_eq!(rec.get(ms.id()), Some(&Value::Float(2.5)));
    }

    #[test]
    fn ratio_guards_division_by_zero() {
        let store = Arc::new(AttributeStore::new());
        let mut rec = RecordBuilder::new(&store)
            .with("bytes", 100.0)
            .with("time", 0.0)
            .build();
        let ls = letset(
            vec![LetDef {
                name: "bw".into(),
                expr: LetExpr::Ratio("bytes".into(), "time".into()),
            }],
            &store,
        );
        ls.apply(&mut rec);
        let bw = store.find("bw").unwrap();
        assert_eq!(rec.get(bw.id()), None);
    }

    #[test]
    fn first_picks_first_present() {
        let store = Arc::new(AttributeStore::new());
        // intern both candidate attributes
        store.create_simple("annotation", ValueType::Str);
        store.create_simple("function", ValueType::Str);
        let mut rec = RecordBuilder::new(&store).with("function", "foo").build();
        let ls = letset(
            vec![LetDef {
                name: "region".into(),
                expr: LetExpr::First(vec!["annotation".into(), "function".into()]),
            }],
            &store,
        );
        ls.apply(&mut rec);
        let region = store.find("region").unwrap();
        assert_eq!(rec.get(region.id()), Some(&Value::str("foo")));
    }

    #[test]
    fn truncate_bins_values() {
        let store = Arc::new(AttributeStore::new());
        let ls = letset(
            vec![LetDef {
                name: "iter.bin".into(),
                expr: LetExpr::Truncate("iteration".into(), 10.0),
            }],
            &store,
        );
        for (input, expect) in [(0i64, 0.0), (9, 0.0), (10, 10.0), (27, 20.0)] {
            let mut rec = RecordBuilder::new(&store).with("iteration", input).build();
            ls.apply(&mut rec);
            let bin = store.find("iter.bin").unwrap();
            assert_eq!(rec.get(bin.id()), Some(&Value::Float(expect)), "input {input}");
        }
    }

    #[test]
    fn absent_inputs_produce_no_output() {
        let store = Arc::new(AttributeStore::new());
        let ls = letset(
            vec![LetDef {
                name: "y".into(),
                expr: LetExpr::Scale("missing".into(), 2.0),
            }],
            &store,
        );
        let mut rec = FlatRecord::new();
        ls.apply(&mut rec);
        assert!(rec.is_empty());
    }
}
