//! LET-clause evaluation: derived attributes computed per input record
//! before filtering and aggregation — the "derive aggregation variables"
//! capability the paper's related-work section credits to Cube's metric
//! language, generalized here to arbitrary attributes.

use caliper_data::{AttrId, AttributeStore, Properties, ValueType};

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
    /// occurs at all. Absent inputs produce no output. The block fold
    /// evaluates every binding through this, over a run of rows or over
    /// one gathered row alike.
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

/// The bindings' output attributes, interned in the input's store once
/// the input has declared what it declares (the fold itself works on
/// labels, and needs an output's attribute only to keep a row whole).
#[derive(Default)]
pub(crate) struct LetSet {
    defs: Vec<LetDef>,
    /// Per binding, once interned: its output attribute; and the outputs
    /// this set added to the store, the data not having declared their
    /// labels by then.
    outs: Vec<AttrId>,
    added: Vec<AttrId>,
}

impl LetSet {
    /// The bindings of `defs`, their outputs not interned yet.
    pub(crate) fn new(defs: Vec<LetDef>) -> LetSet {
        LetSet { defs, ..LetSet::default() }
    }

    /// Whether `attr` is an output some binding added to the store —
    /// not something the input declared.
    pub(crate) fn added(&self, attr: AttrId) -> bool {
        self.added.contains(&attr)
    }

    /// Every binding's output attribute in `store`, in definition order,
    /// interned on the first call. A label the data already declares
    /// keeps the data's attribute, whatever its type — which is why this
    /// waits for the input's dictionary instead of running at compile
    /// time, where it would claim the label first.
    pub(crate) fn intern_outputs(&mut self, store: &AttributeStore) -> &[AttrId] {
        let LetSet { defs, outs, added } = self;
        if outs.len() < defs.len() {
            *outs = defs
                .iter()
                .map(|LetDef { name, expr }| {
                    let attr = store.find(name).unwrap_or_else(|| {
                        let created = store.create(name, expr.value_type(), Properties::AS_VALUE);
                        let attr = created.unwrap_or_else(|_| store.find(name).expect("exists"));
                        added.push(attr.id());
                        attr
                    });
                    attr.id()
                })
                .collect();
        }
        outs
    }
}

#[cfg(test)]
mod tests {
    use crate::run_query;
    use caliper_data::{RecordBuilder, SnapshotRecord, Value, ValueType};
    use caliper_format::Dataset;

    /// `let_` over one record of `pairs` (`declared` declared first, in
    /// that order): the value of label `at` in the row it keeps.
    fn output(let_: &str, declared: &[&str], pairs: &[(&str, Value)], at: &str) -> Option<Value> {
        let mut ds = Dataset::new();
        for name in declared {
            ds.store.create_simple(name, ValueType::Str);
        }
        let rec = pairs
            .iter()
            .fold(RecordBuilder::new(&ds.store), |rec, (l, v)| rec.with(l, v.clone()))
            .build();
        ds.push(SnapshotRecord::from(&rec));
        let result = run_query(&ds, &format!("{let_} SELECT *")).unwrap();
        assert_eq!(result.records.len(), 1);
        let attr = result.store.find(at)?.id();
        result.records.row(0).get(attr).cloned()
    }

    #[test]
    fn scale_converts_units() {
        let ms = output(
            "LET time.ms = scale(time.duration, 0.001)",
            &[],
            &[("time.duration", Value::Float(2500.0))],
            "time.ms",
        );
        assert_eq!(ms, Some(Value::Float(2.5)));
    }

    #[test]
    fn ratio_guards_division_by_zero() {
        let pairs = [("bytes", Value::Float(100.0)), ("time", Value::Float(0.0))];
        assert_eq!(output("LET bw = ratio(bytes, time)", &[], &pairs, "bw"), None);
    }

    #[test]
    fn first_picks_first_present() {
        let region = output(
            "LET region = first(annotation, function)",
            &["annotation", "function"],
            &[("function", Value::str("foo"))],
            "region",
        );
        assert_eq!(region, Some(Value::str("foo")));
    }

    #[test]
    fn truncate_bins_values() {
        for (input, expect) in [(0i64, 0.0), (9, 0.0), (10, 10.0), (27, 20.0)] {
            let bin = output(
                "LET iter.bin = truncate(iteration, 10)",
                &[],
                &[("iteration", Value::Int(input))],
                "iter.bin",
            );
            assert_eq!(bin, Some(Value::Float(expect)), "input {input}");
        }
    }

    #[test]
    fn absent_inputs_produce_no_output() {
        assert_eq!(output("LET y = scale(missing, 2)", &[], &[], "y"), None);
    }
}
