//! Shared query-checking plumbing behind `cali-query --check` and the
//! `cali-lint` binary: parse a query, run the semantic analyzer against
//! an optional schema, and render the diagnostics as human-readable
//! carets or as JSON.

use std::path::Path;

use caliper_format::{scan_dictionary, CaliError, Dataset, ReadPolicy, Schema};
use caliper_query::{analyze, parse_query_spanned, Diagnostic};

/// One checked query: where it came from, its text, and what the
/// analyzer said about it.
#[derive(Debug, Clone)]
pub struct CheckedQuery {
    /// Display name of the query's origin (a file path or `<query>` for
    /// inline strings) — the `source` part of `source:line:col:`.
    pub source: String,
    /// The query text itself.
    pub query: String,
    /// Diagnostics, sorted by span then code (deterministic).
    pub diagnostics: Vec<Diagnostic>,
}

/// Check one query string. A parse failure yields a single `E001`
/// diagnostic (the analyzer needs a spec to look at); otherwise the
/// full semantic pass runs against `schema` when one is given.
pub fn check_query(source: &str, query: &str, schema: Option<&Schema>) -> CheckedQuery {
    let diagnostics = match parse_query_spanned(query) {
        Ok((spec, spans)) => analyze(&spec, Some(&spans), schema),
        Err(e) => vec![Diagnostic::from(&e)],
    };
    CheckedQuery {
        source: source.to_string(),
        query: query.to_string(),
        diagnostics,
    }
}

impl CheckedQuery {
    /// True when no diagnostic (of any severity) was reported.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render all diagnostics as `source:line:col:` caret blocks.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            out.push_str(&diag.render(&self.source, &self.query));
        }
        out
    }

    /// Render all diagnostics as one JSON array entry per diagnostic,
    /// wrapped in an object naming the source.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"source\": \"");
        out.push_str(&caliper_format::json::escape_json(&self.source));
        out.push_str("\", \"diagnostics\": [");
        for (i, diag) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&diag.render_json(&self.query));
        }
        out.push_str("]}");
        out
    }
}

/// Exit code for a set of checked queries: `0` all clean, `1` at least
/// one error, `2` warnings only.
pub fn exit_code(checked: &[CheckedQuery]) -> u8 {
    let mut code = 0u8;
    for c in checked {
        if Diagnostic::has_errors(&c.diagnostics) {
            return 1;
        }
        if !c.diagnostics.is_empty() {
            code = 2;
        }
    }
    code
}

/// One summary line for stderr: `N error(s), M warning(s) in K queries`.
pub fn summary_line(checked: &[CheckedQuery]) -> String {
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for c in checked {
        for d in &c.diagnostics {
            match d.severity {
                caliper_query::Severity::Error => errors += 1,
                caliper_query::Severity::Warning => warnings += 1,
            }
        }
    }
    let queries = checked.len();
    let plural = |n: usize| if n == 1 { "" } else { "s" };
    format!(
        "{errors} error{}, {warnings} warning{} in {queries} quer{}",
        plural(errors),
        plural(warnings),
        if queries == 1 { "y" } else { "ies" }
    )
}

/// The merged schema of data files nobody is about to query: each
/// file's dictionary as [`scan_dictionary`] reads it under `policy` —
/// the readers' own decoders for everything the file declares, its
/// snapshots passed over — observed in input order, which degrades
/// conflicting types to `mixed`.
pub fn infer_schema<P: AsRef<Path>>(paths: &[P], policy: ReadPolicy) -> Result<Schema, CaliError> {
    let mut schema = Schema::new();
    for path in paths {
        let (dict, _) = scan_dictionary(path, Dataset::new(), policy)?;
        schema.extend(dict.store.all());
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_data::{Properties, ValueType};

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.observe("function", ValueType::Str, Properties::NESTED);
        s.observe("time.duration", ValueType::Float, Properties::AGGREGATABLE);
        s
    }

    /// `function` (nested string) and `time.duration` (aggregatable
    /// double), one snapshot carrying both.
    fn sample_dataset() -> Dataset {
        let mut ds = Dataset::new();
        ds.attribute("function", ValueType::Str, Properties::NESTED);
        let props = Properties::AS_VALUE | Properties::AGGREGATABLE;
        ds.attribute("time.duration", ValueType::Float, props);
        let rec = caliper_data::RecordBuilder::new(&ds.store)
            .with("function", "main")
            .with("time.duration", 2.5)
            .build();
        ds.push(caliper_data::SnapshotRecord::from(&rec));
        ds
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cali-lint-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn infer_schema_is_the_dictionary_of_every_encoding() {
        let dir = temp_dir("encodings");
        let ds = sample_dataset();
        let files = [
            (dir.join("a.cali"), caliper_format::cali::to_bytes(&ds)),
            (dir.join("a.calb"), caliper_format::binary::to_binary(&ds)),
            (dir.join("a.calb2"), caliper_format::to_binary_v2(&ds)),
        ];
        for (path, bytes) in &files {
            std::fs::write(path, bytes).unwrap();
            let inferred = infer_schema(&[path], ReadPolicy::Strict).unwrap();
            assert_eq!(
                inferred,
                Schema::from_store(&ds.store),
                "{}",
                path.display()
            );
            assert_eq!(inferred.len(), 2);
            let t = inferred.get("time.duration").unwrap();
            assert_eq!(t.value_type, Some(ValueType::Float));
            assert!(t.properties.contains(Properties::AGGREGATABLE));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn infer_schema_degrades_cross_file_conflicts_to_mixed() {
        let dir = temp_dir("mixed");
        let (a, b) = (dir.join("a.cali"), dir.join("b.cali"));
        std::fs::write(&a, "__rec=attr,id=0,name=x,type=int,prop=default\n").unwrap();
        std::fs::write(&b, "__rec=attr,id=0,name=x,type=string,prop=global\n").unwrap();
        let inferred = infer_schema(&[&a, &b], ReadPolicy::Strict).unwrap();
        let x = inferred.get("x").unwrap();
        assert_eq!(x.type_name(), "mixed");
        assert!(x.properties.contains(Properties::GLOBAL));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn infer_schema_reads_as_the_query_reads_but_passes_over_snapshots() {
        let dir = temp_dir("damaged");
        let path = dir.join("damaged.cali");
        let text = "\
__rec=attr,id=0,name=function,type=string,prop=nested
__rec=attr,id=1,name=time.duration,type=double,prop=asvalue\\,aggregatable
__rec=node,id=0,attr=0,data=main
garbage line
__rec=ctx,ref=0,attr=1,data=2.5
__rec=ctx,ref=99,attr=1,data=not-a-number
";
        std::fs::write(&path, text).unwrap();
        // What the file declares goes through the reader: a bad line is
        // its error, named by file and line, or its lenient skip.
        let err = infer_schema(&[&path], ReadPolicy::Strict)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("damaged.cali") && err.contains("line 4"),
            "{err}"
        );
        // The damaged snapshot on line 6 is never looked at.
        let inferred = infer_schema(&[&path], ReadPolicy::lenient()).unwrap();
        assert_eq!(inferred.len(), 2);
        assert_eq!(
            inferred.get("function").unwrap().value_type,
            Some(ValueType::Str)
        );

        // A torn binary stream: an error, or the attributes declared
        // before the tear.
        for bytes in [
            caliper_format::binary::to_binary(&sample_dataset()),
            caliper_format::to_binary_v2(&sample_dataset()),
        ] {
            std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
            assert!(infer_schema(&[&path], ReadPolicy::Strict).is_err());
            assert!(infer_schema(&[&path], ReadPolicy::lenient()).unwrap().len() <= 2);
        }
        std::fs::write(&path, b"CALBnope").unwrap();
        assert!(infer_schema(&[&path], ReadPolicy::lenient()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_errors_become_e001() {
        let checked = check_query("<query>", "AGGREGATE sum(", None);
        assert_eq!(checked.diagnostics.len(), 1);
        assert_eq!(checked.diagnostics[0].code, "E001");
        assert_eq!(exit_code(&[checked]), 1);
    }

    #[test]
    fn clean_query_exits_zero() {
        let checked = check_query(
            "<query>",
            "AGGREGATE sum(time.duration) GROUP BY function",
            Some(&schema()),
        );
        assert!(checked.is_clean(), "{:?}", checked.diagnostics);
        assert_eq!(exit_code(&[checked]), 0);
    }

    #[test]
    fn warnings_only_exit_two() {
        let checked = check_query(
            "q.calql",
            "LET unused = scale(time.duration, 2) AGGREGATE count GROUP BY function",
            Some(&schema()),
        );
        assert_eq!(checked.diagnostics.len(), 1);
        assert_eq!(checked.diagnostics[0].code, "W001");
        assert_eq!(exit_code(std::slice::from_ref(&checked)), 2);
        // Any error anywhere wins over warnings.
        let bad = check_query(
            "b",
            "AGGREGATE sum(function) GROUP BY function",
            Some(&schema()),
        );
        assert_eq!(exit_code(&[checked, bad]), 1);
    }

    #[test]
    fn render_text_names_the_source() {
        let checked = check_query(
            "my.calql",
            "AGGREGATE sum(nope) GROUP BY function",
            Some(&schema()),
        );
        let text = checked.render_text();
        assert!(text.starts_with("my.calql:1:"), "{text}");
        assert!(text.contains("E002"), "{text}");
    }

    #[test]
    fn render_json_is_parseable() {
        let checked = check_query(
            "q",
            "AGGREGATE sum(function) GROUP BY function",
            Some(&schema()),
        );
        let json = checked.render_json();
        let parsed = caliper_format::parse_json(&json).unwrap();
        drop(parsed);
    }

    #[test]
    fn summary_counts() {
        let warn = check_query(
            "a",
            "LET u = scale(time.duration, 2) AGGREGATE count GROUP BY function",
            Some(&schema()),
        );
        let err = check_query(
            "b",
            "AGGREGATE sum(function) GROUP BY function",
            Some(&schema()),
        );
        let line = summary_line(&[warn, err]);
        assert_eq!(line, "1 error, 1 warning in 2 queries");
    }
}
