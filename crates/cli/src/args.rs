//! Minimal command-line argument parsing (flag/value pairs plus
//! positional inputs) — hand-rolled to keep the dependency closure
//! small.

use std::collections::BTreeMap;

/// Parsed command line: flags with values, boolean switches, and
/// positional arguments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CliArgs {
    /// `--flag value` / `-f value` options (last occurrence wins).
    pub options: BTreeMap<String, String>,
    /// Every occurrence of each value option, in command-line order —
    /// for flags that may be given repeatedly (`-q Q1 -q Q2`).
    pub repeated: BTreeMap<String, Vec<String>>,
    /// Bare `--switch` flags.
    pub switches: Vec<String>,
    /// Positional arguments (input files).
    pub positional: Vec<String>,
}

/// Usage error with a message to print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// Parse arguments. `value_flags` lists the flags that take a value and
/// `switches` the bare ones (both long and short spellings, without
/// dashes). A switch may carry a `--switch=value`, which the caller
/// reads as an option (`--stats=json`). A flag in neither list is a
/// usage error: a typo must not run the command without it.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
    value_flags: &[&str],
    switches: &[&str],
) -> Result<CliArgs, UsageError> {
    let mut out = CliArgs::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if let Some(flag) = arg.strip_prefix("--").or_else(|| arg.strip_prefix('-')) {
            let (name, inline) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (flag, None),
            };
            let (takes_value, is_switch) = (value_flags.contains(&name), switches.contains(&name));
            let value = match inline {
                Some(value) if takes_value || is_switch => value,
                None if takes_value => iter
                    .next()
                    .ok_or_else(|| UsageError(format!("flag --{name} requires a value")))?,
                None if is_switch => {
                    out.switches.push(name.to_string());
                    continue;
                }
                _ => return Err(UsageError(format!("unknown flag {arg}"))),
            };
            out.options.insert(name.to_string(), value.clone());
            out.repeated.entry(name.to_string()).or_default().push(value);
        } else {
            out.positional.push(arg);
        }
    }
    Ok(out)
}

impl CliArgs {
    /// Look up an option by any of its spellings.
    pub fn get(&self, names: &[&str]) -> Option<&str> {
        names
            .iter()
            .find_map(|n| self.options.get(*n))
            .map(String::as_str)
    }

    /// Whether a switch is present.
    pub fn has(&self, names: &[&str]) -> bool {
        self.switches.iter().any(|s| names.contains(&s.as_str()))
    }

    /// Every occurrence of an option under any of its spellings, in
    /// command-line order per spelling.
    pub fn get_all(&self, names: &[&str]) -> Vec<&str> {
        names
            .iter()
            .filter_map(|n| self.repeated.get(*n))
            .flatten()
            .map(String::as_str)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positional() {
        let args = parse_args(
            strs(&["-q", "AGGREGATE count", "in1.cali", "in2.cali", "--help"]),
            &["q", "query"],
            &["h", "help"],
        )
        .unwrap();
        assert_eq!(args.get(&["query", "q"]), Some("AGGREGATE count"));
        assert_eq!(args.positional, vec!["in1.cali", "in2.cali"]);
        assert!(args.has(&["help", "h"]));
    }

    #[test]
    fn equals_spelling() {
        let args = parse_args(strs(&["--np=16", "--stats=json"]), &["np"], &["stats"]).unwrap();
        assert_eq!(args.get(&["np"]), Some("16"));
        assert_eq!(args.get(&["stats"]), Some("json"));
        assert!(!args.has(&["stats"]));
    }

    #[test]
    fn repeated_options_are_all_kept() {
        let args = parse_args(
            strs(&["-q", "one", "--query", "two", "-q", "three"]),
            &["q", "query"],
            &[],
        )
        .unwrap();
        // Scalar lookup keeps the last occurrence per spelling…
        assert_eq!(args.get(&["q"]), Some("three"));
        // …while get_all sees every occurrence.
        assert_eq!(args.get_all(&["q", "query"]), vec!["one", "three", "two"]);
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = parse_args(strs(&["--query"]), &["query"], &[]).unwrap_err();
        assert!(err.0.contains("--query"));
    }

    #[test]
    fn unknown_flags_are_errors() {
        for typo in ["--degarde", "-x", "--thraeds=2", "-"] {
            let err = parse_args(strs(&[typo, "2", "f.cali"]), &["threads"], &["degrade"]);
            assert_eq!(err, Err(UsageError(format!("unknown flag {typo}"))));
        }
    }
}
