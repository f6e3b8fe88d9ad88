//! `paper` — regenerate one table or figure of the paper's evaluation
//! (§V–VI): its CSV to stdout, commentary to stderr, and last its
//! claims against the paper under `# Shape checks vs. the paper`.
//!
//! ```text
//! paper table1|fig5|fig6|fig7|fig8|fig9 [--quick]
//! paper fig3 [--quick] [--runs N] [--scale F]
//! paper fig4 [--quick] [--max-np N] [--kill RANK]
//! paper fig4 --ranks N [--nodes N] [--workers W] [--kills K] [--kill-seed S]
//! ```
//!
//! Exit status: 0 when every deterministic claim holds, 2 when one
//! fails, 1 on a usage error (an unknown artifact, or a flag the
//! artifact does not read).

mod amr;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod table1;

use std::process::ExitCode;
use std::str::FromStr;

use cali_cli::{parse_args, CliArgs, UsageError};
use caliper_bench::{exit_code, Claim};
use miniapps::CleverLeafParams;

const USAGE: &str = "usage: paper table1|fig5|fig6|fig7|fig8|fig9 [--quick]
       paper fig3 [--quick] [--runs N] [--scale F]
       paper fig4 [--quick] [--max-np N] [--kill RANK]
       paper fig4 --ranks N [--nodes N] [--workers W] [--kills K] [--kill-seed S]";

/// One artifact: the name it is asked for by, the heading its claims
/// print under, the value flags it reads (`--quick` aside), and the
/// function that regenerates it from the command line.
struct Artifact {
    name: &'static str,
    heading: &'static str,
    flags: &'static [&'static str],
    run: fn(&CliArgs) -> Vec<Claim>,
}

const FIG4_FLAGS: [&str; 7] = ["max-np", "kill", "ranks", "nodes", "workers", "kills", "kill-seed"];

const ARTIFACTS: [Artifact; 8] = [
    Artifact { name: "table1", heading: "Table I", flags: &[], run: table1::run },
    Artifact { name: "fig3", heading: "Figure 3", flags: &["runs", "scale"], run: fig3::run },
    Artifact { name: "fig4", heading: "Figure 4", flags: &FIG4_FLAGS, run: fig4::run },
    Artifact { name: "fig5", heading: "Figure 5", flags: &[], run: fig5::run },
    Artifact { name: "fig6", heading: "Figure 6", flags: &[], run: fig6::run },
    Artifact { name: "fig7", heading: "Figure 7", flags: &[], run: fig7::run },
    Artifact { name: "fig8", heading: "Figure 8", flags: &[], run: amr::fig8 },
    Artifact { name: "fig9", heading: "Figure 9", flags: &[], run: amr::fig9 },
];

fn main() -> ExitCode {
    let (artifact, args) = parse(std::env::args().skip(1)).unwrap_or_else(|e| usage(&e.0));
    let claims = (artifact.run)(&args);
    if !claims.is_empty() {
        eprintln!();
        eprintln!("# Shape checks vs. the paper ({}):", artifact.heading);
        for claim in &claims {
            eprintln!("#   {claim}");
        }
    }
    ExitCode::from(exit_code(&claims))
}

/// Print a usage error and exit 1.
fn usage(message: &str) -> ! {
    eprintln!("paper: {message}\n{USAGE}");
    std::process::exit(1)
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<(&'static Artifact, CliArgs), UsageError> {
    let value_flags = ["runs", "scale"].into_iter().chain(FIG4_FLAGS).collect::<Vec<_>>();
    let args = parse_args(args, &value_flags, &["quick"])?;
    let [name] = args.positional.as_slice() else {
        return Err(UsageError("name exactly one artifact".into()));
    };
    let artifact = ARTIFACTS
        .iter()
        .find(|a| a.name == name)
        .ok_or_else(|| UsageError(format!("unknown artifact `{name}`")))?;
    if let Some(flag) = args.options.keys().find(|f| !artifact.flags.contains(&f.as_str())) {
        return Err(UsageError(format!("{name} takes no --{flag}")));
    }
    Ok((artifact, args))
}

/// The value of `--flag`, if given; one that does not parse is a usage
/// error.
fn flag<T: FromStr>(args: &CliArgs, flag: &str) -> Option<T> {
    let value = args.get(&[flag])?;
    Some(value.parse().unwrap_or_else(|_| usage(&format!("--{flag} cannot take `{value}`"))))
}

/// `full`, or with `--quick` its first 20 timesteps on `quick_ranks`
/// ranks.
fn clever_leaf(args: &CliArgs, full: CleverLeafParams, quick_ranks: usize) -> CleverLeafParams {
    if args.has(&["quick"]) {
        CleverLeafParams { timesteps: 20, ranks: quick_ranks, ..full }
    } else {
        full
    }
}
