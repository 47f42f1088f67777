//! CLI for the in-tree lint: `cargo run -p wmlp-lint -- --check`.

use std::path::PathBuf;
use std::process::ExitCode;

use wmlp_lint::{check, rules, workspace_root};

/// `println!` that ignores write errors, so piping into `head` (which
/// closes stdout early) terminates the process cleanly instead of
/// panicking on `EPIPE`.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

const USAGE: &str = "\
wmlp-lint: determinism / panic-hygiene / seeded-randomness checks

USAGE:
    cargo run -p wmlp-lint -- [OPTIONS]

OPTIONS:
    --check           Lint and print every violation (default).
                      Exits 1 if there is any.
    --rules           Describe the rules and the suppression syntax.
    --root <path>     Repo root to lint (default: this workspace).
    --help            This message.
";

enum Mode {
    Check,
    Rules,
}

fn main() -> ExitCode {
    let mut mode = Mode::Check;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => mode = Mode::Check,
            "--rules" => mode = Mode::Rules,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                {
                    use std::io::Write;
                    let _ = write!(std::io::stdout(), "{USAGE}");
                }
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(workspace_root);

    match mode {
        Mode::Rules => {
            out!("rules:");
            for rule in rules::RULES {
                out!("  {:<4} {}", rule.id, rule.summary);
            }
            out!("\nsuppress a single finding (reason is mandatory):");
            out!("    // lint:allow(D2): wall time is display-only, zeroed in manifests");
            out!("\ndeclare a file's memory-ordering palette for C3 (reason is mandatory):");
            out!("    // lint:orderings(Relaxed, SeqCst): counters are advisory; the latch is one-shot");
            out!("\n--check exits 1 on any finding not suppressed or declared this way.");
            ExitCode::SUCCESS
        }
        Mode::Check => match check(&root) {
            Ok(report) => {
                for d in &report.violations {
                    out!("{d}");
                }
                out!(
                    "checked {} files: {} violation(s)",
                    report.files_scanned,
                    report.violations.len()
                );
                if report.passed() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
    }
}
