//! prep-lint CLI.
//!
//! ```text
//! cargo run -p prep-lint -- --deny            # lint the workspace, exit 1 on findings
//! cargo run -p prep-lint -- --json            # JSON-lines output (suppressions included)
//! cargo run -p prep-lint -- --explain RULE    # print a rule's rationale
//! cargo run -p prep-lint -- --list-rules      # print every rule id
//! cargo run -p prep-lint -- path/to/file.rs   # lint specific files
//! ```
//!
//! The workspace root is `--root <dir>` if given, else the nearest
//! ancestor of the current directory whose `Cargo.toml` has a
//! `[workspace]` table, so the binary works from any subdirectory. The
//! policy is [`Config::default`]; there is no config file.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use prep_lint::{
    diag, lint_files, lint_files_all, lint_workspace, lint_workspace_all, rule_ids, Config,
    Diagnostic,
};

struct Args {
    deny: bool,
    list_rules: bool,
    json: bool,
    explain: Option<String>,
    root: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny: false,
        list_rules: false,
        json: false,
        explain: None,
        root: None,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => args.deny = true,
            "--list-rules" => args.list_rules = true,
            "--json" => args.json = true,
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain needs a rule id")?);
            }
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?))
            }
            "--help" | "-h" => {
                println!(
                    "prep-lint: static analysis for PREP-UC concurrency & persistence invariants\n\
                     \n\
                     usage: prep-lint [--deny] [--json] [--root DIR] [--list-rules]\n\
                     \x20                [--explain RULE] [FILES…]\n\
                     \n\
                     --deny         exit 1 if any finding is reported\n\
                     --json         one JSON object per finding (suppressed ones included,\n\
                     \x20               marked with their allow reason); --deny still counts\n\
                     \x20               only unsuppressed findings\n\
                     --explain RULE print the rationale behind a rule id and exit\n\
                     --root DIR     workspace root (default: nearest ancestor whose\n\
                     \x20               Cargo.toml has a [workspace] table)\n\
                     --list-rules   print every rule id and exit\n\
                     FILES          lint only these files (workspace-relative or absolute)"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag: {other}")),
            other => args.files.push(PathBuf::from(other)),
        }
    }
    Ok(args)
}

/// Nearest ancestor of `start` whose `Cargo.toml` has a `[workspace]`
/// table.
fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if let Ok(manifest) = std::fs::read_to_string(d.join("Cargo.toml")) {
            if manifest.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Minimal JSON string escaping (the subset `String` needs).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One finding as a single JSON line (stable key order).
fn json_line(d: &Diagnostic) -> String {
    let mut out = String::new();
    out.push('{');
    out.push_str(&format!("\"file\":{}", json_str(&d.path)));
    out.push_str(&format!(",\"line\":{}", d.line));
    out.push_str(&format!(",\"col\":{}", d.col));
    out.push_str(&format!(",\"end_line\":{}", d.end_line));
    out.push_str(&format!(",\"rule\":{}", json_str(d.rule)));
    out.push_str(&format!(",\"message\":{}", json_str(&d.message)));
    if let Some(s) = &d.suggestion {
        out.push_str(&format!(",\"suggestion\":{}", json_str(s)));
    }
    if let Some(r) = &d.suppressed_by {
        out.push_str(&format!(",\"suppressed_by\":{}", json_str(r)));
    }
    out.push('}');
    out
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.list_rules {
        for r in rule_ids::ALL {
            println!("{r}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(rule) = &args.explain {
        return match diag::explain(rule) {
            Some(text) => {
                println!("{rule}\n\n{text}");
                Ok(ExitCode::SUCCESS)
            }
            None => Err(format!(
                "unknown rule id `{rule}` — see --list-rules for the full set"
            )),
        };
    }

    let cwd = std::env::current_dir().map_err(|e| format!("current_dir: {e}"))?;
    let root = match &args.root {
        Some(r) => r.clone(),
        None => find_root(&cwd).ok_or("no [workspace] Cargo.toml found above cwd")?,
    };
    let cfg = Config::default();

    let diags = if args.files.is_empty() {
        if args.json {
            lint_workspace_all(&root, &cfg)?
        } else {
            lint_workspace(&root, &cfg)?
        }
    } else {
        let mut files = Vec::new();
        for f in &args.files {
            let abs = if f.is_absolute() {
                f.clone()
            } else {
                cwd.join(f)
            };
            let rel = abs
                .strip_prefix(&root)
                .unwrap_or(&abs)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&abs)
                .map_err(|e| format!("reading {}: {e}", abs.display()))?;
            files.push((rel, src));
        }
        if args.json {
            lint_files_all(&files, &cfg)
        } else {
            lint_files(&files, &cfg)
        }
    };

    if args.json {
        for d in &diags {
            println!("{}", json_line(d));
        }
    } else {
        for d in &diags {
            println!("{d}");
        }
    }
    // `--deny` gates on *active* findings only; `--json` additionally
    // prints the suppressed ones for the baseline diff.
    let active = diags.iter().filter(|d| d.suppressed_by.is_none()).count();
    if active == 0 {
        eprintln!("prep-lint: clean");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("prep-lint: {active} finding(s)");
        Ok(if args.deny {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        })
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("prep-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}
