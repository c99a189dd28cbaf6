//! Golden report bytes for `search` and `autotune`: every objective
//! (size, speed, pareto) under every cache state (no cache directory, a
//! cold one, the same one warm), with and without `--pass-stats`, all on
//! `--jobs 1` with `--stats` on.
//!
//! The expected bytes live in `tests/golden_reports.txt`, one section per
//! case. Only two figures of the `--stats` line are masked: the
//! `compiling` wall time and the executor's steal count, the two values
//! that depend on the machine rather than on the program. Everything else,
//! compile and cache counters included, must match byte for byte.
//!
//! To regenerate the expectations after an intended report change, run
//! with `OPTINLINE_BLESS=1` and review the diff of the `.txt` file.

use optinline_cli::{
    cmd_autotune, cmd_gen, cmd_search, EvalOptions, InitChoice, Objective, TargetChoice,
};
use std::path::{Path, PathBuf};

const GOLDEN: &str = "tests/golden_reports.txt";

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("optinline-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Masks the machine-dependent figures of an `evaluator:` stats line:
/// the `<duration> compiling` segment and the `<n> steals` count.
fn mask(report: &str) -> String {
    let mut out = String::new();
    for line in report.lines() {
        if line.starts_with("evaluator:") {
            let segments: Vec<String> = line
                .split(", ")
                .map(|seg| {
                    if seg.ends_with(" compiling") {
                        "<t> compiling".to_string()
                    } else if let Some(rest) = seg.strip_prefix("executor: ") {
                        let parts: Vec<&str> = rest.split(" / ").collect();
                        let parts: Vec<String> = parts
                            .iter()
                            .map(|p| {
                                if p.ends_with(" steals") {
                                    "<n> steals".to_string()
                                } else {
                                    p.to_string()
                                }
                            })
                            .collect();
                        format!("executor: {}", parts.join(" / "))
                    } else {
                        seg.to_string()
                    }
                })
                .collect();
            out.push_str(&segments.join(", "));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Runs every case and returns `(case name, masked report)` in a fixed
/// order.
fn reports() -> Vec<(String, String)> {
    let src = cmd_gen(11, 5, 2).expect("generation succeeds");
    let mut out = Vec::new();
    for command in ["search", "autotune"] {
        for objective in [Objective::Size, Objective::Speed, Objective::Pareto] {
            for pass_stats in [false, true] {
                let dir = tmp(&format!("{command}-{objective}-{pass_stats}"));
                let opts = |cache_dir: Option<&Path>| EvalOptions {
                    show_stats: true,
                    show_pass_stats: pass_stats,
                    jobs: Some(1),
                    cache_dir: cache_dir.map(Path::to_path_buf),
                    objective,
                    ..EvalOptions::default()
                };
                let run = |cache_dir: Option<&Path>| -> String {
                    let report = match command {
                        "search" => cmd_search(&src, 18, TargetChoice::X86, opts(cache_dir)),
                        _ => cmd_autotune(
                            &src,
                            3,
                            InitChoice::Both,
                            TargetChoice::X86,
                            opts(cache_dir),
                        ),
                    };
                    mask(&report.expect("command succeeds"))
                };
                let suffix = if pass_stats { " pass-stats" } else { "" };
                let name = |state: &str| format!("{command} {objective} {state}{suffix}");
                out.push((name("no-cache"), run(None)));
                out.push((name("cold"), run(Some(&dir))));
                out.push((name("warm"), run(Some(&dir))));
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
    out
}

fn render(cases: &[(String, String)]) -> String {
    let mut text = String::new();
    for (name, report) in cases {
        text.push_str(&format!("=== {name}\n{report}"));
    }
    text
}

#[test]
fn search_and_autotune_reports_match_the_golden_bytes() {
    let actual = render(&reports());
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("OPTINLINE_BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden file present");
    let sections = |text: &str| -> Vec<String> {
        text.split("=== ").filter(|s| !s.is_empty()).map(str::to_owned).collect()
    };
    let (want, got) = (sections(&expected), sections(&actual));
    assert_eq!(want.len(), got.len(), "case count changed");
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w, g, "report bytes diverged from {GOLDEN}");
    }
}

#[test]
fn mask_hides_only_the_compile_time_and_the_steal_count() {
    let line = "evaluator:          9 queries, 3 compiles (1.00 full-module equivalents), \
                6 cache hits / 3 misses, 12.5ms compiling, 0 fixpoint cap hits, \
                executor: 7 tasks / 2 steals / 0 dedup hits\n";
    assert_eq!(
        mask(line),
        "evaluator:          9 queries, 3 compiles (1.00 full-module equivalents), \
         6 cache hits / 3 misses, <t> compiling, 0 fixpoint cap hits, \
         executor: 7 tasks / <n> steals / 0 dedup hits\n"
    );
    assert_eq!(mask("optimal size:       120 B\n"), "optimal size:       120 B\n");
}
