//! Checks of the benchmark's own checks: the correctness gates catch a
//! deliberately wrong evaluator, and every workload reports exactly the
//! metrics `BENCHMARK.json` declares.

use optinline_perfbench::{run, Options, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn search_suite(extra: &[&str]) -> Options {
    let base = ["--workload", "search-suite", "--seed", "3", "--seconds", "0.01", "--trace", "0"];
    Options::parse(&args(&[&base[..], &["--scale", "small"], extra].concat())).unwrap()
}

#[test]
fn search_gate_catches_an_injected_wrong_size() {
    let report = run(&search_suite(&[])).unwrap();
    assert_eq!(report.failed, 0, "honest run failed: {:?}", report.lines);
    assert!(report.attempted > 0);

    // Every inlining configuration reads 1 B too large: the reported
    // optimum no longer matches its own recompile.
    let report = run(&search_suite(&["--inject-size-bug", "1"])).unwrap();
    assert!(report.failed > 0, "the search gate missed a 1 B misreport: {:?}", report.lines);
    assert!(report.lines.iter().any(|l| l.starts_with("FAIL")));
}

#[test]
fn search_gate_catches_a_hidden_optimum() {
    // Every inlining configuration reads 1 GiB too large, so the search
    // settles on the clean slate, whose reported size is honest: only the
    // naive enumeration on an independent evaluator sees the better
    // configurations the search was misled about.
    let report = run(&search_suite(&["--inject-size-bug", "1073741824"])).unwrap();
    let fails: Vec<&String> = report.lines.iter().filter(|l| l.starts_with("FAIL")).collect();
    assert!(report.failed > 0, "the search gate missed a hidden optimum: {:?}", report.lines);
    assert!(fails.iter().all(|l| l.contains("naive enumeration finds")), "{fails:?}");
}

/// `"name": "<x>"` values inside the JSON array under `key`.
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |entry: &str, f: &str| -> Option<String> {
        let at = entry.find(&format!("\"{f}\""))?;
        let rest = &entry[at + f.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = rest[open..].find('"')? + open;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .skip(1)
        .filter_map(|entry| Some((field(entry, "name")?, field(entry, "unit")?)))
        .collect()
}

/// Metric names in a result line, in order.
fn reported(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    let chunks: Vec<&str> = metrics.split("\": {\"value\"").collect();
    // Each chunk but the last ends with the opening quote of a name.
    chunks[..chunks.len() - 1]
        .iter()
        .map(|chunk| chunk[chunk.rfind('"').expect("quoted name") + 1..].to_string())
        .collect()
}

#[test]
fn every_workload_reports_the_declared_metrics() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).unwrap();
    let as_pairs = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared(&json, "end_to_end"), as_pairs(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), as_pairs(PER_LAYER));
    let workloads: Vec<String> = declared_workloads(&json);
    assert_eq!(workloads, WORKLOADS);

    for workload in WORKLOADS {
        for (trace, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
                .args(["--trace", trace, "--scale", "small"])
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{workload} trace {trace} failed:\n{stdout}");
            let last = stdout.lines().last().unwrap();
            assert!(last.starts_with("{\"correct\": true"), "{last}");
            let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            assert_eq!(reported(last), names, "{workload} trace {trace}");
        }
    }
}

fn declared_workloads(json: &str) -> Vec<String> {
    let start = json.find("\"workloads\"").unwrap();
    let body = &json[start..];
    let body = &body[..body.find(']').unwrap()];
    body.split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect()
}

#[test]
fn bad_arguments_are_refused() {
    assert!(
        Options::parse(&args(&["--workload", "nope", "--seed", "1", "--seconds", "1"])).is_err()
    );
    assert!(Options::parse(&args(&["--workload", "serve-zipf", "--seconds", "1"])).is_err());
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).arg("--bogus").output().unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
