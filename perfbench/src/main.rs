//! `perfbench` — see the library docs and `WORKLOADS.md`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match optinline_perfbench::Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match optinline_perfbench::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table =
        if opts.trace { optinline_perfbench::PER_LAYER } else { optinline_perfbench::END_TO_END };
    let result = report.result_line(table);
    for line in &report.lines {
        println!("# {line}");
    }
    if opts.trace {
        // Traced end-to-end figures, for the tracing-overhead comparison.
        for &(name, unit) in optinline_perfbench::END_TO_END {
            if let Some(v) = report.metrics.get(name) {
                println!("# traced {name} = {v} {unit}");
            }
        }
    }
    println!("{result}");
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
