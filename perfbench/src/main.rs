//! The repo benchmark. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
//!     [--repeat N] [--smoke] [--trace-out PATH] [--manifest]
//! ```

mod drive;
mod layers;
mod measure;
mod score;
mod trace;
mod workload;

use layers::{Metric, PER_LAYER};
use measure::{Outcome, END_TO_END};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Spec, WORKLOADS};

/// `run_seconds` in `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u32 = 12;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end metrics only. `Some(true)`: per-layer
    /// metrics only. `None`: both, end-to-end first.
    trace: Option<bool>,
    repeat: usize,
    smoke: bool,
    trace_out: Option<PathBuf>,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: None,
        repeat: 1,
        smoke: false,
        trace_out: None,
        manifest: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`: the tables in this binary are the single
/// source of the benchmark's names, and a test pins the file to them.
fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    let metric = |m: &Metric| {
        format!(
            "\"name\": {}, \"unit\": {}, \"better\": {}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better)
        )
    };
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    json_string(w.name),
                    json_string(w.why)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|(m, bound)| format!("    {{{}, \"bound\": {bound}}}", metric(m)))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| format!("    {{{}}}", metric(m)))
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

/// Print one outcome: every metric by name with its unit, notes, then the
/// result object as the last line.
fn report<'a>(
    spec: &Spec,
    title: &str,
    table: impl Iterator<Item = &'a Metric>,
    outcome: &Outcome,
) {
    println!("== {} ({title}) ==", spec.name);
    let mut fields = Vec::new();
    for (metric, value) in table.zip(&outcome.values) {
        println!("{:<52} {:>22} {}", metric.name, value, metric.unit);
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(metric.name),
            json_string(metric.unit)
        ));
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
}

/// Run the selected workloads once in the selected modes. Returns the
/// end-to-end values per workload (for `--repeat`) and whether all was
/// correct.
fn run_set(args: &Args, specs: &[Spec]) -> (Vec<Option<Vec<f64>>>, bool) {
    let mut all_correct = true;
    let mut end_to_end = Vec::new();
    for spec in specs {
        let messages = if args.smoke {
            spec.messages / 100
        } else {
            spec.messages
        };
        let mut values = None;
        if args.trace != Some(true) {
            let outcome = measure::end_to_end(spec, messages, args.seed, args.seconds, args.smoke);
            report(
                spec,
                "end to end",
                END_TO_END.iter().map(|(m, _)| m),
                &outcome,
            );
            all_correct &= outcome.correct;
            values = Some(outcome.values);
        }
        if args.trace != Some(false) {
            let outcome = measure::per_layer(
                spec,
                messages,
                args.seed,
                args.seconds,
                args.smoke,
                args.trace_out.as_deref(),
            );
            report(spec, "per layer, traced", PER_LAYER.iter(), &outcome);
            all_correct &= outcome.correct;
        }
        end_to_end.push(values);
    }
    (end_to_end, all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    let specs: Vec<Spec> = match &args.workload {
        None => WORKLOADS.to_vec(),
        Some(name) => match workload::find(name) {
            Some(spec) => vec![spec],
            None => {
                eprintln!("perfbench: unknown workload {name}");
                return ExitCode::from(2);
            }
        },
    };
    println!(
        "# closed loop, one caller, simulated clock, one-way delay {} sim-time units; seed {}, nproc {}",
        workload::NET_DELAY,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let (first, mut ok) = run_set(&args, &specs);
    for round in 1..args.repeat {
        let (again, correct) = run_set(&args, &specs);
        ok &= correct;
        println!(
            "== repeat {} vs first set: relative difference against bound ==",
            round + 1
        );
        for (spec, (a, b)) in specs.iter().zip(first.iter().zip(&again)) {
            let (Some(a), Some(b)) = (a, b) else { continue };
            for (((metric, bound), x), y) in END_TO_END.iter().zip(a).zip(b) {
                let difference = (x - y).abs() / x.abs();
                let verdict = if difference <= *bound {
                    "ok"
                } else {
                    "EXCEEDED"
                };
                println!(
                    "{:<14} {:<24} {:>12.6} bound {:<8} {verdict}",
                    spec.name, metric.name, difference, bound
                );
                ok &= difference <= *bound;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: FAILED (incorrect output or a repeat outside its bound)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_generated_from_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `cargo run --manifest-path perfbench/Cargo.toml -- --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_stays_within_the_contract() {
        assert!(manifest().len() < 64 * 1024);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END
            .iter()
            .any(|(m, _)| m.name == "setup_s" && m.unit == "s"));
        for (metric, bound) in &END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", metric.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
