//! `vsjbench` — the repository's benchmark: four wire-driven workloads
//! against an in-process `vsj-server`, timings normalised to a host
//! canary, end-to-end metrics from an untraced run and per-layer metrics
//! from a traced one. See `README.md` beside this file.
//!
//! ```text
//! vsjbench --workload W --seed N [--seconds S] [--trace 0|1]
//! vsjbench aa [--runs 5] [--seed N] [--seconds S]
//! vsjbench check            # BENCHMARK.json against the built-in tables
//! ```

mod aa;
mod host;
mod layers;
mod replay;
mod run;
mod script;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use vsj_server::json::Json;

use run::Mode;

const USAGE: &str =
    "usage: vsjbench --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]\n       \
                     vsjbench aa [--runs <n>] [--seed <u64>] [--seconds <n>]\n       \
                     vsjbench check";

/// `--flag value` pairs after the optional subcommand.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn number<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(name) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("--{name} {text:?} is not a valid number")),
        None => default.ok_or_else(|| format!("--{name} is required")),
    }
}

/// The one-line result the driver reads: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &run::Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(spec, value)| {
            (
                spec.name.to_string(),
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(spec.unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::u64(outcome.attempted)),
        ("failed", Json::u64(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .encode()
}

fn run_workload(flags: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let name: String = number(flags, "workload", None)?;
    let shape = script::shape(&name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed: u64 = number(flags, "seed", None)?;
    let seconds: f64 = number(flags, "seconds", Some(spec::RUN_SECONDS as f64))?;
    if !(seconds.is_finite() && (1.0..=60.0).contains(&seconds)) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    let mode = match number::<u8>(flags, "trace", Some(0))? {
        0 => Mode::Plain,
        1 => Mode::Traced,
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    let outcome = run::run(shape, seed, seconds, mode)?;
    for failure in &outcome.failures {
        eprintln!("vsjbench: FAILED {failure}");
    }
    println!(
        "{}",
        Json::obj([("vsjbench", outcome.detail.clone())]).encode()
    );
    println!("{}", result_line(&outcome));
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn check() -> Result<ExitCode, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path} (run from the repository root): {e}"))
    };
    let mut problems = spec::check_against(&read("BENCHMARK.json")?);
    // The benchmark's manifest repeats the repository's release profile;
    // a copy that drifts would measure differently compiled crates.
    let own = read(&format!("{}/Cargo.toml", spec::BENCH_DIR))?;
    if spec::release_profile(&own) != spec::release_profile(&read("Cargo.toml")?) {
        problems.push(format!(
            "[profile.release] of {}/Cargo.toml differs from the root manifest's",
            spec::BENCH_DIR
        ));
    }
    for problem in &problems {
        eprintln!("vsjbench check: {problem}");
    }
    if problems.is_empty() {
        println!(
            "BENCHMARK.json matches: {} workloads, {} end-to-end and {} per-layer metrics",
            spec::WORKLOADS.len(),
            spec::END_TO_END.len(),
            spec::PER_LAYER.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(word) if !word.starts_with("--") => (word, &args[1..]),
        _ => ("", args),
    };
    match command {
        "" => run_workload(&flags(rest)?),
        "aa" => aa::run(&flags(rest)?),
        "check" => check(),
        // Children of a run (see `run::run_child`).
        "oracle" => run::oracle_main(rest).map(|()| ExitCode::SUCCESS),
        "serve" => run::serve_main(rest).map(|()| ExitCode::SUCCESS),
        "build-store" => {
            let flags = flags(rest)?;
            let name: String = number(&flags, "workload", None)?;
            let shape = script::shape(&name).ok_or("unknown workload")?;
            let dir: String = number(&flags, "dir", None)?;
            run::build_store_main(
                shape,
                number(&flags, "seed", None)?,
                number(&flags, "seconds", None)?,
                std::path::Path::new(&dir),
            )
            .map(|()| ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("vsjbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_in_pairs() {
        let parsed = flags(&strings(&["--workload", "fresh_heap", "--seed", "7"])).unwrap();
        assert_eq!(parsed["workload"], "fresh_heap");
        assert_eq!(number::<u64>(&parsed, "seed", None), Ok(7));
        assert_eq!(number::<f64>(&parsed, "seconds", Some(15.0)), Ok(15.0));
        assert!(number::<u64>(&parsed, "runs", None).is_err());
        assert!(flags(&strings(&["--seed"])).is_err());
        assert!(flags(&strings(&["seed", "7"])).is_err());
    }

    #[test]
    fn bad_invocations_are_usage_errors_not_runs() {
        assert!(dispatch(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(dispatch(&strings(&["--workload", "fresh_heap"])).is_err());
        assert!(dispatch(&strings(&[
            "--workload",
            "fresh_heap",
            "--seed",
            "1",
            "--seconds",
            "0"
        ]))
        .is_err());
        assert!(dispatch(&strings(&["frobnicate"])).is_err());
    }
}
