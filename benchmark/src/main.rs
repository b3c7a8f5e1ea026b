//! The fmeter benchmark: see `README.md` beside `Cargo.toml`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE] [--smoke]
//! ```

mod alloc;
mod gen;
mod layers;
mod measure;
mod oracle;
mod refkernel;
mod sink;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::{Config, Metric, Report};
use workloads::daemon_stream::DaemonStream;
use workloads::fleet_churn::FleetChurn;
use workloads::fleet_query::FleetQuery;
use workloads::syndrome_refresh::SyndromeRefresh;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 4] = [
    "daemon_stream",
    "fleet_query",
    "fleet_churn",
    "syndrome_refresh",
];

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 9] = [
    "setup_s",
    "ops_per_s",
    "op_p50_us",
    "op_tail_us",
    "recover_ms",
    "disk_bytes_per_sig",
    "peak_heap_mb",
    "alloc_kb_per_op",
    "quality",
];

fn usage() -> ! {
    eprintln!(
        "usage: fmeter-benchmark [--workload {}] [--seed N] [--seconds S] \
         [--trace 0|1] [--trace-out FILE] [--smoke]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

struct Args {
    workload: Option<String>,
    cfg: Config,
}

fn parse_args() -> Args {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("benchmark/target"), PathBuf::from);
    let mut args = Args {
        workload: None,
        cfg: Config {
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
            scratch: target.join(format!("fmeter-bench-{}", std::process::id())),
            trace_out: None,
        },
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.cfg.smoke = true;
            continue;
        }
        let value = argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = Some(value),
            "--seed" => args.cfg.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.cfg.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" if value == "0" || value == "1" => args.cfg.trace = value == "1",
            "--trace-out" => args.cfg.trace_out = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    args
}

fn print_report(workload: &str, cfg: &Config, report: &Report) {
    let line = |(name, value, unit): &Metric| println!("{workload}.{name} {value} {unit}");
    println!(
        "# workload={workload} seed={} trace={} smoke={} nproc={} ref_nominal_us={}",
        cfg.seed,
        u8::from(cfg.trace),
        cfg.smoke,
        std::thread::available_parallelism().map_or(0, usize::from),
        refkernel::REF_NOMINAL_US.iter().sum::<f64>(),
    );
    report.diagnostics.iter().for_each(line);
    report.metrics.iter().for_each(line);
    println!("{workload}.ops_attempted {} count", report.attempted);
    println!("{workload}.ops_failed {} count", report.failed);
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "{name} is not a number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

/// The run's scratch directory, removed again however the run ends.
struct Scratch<'a>(&'a std::path::Path);

impl Drop for Scratch<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
    }
}

/// Runs one workload in this process.
fn run_one(workload: &str, cfg: &Config) -> bool {
    std::fs::create_dir_all(&cfg.scratch).expect("scratch directory is writable");
    let _scratch = Scratch(&cfg.scratch);
    let mut report = match workload {
        "daemon_stream" => measure::run::<DaemonStream>(cfg),
        "fleet_query" => measure::run::<FleetQuery>(cfg),
        "fleet_churn" => measure::run::<FleetChurn>(cfg),
        _ => measure::run::<SyndromeRefresh>(cfg),
    };
    if cfg.trace {
        report.metrics.extend(layers::suite(cfg));
    }
    // The lists are the contract with `BENCHMARK.json`: print exactly
    // them, in their order.
    let listed: &[&str] = if cfg.trace {
        &layers::PER_LAYER
    } else {
        &END_TO_END
    };
    assert_eq!(report.metrics.len(), listed.len(), "a metric is unlisted");
    report.metrics = listed
        .iter()
        .map(|name| {
            let found = report.metrics.iter().find(|m| m.0 == *name);
            found
                .unwrap_or_else(|| panic!("{name} was not measured"))
                .clone()
        })
        .collect();
    print_report(workload, cfg, &report);
    report.correct
}

/// Runs every workload, each in a fresh process of this program, so
/// none inherits another's heap, page cache state or thread pool.
fn run_all() -> bool {
    let exe = std::env::current_exe().expect("own path");
    let passthrough: Vec<String> = std::env::args().skip(1).collect();
    WORKLOADS.iter().fold(true, |ok, workload| {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(&passthrough)
            .status()
            .expect("own binary runs");
        ok && status.success()
    })
}

fn main() -> ExitCode {
    // `--recover KIND PATH SHARE`: this process is a recovery child of
    // a run (see `measure::recover_in_child`), not a run.
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, kind, path, share] = &argv[..] {
        if flag == "--recover" {
            let stored = measure::Stored::named(kind).unwrap_or_else(|| usage());
            let share = share.parse().unwrap_or_else(|_| usage());
            measure::recover_in_child(stored, path.as_ref(), share);
            return ExitCode::SUCCESS;
        }
    }
    let args = parse_args();
    let ok = match &args.workload {
        Some(workload) => run_one(workload, &args.cfg),
        None => run_all(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names under `key` in `BENCHMARK.json`, in order. The file is
    /// flat enough that a scan for `"name": "…"` inside the key's array
    /// reads it; the product's JSON parser stays out of the benchmark.
    fn names_under(key: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_program_prints() {
        assert_eq!(names_under("workloads"), WORKLOADS);
        assert_eq!(names_under("end_to_end"), END_TO_END);
        assert_eq!(names_under("per_layer"), layers::PER_LAYER);
    }
}
