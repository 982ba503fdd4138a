//! The uavca benchmark: runs one workload for a given seed through the
//! public APIs of `acasx`, `encounter`, `sim`, `core`, `exec` and
//! `serve`, checks every estimate, and prints its metrics.
//!
//! ```text
//! perfbench --workload <paired_full|multi_density|fleet_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` records spans around every call
//! into the program and reports the per-layer metrics instead. See
//! `README.md` beside this crate for every metric's definition.

// A benchmark harness reads the wall clock by design; the repository's
// clippy.toml forbids it only in simulation and estimation paths.
#![allow(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

mod common;
mod fleet;
mod goldens;
mod multi;
mod oracle;
mod paired;
mod probes;
mod trace;

use common::{host_probe, mean, median, quantile, WorkloadRun};
use goldens::{DEFAULT_SEED, FIXED_CAMPAIGNS, HELD_OUT_SEED};
use trace::Tracer;

/// End-to-end metrics (untraced runs), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("jobs_per_s", "1/s"),
    ("uav_steps_per_s", "1/s"),
    ("time_to_target_s", "s"),
    ("runs_to_target", "count"),
    ("round_latency_ms_p50", "ms"),
    ("round_latency_ms_p90", "ms"),
];

/// Per-layer metrics (traced runs), with units. A layer a workload does
/// not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("acasx.solve_s", "s"),
    ("acasx.table_mib", "MiB"),
    ("acasx.lookup_ns", "ns"),
    ("acasx.lookups_per_uav_step", "ratio"),
    ("encounter.sample_ns", "ns"),
    ("sim.arm_us.equipped", "us"),
    ("sim.arm_us.unequipped", "us"),
    ("sim.ns_per_uav_step", "ns"),
    ("sim.multi_us_per_aircraft.k2", "us"),
    ("sim.multi_us_per_aircraft.k4", "us"),
    ("sim.multi_us_per_aircraft.k8", "us"),
    ("core.batch_ms_per_round", "ms"),
    ("core.batch_share", "ratio"),
    ("core.plan_round_us", "us"),
    ("core.complete_round_us", "us"),
    ("core.split.branch_jobs_per_root", "ratio"),
    ("core.split.level_pass_ratio", "ratio"),
    ("core.split.steps_per_root", "count"),
    ("exec.pool_speedup", "ratio"),
    ("serve.wire_bytes_per_job", "B"),
    ("serve.encode_us_per_job", "us"),
    ("serve.decode_us_per_job", "us"),
    ("serve.shard_overhead_us_per_job", "us"),
    ("serve.control_tick_us", "us"),
    ("serve.notices_per_tick", "ratio"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.requeued_jobs", "count"),
    ("serve.faults", "count"),
    ("host.nproc", "count"),
    ("host.spin2_over_1", "ratio"),
    ("trace.jobs_per_s", "1/s"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        argv.windows(2)
            .find(|w| w[0] == name)
            .map(|w| w[1].as_str())
            .ok_or(format!("missing {name}"))
    };
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed,
        seconds,
        trace,
    })
}

/// Per-layer metrics of the campaign layer, from the stepper spans:
/// batch time per round and its share of campaign time, and the median
/// planning and completion calls.
pub fn core_layers(tr: &Tracer) -> Vec<(&'static str, f64)> {
    let batch_ns: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("core.batch."))
        .map(|s| s.duration_ns() as f64)
        .sum();
    let rounds = tr.durations("core.complete_round").len().max(1) as f64;
    let campaign_ns = tr.total_ns("campaign").max(1.0);
    vec![
        ("core.batch_ms_per_round", batch_ns / rounds * 1e-6),
        ("core.batch_share", batch_ns / campaign_ns),
        (
            "core.plan_round_us",
            median(&tr.durations("core.plan_round")) * 1e-3,
        ),
        (
            "core.complete_round_us",
            median(&tr.durations("core.complete_round")) * 1e-3,
        ),
    ]
}

fn json_metrics(values: &[(&str, &str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, v)) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paired_full|multi_density|fleet_mixed> \
                 --seed <n> --seconds <s> --trace <0|1>\n\
                 (tune on seed {DEFAULT_SEED}; confirm a gain on the held-out seed {HELD_OUT_SEED})"
            );
            return ExitCode::from(2);
        }
    };
    let ran = match args.workload.as_str() {
        "paired_full" => paired::run(&args, process_start),
        "multi_density" => multi::run(&args, process_start),
        "fleet_mixed" => fleet::run(&args, process_start),
        other => Err(format!("unknown workload {other}")),
    };
    let mut run = match ran {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match report(&args, &mut run) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the context lines and returns the final JSON line.
fn report(args: &Args, run: &mut WorkloadRun) -> Result<String, String> {
    let (nproc, spin) = host_probe();
    let compared = oracle::check_goldens(&args.workload, args.seed, &mut run.records);
    eprintln!(
        "golden {}",
        oracle::golden_line(&args.workload, args.seed, &run.records)
    );

    let jobs: usize = run.records.iter().map(|r| r.jobs).sum();
    let steps: u64 = run.records.iter().map(|r| r.uav_steps).sum();
    let gaps: Vec<f64> = run
        .records
        .iter()
        .flat_map(|r| r.round_gaps_ms.iter().copied())
        .collect();
    let times: Vec<f64> = run.records.iter().map(|r| r.time_to_target_s).collect();
    let fixed_runs: Vec<f64> = run
        .records
        .iter()
        .filter(|r| r.key < FIXED_CAMPAIGNS)
        .map(|r| r.runs as f64)
        .collect();
    let jobs_per_s = jobs as f64 / run.timed_s;

    println!(
        "workload {} seed {} trace {}: {} campaigns, {jobs} jobs, {steps} UAV-steps in {:.3} s; engine {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        run.records.len(),
        run.timed_s,
        run.engine
    );
    println!(
        "round latency: {} gaps, {} beyond p90; set-ups {:?} s; goldens compared {compared}",
        gaps.len(),
        gaps.len() / 10,
        run.setup_s
    );
    println!("host: nproc={nproc} spin2_over_1={spin:.4}");
    let mut kinds: Vec<&str> = run.records.iter().map(|r| r.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    for kind in kinds {
        let of: Vec<_> = run.records.iter().filter(|r| r.kind == kind).collect();
        let runs: Vec<f64> = of.iter().map(|r| r.runs as f64).collect();
        let secs: Vec<f64> = of.iter().map(|r| r.time_to_target_s).collect();
        println!(
            "{kind}: {} campaigns, mean {:.1} runs and {:.4} s to target",
            of.len(),
            mean(&runs),
            mean(&secs)
        );
    }
    for r in run.records.iter().filter(|r| r.failure.is_some()) {
        println!(
            "FAILED campaign {} ({}): {}",
            r.key,
            r.kind,
            r.failure.as_deref().unwrap_or("")
        );
    }
    for f in &run.failures {
        println!("FAILED check: {f}");
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let mut layers = std::mem::take(&mut run.layers);
        layers.push(("host.nproc", nproc as f64));
        layers.push(("host.spin2_over_1", spin));
        layers.push(("trace.jobs_per_s", jobs_per_s));
        if let Some(tr) = &run.tracer {
            write_trace(args, tr)?;
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = layers.iter().find(|(n, _)| *n == name).map_or(0.0, |l| l.1);
                (name, unit, v)
            })
            .collect()
    } else {
        let values = [
            median(&run.setup_s),
            run.fixed_rss_mib,
            jobs_per_s,
            steps as f64 / run.timed_s,
            mean(&times),
            mean(&fixed_runs),
            quantile(&gaps, 0.5),
            quantile(&gaps, 0.9),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    let mut failed =
        run.records.iter().filter(|r| r.failure.is_some()).count() + run.failures.len();
    let mut metrics = metrics;
    for m in metrics.iter_mut().filter(|m| !m.2.is_finite()) {
        println!("FAILED metric {} is not finite", m.0);
        m.2 = 0.0;
        failed += 1;
    }
    let attempted = run.records.len() + run.checks;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics)
    ))
}

/// Writes the spans and prints each span name's total and self time.
fn write_trace(args: &Args, tr: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, tr.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    eprintln!(
        "{:<28} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total, self_ns)) in tr.summary() {
        eprintln!(
            "{name:<28} {count:>8} {:>12.3} {:>12.3}",
            total as f64 * 1e-6,
            self_ns as f64 * 1e-6
        );
    }
    Ok(())
}
