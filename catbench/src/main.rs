//! One benchmark for CaTDet, end to end and per layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path catbench/Cargo.toml -- \
//!     --workload <offline-paper|fleet-steady|fleet-bursty> --seed <n> \
//!     --seconds <s> --trace <0|1> [--threads <n>]
//! ```
//!
//! Each run generates its workload's inputs from `--seed`, drives the
//! program through its public API for `--seconds` of whole repetitions,
//! checks the outputs, and prints one JSON line last: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `README.md` next to this file for the workloads and metrics.

mod fleet;
mod layers;
mod measure;
mod offline;
mod report;
mod score;
#[cfg(test)]
mod selftest;

use layers::LayerTimes;
use report::{Checks, EndToEnd, Metric, Outcome};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2019;

/// Times the input set-up is repeated to report its median.
const SETUP_REPS: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fleet OS threads (`ShardConfig::threads`); `None` keeps the
    /// workload's default.
    pub threads: Option<usize>,
    /// Reduced workload sizes; set only by the self-tests.
    pub small: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        threads: None,
        small: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--threads" => {
                let n: usize = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
                let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
                if n == 0 || n > cpus {
                    return Err(format!("--threads must be 1..={cpus} (this host's CPUs)"));
                }
                args.threads = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// What a workload hands back: checks, counts and every metric it has.
pub struct Run {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: EndToEnd,
    pub layers: LayerMetrics,
}

/// Every per-layer metric with its unit. A layer a workload does not run
/// through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.build_s", "s"),
    ("core.begin_us", "us"),
    ("core.proposal_us", "us"),
    ("core.refinement_us", "us"),
    ("detector.full_frame_us", "us"),
    ("detector.regions_us", "us"),
    ("geom.nms_us", "us"),
    ("track.predict_us", "us"),
    ("track.update_us", "us"),
    ("core.pricing_us", "us"),
    ("metrics.eval_us", "us"),
    ("pipeline.direct_us", "us"),
    ("serve.overhead_us", "us"),
    ("net.ingest_us", "us"),
    ("recorder.overhead_us", "us"),
    ("trace.timed_share", "%"),
    ("core.regions_per_frame", "count"),
    ("core.coverage", "fraction"),
    ("core.proposal_gmacs", "GMAC"),
    ("core.refinement_gmacs", "GMAC"),
    ("scheduler.proposal_batch_mean", "frames"),
    ("scheduler.launches_saved", "count"),
    ("scheduler.refine_batch_mean", "frames"),
    ("fleet.fused_dispatches", "count"),
    ("fleet.migrations", "count"),
    ("autoscale.scale_events", "count"),
    ("policy.coasted_frames", "count"),
    ("net.disconnects", "count"),
    ("net.throttles", "count"),
    ("recorder.events_per_frame", "count"),
    ("recorder.bytes_per_event", "B"),
    ("recorder.snapshots", "count"),
];

/// Per-layer values by name.
#[derive(Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Median per-frame µs of each re-driven layer over whole passes.
    pub fn set_redrive(&mut self, passes: &[LayerTimes]) {
        let us = |f: fn(&LayerTimes) -> f64| {
            let v: Vec<f64> = passes
                .iter()
                .map(|t| f(t) / t.frames.max(1) as f64 * 1e6)
                .collect();
            measure::median(&v)
        };
        self.set("detector.full_frame_us", us(|t| t.full_frame_s));
        self.set("detector.regions_us", us(|t| t.regions_s));
        self.set("geom.nms_us", us(|t| t.nms_s));
        self.set("track.predict_us", us(|t| t.predict_s));
        self.set("track.update_us", us(|t| t.update_s));
        self.set("core.pricing_us", us(|t| t.pricing_s));
    }

    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// Builds the inputs [`SETUP_REPS`] times; returns the last build and the
/// median build time in seconds.
pub fn setup_median<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Only one build is alive at a time, so peak memory holds one.
        drop(last.take());
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("SETUP_REPS > 0"), measure::median(&times))
}

/// Logs each repetition's wall and CPU µs per frame to stderr.
pub fn log_reps(workload: &str, reps: &[measure::Rep], frames: usize) {
    let fmt = |pick: fn(&measure::Rep) -> f64| {
        reps.iter()
            .map(|r| format!("{:.1}", pick(r) / frames as f64 * 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("{workload}: {} repetitions of {frames} frames", reps.len());
    eprintln!("  wall us/frame: {}", fmt(|r| r.wall_s));
    eprintln!("  cpu  us/frame: {}", fmt(|r| r.cpu_s));
}

fn run(args: &Args) -> Result<Run, String> {
    Ok(match args.workload.as_str() {
        "offline-paper" => offline::run(
            args,
            if args.small {
                offline::Size::small()
            } else {
                offline::Size::full()
            },
        ),
        "fleet-steady" | "fleet-bursty" => {
            let shape = fleet::Shape::named(&args.workload, args.small, args.threads)
                .expect("fleet workload name");
            fleet::run(args, &shape)
        }
        other => {
            return Err(format!(
                "unknown workload {other} (offline-paper, fleet-steady, fleet-bursty)"
            ))
        }
    })
}

/// Restricts this process to the first `cpus` of the CPUs it may run on
/// and returns how many it now runs on. Called before any thread starts,
/// so every thread the run spawns inherits the restriction.
///
/// A run uses as many CPUs as it has fleet threads. On a shared host the
/// serving layer's cross-thread handoffs otherwise wait on whichever CPU
/// the hypervisor has descheduled, and its wall time swings with other
/// tenants' load rather than with the program.
fn pin_to_cpus(cpus: usize) -> Result<usize, String> {
    // glibc's and musl's `cpu_set_t`: 1024 bits.
    const WORDS: usize = 1024 / 64;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is `size_of_val(&allowed)` bytes long; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let has = allowed
        .iter()
        .map(|w| w.count_ones() as usize)
        .sum::<usize>();
    if has <= cpus {
        return Ok(has);
    }
    let mut pinned = [0u64; WORDS];
    (0..WORDS * 64)
        .filter(|&bit| allowed[bit / 64] >> (bit % 64) & 1 == 1)
        .take(cpus)
        .for_each(|bit| pinned[bit / 64] |= 1 << (bit % 64));
    // SAFETY: as above; the mask is a subset of the allowed one.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&pinned), pinned.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpus)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("catbench: {e}");
            return ExitCode::from(2);
        }
    };
    match pin_to_cpus(args.threads.unwrap_or(1)) {
        Ok(n) => eprintln!("catbench: running on {n} CPU(s)"),
        // The figures stay valid, only noisier on a shared host.
        Err(e) => eprintln!("catbench: cannot restrict CPUs ({e}); running unrestricted"),
    }
    let result = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("catbench: {e}");
            return ExitCode::from(2);
        }
    };
    let correct = result.checks.passed();
    let outcome = Outcome {
        correct,
        attempted: result.attempted,
        failed: result.failed,
        metrics: if args.trace {
            result.layers.metrics()
        } else {
            result.end_to_end.metrics()
        },
    };
    println!("{}", outcome.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
