//! Self-tests of the benchmark: every workload passes its checks at a
//! reduced size, and each check fails on a deliberately corrupted output.
//!
//! ```text
//! cargo test --release --offline --manifest-path catbench/Cargo.toml
//! ```

use crate::fleet::{self, Cameras, Shape};
use crate::layers::StageTimes;
use crate::offline;
use crate::{Args, Run, PER_LAYER};

use catdet_serve::{serve_fleet, serve_net_fleet_with_recorder, FleetReport, SharedRecorder};

/// `(name, unit)` of every metric one section of `BENCHMARK.json` lists.
fn listed(section: &str) -> Vec<(String, String)> {
    let spec = include_str!("../../BENCHMARK.json");
    let start = spec.find(&format!("\"{section}\"")).unwrap();
    let end = start + spec[start..].find(']').unwrap();
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).unwrap() + key.len() + 5;
        entry[at..at + entry[at..].find('"').unwrap()].to_string()
    };
    spec[start..end]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let as_pairs = |m: Vec<crate::report::Metric>| -> Vec<(String, String)> {
        m.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    let run = offline::run(&args("offline-paper", false), offline::Size::small());
    assert_eq!(as_pairs(run.end_to_end.metrics()), listed("end_to_end"));
    assert_eq!(as_pairs(run.layers.metrics()), listed("per_layer"));
}

fn args(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.2,
        trace,
        threads: None,
        small: true,
    }
}

fn assert_complete(run: &Run) {
    assert!(run.checks.passed(), "output checks failed");
    assert_eq!(run.failed, 0);
    assert!(run.attempted > 0);
    for m in &run.end_to_end.metrics() {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }
}

#[test]
fn offline_paper_passes_at_reduced_size() {
    for trace in [false, true] {
        let run = offline::run(&args("offline-paper", trace), offline::Size::small());
        assert_complete(&run);
    }
}

#[test]
fn fleets_pass_at_reduced_size() {
    for name in ["fleet-steady", "fleet-bursty"] {
        for trace in [false, true] {
            let shape = Shape::named(name, true, None).unwrap();
            let run = fleet::run(&args(name, trace), &shape);
            assert_complete(&run);
            if trace {
                let traced = run.layers.metrics();
                assert_eq!(traced.len(), PER_LAYER.len());
                assert!(traced.iter().all(|m| m.value.is_finite()));
            }
        }
    }
}

#[test]
fn saving_check_rejects_a_small_saving() {
    assert!(offline::check_saving(45.0, 282.0).is_ok());
    assert!(offline::check_saving(60.0, 282.0).is_err());
}

#[test]
fn repeatability_check_rejects_a_changed_pass() {
    let inputs = offline::build_inputs(3, offline::Size::small());
    let a = offline::pass_summary(&inputs);
    let mut b = a.clone();
    assert!(offline::check_repeatable(&a, &b).is_ok());
    b.fingerprint ^= 1;
    assert!(offline::check_repeatable(&a, &b).is_err());
}

#[test]
fn scoring_sanity_holds_on_generated_frames() {
    let inputs = offline::build_inputs(3, offline::Size::small());
    offline::check_scoring(&inputs.kitti).unwrap();
}

fn steady_fleet() -> (Shape, Cameras, FleetReport) {
    let shape = Shape::named("fleet-steady", true, None).unwrap();
    let cams = fleet::build_cameras(5, &shape);
    let report = serve_fleet(cams.specs(), &shape.cfg);
    (shape, cams, report)
}

#[test]
fn fingerprint_catches_a_shifted_latency_sample() {
    let (_, _, mut report) = steady_fleet();
    let before = fleet::fingerprint(&report);
    assert_eq!(fleet::fingerprint(&report.clone()), before);
    report.shards[0].streams[0].latency_samples[0] += 1e-9;
    assert_ne!(fleet::fingerprint(&report), before);
}

#[test]
fn conservation_check_catches_an_altered_frame_count() {
    let (_, cams, mut report) = steady_fleet();
    fleet::check_conservation(&cams, &report).unwrap();
    report.shards[0].streams[0].arrived += 1;
    assert!(fleet::check_conservation(&cams, &report).is_err());
}

#[test]
fn isolation_check_catches_a_dropped_detection() {
    let (shape, cams, mut report) = steady_fleet();
    let alone = fleet::drive_alone(&cams, &shape.cfg, &report, &mut StageTimes::default());
    fleet::check_isolation(&report, &alone).unwrap();
    let stream = report
        .shards
        .iter_mut()
        .flat_map(|s| s.streams.iter_mut())
        .find(|s| s.outputs.iter().any(|(_, d)| !d.is_empty()))
        .expect("a stream with detections");
    let frame = stream
        .outputs
        .iter_mut()
        .find(|(_, d)| !d.is_empty())
        .unwrap();
    frame.1.pop();
    assert!(fleet::check_isolation(&report, &alone).is_err());
}

#[test]
fn latency_check_catches_a_shifted_sample() {
    let (shape, cams, mut report) = steady_fleet();
    let arrivals = fleet::shard_arrivals(&cams, &shape.cfg, false);
    fleet::check_latency(&report, &arrivals).unwrap();
    let makespan = report.makespan_s();
    report.shards[0].streams[0].latency_samples[0] += makespan;
    assert!(fleet::check_latency(&report, &arrivals).is_err());
}

#[test]
fn recorder_check_catches_a_shifted_sample_and_replays() {
    let shape = Shape::named("fleet-bursty", true, None).unwrap();
    let cams = fleet::build_cameras(5, &shape);
    let recorder: SharedRecorder = shape.cfg.recorder.build();
    let mut report =
        serve_net_fleet_with_recorder(cams.specs(), &shape.cfg, cams.net_seed, &recorder);
    assert_eq!(fleet::failed_frames(&report), 0);
    fleet::check_conservation(&cams, &report).unwrap();
    fleet::check_recorder(&cams, &report, &recorder, 3).unwrap();
    let s = report
        .shards
        .iter_mut()
        .flat_map(|s| s.streams.iter_mut())
        .find(|s| !s.latency_samples.is_empty())
        .unwrap();
    // Push one sample past every other: the pooled p99 moves, the
    // recorder's does not.
    s.latency_samples[0] = 1e6;
    assert!(fleet::check_recorder(&cams, &report, &recorder, 0).is_err());
}

#[test]
fn isolation_check_catches_frames_out_of_order() {
    let (shape, cams, mut report) = steady_fleet();
    let alone = fleet::drive_alone(&cams, &shape.cfg, &report, &mut StageTimes::default());
    report.shards[0].streams[0].outputs.swap(0, 1);
    let err = fleet::check_isolation(&report, &alone).unwrap_err();
    assert!(err.contains("out of order"), "{err}");
}
