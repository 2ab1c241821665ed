//! `fleet-steady` and `fleet-bursty`: sharded fleets of KITTI-like and
//! CityPersons-like cameras behind the serving layer, open loop.
//!
//! Every camera's arrival times are fixed before the run starts; a frame's
//! latency is virtual time from its arrival to its completion, so a stall
//! is charged to every frame queued behind it.

use crate::layers::{drive_frame_timed, redrive_sequence, LayerTimes, StageTimes};
use crate::measure::{self, mix, nearest_rank, time_once, unit, Rep};
use crate::report::{ensure, Checks, EndToEnd};
use crate::score::{add_frames, citypersons_evaluator, kitti_evaluator, map_and_delay};
use crate::{Args, LayerMetrics, Run};
use catdet_core::{FrameOutput, PolicedPipeline, StagedDetector};
use catdet_data::{citypersons_like, kitti_like, Frame, StreamFrame, StreamSource};
use catdet_detector::{zoo, DetectorModel};
use catdet_net::run_ingest;
use catdet_recorder::Query;
use catdet_serve::shard::RebalanceSignal;
use catdet_serve::{
    replay_stream, serve_fleet, serve_fleet_with_recorder, serve_net_fleet,
    serve_net_fleet_with_recorder, AutoscaleConfig, FleetReport, IngestConfig, PartitionKind,
    PolicyConfig, PolicyKind, PresetFactory, RecorderConfig, ServeConfig, ShardConfig,
    SharedRecorder, StreamSpec, SystemFactory, SystemKind,
};
use std::collections::hash_map::DefaultHasher;
use std::fmt::{self, Write as _};
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

/// How a camera's arrival times are laid out.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Fixed frame rates; camera `slot` of `n` starts `slot / n` of a
    /// period late, so arrivals interleave evenly.
    Steady {
        kitti_fps: f64,
        citypersons_fps: f64,
    },
    /// Every camera alternates quiet and burst phases in step with the
    /// fleet (seeded start offsets of at most `jitter_s`), so bursts
    /// stampede fleet-wide.
    Bursty {
        quiet_fps: f64,
        burst_fps: f64,
        quiet_s: f64,
        burst_s: f64,
        jitter_s: f64,
    },
}

/// The make-up of one fleet workload.
#[derive(Debug, Clone)]
pub struct Shape {
    pub kitti_cameras: usize,
    pub kitti_frames: usize,
    pub citypersons_cameras: usize,
    pub citypersons_frames: usize,
    pub arrivals: Arrivals,
    pub cfg: ServeConfig,
    /// Streams whose replay from a mid-run snapshot is verified.
    pub replayed_streams: usize,
}

impl Shape {
    /// The named workload at full or reduced size, with the fleet's OS
    /// thread count overridden when `threads` is given.
    pub fn named(name: &str, small: bool, threads: Option<usize>) -> Option<Self> {
        let mut shape = match name {
            "fleet-steady" => Self::steady(small),
            "fleet-bursty" => Self::bursty(small),
            _ => return None,
        };
        if let Some(t) = threads {
            shape.cfg.shard = shape.cfg.shard.with_threads(t);
        }
        Some(shape)
    }

    /// Steady arrivals below saturation; always-detect, direct ingest, no
    /// refinement fusion, no recorder; backlog rebalancing.
    fn steady(small: bool) -> Self {
        let (kitti_cameras, citypersons_cameras, shards) =
            if small { (6, 2, 2) } else { (24, 8, 8) };
        let (kitti_frames, citypersons_frames) = if small { (120, 30) } else { (400, 100) };
        Self {
            kitti_cameras,
            kitti_frames,
            citypersons_cameras,
            citypersons_frames,
            arrivals: Arrivals::Steady {
                kitti_fps: 10.0,
                citypersons_fps: 2.5,
            },
            cfg: ServeConfig::new()
                .with_workers(4)
                .with_max_batch(4)
                .with_queue_capacity(64)
                .with_shard(
                    ShardConfig::sharded(shards)
                        .with_partition(PartitionKind::LeastLoaded)
                        .with_rebalance_interval_s(0.5)
                        .with_migration_cost_frames(4)
                        .with_threads(1),
                ),
            replayed_streams: 0,
        }
    }

    /// Quiet/burst cycles with every serving feature on: CamLink ingest
    /// with jitter and disconnects (no reordering), predictive autoscaling
    /// and predicted rebalancing, the confidence-trigger frame policy,
    /// fleet-wide refinement fusion, and the flight recorder with replay
    /// snapshots.
    fn bursty(small: bool) -> Self {
        let (kitti_cameras, citypersons_cameras, shards) =
            if small { (8, 2, 3) } else { (40, 8, 12) };
        let frames = if small { 60 } else { 240 };
        let mut autoscale = AutoscaleConfig::predictive(1, 2);
        // Modelled service time of one detected KITTI frame, so that the
        // predictive target `ceil(forecast_fps × service)` means workers.
        autoscale.service_s_per_frame = 0.065;
        Self {
            kitti_cameras,
            kitti_frames: frames,
            citypersons_cameras,
            citypersons_frames: frames,
            arrivals: Arrivals::Bursty {
                quiet_fps: 2.0,
                burst_fps: 10.0,
                quiet_s: 2.0,
                burst_s: 1.0,
                jitter_s: 0.05,
            },
            cfg: ServeConfig::new()
                .with_workers(1)
                .with_max_batch(4)
                .with_queue_capacity(64)
                .with_fuse_refinement(true)
                .with_policy(PolicyConfig::confidence_trigger(1.0))
                .with_autoscale(autoscale)
                .with_shard(
                    ShardConfig::sharded(shards)
                        .with_rebalance_interval_s(0.25)
                        .with_migration_cost_frames(4)
                        .with_rebalance_signal(RebalanceSignal::Predicted)
                        .with_fuse_across_shards(true)
                        .with_threads(1),
                )
                .with_recorder(RecorderConfig::on().with_snapshot_every_frames(frames / 6))
                .with_ingest(
                    IngestConfig::net()
                        .with_conn_jitter_s(0.004)
                        .with_disconnect_rate(0.01),
                ),
            replayed_streams: 3,
        }
    }
}

/// One camera: its generated frames and its stream spec.
pub struct Camera {
    pub citypersons: bool,
    pub frames: Vec<Frame>,
    pub spec: StreamSpec,
}

/// The generated fleet.
pub struct Cameras {
    pub cameras: Vec<Camera>,
    pub net_seed: u64,
}

impl Cameras {
    fn frames(&self) -> usize {
        self.cameras.iter().map(|c| c.frames.len()).sum()
    }

    /// Fresh specs for one serving run (`serve_fleet` consumes them).
    pub fn specs(&self) -> Vec<StreamSpec> {
        self.cameras
            .iter()
            .map(|c| StreamSpec {
                source: c.spec.source.clone(),
                factory: Arc::clone(&c.spec.factory),
                priority: c.spec.priority,
                policy: c.spec.policy,
            })
            .collect()
    }
}

/// Arrival times of `n` frames for camera `slot`.
fn arrival_times(
    arrivals: Arrivals,
    seed: u64,
    (slot, cameras): (usize, usize),
    n: usize,
    citypersons: bool,
) -> Vec<f64> {
    match arrivals {
        Arrivals::Steady {
            kitti_fps,
            citypersons_fps,
        } => {
            let period = 1.0
                / if citypersons {
                    citypersons_fps
                } else {
                    kitti_fps
                };
            let phase = slot as f64 / cameras as f64;
            (0..n).map(|i| (phase + i as f64) * period).collect()
        }
        Arrivals::Bursty {
            quiet_fps,
            burst_fps,
            quiet_s,
            burst_s,
            jitter_s,
        } => {
            let cycle = quiet_s + burst_s;
            let mut t = unit(seed, 100 + slot as u64) * jitter_s;
            (0..n)
                .map(|_| {
                    let at = t;
                    let in_quiet = at.rem_euclid(cycle) < quiet_s;
                    t += 1.0 / if in_quiet { quiet_fps } else { burst_fps };
                    at
                })
                .collect()
        }
    }
}

/// Generates the fleet's cameras from `seed`. CityPersons cameras are
/// spread evenly among the KITTI ones in stream-id order.
pub fn build_cameras(seed: u64, shape: &Shape) -> Cameras {
    let kitti = kitti_like()
        .sequences(shape.kitti_cameras)
        .frames_per_sequence(shape.kitti_frames)
        .seed(mix(seed, 11))
        .build();
    let cp_ds = citypersons_like()
        .sequences(shape.citypersons_cameras)
        .frames_per_sequence(shape.citypersons_frames)
        .seed(mix(seed, 12))
        .build();
    let kitti_factory: Arc<dyn SystemFactory> = Arc::new(PresetFactory::kitti(SystemKind::CatdetA));
    let cp_factory: Arc<dyn SystemFactory> =
        Arc::new(PresetFactory::citypersons(SystemKind::CatdetA));
    let total = shape.kitti_cameras + shape.citypersons_cameras;
    let mut kitti_seqs = kitti.sequences().iter();
    let mut cp_seqs = cp_ds.sequences().iter();
    let mut cp_placed = 0;
    let cameras = (0..total)
        .map(|slot| {
            // Camera `slot` is CityPersons when the running share of
            // CityPersons cameras falls behind its target.
            let citypersons = (cp_placed + 1) * total <= (slot + 1) * shape.citypersons_cameras;
            let (ds, seq, factory) = if citypersons {
                cp_placed += 1;
                (
                    &cp_ds,
                    cp_seqs.next().expect("CityPersons camera"),
                    &cp_factory,
                )
            } else {
                (
                    &kitti,
                    kitti_seqs.next().expect("KITTI camera"),
                    &kitti_factory,
                )
            };
            let frames: Vec<Frame> = seq.frames().to_vec();
            let times = arrival_times(
                shape.arrivals,
                seed,
                (slot, total),
                frames.len(),
                citypersons,
            );
            let stream_frames = frames
                .iter()
                .zip(times)
                .map(|(f, arrival_s)| StreamFrame {
                    arrival_s,
                    frame: f.clone(),
                })
                .collect();
            let source =
                StreamSource::from_frames(slot, seq.fps, ds.width, ds.height, stream_frames);
            Camera {
                citypersons,
                frames,
                spec: StreamSpec::new(source, Arc::clone(factory)),
            }
        })
        .collect();
    Cameras {
        cameras,
        net_seed: mix(seed, 13),
    }
}

/// Whether frames reach the shards through CamLink ingest.
fn net(cfg: &ServeConfig) -> bool {
    cfg.ingest.kind == catdet_serve::IngestKind::Net
}

/// Serves `specs`, recorded into `recorder` when given.
fn serve_once(
    specs: Vec<StreamSpec>,
    net_seed: u64,
    cfg: &ServeConfig,
    recorder: Option<&SharedRecorder>,
) -> FleetReport {
    match (net(cfg), recorder) {
        (true, Some(r)) => serve_net_fleet_with_recorder(specs, cfg, net_seed, r),
        (true, None) => serve_net_fleet(specs, cfg, net_seed),
        (false, Some(r)) => serve_fleet_with_recorder(specs, cfg, r),
        (false, None) => serve_fleet(specs, cfg),
    }
}

/// Fingerprint of a whole report: its `Debug` rendering, streamed through
/// a hasher rather than held as a string.
pub fn fingerprint(report: &FleetReport) -> u64 {
    struct Feed(DefaultHasher);
    impl fmt::Write for Feed {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut feed = Feed(DefaultHasher::new());
    write!(feed, "{report:?}").expect("hashing cannot fail");
    feed.0.finish()
}

/// Frames lost before completion: dropped by the shards (backpressure
/// plus admission), refused at the door, and lost on the wire.
pub fn failed_frames(report: &FleetReport) -> usize {
    report.frames_dropped()
        + report
            .ingest
            .as_ref()
            .map_or(0, |i| i.rejected_at_door() + i.lost())
}

/// `arrived == processed + dropped` per stream, arrivals equal the frames
/// delivered to the shards, and (over the network) every generated frame
/// was offered and accounted for at the door.
pub fn check_conservation(cams: &Cameras, report: &FleetReport) -> Result<(), String> {
    let generated = cams.frames();
    for s in report.streams() {
        ensure(s.arrived == s.processed + s.dropped, || {
            format!(
                "stream {}: arrived {} != processed {} + dropped {}",
                s.stream_id, s.arrived, s.processed, s.dropped
            )
        })?;
    }
    let arrived = report.frames_arrived();
    match &report.ingest {
        None => ensure(arrived == generated, || {
            format!("{arrived} frames arrived, {generated} generated")
        }),
        Some(ing) => {
            ensure(ing.offered() == generated, || {
                format!(
                    "{} frames offered at the door, {generated} generated",
                    ing.offered()
                )
            })?;
            ensure(
                ing.delivered() + ing.rejected_at_door() + ing.lost() == ing.offered(),
                || "door accounting does not add up to the frames offered".to_string(),
            )?;
            ensure(arrived == ing.delivered(), || {
                format!(
                    "{arrived} frames arrived at shards, {} delivered",
                    ing.delivered()
                )
            })
        }
    }
}

/// A fresh pipeline for `cam`, wrapped in the run's frame policy the way
/// the scheduler wraps it.
fn fresh_pipeline(cam: &Camera, cfg: &ServeConfig) -> Box<dyn StagedDetector> {
    let policy = cam.spec.policy.unwrap_or(cfg.policy);
    let inner = cam.spec.factory.build_staged();
    if policy.kind != PolicyKind::AlwaysDetect || cfg.admission.downgrade {
        Box::new(PolicedPipeline::new(inner, policy))
    } else {
        inner
    }
}

/// Drives every stream alone, in order, through a fresh pipeline over the
/// frames the fleet processed for it; returns the outputs per stream (in
/// `report.streams()` order), with the stage calls timed into `t`.
pub fn drive_alone(
    cams: &Cameras,
    cfg: &ServeConfig,
    report: &FleetReport,
    t: &mut StageTimes,
) -> Vec<Vec<FrameOutput>> {
    report
        .streams()
        .iter()
        .map(|s| {
            let cam = &cams.cameras[s.stream_id];
            let mut pipeline = fresh_pipeline(cam, cfg);
            s.outputs
                .iter()
                .map(|(idx, _)| drive_frame_timed(pipeline.as_mut(), &cam.frames[*idx], t))
                .collect()
        })
        .collect()
}

/// Each stream's frames completed in arrival order, and its served
/// detections equal the stream driven alone.
pub fn check_isolation(report: &FleetReport, alone: &[Vec<FrameOutput>]) -> Result<(), String> {
    for (s, alone) in report.streams().iter().zip(alone) {
        ensure(s.outputs.windows(2).all(|w| w[0].0 < w[1].0), || {
            format!("stream {}: frames completed out of order", s.stream_id)
        })?;
        ensure(s.outputs.len() == alone.len(), || {
            format!(
                "stream {}: {} served outputs, {} driven alone",
                s.stream_id,
                s.outputs.len(),
                alone.len()
            )
        })?;
        for ((idx, served), solo) in s.outputs.iter().zip(alone) {
            ensure(*served == solo.detections, || {
                format!(
                    "stream {} frame {idx}: served detections differ from the stream driven alone",
                    s.stream_id
                )
            })?;
        }
    }
    Ok(())
}

/// Arrival time of each stream's frames as the shards saw them: the
/// generated timelines, or the door's delivery times over the network.
pub fn shard_arrivals(cams: &Cameras, cfg: &ServeConfig, net: bool) -> Vec<Vec<f64>> {
    let arrivals = |s: &StreamSource| {
        let mut v = vec![
            f64::NAN;
            s.frames()
                .iter()
                .map(|f| f.frame.index + 1)
                .max()
                .unwrap_or(0)
        ];
        for f in s.frames() {
            v[f.frame.index] = f.arrival_s;
        }
        v
    };
    if net {
        let sources: Vec<StreamSource> =
            cams.cameras.iter().map(|c| c.spec.source.clone()).collect();
        run_ingest(
            &sources,
            &cfg.ingest.net_params(cams.net_seed, cfg.queue_capacity),
        )
        .delivered
        .iter()
        .map(arrivals)
        .collect()
    } else {
        cams.cameras
            .iter()
            .map(|c| arrivals(&c.spec.source))
            .collect()
    }
}

/// Pooled latency samples in ascending order.
pub fn pooled_latencies(report: &FleetReport) -> Vec<f64> {
    let mut v: Vec<f64> = report
        .streams()
        .iter()
        .flat_map(|s| s.latency_samples.iter().copied())
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Every latency sample is finite and positive, no frame completes after
/// the makespan, and nearest-rank p50/p99 over the pooled raw samples equal
/// the report's merged percentiles.
pub fn check_latency(report: &FleetReport, arrivals: &[Vec<f64>]) -> Result<(), String> {
    let makespan = report.makespan_s();
    for s in report.streams() {
        ensure(s.latency_samples.len() == s.outputs.len(), || {
            format!(
                "stream {}: {} latency samples for {} outputs",
                s.stream_id,
                s.latency_samples.len(),
                s.outputs.len()
            )
        })?;
        for ((idx, _), &lat) in s.outputs.iter().zip(&s.latency_samples) {
            ensure(lat.is_finite() && lat > 0.0, || {
                format!("stream {} frame {idx}: latency {lat}", s.stream_id)
            })?;
            let arrival = arrivals[s.stream_id][*idx];
            ensure(arrival + lat <= makespan * (1.0 + 1e-12) + 1e-9, || {
                format!(
                    "stream {} frame {idx}: arrival {arrival} + latency {lat} exceeds makespan {makespan}",
                    s.stream_id
                )
            })?;
        }
    }
    let pooled = pooled_latencies(report);
    let merged = report
        .merged_latency()
        .ok_or_else(|| "no latency samples".to_string())?;
    let (p50, p99) = (nearest_rank(&pooled, 0.50), nearest_rank(&pooled, 0.99));
    ensure(p50 == merged.p50_s && p99 == merged.p99_s, || {
        format!(
            "pooled p50/p99 {p50}/{p99} differ from the report's {}/{}",
            merged.p50_s, merged.p99_s
        )
    })
}

/// The recorder's full-window percentiles equal the pooled ones, and a few
/// streams replay bit-exactly from mid-run snapshots.
pub fn check_recorder(
    cams: &Cameras,
    report: &FleetReport,
    recorder: &SharedRecorder,
    replayed: usize,
) -> Result<(), String> {
    let pooled = pooled_latencies(report);
    let rec = recorder.latency_stats(&Query::all());
    ensure(
        rec.samples == pooled.len()
            && rec.p50_s == nearest_rank(&pooled, 0.50)
            && rec.p99_s == nearest_rank(&pooled, 0.99),
        || {
            format!(
                "recorder latency {} samples p50/p99 {}/{} differ from the pooled {} samples",
                rec.samples,
                rec.p50_s,
                rec.p99_s,
                pooled.len()
            )
        },
    )?;
    let n = cams.cameras.len();
    let mid = report.makespan_s() / 2.0;
    for k in 0..replayed.min(n) {
        let stream = k * n / replayed;
        let spec = &cams.cameras[stream].spec;
        let r = replay_stream(recorder, spec, mid)
            .map_err(|e| format!("replay of stream {stream}: {e}"))?;
        ensure(
            r.resumed_after_seq > 0 && !r.frames.is_empty() && r.verified(),
            || {
                format!(
                    "replay of stream {stream} from t={mid:.2}s: resumed after seq {}, {} frames, \
                 mismatched seqs {:?}",
                    r.resumed_after_seq,
                    r.frames.len(),
                    r.mismatched_seqs()
                )
            },
        )?;
    }
    Ok(())
}

/// Served outputs scored per geometry: `(mAP KITTI, mD@0.8 KITTI, mAP CityPersons)`.
pub fn score(cams: &Cameras, report: &FleetReport) -> (f64, Option<f64>, f64) {
    let mut kitti = kitti_evaluator();
    let mut cp = citypersons_evaluator();
    for s in report.streams() {
        let cam = &cams.cameras[s.stream_id];
        let ev = if cam.citypersons { &mut cp } else { &mut kitti };
        add_frames(
            ev,
            s.outputs
                .iter()
                .map(|(idx, dets)| (&cam.frames[*idx], dets.as_slice())),
        );
    }
    let (map_k, delay) = map_and_delay(&kitti);
    (map_k, delay, cp.map())
}

/// Share of provisioned worker time spent serving frames: priced
/// dispatches plus per-frame handling and tracker CPU.
fn utilization(report: &FleetReport, cfg: &ServeConfig) -> f64 {
    let t = cfg.timing;
    let busy = report.gpu_dispatch_s()
        + report.frames_processed() as f64 * (t.frame_overhead_s + t.tracker_overhead_s);
    busy / report.worker_seconds()
}

pub fn run(args: &Args, shape: &Shape) -> Run {
    let (cams, setup_s) = crate::setup_median(|| build_cameras(args.seed, shape));
    let frames = cams.frames();
    let net = net(&shape.cfg);
    let cfg = shape.cfg;
    let recorded = cfg.recorder.enabled;
    let unrecorded_cfg = cfg.with_recorder(RecorderConfig::off());
    let mut checks = Checks::default();
    let mut layers = LayerMetrics::default();

    // Timed serving repetitions. The traced run alternates recorded and
    // unrecorded repetitions of a recorded workload to price the recorder.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // Each report is fingerprinted and dropped, so that the peak memory
    // read after the loop is one serving run's.
    let mut reps: Vec<Rep> = Vec::new();
    let mut plain_reps: Vec<Rep> = Vec::new();
    let mut first: Option<u64> = None;
    let mut failed = 0u64;
    let repeated = |first: Option<u64>, report: &FleetReport| {
        ensure(first == Some(fingerprint(report)), || {
            "a repeated serving run produced a different report".to_string()
        })
    };
    let start = Instant::now();
    while reps.is_empty()
        || (args.trace && recorded && plain_reps.is_empty())
        || start.elapsed().as_secs_f64() < budget
    {
        let plain_turn = args.trace && recorded && reps.len() > plain_reps.len();
        let recorder = (recorded && !plain_turn).then(|| cfg.recorder.build());
        let run_cfg = if plain_turn { &unrecorded_cfg } else { &cfg };
        let specs = cams.specs();
        let (report, rep) =
            time_once(|| serve_once(specs, cams.net_seed, run_cfg, recorder.as_ref()));
        failed += failed_frames(&report) as u64;
        if plain_turn {
            plain_reps.push(rep);
        } else {
            reps.push(rep);
        }
        match first {
            None => first = Some(fingerprint(&report)),
            Some(_) => checks.record(repeated(first, &report)),
        }
    }
    let peak_rss_mb = measure::peak_rss_mb();
    let attempted = ((reps.len() + plain_reps.len()) * frames) as u64;
    let wall_us = measure::per_frame_median(&reps, frames, 1e6, |r| r.wall_s);
    crate::log_reps(&args.workload, &reps, frames);

    // Output checks, on one more untimed run that must repeat the others.
    let recorder = recorded.then(|| cfg.recorder.build());
    let report = serve_once(cams.specs(), cams.net_seed, &cfg, recorder.as_ref());
    checks.record(repeated(first, &report));
    checks.record(check_conservation(&cams, &report));
    let mut stage_times = StageTimes::default();
    let (alone, direct) = time_once(|| drive_alone(&cams, &cfg, &report, &mut stage_times));
    checks.record(check_isolation(&report, &alone));
    let arrivals = shard_arrivals(&cams, &cfg, net);
    checks.record(check_latency(&report, &arrivals));
    if let Some(ing) = &report.ingest {
        checks.record(ensure(ing.delivered() == ing.offered(), || {
            format!(
                "ingest delivered {} of {} offered frames",
                ing.delivered(),
                ing.offered()
            )
        }));
    }
    if let Some(rec) = &recorder {
        checks.record(check_recorder(&cams, &report, rec, shape.replayed_streams));
    }

    let (map_kitti, delay, map_cp) = score(&cams, &report);
    checks.record(ensure(delay.is_some(), || {
        "no KITTI threshold reaches 0.8 mean precision".to_string()
    }));
    let delay = delay.unwrap_or(0.0);
    let pooled = pooled_latencies(&report);
    let merged_batch = report.merged_batch();
    eprintln!(
        "{}: {} cameras, {frames} frames, makespan {:.1} s, utilization {:.1}%, \
         {} coasted, {} migrations, {} scale events, {} fused dispatches, failed {}",
        args.workload,
        cams.cameras.len(),
        report.makespan_s(),
        utilization(&report, &cfg) * 100.0,
        report.frames_coasted(),
        report.migrations.len(),
        report.scale_timeline().len(),
        report.fused_refinements.len(),
        failed_frames(&report),
    );

    if args.trace {
        let per_frame = |s: f64| s / frames as f64 * 1e6;
        let direct_us = per_frame(direct.wall_s);
        layers.set("pipeline.direct_us", direct_us);
        layers.set("core.begin_us", per_frame(stage_times.begin_s));
        layers.set("core.proposal_us", per_frame(stage_times.proposal_s));
        layers.set("core.refinement_us", per_frame(stage_times.refinement_s));

        let rest = args.seconds / 2.0;
        let t0 = Instant::now();
        let mut eval = Vec::new();
        while eval.is_empty() || t0.elapsed().as_secs_f64() < rest / 8.0 {
            eval.push(time_once(|| score(&cams, &report)).1.wall_s);
        }
        layers.set("metrics.eval_us", per_frame(measure::median(&eval)));

        let mut net_us = 0.0;
        if net {
            let sources: Vec<StreamSource> =
                cams.cameras.iter().map(|c| c.spec.source.clone()).collect();
            let params = cfg.ingest.net_params(cams.net_seed, cfg.queue_capacity);
            let t0 = Instant::now();
            let mut ingest = Vec::new();
            while ingest.is_empty() || t0.elapsed().as_secs_f64() < rest / 8.0 {
                ingest.push(time_once(|| run_ingest(&sources, &params)).1.wall_s);
            }
            net_us = per_frame(measure::median(&ingest));
            layers.set("net.ingest_us", net_us);
        }
        let mut recorder_us = 0.0;
        if recorded {
            recorder_us =
                wall_us - measure::per_frame_median(&plain_reps, frames, 1e6, |r| r.wall_s);
            layers.set("recorder.overhead_us", recorder_us);
        }
        layers.set(
            "serve.overhead_us",
            wall_us - direct_us - net_us - recorder_us,
        );
        layers.set(
            "trace.timed_share",
            (direct_us + net_us + recorder_us) / wall_us * 100.0,
        );

        let passes = redrive_for(&cams, rest / 2.0, &mut checks);
        layers.set_redrive(&passes);
    }

    let n = report.frames_processed() as f64;
    layers.set("data.build_s", setup_s);
    layers.set("scheduler.proposal_batch_mean", merged_batch.mean_batch());
    layers.set(
        "scheduler.launches_saved",
        (merged_batch.proposal_launches_saved + merged_batch.refinement_launches_saved) as f64,
    );
    layers.set(
        "scheduler.refine_batch_mean",
        merged_batch.mean_refine_batch(),
    );
    layers.set(
        "fleet.fused_dispatches",
        report.fused_refinements.len() as f64,
    );
    layers.set("fleet.migrations", report.migrations.len() as f64);
    layers.set(
        "autoscale.scale_events",
        report.scale_timeline().len() as f64,
    );
    layers.set("policy.coasted_frames", report.frames_coasted() as f64);
    if let Some(ing) = &report.ingest {
        layers.set("net.disconnects", ing.disconnects() as f64);
        layers.set("net.throttles", ing.throttles() as f64);
    }
    if let Some(rec) = &recorder {
        let stats = rec.stats();
        layers.set("recorder.events_per_frame", stats.events as f64 / n);
        layers.set(
            "recorder.bytes_per_event",
            stats.encoded_bytes as f64 / stats.events.max(1) as f64,
        );
        layers.set("recorder.snapshots", stats.snapshots as f64);
    }
    let (prop, refine) = report.shards.iter().fold((0.0, 0.0), |(p, r), s| {
        (p + s.total_ops.proposal, r + s.total_ops.refinement)
    });
    let outputs = || alone.iter().flatten();
    layers.set(
        "core.regions_per_frame",
        outputs()
            .map(|o| o.num_refinement_regions as f64)
            .sum::<f64>()
            / n,
    );
    layers.set(
        "core.coverage",
        outputs().map(|o| o.refinement_coverage).sum::<f64>() / n,
    );
    layers.set("core.proposal_gmacs", prop / n / 1e9);
    layers.set("core.refinement_gmacs", refine / n / 1e9);

    Run {
        checks,
        attempted,
        failed,
        end_to_end: EndToEnd {
            setup_s,
            wall_us_per_frame: wall_us,
            cpu_us_per_frame: measure::per_frame_median(&reps, frames, 1e6, |r| r.cpu_s),
            peak_rss_mb,
            gmacs_per_frame: (prop + refine) / n / 1e9,
            map_kitti,
            map_citypersons: map_cp,
            mean_delay_frames: delay,
            latency_p50_ms: nearest_rank(&pooled, 0.50) * 1e3,
            latency_p99_ms: nearest_rank(&pooled, 0.99) * 1e3,
            gpu_ms_per_frame: report.gpu_dispatch_s() / n * 1e3,
            worker_seconds: report.worker_seconds(),
        },
        layers,
    }
}

/// Models and geometry of a camera's pipeline: the preset factory builds
/// the two-class CaTDet-A at every geometry.
fn camera_models(cam: &Camera) -> ((DetectorModel, DetectorModel), f32, f32) {
    (
        (zoo::resnet10a(2), zoo::resnet50(2)),
        cam.spec.source.width,
        cam.spec.source.height,
    )
}

/// Re-drives every camera's frames through the layer functions for
/// `budget_s` (at least once), in lock-step with CaTDetSystem.
fn redrive_for(cams: &Cameras, budget_s: f64, checks: &mut Checks) -> Vec<LayerTimes> {
    let mut passes = Vec::new();
    measure::repeat_for(
        budget_s,
        1,
        || {
            let mut t = LayerTimes::default();
            let mut result = Ok(());
            for cam in &cams.cameras {
                let (models, w, h) = camera_models(cam);
                result = result.and(redrive_sequence(models, w, h, &cam.frames, &mut t, |_| {}));
            }
            (t, result)
        },
        |(t, result)| {
            checks.record(result);
            passes.push(t);
        },
    );
    passes
}
