//! Per-layer timing from outside the program.
//!
//! Two instruments, both built only from public functions:
//!
//! * [`StageTimes`] times a staged pipeline's own protocol calls
//!   (`begin_frame`, `complete_proposal`, `complete_refinement`).
//! * [`Redrive`] rebuilds CaTDet's frame loop (paper Fig. 2) from the
//!   detector, geometry, tracker and pricing crates, timing each call. It
//!   runs in lock-step with a real `CaTDetSystem` and must match it frame
//!   by frame, so its split describes the system actually benchmarked.

use catdet_core::system::{refinement_macs_from_coverage, refinement_macs_with};
use catdet_core::{
    nms_per_class_with, CaTDetSystem, FrameOutput, OpsBreakdown, PerClassNms, StageStep,
    StagedDetector, SystemConfig,
};
use catdet_data::{ActorClass, Frame};
use catdet_detector::{DetectorModel, SimulatedDetector};
use catdet_geom::coverage::masked_fraction_with;
use catdet_geom::{Box2, CoverageGrid};
use catdet_metrics::Detection;
use catdet_track::{TrackDetection, Tracker, TrackerConfig};
use std::time::Instant;

/// Seconds spent in each stage-protocol call.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub begin_s: f64,
    pub proposal_s: f64,
    pub refinement_s: f64,
}

/// [`catdet_core::drive_frame`] with each protocol call timed into `t`.
pub fn drive_frame_timed(
    system: &mut dyn StagedDetector,
    frame: &Frame,
    t: &mut StageTimes,
) -> FrameOutput {
    let t0 = Instant::now();
    system.begin_frame(frame);
    t.begin_s += t0.elapsed().as_secs_f64();
    loop {
        match system.step() {
            StageStep::NeedsProposal(work) => {
                let t0 = Instant::now();
                system.complete_proposal(work);
                t.proposal_s += t0.elapsed().as_secs_f64();
            }
            StageStep::NeedsRefinement(work) => {
                let t0 = Instant::now();
                system.complete_refinement(work);
                t.refinement_s += t0.elapsed().as_secs_f64();
            }
            StageStep::Done(out) => return out,
        }
    }
}

/// Seconds spent in each layer of the re-driven frame loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub full_frame_s: f64,
    pub regions_s: f64,
    pub nms_s: f64,
    pub predict_s: f64,
    pub update_s: f64,
    pub pricing_s: f64,
    pub frames: usize,
}

/// CaTDet's frame loop re-driven from the layers' public functions.
pub struct Redrive {
    proposal: SimulatedDetector,
    refinement: SimulatedDetector,
    tracker: Tracker<ActorClass>,
    cfg: SystemConfig,
    width: f32,
    height: f32,
    nms: PerClassNms,
    grid: CoverageGrid,
    regions: Vec<Box2>,
    dets: Vec<Detection>,
    props: Vec<Detection>,
    track_inputs: Vec<TrackDetection<ActorClass>>,
}

/// Adds the seconds `f` takes to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

impl Redrive {
    /// Mirrors `CaTDetSystem::new` with the paper configuration.
    pub fn new(
        proposal: DetectorModel,
        refinement: DetectorModel,
        width: f32,
        height: f32,
    ) -> Self {
        let cfg = SystemConfig::paper();
        Self {
            proposal: SimulatedDetector::new(proposal, width, height),
            refinement: SimulatedDetector::new(refinement, width, height),
            tracker: Tracker::new(TrackerConfig::paper().with_input_threshold(cfg.t_thresh)),
            cfg,
            width,
            height,
            nms: PerClassNms::default(),
            grid: CoverageGrid::new(width.max(1.0), height.max(1.0), 16),
            regions: Vec::new(),
            dets: Vec::new(),
            props: Vec::new(),
            track_inputs: Vec::new(),
        }
    }

    /// One CaTDet frame: tracker prediction, proposal scan, per-class NMS,
    /// dispatch pricing, region refinement, NMS, tracker update.
    pub fn frame(&mut self, frame: &Frame, t: &mut LayerTimes) -> FrameOutput {
        let (w, h, cfg) = (self.width, self.height, self.cfg);
        t.frames += 1;
        self.regions.clear();
        timed(&mut t.predict_s, || {
            self.tracker.predicted_regions_into(w, h, &mut self.regions)
        });
        let tracker_regions = self.regions.len();

        let raw = timed(&mut t.full_frame_s, || {
            self.proposal
                .detect_full_frame(frame.sequence_id, frame.index, &frame.ground_truth)
        });
        self.dets.clear();
        self.dets
            .extend(raw.into_iter().filter(|d| d.score >= cfg.c_thresh));
        timed(&mut t.nms_s, || {
            nms_per_class_with(&mut self.nms, &self.dets, cfg.nms_iou, &mut self.props)
        });
        self.regions.extend(self.props.iter().map(|d| d.bbox));

        let (ops, coverage) = timed(&mut t.pricing_s, || {
            let proposal = self
                .proposal
                .model()
                .ops
                .full_frame_macs(w as usize, h as usize);
            let spec = &self.refinement.model().ops;
            let regions = &self.regions;
            let coverage = masked_fraction_with(&mut self.grid, regions, w, h, 16, cfg.margin);
            let refinement =
                refinement_macs_from_coverage(spec, w, h, coverage, regions, cfg.margin)
                    .unwrap_or_else(|| {
                        refinement_macs_with(&mut self.grid, spec, w, h, regions, cfg.margin)
                    });
            let from_tracker = refinement_macs_with(
                &mut self.grid,
                spec,
                w,
                h,
                &regions[..tracker_regions],
                cfg.margin,
            );
            let from_proposal = refinement_macs_with(
                &mut self.grid,
                spec,
                w,
                h,
                &regions[tracker_regions..],
                cfg.margin,
            );
            let ops = OpsBreakdown {
                proposal,
                refinement,
                refinement_from_tracker: from_tracker,
                refinement_from_proposal: from_proposal,
            };
            (ops, coverage)
        });

        let refined = timed(&mut t.regions_s, || {
            self.refinement.detect_regions(
                frame.sequence_id,
                frame.index,
                &frame.ground_truth,
                &self.regions,
                cfg.margin,
            )
        });
        let mut detections = Vec::with_capacity(refined.len());
        timed(&mut t.nms_s, || {
            nms_per_class_with(&mut self.nms, &refined, cfg.nms_iou, &mut detections)
        });

        self.track_inputs.clear();
        self.track_inputs.extend(
            detections
                .iter()
                .filter(|d| d.score >= cfg.t_thresh)
                .map(|d| TrackDetection {
                    bbox: d.bbox,
                    score: d.score,
                    class: d.class,
                }),
        );
        timed(&mut t.update_s, || self.tracker.update(&self.track_inputs));

        FrameOutput {
            detections,
            ops,
            num_refinement_regions: self.regions.len(),
            refinement_coverage: coverage,
        }
    }
}

/// Re-drives `frames` (one camera's sequence, in order) through a fresh
/// [`Redrive`] in lock-step with a fresh `CaTDetSystem` of the same models
/// and geometry, handing `each` the regions every frame refined. Returns
/// the first frame index whose outputs differ.
pub fn redrive_sequence(
    models: (DetectorModel, DetectorModel),
    width: f32,
    height: f32,
    frames: &[Frame],
    t: &mut LayerTimes,
    mut each: impl FnMut(&[Box2]),
) -> Result<(), String> {
    let mut system = CaTDetSystem::new(
        models.0.clone(),
        models.1.clone(),
        width,
        height,
        SystemConfig::paper(),
    );
    let mut redrive = Redrive::new(models.0, models.1, width, height);
    for frame in frames {
        let expected = catdet_core::drive_frame(&mut system, frame);
        let got = redrive.frame(frame, t);
        if got != expected {
            return Err(format!(
                "layer re-drive diverged from CaTDetSystem at sequence {} frame {}",
                frame.sequence_id, frame.index
            ));
        }
        each(&redrive.regions);
    }
    Ok(())
}
