//! Accuracy scoring.

use catdet_data::{ActorClass, Difficulty, Frame};
use catdet_metrics::{ApMethod, Detection, Evaluator};

/// KITTI protocol: Car + Pedestrian, Moderate, 11-point AP (Table 2).
pub fn kitti_evaluator() -> Evaluator {
    Evaluator::with_ap_method(
        vec![ActorClass::Car, ActorClass::Pedestrian],
        Difficulty::Moderate,
        ApMethod::ElevenPoint,
    )
}

/// CityPersons protocol: Person, Hard, continuous VOC AP (Table 6).
pub fn citypersons_evaluator() -> Evaluator {
    Evaluator::with_ap_method(
        vec![ActorClass::Pedestrian],
        Difficulty::Hard,
        ApMethod::Continuous,
    )
}

/// Feeds one camera's frames and detections, in order, to `ev`.
pub fn add_frames<'a>(
    ev: &mut Evaluator,
    frames: impl IntoIterator<Item = (&'a Frame, &'a [Detection])>,
) {
    for (frame, dets) in frames {
        ev.add_frame(
            frame.sequence_id,
            frame.index,
            &frame.ground_truth,
            dets,
            frame.labeled,
        );
    }
}

/// `(mAP, mD@0.8)` of a populated evaluator; the delay is `None` when no
/// threshold reaches 0.8 mean precision.
pub fn map_and_delay(ev: &Evaluator) -> (f64, Option<f64>) {
    (ev.map(), ev.mean_delay_at_precision(0.8).map(|d| d.mean))
}
