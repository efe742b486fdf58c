//! The served cost model: trained with the CLI's recipe (`train_model` in
//! `src/main.rs`) on the devices serve-zoo and search-tune query, written
//! as a snapshot before anything is timed, and re-read as a tape-executed
//! reference whose predictions the engine's must match bit for bit.

use std::collections::BTreeMap;
use std::path::Path;

use cdmpp::core::batch::FeatScaler;
use cdmpp::core::{
    build_scaled_batch, group_by_leaf, pretrain, EncodedSample, Predictor, PredictorConfig,
    Snapshot, TrainConfig, TrainedModel, DEFAULT_MAX_BATCH,
};
use cdmpp::dataset::{Dataset, GenConfig, SplitIndices};
use cdmpp::devsim::DeviceSpec;
use cdmpp::learn::{FittedTransform, LabelTransform};
use cdmpp::nn::ParamId;
use cdmpp::tensor::{QuantMode, Tensor};

/// Devices the served model is trained on and serve-zoo / search-tune
/// query: a single-queue GPU and the three-GEMM-engine HL-100, whose
/// Algorithm 2 replay runs four queues.
pub const SERVED_DEVICES: [&str; 2] = ["T4", "HL-100"];

pub fn served_devices() -> Vec<DeviceSpec> {
    SERVED_DEVICES
        .iter()
        .map(|n| cdmpp::devsim::device_by_name(n).expect("served device exists"))
        .collect()
}

/// The CLI recipe, widened from one device to [`SERVED_DEVICES`]: 24
/// schedules per task, dataset seed 0, 3 % label noise, 12 epochs at
/// lr 1.5e-3.
pub fn train_served_model(threads: usize) -> TrainedModel {
    let ds = Dataset::generate(GenConfig {
        batch: 1,
        schedules_per_task: 24,
        devices: served_devices(),
        seed: 0,
        noise_sigma: 0.03,
    });
    let split = SplitIndices::from_indices(&ds, (0..ds.records.len()).collect(), &[], 0);
    let (model, _) = pretrain(
        &ds,
        &split.train,
        &split.valid,
        PredictorConfig::default(),
        TrainConfig {
            epochs: 12,
            lr: 1.5e-3,
            threads,
            ..Default::default()
        },
    );
    model
}

/// Writes `model` the way `cdmpp train --save` does: f32 weights, a plan
/// for every leaf count and the engine's default batch classes.
pub fn write_snapshot(model: &TrainedModel, path: &Path) -> Result<(), String> {
    let leaves: Vec<usize> = (1..=model.predictor.config().max_leaves).collect();
    let snap = Snapshot::capture_quantized(model, &leaves, QuantMode::F32)
        .map_err(|e| e.to_string())?
        .with_batch_classes(&[1, DEFAULT_MAX_BATCH])
        .map_err(|e| e.to_string())?;
    snap.save(path).map_err(|e| e.to_string())
}

/// The snapshot's weights on the autodiff tape: a forward path that shares
/// no executor, plan or packed panel with the serving engine.
pub struct TapeModel {
    predictor: Predictor,
    transform: FittedTransform,
    scaler: FeatScaler,
    pub use_pe: bool,
}

impl TapeModel {
    pub fn from_snapshot_file(path: &Path) -> Result<TapeModel, String> {
        let snap = Snapshot::load(path).map_err(|e| e.to_string())?;
        let mut predictor = Predictor::new(snap.config.clone());
        let ids: Vec<ParamId> = predictor.store.ids().collect();
        if ids.len() != snap.params.len() {
            return Err("snapshot parameter count differs from the architecture".into());
        }
        for (id, p) in ids.into_iter().zip(&snap.params) {
            *predictor.store.value_mut(id) =
                Tensor::from_vec(p.data.clone(), &p.shape).map_err(|e| e.to_string())?;
        }
        Ok(TapeModel {
            predictor,
            transform: snap.transform.clone(),
            scaler: snap.scaler.clone(),
            use_pe: snap.use_pe,
        })
    }

    pub fn theta(&self) -> f32 {
        self.predictor.config().theta
    }

    /// Latencies (seconds) for unscaled samples, one taped forward pass per
    /// leaf count.
    pub fn predict(&self, enc: &[EncodedSample]) -> Result<Vec<f64>, String> {
        let mut out = vec![f64::NAN; enc.len()];
        let groups: BTreeMap<usize, Vec<usize>> = group_by_leaf(enc);
        for idxs in groups.values() {
            let refs: Vec<&EncodedSample> = idxs.iter().map(|&i| &enc[i]).collect();
            let batch = build_scaled_batch(&refs, &self.scaler);
            let preds = self
                .predictor
                .predict_batch_taped(batch.x, batch.dev)
                .map_err(|e| e.to_string())?;
            for (&i, &p) in idxs.iter().zip(&preds) {
                out[i] = self.transform.inverse(p as f64).max(1e-12);
            }
        }
        Ok(out)
    }
}

/// Fails with the first index whose two predictions differ in any bit.
pub fn check_bit_identical(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} predictions against {} reference values",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        Some(i) => Err(format!(
            "{what}: prediction {i} is {:e}, the tape gives {:e}",
            got[i], want[i]
        )),
        None => Ok(()),
    }
}
