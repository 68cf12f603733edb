//! Portable trainer checkpoints: exact state capture for kill/resume.
//!
//! A [`TrainerCheckpoint`] holds everything a functional trainer needs to
//! continue bit-identically after a restart: the step counter, the FP32
//! master parameters, every optimizer auxiliary tensor and — when gradient
//! compression with error feedback is on — the accumulated residuals.
//!
//! Floats are stored as their IEEE-754 bit patterns (`u32`), because the
//! JSON float round trip is not exact for every value; the bit patterns are.
//! All tensors are stored as *global* concatenated vectors (not per-device
//! shards), so a checkpoint taken on one device layout restores onto any
//! other — the restoring trainer re-slices by its own partitioner.

use crate::trainer::TrainError;
use serde::{Deserialize, Serialize};
use tensorlib::FlatTensor;

/// Serialised resumable state of one functional trainer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainerCheckpoint {
    /// Completed steps at the time of the checkpoint.
    pub step: u64,
    /// Number of trained parameters (shape check on restore).
    pub num_params: u64,
    /// FP32 master parameters as IEEE-754 bit patterns, concatenated across
    /// device shards in partition order.
    pub master_bits: Vec<u32>,
    /// Optimizer auxiliary tensors (e.g. Adam first/second moments), each
    /// concatenated across device shards; outer index is the aux slot.
    pub aux_bits: Vec<Vec<u32>>,
    /// Error-feedback residuals of the gradient compressor, concatenated
    /// across shards; empty when compression (or error feedback) is off.
    pub residual_bits: Vec<u32>,
}

/// Encodes a tensor's floats as exact bit patterns.
pub(crate) fn tensor_to_bits(t: &FlatTensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Decodes bit patterns back into a tensor.
pub(crate) fn bits_to_tensor(bits: &[u32]) -> FlatTensor {
    FlatTensor::from_vec(bits.iter().map(|&b| f32::from_bits(b)).collect())
}

impl TrainerCheckpoint {
    /// Serialises the checkpoint to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] if serialisation fails.
    pub fn to_json(&self) -> Result<String, TrainError> {
        serde_json::to_string(self)
            .map_err(|e| TrainError::config(format!("checkpoint serialisation failed: {e}")))
    }

    /// Parses a checkpoint from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] if the JSON is malformed or does not
    /// describe a checkpoint.
    pub fn from_json(json: &str) -> Result<Self, TrainError> {
        let ckpt: TrainerCheckpoint = serde_json::from_str(json)
            .map_err(|e| TrainError::config(format!("malformed checkpoint: {e}")))?;
        ckpt.validate()?;
        Ok(ckpt)
    }

    /// Checks internal shape consistency.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] naming the first inconsistency.
    pub fn validate(&self) -> Result<(), TrainError> {
        let n = self.num_params as usize;
        if self.master_bits.len() != n {
            return Err(TrainError::config(format!(
                "checkpoint master has {} elements but num_params is {n}",
                self.master_bits.len()
            )));
        }
        for (i, aux) in self.aux_bits.iter().enumerate() {
            if aux.len() != n {
                return Err(TrainError::config(format!(
                    "checkpoint aux {i} has {} elements but num_params is {n}",
                    aux.len()
                )));
            }
        }
        if !self.residual_bits.is_empty() && self.residual_bits.len() != n {
            return Err(TrainError::config(format!(
                "checkpoint residuals have {} elements but num_params is {n}",
                self.residual_bits.len()
            )));
        }
        Ok(())
    }

    /// Shape check against a concrete trainer before restoring into it.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] if the parameter count or aux-slot
    /// count does not match.
    pub(crate) fn check_matches(
        &self,
        num_params: usize,
        num_aux: usize,
    ) -> Result<(), TrainError> {
        self.validate()?;
        if self.num_params as usize != num_params {
            return Err(TrainError::config(format!(
                "checkpoint holds {} parameters but the trainer has {num_params}",
                self.num_params
            )));
        }
        if self.aux_bits.len() != num_aux {
            return Err(TrainError::config(format!(
                "checkpoint holds {} aux tensors but the optimizer needs {num_aux}",
                self.aux_bits.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainerCheckpoint {
        let master = FlatTensor::randn(8, 0.5, 77);
        TrainerCheckpoint {
            step: 12,
            num_params: 8,
            master_bits: tensor_to_bits(&master),
            aux_bits: vec![vec![0u32; 8], vec![0u32; 8]],
            residual_bits: Vec::new(),
        }
    }

    #[test]
    fn bit_encoding_round_trips_exactly_including_awkward_floats() {
        let t = FlatTensor::from_vec(vec![
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            1.0e-42, // subnormal
            std::f32::consts::PI,
            f32::MAX,
        ]);
        let back = bits_to_tensor(&tensor_to_bits(&t));
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let ckpt = sample();
        let json = ckpt.to_json().unwrap();
        let back = TrainerCheckpoint::from_json(&json).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn validation_names_shape_mismatches() {
        let mut ckpt = sample();
        ckpt.master_bits.pop();
        assert!(ckpt.validate().unwrap_err().to_string().contains("master"));
        let mut ckpt = sample();
        ckpt.aux_bits[1].pop();
        assert!(ckpt.validate().unwrap_err().to_string().contains("aux 1"));
        let mut ckpt = sample();
        ckpt.residual_bits = vec![0; 3];
        assert!(ckpt.validate().unwrap_err().to_string().contains("residuals"));
        assert!(TrainerCheckpoint::from_json("{\"nope\":1}").is_err());
    }

    #[test]
    fn check_matches_guards_against_wrong_trainers() {
        let ckpt = sample();
        ckpt.check_matches(8, 2).unwrap();
        assert!(ckpt.check_matches(9, 2).unwrap_err().to_string().contains("8 parameters"));
        assert!(ckpt.check_matches(8, 1).unwrap_err().to_string().contains("aux tensors"));
    }
}
