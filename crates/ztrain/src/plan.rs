//! The step plan: the one cut of a training step both stacks read.

use crate::trainer::TrainError;
use std::ops::Range;
use tensorlib::{Chunker, Partitioner};

/// How one step cuts `params` flattened parameters: into `lanes` contiguous
/// lanes whose sizes differ by at most one (a CSD updates its own shard,
/// paper Section IV-D), and each lane into ordered update units of at most
/// `unit` parameters (a CSD's subgroups, which reuse one device buffer, or
/// the host's blocks). It holds no data, and only it answers these questions.
/// `PipelinedTrainer` carves its tensors by lane and steps each lane's units;
/// `schedule::build_iteration_graph` routes gradients to the lanes and builds
/// a tasklet chain per unit. The timed host-update graph keeps the model's
/// layer blocks instead, a structure a flat functional tensor does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepPlan {
    params: usize,
    lanes: usize,
    unit: usize,
}

impl StepPlan {
    /// The largest default unit: its working set (gradient, master and two
    /// moments, 20 B/param with the FP16 copy) fits comfortably in the
    /// SmartSSD's 4 GB FPGA DRAM.
    pub const DEFAULT_UNIT: usize = 100_000_000;

    /// Cuts `params` parameters into `lanes` lanes and units of `unit`, by
    /// default `min(DEFAULT_UNIT, ⌈params / lanes⌉)`: one unit per lane.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Config`] for zero lanes or a zero unit.
    pub fn cut_into(params: usize, lanes: usize, unit: Option<usize>) -> Result<Self, TrainError> {
        if lanes == 0 {
            return Err(TrainError::config("at least one storage device is required"));
        }
        let unit = unit.unwrap_or_else(|| params.div_ceil(lanes).clamp(1, Self::DEFAULT_UNIT));
        if unit == 0 {
            return Err(TrainError::config("subgroup capacity must be positive"));
        }
        Ok(Self { params, lanes, unit })
    }

    /// The same units as one lane: a RAID0 array is one lane over its members.
    pub(crate) fn one_lane(self) -> Self {
        Self { lanes: 1, ..self }
    }

    /// The unit size, in parameters.
    pub fn unit_elems(&self) -> usize {
        self.unit
    }

    /// The parameters lane `lane` owns.
    pub(crate) fn lane(&self, lane: usize) -> Range<usize> {
        let (base, extra) = (self.params / self.lanes, self.params % self.lanes);
        let start = lane * base + lane.min(extra);
        start..start + base + usize::from(lane < extra)
    }

    /// Lane `lane`'s update units in order, with offsets within the lane.
    pub(crate) fn units(&self, lane: usize) -> Chunker {
        Chunker::new(self.lane(lane).len(), self.unit)
    }

    /// The units of every lane: the update tasklets of one step.
    pub fn num_units(&self) -> usize {
        let (base, extra) = (self.params / self.lanes, self.params % self.lanes);
        extra * (base + 1).div_ceil(self.unit) + (self.lanes - extra) * base.div_ceil(self.unit)
    }

    /// The lanes as shards, for `init_csd_shards`'s callers.
    pub(crate) fn partitioner(&self) -> Partitioner {
        Partitioner::contiguous(self.params, self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_and_units_are_the_partitioner_and_the_chunker() {
        for (params, lanes, unit) in
            [(10, 3, 4), (2, 5, 1), (0, 2, 7), (100, 1, 100), (1001, 7, 30)]
        {
            let plan = StepPlan::cut_into(params, lanes, Some(unit)).unwrap();
            let shards = plan.partitioner();
            let mut units = 0;
            for (lane, shard) in shards.shards().iter().enumerate() {
                assert_eq!(plan.lane(lane), shard.offset..shard.offset + shard.len);
                assert_eq!(plan.units(lane), Chunker::new(shard.len, unit));
                units += plan.units(lane).num_subgroups();
            }
            assert_eq!(plan.num_units(), units, "{params} / {lanes} / {unit}");
        }
    }

    #[test]
    fn the_unit_count_is_exact_where_the_per_lane_bound_is_not() {
        // 10 parameters on 3 lanes are 4 + 3 + 3, in units of 3: 2 + 1 + 1.
        let plan = StepPlan::cut_into(10, 3, Some(3)).unwrap();
        assert_eq!(plan.num_units(), 4);
        // Every lane taken at the largest one's count, d·⌈⌈n/d⌉/s⌉, says 6.
        assert_eq!(3 * 10usize.div_ceil(3).div_ceil(3), 6);
    }

    #[test]
    fn the_default_unit_is_one_per_lane_up_to_the_cap() {
        let unit = |params, lanes| StepPlan::cut_into(params, lanes, None).unwrap().unit_elems();
        assert_eq!(unit(1000, 3), 334);
        assert_eq!(unit(0, 3), 1);
        assert_eq!(unit(1 << 40, 4), StepPlan::DEFAULT_UNIT);
        assert_eq!(StepPlan::cut_into(1000, 3, Some(7)).unwrap().unit_elems(), 7);
        let one_lane = StepPlan::cut_into(1000, 3, None).unwrap().one_lane();
        assert_eq!((one_lane.lane(0), one_lane.num_units()), (0..1000, 3));
    }
}
