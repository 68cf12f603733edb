//! The metric tables: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repo root lists the same names; the smoke test
//! checks the two against each other.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The value is a count that must repeat exactly from run to run.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, exact: false }
}

const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, exact: true }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, exact: false }
}

/// Measured with tracing off, the same five on every workload.
pub const END_TO_END: [MetricDef; 5] = [
    higher("work_per_s", "1/s"),
    timing("op_ms_p50", "ms"),
    timing("op_ms_p90", "ms"),
    timing("peak_rss_mb", "MB"),
    timing("setup_s", "s"),
];

/// Measured in the traced run. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 52] = [
    // train_base, train_smart
    timing("ztrain.step_ms", "ms"),
    timing("ztrain.trainer_build_ms", "ms"),
    count("ztrain.link_bytes_per_param", "B/param"),
    count("ztrain.storage_bytes_per_param", "B/param"),
    timing("ssd.read_ms", "ms"),
    timing("ssd.write_ms", "ms"),
    count("ssd.bytes_read", "B"),
    count("ssd.bytes_written", "B"),
    count("ssd.io_ops", "count"),
    timing("tensorlib.f32_bytes_ms", "ms"),
    timing("tensorlib.f16_pack_ms", "ms"),
    timing("optim.update_ms", "ms"),
    higher("optim.elems_per_s", "1/s"),
    timing("gradcomp.topk_ms", "ms"),
    timing("gradcomp.feedback_ms", "ms"),
    count("gradcomp.kept_elems", "count"),
    timing("csd.update_subgroup_ms", "ms"),
    timing("csd.decompress_ms", "ms"),
    timing("csd.read_back_ms", "ms"),
    count("csd.p2p_bytes", "B"),
    timing("parcore.dispatch_us", "us"),
    higher("parcore.lane_overlap", "ratio"),
    // sim_scale
    timing("smart_infinity.session_us", "us"),
    timing("smart_infinity.cluster_us", "us"),
    timing("ztrain.platform_us", "us"),
    timing("ztrain.graph_build_us", "us"),
    count("ztrain.dag_tasks", "count"),
    timing("simkit.lower_us", "us"),
    timing("simkit.run_us", "us"),
    timing("simkit.timeline_us", "us"),
    count("simkit.sim_tasks", "count"),
    timing("simkit.run_ns_per_task", "ns"),
    count("simkit.simulated_s_sum", "s"),
    // lab_cycle
    timing("lab.plan_ms", "ms"),
    timing("lab.resolve_ms", "ms"),
    timing("lab.journal_append_ms", "ms"),
    timing("lab.journal_read_ms", "ms"),
    timing("lab.analysis_ms", "ms"),
    timing("lab.resume_ms", "ms"),
    timing("lab.overhead_us_per_trial", "us"),
    timing("smart_infinity.canon_us", "us"),
    timing("smart_infinity.service_submit_us_p50", "us"),
    timing("smart_infinity.service_queue_wait_us_p50", "us"),
    timing("smart_infinity.service_run_us_p50", "us"),
    timing("smart_infinity.service_hit_us_p50", "us"),
    count("smart_infinity.service_cache_hit_rate", "ratio"),
    count("smart_infinity.service_executions", "count"),
    // every workload
    timing("trace.spans", "count"),
    timing("trace.overhead_pct", "%"),
    timing("trace.residual_pct", "%"),
    count("parallel.cpus", "count"),
    count("parallel.valid", "count"),
];

/// Per-layer values of one traced run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    /// Records a value under a name from [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "unknown per-layer metric {name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
