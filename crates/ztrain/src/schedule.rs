//! The shared iteration task graph and the method schedulers over it.
//!
//! Every method the timed engine runs — the ZeRO-Infinity baseline and all
//! Smart-Infinity variants — describes one training iteration as the *same*
//! [`simkit::Dag`]: forward pass, backward pass, per-block gradient offload
//! towards the storage class, and a parameter/optimizer update placed either
//! on the host CPU or inside the storage devices. What differs between the
//! paper's methods is not the work but the *schedule*: where storage-class
//! transfers land ([`OffloadRouting`]), how consecutive update tasklets
//! synchronise ([`ChainSync`]), and which synchronisation anchors realise the
//! declared soft dataflow. Those choices live in [`MethodPolicy`], an
//! implementation of [`simkit::Scheduler`] consulted by [`simkit::execute`],
//! and are lowered onto a [`TimedPlatform`] by [`PlatformLowering`].
//!
//! The graph builder mirrors the historical hand-rolled schedule builders
//! task for task, so lowering a policy over the shared graph reproduces the
//! legacy timelines bit for bit (pinned by the golden tests in
//! `smart_infinity/tests/integration_sched.rs`).

use std::borrow::Cow;
use std::ops::Range;

use crate::plan::StepPlan;
use crate::platform::{Route, TimedPlatform};
use llm::Workload;
use optim::OptimizerKind;
use simkit::{
    Anchor, Dag, DagTaskId, DagWork, DataId, Lowering, PhaseId, ScatterPlan, ScheduleDecision,
    Scheduler, SetupDelay, SimError, SystemView, TaskId, SITE_STORAGE,
};

/// Maps the abstract site indices used by iteration DAGs onto the components
/// of one training server.
///
/// Site 0 is the host; GPUs, storage devices, FPGA updaters and FPGA
/// decompressors follow in contiguous ranges. [`SITE_STORAGE`] stands for
/// the storage class as a whole; transfers touching it are placed onto
/// concrete device sites by the scheduler's [`ScatterPlan`]. A site is the
/// `u32` a [`Dag`] stores it as; [`build_iteration_graph`] checks once that
/// every site of its map fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteMap {
    /// Number of GPUs in the server.
    pub num_gpus: usize,
    /// Number of storage devices (SSDs or CSDs).
    pub num_devices: usize,
}

/// What kind of component a concrete site index denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SiteKind {
    /// The host CPU + DRAM.
    Host,
    /// GPU `g`.
    Gpu(usize),
    /// Storage device `d` (its NAND media).
    Storage(usize),
    /// The FPGA updater of CSD `d`.
    Fpga(usize),
    /// The FPGA decompressor of CSD `d`.
    Decompressor(usize),
}

impl SiteMap {
    /// A site map for a server with `num_gpus` GPUs and `num_devices`
    /// storage devices.
    pub fn new(num_gpus: usize, num_devices: usize) -> Self {
        Self { num_gpus, num_devices }
    }

    /// The host site.
    pub fn host(&self) -> u32 {
        0
    }

    /// The site of GPU `g`.
    pub fn gpu(&self, g: usize) -> u32 {
        (1 + g) as u32
    }

    /// The site of storage device `d`.
    pub fn dev(&self, d: usize) -> u32 {
        (1 + self.num_gpus + d) as u32
    }

    /// The site of CSD `d`'s FPGA updater.
    pub fn fpga(&self, d: usize) -> u32 {
        (1 + self.num_gpus + self.num_devices + d) as u32
    }

    /// The site of CSD `d`'s FPGA decompressor.
    pub(crate) fn decomp(&self, d: usize) -> u32 {
        (1 + self.num_gpus + 2 * self.num_devices + d) as u32
    }

    /// Total number of concrete sites.
    pub fn len(&self) -> usize {
        1 + self.num_gpus + 3 * self.num_devices
    }

    /// Whether the map contains no sites (never true: the host always exists).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Decodes a concrete site index back into the component it denotes.
    pub(crate) fn classify(&self, site: u32) -> Option<SiteKind> {
        if site == 0 {
            return Some(SiteKind::Host);
        }
        let mut s = site as usize - 1;
        if s < self.num_gpus {
            return Some(SiteKind::Gpu(s));
        }
        s -= self.num_gpus;
        if s < self.num_devices {
            return Some(SiteKind::Storage(s));
        }
        s -= self.num_devices;
        if s < self.num_devices {
            return Some(SiteKind::Fpga(s));
        }
        s -= self.num_devices;
        if s < self.num_devices {
            return Some(SiteKind::Decompressor(s));
        }
        None
    }
}

/// Where the parameter/optimizer update of the shared iteration graph runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePlacement {
    /// On the host CPU, with optimizer-state upload/offload per block
    /// (ZeRO-Infinity baseline).
    HostCpu,
    /// Inside the storage devices, subgroup by subgroup on the CSD FPGAs
    /// (Smart-Infinity).
    InStorage,
}

/// The *what* of an iteration: knobs that change which tasks exist and how
/// many bytes they carry, as opposed to scheduling policy (which only decides
/// where and when).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphKnobs {
    /// Update placement.
    pub placement: UpdatePlacement,
    /// SmartComp top-k keep ratio; `None` disables gradient compression.
    pub keep_ratio: Option<f64>,
    /// Elements per in-storage update subgroup (tasklet granularity).
    pub subgroup_elems: usize,
}

impl GraphKnobs {
    /// Knobs for the host-CPU update graph (no compression, whole-shard
    /// tasklets — the baseline has no subgroup pipeline).
    pub fn host_update() -> Self {
        Self { placement: UpdatePlacement::HostCpu, keep_ratio: None, subgroup_elems: usize::MAX }
    }

    /// Knobs for the in-storage update graph.
    pub fn in_storage(keep_ratio: Option<f64>, subgroup_elems: usize) -> Self {
        Self { placement: UpdatePlacement::InStorage, keep_ratio, subgroup_elems }
    }

    /// Fraction of the dense gradient volume that crosses the interconnect
    /// during offload (1.0 without SmartComp, `2·keep_ratio` with it).
    pub fn transfer_ratio(&self) -> f64 {
        self.keep_ratio.map_or(1.0, |k| (2.0 * k).min(1.0))
    }
}

/// Phase attribution for the three stages of one iteration.
#[derive(Debug, Clone, Copy)]
pub struct IterPhases {
    /// Forward pass.
    pub forward: PhaseId,
    /// Backward pass + gradient offload.
    pub backward: PhaseId,
    /// Parameter/optimizer update (+ state transfers).
    pub update: PhaseId,
}

/// Layout of one backward-pass gradient-offload block in the shared graph.
#[derive(Debug, Clone)]
pub struct BlockPlan {
    /// First task of the block's offload stage (the GPU compression when
    /// SmartComp is on, otherwise the staging transfer itself). Block-to-block
    /// chaining anchors attach here.
    pub head: DagTaskId,
    /// The GPU top-k compression task, when SmartComp is on.
    pub compress: Option<DagTaskId>,
    /// The GPU→host staging transfer.
    pub stage: DagTaskId,
    /// The host→storage-class gradient scatter (placed by the scheduler).
    pub scatter: DagTaskId,
    /// The scattered-gradients data item.
    pub stored: DataId,
    /// Striped placement, in the layout's `placements`: `(device site,
    /// bytes)` with every device receiving an even slice of the block's
    /// gradients.
    pub striped: Range<usize>,
    /// Owner-routed placement, in the layout's `placements`: `(device
    /// site, bytes)` for the devices whose contiguous parameter shard
    /// intersects this block's flattened range.
    pub owned: Range<usize>,
}

/// Layout of one in-storage update tasklet chain (one subgroup of a shard).
#[derive(Debug, Clone, Copy)]
pub struct ChainPlan {
    /// P2P load of gradients + optimizer states (media → FPGA).
    pub load: DagTaskId,
    /// SmartComp decompression, when compression is on.
    pub decompress: Option<DagTaskId>,
    /// The FPGA optimizer update kernel.
    pub update: DagTaskId,
    /// Urgent FP32 master-parameter write-back (FPGA → media).
    pub wb_param: DagTaskId,
    /// FP16 parameter upstream to host memory.
    pub upstream: DagTaskId,
    /// Deferred optimizer-state write-back (FPGA → media).
    pub wb_state: DagTaskId,
    /// End-of-chain join.
    pub chain_end: DagTaskId,
}

/// Layout of one device's in-storage update work.
#[derive(Debug, Clone)]
pub struct DevicePlan {
    /// Device index.
    pub dev: usize,
    /// The device's storage site.
    pub site: u32,
    /// Gradient scatters of the blocks whose flattened range intersects this
    /// device's shard, in block order, in the layout's `grad_scatters`.
    pub grad_scatters: Range<usize>,
    /// Tasklet chains, one per subgroup of the device's shard, in
    /// the layout's `chains`.
    pub chains: Range<usize>,
}

/// Layout of one block's host-CPU update (the baseline's upload → update →
/// offload pipeline stage).
#[derive(Debug, Clone)]
pub struct HostUpdatePlan {
    /// Striped upload of gradients + optimizer states from the array.
    pub gather: DagTaskId,
    /// The host-CPU (AVX) update kernel.
    pub update: DagTaskId,
    /// Striped offload of the refreshed optimizer states.
    pub offload: DagTaskId,
    /// `(device site, bytes)` placement of the upload, in
    /// the layout's `placements`.
    pub upload_striped: Range<usize>,
    /// `(device site, bytes)` placement of the offload, in
    /// the layout's `placements`.
    pub offload_striped: Range<usize>,
}

/// Everything a method scheduler needs to know about the shared iteration
/// graph beyond the graph itself: which task plays which role.
#[derive(Debug, Clone)]
pub struct IterLayout {
    /// The site map the graph was built against.
    pub sites: SiteMap,
    /// Update placement the graph was built with.
    pub placement: UpdatePlacement,
    /// End-of-forward join.
    pub fw_end: DagTaskId,
    /// End of backward *compute* (re-streaming + FLOPs, before offload).
    pub bw_compute_end: DagTaskId,
    /// End of the backward phase (compute and gradient offload).
    pub bw_end: DagTaskId,
    /// End of the update phase.
    pub up_end: DagTaskId,
    /// End of the whole iteration (backward and update both drained); only
    /// present for in-storage graphs, whose update can overlap backward.
    pub phase_end: Option<DagTaskId>,
    /// Gradient-offload blocks, in backward order.
    pub blocks: Vec<BlockPlan>,
    /// Per-device in-storage update plans (devices with empty shards are
    /// omitted). Empty for host-update graphs.
    pub devices: Vec<DevicePlan>,
    /// Per-block host-update plans. Empty for in-storage graphs.
    pub host_updates: Vec<HostUpdatePlan>,
    /// Every `(device site, bytes)` placement the plans name, back to back:
    /// a scheduler lends its scatter plans from here.
    pub(crate) placements: Vec<(u32, f64)>,
    /// Every device's gradient scatters, back to back.
    pub(crate) grad_scatters: Vec<DagTaskId>,
    /// Every device's tasklet chains, back to back.
    pub(crate) chains: Vec<ChainPlan>,
}

impl IterLayout {
    /// The placement a plan names.
    pub(crate) fn placement(&self, range: &Range<usize>) -> &[(u32, f64)] {
        &self.placements[range.clone()]
    }

    /// The gradient scatters device `dev` waits on.
    pub(crate) fn grad_scatters_of(&self, dev: &DevicePlan) -> &[DagTaskId] {
        &self.grad_scatters[dev.grad_scatters.clone()]
    }

    /// The tasklet chains of device `dev`.
    pub(crate) fn chains_of(&self, dev: &DevicePlan) -> &[ChainPlan] {
        &self.chains[dev.chains.clone()]
    }
}

/// The shared iteration graph plus its layout.
#[derive(Debug)]
pub struct IterationGraph {
    /// The task graph.
    pub dag: Dag,
    /// Role layout for scheduler construction.
    pub layout: IterLayout,
}

/// Builds the forward or backward parameter-streaming pass: for each block,
/// stream the FP16 parameters from host memory to the GPU(s) and run the
/// block's compute, overlapping the next block's transfer with the current
/// block's compute; with tensor parallelism each GPU exchanges activations
/// with GPU 0 after each block.
fn build_pass(
    dag: &mut Dag,
    workload: &Workload,
    sites: SiteMap,
    phase: PhaseId,
    pass_dep: Option<DagTaskId>,
    flops_multiplier: f64,
) -> DagTaskId {
    let n_gpus = sites.num_gpus;
    let blocks = workload.block_bytes_fp16();
    let total_fp16: u64 = blocks.iter().sum();
    let flops_per_byte = flops_multiplier * workload.forward_flops() / total_fp16 as f64;
    let act_bytes_per_block =
        2.0 * (workload.batch_size() * workload.seq_len() * workload.model().hidden_size()) as f64;

    // Per GPU, the previous block's load and compute.
    let mut prev: Vec<Option<(DagTaskId, DagTaskId)>> = vec![None; n_gpus];
    // The tasks of the block built last.
    let mut last: Vec<DagTaskId> = Vec::with_capacity(2 * n_gpus);
    for block_bytes in blocks.iter().copied() {
        let block_bytes = block_bytes as f64;
        let block_flops = block_bytes * flops_per_byte;
        last.clear();
        for (gpu, prev) in prev.iter_mut().enumerate() {
            // Tensor parallelism: each GPU streams 1/n of the block weights.
            let load = dag.add_task(DagWork::Transfer {
                from: sites.host(),
                to: sites.gpu(gpu),
                bytes: block_bytes / n_gpus as f64,
            });
            dag.set_phase(load, phase);
            if let Some(d) = pass_dep {
                dag.add_after(load, d);
            }
            if let Some((p, _)) = *prev {
                dag.add_after(load, p);
            }
            let weights = dag.add_output(load, block_bytes / n_gpus as f64, Some(sites.gpu(gpu)));
            let compute = dag.add_task(DagWork::Compute {
                site: sites.gpu(gpu),
                amount: block_flops / n_gpus as f64,
            });
            dag.set_phase(compute, phase);
            dag.connect(compute, weights);
            if let Some((_, p)) = *prev {
                dag.add_after(compute, p);
            }
            *prev = Some((load, compute));
            last.push(compute);
            // Tensor-parallel activation exchange with GPU 0 after the block.
            if n_gpus > 1 && gpu != 0 {
                let acts = dag.add_output(compute, act_bytes_per_block, Some(sites.gpu(gpu)));
                let xfer = dag.add_task(DagWork::Transfer {
                    from: sites.gpu(gpu),
                    to: sites.gpu(0),
                    bytes: act_bytes_per_block,
                });
                dag.set_phase(xfer, phase);
                dag.connect(xfer, acts);
                last.push(xfer);
            }
        }
    }
    let end = dag.add_task(DagWork::Join);
    for &t in &last {
        dag.add_after(end, t);
    }
    end
}

/// `bytes` spread evenly over the devices as `(device site, bytes)`: the
/// timed baseline's striping. RAID0 deals whole stripe units, so a member is
/// within one unit of this (`a_raid_member_holds_its_even_share_within_one_stripe`).
pub(crate) fn even_share(sites: SiteMap, bytes: f64) -> impl Iterator<Item = (u32, f64)> {
    let n = sites.num_devices;
    (0..n).map(move |d| (sites.dev(d), bytes / n as f64))
}

/// Appends `(device site, bytes)` pairs to `placements` and returns where
/// they landed.
fn place(
    placements: &mut Vec<(u32, f64)>,
    pairs: impl Iterator<Item = (u32, f64)>,
) -> Range<usize> {
    let start = placements.len();
    placements.extend(pairs);
    start..placements.len()
}

/// How many tasks, data items and edges of each kind an iteration graph
/// holds, counted from its shape so its arenas are allocated once.
#[derive(Debug, Default)]
struct GraphSize {
    tasks: usize,
    data: usize,
    inputs: usize,
    soft: usize,
    after: usize,
}

impl GraphSize {
    /// The size of the graph [`build_iteration_graph`] builds over `blocks`
    /// blocks and `gpus` GPUs, with `chains` tasklet chains and `owned`
    /// owner-routed placements when the update runs in storage.
    fn of(
        blocks: usize,
        gpus: usize,
        compressed: bool,
        placement: UpdatePlacement,
        chains: usize,
        owned: usize,
    ) -> Self {
        let mut size = Self::default();
        // Each streaming pass: per block and GPU a load and a compute, plus
        // an activation exchange per GPU but the first; loads chain on the
        // previous block's and on the pass dependency (backward only),
        // computes on the previous block's; the end joins the last block.
        let exchanges = gpus.saturating_sub(1);
        let per_block = gpus + exchanges;
        let last_block = if blocks > 0 { per_block } else { 0 };
        for pass_dep in [0, 1] {
            size.tasks += blocks * (gpus + per_block) + 1;
            size.data += blocks * per_block;
            size.inputs += blocks * per_block;
            size.after +=
                blocks * gpus * pass_dep + 2 * gpus * blocks.saturating_sub(1) + last_block;
        }
        // Gradient offload: (compress →) stage → scatter per block, then the
        // end of backward over the scatters.
        let c = usize::from(compressed);
        size.tasks += blocks * (2 + c) + 1;
        size.data += blocks * (2 + c);
        size.inputs += blocks * (1 + c);
        size.after += blocks + 1;
        size.soft += blocks;
        match placement {
            // Per chain: load, (decompress,) update, two write-backs, the
            // upstream and the chain end; the first load of a device reads
            // its owned gradients softly. Then the update and iteration ends.
            UpdatePlacement::InStorage => {
                size.tasks += chains * (6 + c) + 2;
                size.data += chains * (3 + c);
                size.inputs += chains * (3 + c);
                size.soft += chains + owned;
                size.after += 3 * chains + 2;
            }
            // Per block: gather, CPU update, write-back; then the update end.
            UpdatePlacement::HostCpu => {
                size.tasks += 3 * blocks + 1;
                size.data += 2 * blocks;
                size.inputs += 2 * blocks;
                size.after += blocks + blocks.saturating_sub(1);
            }
        }
        size
    }
}

/// Builds the shared iteration graph: forward pass, backward pass with
/// per-block gradient offload towards the storage class, and the update
/// placed per `knobs.placement`; gradient owners and in-storage tasklets are
/// the lanes and units of the model's [`StepPlan`] (devices and
/// `knobs.subgroup_elems` must be positive). Task creation order mirrors the
/// historical schedule builders exactly, so any policy lowered over this
/// graph in id order reproduces the legacy timelines bit for bit.
pub fn build_iteration_graph(
    workload: &Workload,
    sites: SiteMap,
    optimizer: OptimizerKind,
    knobs: &GraphKnobs,
    phases: IterPhases,
) -> IterationGraph {
    assert!(u32::try_from(sites.len()).is_ok(), "a site is stored as a u32 in the Dag");
    let block_sizes = workload.block_bytes_fp16();
    let n_blocks = block_sizes.len();
    let n_dev = sites.num_devices;
    let transfer_ratio = knobs.transfer_ratio();
    let compressed = knobs.keep_ratio.is_some();
    let total_params = workload.model().num_params() as usize;
    let plan = StepPlan::cut_into(total_params, n_dev, Some(knobs.subgroup_elems))
        .expect("a device and a positive subgroup");

    // The gradient placements depend on sizes only. Per block, a striped
    // one over every device and an owned one; the owned ones intersect two
    // partitions of the same parameter range, so there are at most blocks +
    // devices - 1 of them in all. A host-update graph adds a striped upload
    // and offload per block later.
    let host_stripes = match knobs.placement {
        UpdatePlacement::HostCpu => 2 * n_blocks * n_dev,
        UpdatePlacement::InStorage => 0,
    };
    let mut placements: Vec<(u32, f64)> =
        Vec::with_capacity(n_blocks * n_dev + (n_blocks + n_dev).saturating_sub(1) + host_stripes);
    let mut cursor = 0usize; // flattened-parameter offset of the block
    let gradient_placements: Vec<(Range<usize>, Range<usize>)> = block_sizes
        .iter()
        .map(|&block_m| {
            let block_params = (block_m / 2) as usize;
            let block_start = cursor.min(total_params);
            let block_end = (cursor + block_params).min(total_params);
            cursor += block_params;
            let grad_bytes = 2.0 * block_m as f64 * transfer_ratio;
            let striped = place(&mut placements, even_share(sites, grad_bytes));
            let owned = place(
                &mut placements,
                (0..n_dev).filter_map(|d| {
                    let lane = plan.lane(d);
                    let (lo, hi) = (block_start.max(lane.start), block_end.min(lane.end));
                    (hi > lo).then(|| (sites.dev(d), 4.0 * (hi - lo) as f64 * transfer_ratio))
                }),
            );
            (striped, owned)
        })
        .collect();
    let owned: usize = gradient_placements.iter().map(|(_, owned)| owned.len()).sum();
    let chains = match knobs.placement {
        UpdatePlacement::InStorage => plan.num_units(),
        UpdatePlacement::HostCpu => 0,
    };

    let mut dag = Dag::new();
    let size = GraphSize::of(n_blocks, sites.num_gpus, compressed, knobs.placement, chains, owned);
    dag.reserve(size.tasks, size.data, size.inputs, size.soft, size.after);
    let fw_end = build_pass(&mut dag, workload, sites, phases.forward, None, 1.0);
    let bw_compute_end = build_pass(&mut dag, workload, sites, phases.backward, Some(fw_end), 2.0);

    // Backward gradient offload: per block, (compress →) stage to host →
    // scatter towards the storage class. The scatter's placement — striped
    // or owner-routed — is the scheduler's call.
    let mut blocks: Vec<BlockPlan> = Vec::with_capacity(n_blocks);
    for (block_m, (striped, owned)) in block_sizes.iter().copied().zip(gradient_placements) {
        let block_m = block_m as f64;
        let dense_grad_bytes = 2.0 * block_m;
        // SmartComp: sort/select on the GPU before offloading, modelled as a
        // few extra passes over the block's gradients.
        let (head, compress, stage) = if compressed {
            let sort_flops = 16.0 * (block_m / 2.0);
            let compress =
                dag.add_task(DagWork::Compute { site: sites.gpu(0), amount: sort_flops });
            dag.set_phase(compress, phases.backward);
            dag.add_after(compress, fw_end);
            let compact =
                dag.add_output(compress, block_m * transfer_ratio.max(0.02), Some(sites.gpu(0)));
            let stage = dag.add_task(DagWork::Transfer {
                from: sites.gpu(0),
                to: sites.host(),
                bytes: block_m * transfer_ratio.max(0.02),
            });
            dag.set_phase(stage, phases.backward);
            dag.connect(stage, compact);
            (compress, Some(compress), stage)
        } else {
            let stage = dag.add_task(DagWork::Transfer {
                from: sites.gpu(0),
                to: sites.host(),
                bytes: block_m,
            });
            dag.set_phase(stage, phases.backward);
            dag.add_after(stage, fw_end);
            (stage, None, stage)
        };
        let staged = dag.add_output(stage, dense_grad_bytes * transfer_ratio, Some(sites.host()));
        let scatter = dag.add_task(DagWork::Transfer {
            from: sites.host(),
            to: SITE_STORAGE,
            bytes: dense_grad_bytes * transfer_ratio,
        });
        dag.set_phase(scatter, phases.backward);
        dag.connect(scatter, staged);
        let stored = dag.add_output(scatter, dense_grad_bytes * transfer_ratio, None);
        blocks.push(BlockPlan { head, compress, stage, scatter, stored, striped, owned });
    }
    let bw_end = dag.add_task(DagWork::Join);
    dag.add_after(bw_end, bw_compute_end);
    for plan in &blocks {
        dag.connect_soft(bw_end, plan.stored);
    }

    // Update phase.
    let mut grad_scatters: Vec<DagTaskId> = Vec::new();
    let mut chain_plans: Vec<ChainPlan> = Vec::new();
    let (up_end, phase_end, devices, host_updates) = match knobs.placement {
        UpdatePlacement::InStorage => {
            let state_bytes_per_param = optimizer.state_bytes_per_param() as f64;
            // Every owned placement names one gradient scatter a device
            // waits on; each device's lane is cut into its units.
            grad_scatters.reserve_exact(owned);
            chain_plans.reserve_exact(chains);
            let mut devices: Vec<DevicePlan> = Vec::with_capacity(n_dev);
            for dev in 0..n_dev {
                if plan.lane(dev).is_empty() {
                    continue;
                }
                let site = sites.dev(dev);
                // The blocks routed to this device, in block order.
                let routed = blocks.iter().filter(|p| {
                    placements[p.owned.clone()].iter().any(|&(routed_to, _)| routed_to == site)
                });
                let first_scatter = grad_scatters.len();
                grad_scatters.extend(routed.clone().map(|p| p.scatter));
                let first_chain = chain_plans.len();
                for subgroup in plan.units(dev).subgroups() {
                    let s = subgroup.index;
                    let elems = subgroup.len as f64;
                    let state_bytes = elems * state_bytes_per_param;
                    let grad_load_bytes = elems * 4.0 * transfer_ratio;
                    let dense_grad_bytes = elems * 4.0;
                    let param_writeback_bytes = elems * 4.0; // FP32 master copy (urgent)
                    let deferred_state_bytes = state_bytes - param_writeback_bytes;
                    let upstream_bytes = elems * 2.0; // FP16 parameters to host memory

                    // 1. P2P load of gradients + optimizer states (media → FPGA).
                    let load = dag.add_task(DagWork::Transfer {
                        from: site,
                        to: sites.fpga(dev),
                        bytes: state_bytes + grad_load_bytes,
                    });
                    dag.set_phase(load, phases.update);
                    if s == 0 {
                        // The first tasklet consumes the gradients this
                        // device received during backward; when exactly it
                        // may start is the scheduler's call.
                        for plan in routed.clone() {
                            dag.connect_soft(load, plan.stored);
                        }
                    }
                    let loaded =
                        dag.add_output(load, state_bytes + grad_load_bytes, Some(sites.fpga(dev)));
                    // 2. Decompression (SmartComp only), then the update kernel.
                    let (update_src, decompress) = if compressed {
                        let dec = dag.add_task(DagWork::Compute {
                            site: sites.decomp(dev),
                            amount: dense_grad_bytes,
                        });
                        dag.set_phase(dec, phases.update);
                        dag.connect(dec, loaded);
                        let dense = dag.add_output(dec, dense_grad_bytes, Some(sites.fpga(dev)));
                        (dense, Some(dec))
                    } else {
                        (loaded, None)
                    };
                    let update = dag.add_task(DagWork::Compute {
                        site: sites.fpga(dev),
                        amount: state_bytes + dense_grad_bytes,
                    });
                    dag.set_phase(update, phases.update);
                    dag.connect(update, update_src);
                    let updated = dag.add_output(update, state_bytes, Some(sites.fpga(dev)));
                    // 3. Urgent parameter write-back, then upstream to host.
                    let wb_param = dag.add_task(DagWork::Transfer {
                        from: sites.fpga(dev),
                        to: site,
                        bytes: param_writeback_bytes,
                    });
                    dag.set_phase(wb_param, phases.update);
                    dag.connect(wb_param, updated);
                    let params_ssd = dag.add_output(wb_param, param_writeback_bytes, Some(site));
                    let upstream = dag.add_task(DagWork::Transfer {
                        from: site,
                        to: sites.host(),
                        bytes: upstream_bytes,
                    });
                    dag.set_phase(upstream, phases.update);
                    dag.connect(upstream, params_ssd);
                    // 4. Deferred write-back of the remaining optimizer
                    // states: consumes the updated states, but whether it
                    // waits on the update kernel or on the urgent write-back
                    // is the handler policy's call.
                    let wb_state = dag.add_task(DagWork::Transfer {
                        from: sites.fpga(dev),
                        to: site,
                        bytes: deferred_state_bytes,
                    });
                    dag.set_phase(wb_state, phases.update);
                    dag.connect_soft(wb_state, updated);
                    let chain_end = dag.add_task(DagWork::Join);
                    dag.add_after(chain_end, upstream);
                    dag.add_after(chain_end, wb_state);
                    chain_plans.push(ChainPlan {
                        load,
                        decompress,
                        update,
                        wb_param,
                        upstream,
                        wb_state,
                        chain_end,
                    });
                }
                devices.push(DevicePlan {
                    dev,
                    site,
                    grad_scatters: first_scatter..grad_scatters.len(),
                    chains: first_chain..chain_plans.len(),
                });
            }
            let up_end = dag.add_task(DagWork::Join);
            for chain in &chain_plans {
                dag.add_after(up_end, chain.chain_end);
            }
            let phase_end = dag.add_task(DagWork::Join);
            dag.add_after(phase_end, bw_end);
            dag.add_after(phase_end, up_end);
            (up_end, Some(phase_end), devices, Vec::new())
        }
        UpdatePlacement::HostCpu => {
            let state_per_m = optimizer.state_size_in_m(); // 6 for Adam, 4 for SGD/AdaGrad
            let mut host_updates: Vec<HostUpdatePlan> = Vec::with_capacity(block_sizes.len());
            let mut prev_gather: Option<DagTaskId> = None;
            for block_m in block_sizes.iter().copied() {
                let block_m = block_m as f64; // FP16 bytes of this block = "1M"
                let upload_bytes = (state_per_m + 2.0) * block_m; // states + FP32 gradients
                let offload_bytes = state_per_m * block_m;
                // Striped upload from the array; the next block's upload
                // overlaps the CPU update and offload of the previous one
                // (DeepSpeed's double-buffered pipeline).
                let gather = dag.add_task(DagWork::Transfer {
                    from: SITE_STORAGE,
                    to: sites.host(),
                    bytes: upload_bytes,
                });
                dag.set_phase(gather, phases.update);
                dag.add_after(gather, bw_end);
                if let Some(p) = prev_gather {
                    dag.add_after(gather, p);
                }
                prev_gather = Some(gather);
                let gathered = dag.add_output(gather, upload_bytes, Some(sites.host()));
                // CPU update streams states + gradients through the AVX kernel.
                let update =
                    dag.add_task(DagWork::Compute { site: sites.host(), amount: upload_bytes });
                dag.set_phase(update, phases.update);
                dag.connect(update, gathered);
                let fresh = dag.add_output(update, offload_bytes, Some(sites.host()));
                // Striped offload of the refreshed optimizer states.
                let offload = dag.add_task(DagWork::Transfer {
                    from: sites.host(),
                    to: SITE_STORAGE,
                    bytes: offload_bytes,
                });
                dag.set_phase(offload, phases.update);
                dag.connect(offload, fresh);
                let upload_striped = place(&mut placements, even_share(sites, upload_bytes));
                let offload_striped = place(&mut placements, even_share(sites, offload_bytes));
                host_updates.push(HostUpdatePlan {
                    gather,
                    update,
                    offload,
                    upload_striped,
                    offload_striped,
                });
            }
            let up_end = dag.add_task(DagWork::Join);
            (up_end, None, Vec::new(), host_updates)
        }
    };

    let layout = IterLayout {
        sites,
        placement: knobs.placement,
        fw_end,
        bw_compute_end,
        bw_end,
        up_end,
        phase_end,
        blocks,
        devices,
        host_updates,
        placements,
        grad_scatters,
        chains: chain_plans,
    };
    debug_assert_eq!(layout.chains.len(), chains);
    debug_assert_eq!(dag.len(), size.tasks, "the graph's size is counted right");
    IterationGraph { dag, layout }
}

/// How a policy places storage-class gradient scatters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadRouting {
    /// Every block's gradients are striped evenly across all devices and the
    /// writes are joined before the next block may stage (one staging
    /// buffer).
    Striped,
    /// Each block's bytes are routed to the devices owning its flattened
    /// parameter range; writes drain asynchronously while later blocks stage
    /// (pre-allocated per-device buffers).
    OwnerRouted,
}

/// How consecutive in-storage update tasklets on one device synchronise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChainSync {
    /// Buffer reuse: the next load starts as soon as the previous update
    /// kernel freed its buffers, and deferred state write-back overlaps the
    /// urgent one (the paper's optimized internal handler).
    Overlapped,
    /// Fresh buffers per tasklet: the next tasklet waits for the whole
    /// previous chain to drain and pays `setup_s` of buffer-allocation and
    /// kernel-launch overhead (the naive handler).
    Sequential {
        /// Per-tasklet setup latency in seconds.
        setup_s: f64,
    },
}

/// The scheduling role a DAG task plays, if any. Tasks without a role carry
/// all their ordering structurally and schedule as-is. Its indices are
/// `u32`, as a graph's are, so a policy's role table holds 12 bytes a task.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// First task of gradient-offload block `b` (chains on the previous
    /// block per the routing policy).
    BlockHead(u32),
    /// Gradient scatter of block `b` (placed per the routing policy).
    BlockScatter(u32),
    /// End-of-backward join (synchronises on scatters per the routing).
    BwEnd,
    /// In-storage tasklet load: chain `chain` of `layout.devices[device]`.
    ChainLoad {
        /// Index into [`IterLayout::devices`].
        device: u32,
        /// Chain index within the device.
        chain: u32,
    },
    /// Deferred state write-back of a tasklet chain.
    ChainWbState {
        /// Index into [`IterLayout::devices`].
        device: u32,
        /// Chain index within the device.
        chain: u32,
    },
    /// Host-update upload of block `b` (striped from the array).
    HostGather(u32),
    /// Host-update state offload of block `b` (striped to the array).
    HostOffload(u32),
    /// End-of-update join of the host-update graph.
    HostUpEnd,
}

/// Gives `task` its role.
fn set_role(roles: &mut [Option<Role>], task: DagTaskId, role: Role) {
    roles[task.index()] = Some(role);
}

/// An empty role table over every task of the graph `layout` describes:
/// the iteration's last task is its end (`phase_end` for an in-storage
/// graph, `up_end` for a host-update one).
fn role_table(layout: &IterLayout) -> Vec<Option<Role>> {
    vec![None; layout.phase_end.unwrap_or(layout.up_end).index() + 1]
}

/// A method schedule over the shared iteration graph: one of the paper's
/// execution strategies, expressed as placement + ordering decisions.
///
/// The four methods are instances of this policy:
///
/// | scheduler        | routing                        | chain sync                   |
/// |------------------|--------------------------------|------------------------------|
/// | `host-update`    | [`OffloadRouting::Striped`]    | — (host CPU update)          |
/// | `serial-naive`   | [`OffloadRouting::Striped`]    | [`ChainSync::Sequential`]    |
/// | `serial-overlap` | [`OffloadRouting::Striped`]    | [`ChainSync::Overlapped`]    |
/// | `pipelined`      | [`OffloadRouting::OwnerRouted`]| [`ChainSync::Overlapped`]    |
#[derive(Debug)]
pub struct MethodPolicy<'a> {
    name: &'static str,
    routing: OffloadRouting,
    chain: ChainSync,
    layout: &'a IterLayout,
    /// The role of each DAG task, by task index.
    roles: Vec<Option<Role>>,
    /// The anchors of the decision being made, reused from call to call.
    anchors: Vec<Anchor>,
}

impl<'a> MethodPolicy<'a> {
    /// The ZeRO-Infinity baseline schedule: striped gradient offload and the
    /// double-buffered host-CPU update pipeline.
    pub fn host_update(layout: &'a IterLayout) -> Self {
        let mut roles = role_table(layout);
        Self::insert_block_roles(&mut roles, layout);
        for (b, plan) in (0..).zip(&layout.host_updates) {
            set_role(&mut roles, plan.gather, Role::HostGather(b));
            set_role(&mut roles, plan.offload, Role::HostOffload(b));
        }
        set_role(&mut roles, layout.up_end, Role::HostUpEnd);
        Self {
            name: "host-update",
            routing: OffloadRouting::Striped,
            chain: ChainSync::Overlapped,
            layout,
            roles,
            anchors: Vec::new(),
        }
    }

    /// An in-storage update schedule with the given routing and chain
    /// synchronisation.
    pub fn in_storage(
        layout: &'a IterLayout,
        routing: OffloadRouting,
        chain: ChainSync,
        name: &'static str,
    ) -> Self {
        let mut roles = role_table(layout);
        Self::insert_block_roles(&mut roles, layout);
        for (di, dev) in (0..).zip(&layout.devices) {
            for (ci, c) in (0..).zip(layout.chains_of(dev)) {
                set_role(&mut roles, c.load, Role::ChainLoad { device: di, chain: ci });
                set_role(&mut roles, c.wb_state, Role::ChainWbState { device: di, chain: ci });
            }
        }
        Self { name, routing, chain, layout, roles, anchors: Vec::new() }
    }

    fn insert_block_roles(roles: &mut [Option<Role>], layout: &IterLayout) {
        for (b, plan) in (0..).zip(&layout.blocks) {
            set_role(roles, plan.head, Role::BlockHead(b));
            set_role(roles, plan.scatter, Role::BlockScatter(b));
        }
        set_role(roles, layout.bw_end, Role::BwEnd);
    }

    /// The layout this policy schedules over.
    pub fn layout(&self) -> &IterLayout {
        self.layout
    }

    /// Appends what device `dev`'s tasklets wait for to `anchors`: the
    /// global end of backward when striped, the device's own gradient
    /// writes when owner-routed.
    fn grad_anchors(&self, dev: &DevicePlan, anchors: &mut Vec<Anchor>) {
        let scatters = self.layout.grad_scatters_of(dev);
        if self.routing == OffloadRouting::Striped || scatters.is_empty() {
            anchors.push(Anchor::Task(self.layout.bw_end));
        } else {
            anchors.extend(scatters.iter().map(|&s| Anchor::TaskAtSite(s, dev.site)));
        }
    }
}

impl Scheduler for MethodPolicy<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    /// The decision for `task` is a function of the task and the layout
    /// alone.
    fn decide(
        &mut self,
        task: DagTaskId,
        _dag: &Dag,
        _system: &SystemView<'_>,
        out: &mut dyn FnMut(ScheduleDecision<'_>),
    ) {
        let layout = self.layout;
        let mut decision = ScheduleDecision::new(task);
        let Some(role) = self.roles.get(task.index()).copied().flatten() else {
            return out(decision);
        };
        // The decision's anchors go to the reused buffer; a setup delay's
        // anchors are the decision's, then one more.
        let mut anchors = std::mem::take(&mut self.anchors);
        anchors.clear();
        let mut setup = None;
        match role {
            Role::BlockHead(b) => {
                if b > 0 {
                    let prev = &layout.blocks[b as usize - 1];
                    anchors.push(match self.routing {
                        // One staging buffer: wait for the previous block's
                        // joined writes.
                        OffloadRouting::Striped => Anchor::Task(prev.scatter),
                        // Per-device buffers: chain on the previous staging
                        // transfer only; its writes drain asynchronously.
                        OffloadRouting::OwnerRouted => Anchor::Task(prev.stage),
                    });
                }
            }
            Role::BlockScatter(b) => {
                let plan = &layout.blocks[b as usize];
                let (range, join) = match self.routing {
                    OffloadRouting::Striped => (&plan.striped, true),
                    OffloadRouting::OwnerRouted => (&plan.owned, false),
                };
                let transfers = Cow::Borrowed(layout.placement(range));
                decision = decision.scatter(ScatterPlan { transfers, join });
            }
            Role::BwEnd => match self.routing {
                OffloadRouting::Striped => {
                    anchors.extend(layout.blocks.iter().map(|p| Anchor::Task(p.scatter)));
                }
                OffloadRouting::OwnerRouted => {
                    for p in &layout.blocks {
                        let sites = layout.placement(&p.owned).iter();
                        anchors.extend(sites.map(|&(site, _)| Anchor::TaskAtSite(p.scatter, site)));
                    }
                }
            },
            Role::ChainLoad { device, chain } => {
                let dev = &layout.devices[device as usize];
                let chains = layout.chains_of(dev);
                let chain = chain as usize;
                self.grad_anchors(dev, &mut anchors);
                match self.chain {
                    ChainSync::Overlapped => {
                        if chain > 0 {
                            anchors.push(Anchor::Task(chains[chain - 1].update));
                        }
                    }
                    ChainSync::Sequential { setup_s } => {
                        let grads = anchors.len();
                        if chain > 0 {
                            anchors.push(Anchor::Task(chains[chain - 1].chain_end));
                        }
                        setup = Some((setup_s, grads));
                    }
                }
            }
            Role::ChainWbState { device, chain } => {
                let c = &layout.chains_of(&layout.devices[device as usize])[chain as usize];
                anchors.push(match self.chain {
                    ChainSync::Overlapped => Anchor::Task(c.update),
                    ChainSync::Sequential { .. } => Anchor::Task(c.wb_param),
                });
            }
            Role::HostGather(b) => {
                let transfers = Cow::Borrowed(
                    layout.placement(&layout.host_updates[b as usize].upload_striped),
                );
                decision = decision.scatter(ScatterPlan { transfers, join: true });
            }
            Role::HostOffload(b) => {
                let transfers = Cow::Borrowed(
                    layout.placement(&layout.host_updates[b as usize].offload_striped),
                );
                decision = decision.scatter(ScatterPlan { transfers, join: false });
            }
            Role::HostUpEnd => {
                // The phase drains when the last block's offload writes and
                // CPU update are all done.
                let last =
                    layout.host_updates.last().expect("host-update layout has at least one block");
                let offload = layout.placement(&last.offload_striped).iter();
                anchors.extend(offload.map(|&(site, _)| Anchor::TaskAtSite(last.offload, site)));
                anchors.push(Anchor::Task(last.update));
            }
        }
        // A sequential tasklet waits on its gradients; its setup on those
        // and the previous chain.
        let after = setup.map_or(anchors.len(), |(_, grads)| grads);
        decision.after = Cow::Borrowed(&anchors[..after]);
        if let Some((seconds, _)) = setup {
            decision.setup = Some(SetupDelay { seconds, after: Cow::Borrowed(&anchors[..]) });
        }
        out(decision);
        self.anchors = anchors;
    }
}

/// The ZeRO-Infinity baseline schedule as a named [`Scheduler`]: striped
/// gradient offload and the double-buffered host-CPU update pipeline.
#[derive(Debug)]
pub struct HostUpdateScheduler<'a>(MethodPolicy<'a>);

impl<'a> HostUpdateScheduler<'a> {
    /// A host-update scheduler over `layout` (which must have been built
    /// with [`UpdatePlacement::HostCpu`]).
    pub fn new(layout: &'a IterLayout) -> Self {
        Self(MethodPolicy::host_update(layout))
    }
}

impl Scheduler for HostUpdateScheduler<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn decide(
        &mut self,
        task: DagTaskId,
        dag: &Dag,
        system: &SystemView<'_>,
        out: &mut dyn FnMut(ScheduleDecision<'_>),
    ) {
        self.0.decide(task, dag, system, out);
    }
}

/// Lowers scheduled DAG tasks onto a [`TimedPlatform`]: computes map to the
/// GPU / CPU / FPGA resources, transfers to the fabric path helpers, and
/// storage-class scatters to per-device media writes/reads.
#[derive(Debug)]
pub struct PlatformLowering<'a> {
    plat: &'a mut TimedPlatform,
    sites: SiteMap,
    /// The flows of the joined scatter being lowered, reused.
    joined: Vec<TaskId>,
}

impl<'a> PlatformLowering<'a> {
    /// A lowering onto `plat`, with sites mapped per its machine config.
    pub fn new(plat: &'a mut TimedPlatform) -> Self {
        let sites = SiteMap::new(plat.num_gpus(), plat.num_devices());
        Self { plat, sites, joined: Vec::new() }
    }

    fn classify(&self, site: u32) -> Result<SiteKind, SimError> {
        let unknown = || SimError::UnknownId { kind: "site", index: site as usize };
        self.sites.classify(site).ok_or_else(unknown)
    }

    /// The fabric route a flow from site `from` to site `to` takes.
    fn route(&self, from: u32, to: u32) -> Result<Route, SimError> {
        use SiteKind::{Fpga, Gpu, Host, Storage};
        Ok(match (self.classify(from)?, self.classify(to)?) {
            (Host, Gpu(g)) => Route::HostToGpu(g),
            (Gpu(g), Host) => Route::GpuToHost(g),
            (Gpu(a), Gpu(b)) => Route::GpuToGpu(a, b),
            (Host, Storage(d)) => Route::HostToSsd(d),
            (Storage(d), Host) => Route::SsdToHost(d),
            (Gpu(g), Storage(d)) => Route::GpuToSsd(g, d),
            (Storage(a), Fpga(b)) if a == b => Route::SsdToFpga(a),
            (Fpga(a), Storage(b)) if a == b => Route::FpgaToSsd(a),
            (f, t) => {
                return Err(SimError::InvalidParameter {
                    message: format!("no fabric route from {f:?} to {t:?}"),
                })
            }
        })
    }

    fn require_phase(id: DagTaskId, task: &simkit::DagTask) -> Result<PhaseId, SimError> {
        task.phase.ok_or_else(|| SimError::InvalidParameter {
            message: format!("dag task {} carries work but no phase attribution", id.index()),
        })
    }

    /// Lowers a storage-class scatter (towards storage) or gather (from
    /// it): one flow per transfer, each also a per-site result, and the
    /// main task per the plan.
    fn lower_scatter(
        &mut self,
        (from, to): (u32, u32),
        plan: &ScatterPlan<'_>,
        deps: &[TaskId],
        phase: PhaseId,
        per_site: &mut Vec<(u32, u32)>,
    ) -> Result<TaskId, SimError> {
        self.joined.clear();
        for &(site, bytes) in plan.transfers.iter() {
            if !matches!(self.classify(site)?, SiteKind::Storage(_)) {
                return Err(SimError::InvalidParameter {
                    message: format!("scatter target site {site} is not a storage device"),
                });
            }
            let route =
                if to == SITE_STORAGE { self.route(from, site) } else { self.route(site, to) };
            let flow = self.plat.flow(route?, bytes, deps, phase)?;
            per_site.push((site, flow as u32));
            self.joined.push(flow);
        }
        Ok(match self.joined.last() {
            None => self.plat.barrier(deps),
            Some(_) if plan.join => self.plat.barrier(&self.joined),
            Some(&last) => last,
        })
    }
}

impl Lowering for PlatformLowering<'_> {
    fn lower(
        &mut self,
        dag: &Dag,
        task: DagTaskId,
        scatter: Option<&ScatterPlan<'_>>,
        deps: &[TaskId],
        per_site: &mut Vec<(u32, u32)>,
    ) -> Result<TaskId, SimError> {
        let node =
            dag.task(task).ok_or(SimError::UnknownId { kind: "task", index: task.index() })?;
        let phase = || Self::require_phase(task, node);
        match node.work {
            DagWork::Join => Ok(self.plat.barrier(deps)),
            DagWork::Delay { seconds } => Ok(self.plat.delay(seconds, deps, phase()?)),
            DagWork::Compute { site, amount } => match (phase()?, self.classify(site)?) {
                (phase, SiteKind::Host) => Ok(self.plat.cpu_update(amount, deps, phase)),
                (phase, SiteKind::Gpu(g)) => Ok(self.plat.gpu_compute(g, amount, deps, phase)),
                (phase, SiteKind::Fpga(d)) => self.plat.fpga_update(d, amount, deps, phase),
                (phase, SiteKind::Decompressor(d)) => {
                    self.plat.fpga_decompress(d, amount, deps, phase)
                }
                (_, SiteKind::Storage(_)) => Err(SimError::InvalidParameter {
                    message: format!("dag task {}: storage media cannot run compute", task.index()),
                }),
            },
            DagWork::Transfer { from, to, .. } if from == SITE_STORAGE || to == SITE_STORAGE => {
                let phase = phase()?;
                let plan = scatter.ok_or_else(|| SimError::InvalidParameter {
                    message: format!(
                        "dag task {}: storage-class transfer scheduled without a scatter plan",
                        task.index()
                    ),
                })?;
                self.lower_scatter((from, to), plan, deps, phase, per_site)
            }
            DagWork::Transfer { from, to, bytes } => {
                let phase = phase()?;
                self.plat.flow(self.route(from, to)?, bytes, deps, phase)
            }
        }
    }

    fn reserve(&mut self, tasks: usize, deps: usize, path_links: usize) {
        self.plat.reserve(tasks, deps, path_links);
    }

    fn route_len(&mut self, from: u32, to: u32) -> usize {
        self.route(from, to).map_or(0, |route| self.plat.route_len(route))
    }

    fn lower_delay(
        &mut self,
        seconds: f64,
        deps: &[TaskId],
        phase: Option<PhaseId>,
    ) -> Result<TaskId, SimError> {
        let phase = phase.ok_or_else(|| SimError::InvalidParameter {
            message: "setup delay requires a phase attribution".to_string(),
        })?;
        Ok(self.plat.delay(seconds, deps, phase))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use llm::{ModelConfig, Workload};

    fn workload() -> Workload {
        Workload::new(ModelConfig::gpt2_0_34b(), 4, 1024)
    }

    #[test]
    fn site_map_round_trips() {
        let sites = SiteMap::new(2, 3);
        assert_eq!(sites.classify(sites.host()), Some(SiteKind::Host));
        assert_eq!(sites.classify(sites.gpu(1)), Some(SiteKind::Gpu(1)));
        assert_eq!(sites.classify(sites.dev(2)), Some(SiteKind::Storage(2)));
        assert_eq!(sites.classify(sites.fpga(0)), Some(SiteKind::Fpga(0)));
        assert_eq!(sites.classify(sites.decomp(2)), Some(SiteKind::Decompressor(2)));
        assert_eq!(sites.classify(sites.len() as u32), None);
        assert!(!sites.is_empty());
    }

    #[test]
    fn shared_graph_validates_for_both_placements() {
        let machine = MachineConfig::smart_infinity(2);
        let mut plat = TimedPlatform::new(&machine);
        let sites = SiteMap::new(plat.num_gpus(), plat.num_devices());
        let phases = IterPhases {
            forward: plat.add_phase("fw"),
            backward: plat.add_phase("bw"),
            update: plat.add_phase("up"),
        };
        for knobs in [
            GraphKnobs::host_update(),
            GraphKnobs::in_storage(None, 100_000_000),
            GraphKnobs::in_storage(Some(0.1), 50_000_000),
        ] {
            let graph = build_iteration_graph(
                &workload(),
                sites,
                optim::OptimizerKind::Adam,
                &knobs,
                phases,
            );
            graph.dag.validate().expect("iteration graph is well formed");
            assert!(graph.dag.len() > 10);
            match knobs.placement {
                UpdatePlacement::HostCpu => {
                    assert!(graph.layout.phase_end.is_none());
                    assert!(!graph.layout.host_updates.is_empty());
                    assert!(graph.layout.devices.is_empty());
                }
                UpdatePlacement::InStorage => {
                    assert!(graph.layout.phase_end.is_some());
                    assert!(graph.layout.host_updates.is_empty());
                    assert!(!graph.layout.devices.is_empty());
                }
            }
        }
    }

    #[test]
    fn owner_routing_conserves_gradient_bytes() {
        let sites = SiteMap::new(1, 4);
        let mut plat = TimedPlatform::new(&MachineConfig::smart_infinity(4));
        let phases = IterPhases {
            forward: plat.add_phase("fw"),
            backward: plat.add_phase("bw"),
            update: plat.add_phase("up"),
        };
        let knobs = GraphKnobs::in_storage(None, 100_000_000);
        let graph =
            build_iteration_graph(&workload(), sites, optim::OptimizerKind::Adam, &knobs, phases);
        for block in &graph.layout.blocks {
            let striped: f64 = graph.layout.placement(&block.striped).iter().map(|&(_, b)| b).sum();
            let owned: f64 = graph.layout.placement(&block.owned).iter().map(|&(_, b)| b).sum();
            // Striping conserves the block's dense volume exactly; owner
            // routing conserves the clamped flattened intersection, which can
            // only fall short when parameter-count rounding truncates a block.
            assert!(owned <= striped + 1.0);
            assert!(striped > 0.0);
        }
    }

    #[test]
    fn transfer_ratio_matches_smartcomp_model() {
        assert_eq!(GraphKnobs::host_update().transfer_ratio(), 1.0);
        assert_eq!(GraphKnobs::in_storage(Some(0.1), 1).transfer_ratio(), 0.2);
        assert_eq!(GraphKnobs::in_storage(Some(0.9), 1).transfer_ratio(), 1.0);
    }
}
