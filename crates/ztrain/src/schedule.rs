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

use crate::platform::TimedPlatform;
use llm::Workload;
use optim::OptimizerKind;
use simkit::{
    Anchor, Dag, DagTaskId, DagWork, DataId, Decision, Lowered, Lowering, PhaseId, ScatterPlan,
    ScheduleDecision, Scheduler, SetupDelay, SimError, SystemView, TaskId, SITE_STORAGE,
};
use tensorlib::{Chunker, Partitioner};

/// Maps the abstract site indices used by iteration DAGs onto the components
/// of one training server.
///
/// Site 0 is the host; GPUs, storage devices, FPGA updaters and FPGA
/// decompressors follow in contiguous ranges. [`SITE_STORAGE`] stands for
/// the storage class as a whole; transfers touching it are placed onto
/// concrete device sites by the scheduler's [`ScatterPlan`].
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
    pub fn host(&self) -> usize {
        0
    }

    /// The site of GPU `g`.
    pub fn gpu(&self, g: usize) -> usize {
        1 + g
    }

    /// The site of storage device `d`.
    pub fn dev(&self, d: usize) -> usize {
        1 + self.num_gpus + d
    }

    /// The site of CSD `d`'s FPGA updater.
    pub fn fpga(&self, d: usize) -> usize {
        1 + self.num_gpus + self.num_devices + d
    }

    /// The site of CSD `d`'s FPGA decompressor.
    pub(crate) fn decomp(&self, d: usize) -> usize {
        1 + self.num_gpus + 2 * self.num_devices + d
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
    pub(crate) fn classify(&self, site: usize) -> Option<SiteKind> {
        if site == 0 {
            return Some(SiteKind::Host);
        }
        let mut s = site - 1;
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
    /// Striped placement: `(device site, bytes)` with every device receiving
    /// an even slice of the block's gradients.
    pub striped: Vec<(usize, f64)>,
    /// Owner-routed placement: `(device site, bytes)` for the devices whose
    /// contiguous parameter shard intersects this block's flattened range.
    pub owned: Vec<(usize, f64)>,
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
    pub site: usize,
    /// Gradient scatters of the blocks whose flattened range intersects this
    /// device's shard, in block order.
    pub grad_scatters: Vec<DagTaskId>,
    /// Tasklet chains, one per subgroup of the device's shard.
    pub chains: Vec<ChainPlan>,
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
    /// `(device site, bytes)` placement of the upload.
    pub upload_striped: Vec<(usize, f64)>,
    /// `(device site, bytes)` placement of the offload.
    pub offload_striped: Vec<(usize, f64)>,
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
}

/// The shared iteration graph plus its layout.
#[derive(Debug)]
pub struct IterationGraph {
    /// The task graph.
    pub dag: Dag,
    /// Role layout for scheduler construction.
    pub layout: IterLayout,
}

/// The task and data names of one streaming pass. Names are diagnostics
/// only, so each is a static stem; error messages add the task index.
struct PassNames {
    load: &'static str,
    weights: &'static str,
    compute: &'static str,
    acts: &'static str,
    actxfer: &'static str,
    end: &'static str,
}

const FORWARD: PassNames = PassNames {
    load: "fw.load",
    weights: "fw.weights",
    compute: "fw.compute",
    acts: "fw.acts",
    actxfer: "fw.actxfer",
    end: "fw.end",
};

const BACKWARD: PassNames = PassNames {
    load: "bw.load",
    weights: "bw.weights",
    compute: "bw.compute",
    acts: "bw.acts",
    actxfer: "bw.actxfer",
    end: "bw.end",
};

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
    names: &PassNames,
) -> DagTaskId {
    let n_gpus = sites.num_gpus;
    let blocks = workload.block_bytes_fp16();
    let total_fp16: u64 = blocks.iter().sum();
    let flops_per_byte = flops_multiplier * workload.forward_flops() / total_fp16 as f64;
    let act_bytes_per_block =
        2.0 * (workload.batch_size() * workload.seq_len() * workload.model().hidden_size()) as f64;

    let mut prev_compute: Vec<Option<DagTaskId>> = vec![None; n_gpus];
    let mut prev_load: Vec<Option<DagTaskId>> = vec![None; n_gpus];
    let mut last: Vec<DagTaskId> = Vec::new();
    for block_bytes in blocks.iter().copied() {
        let block_bytes = block_bytes as f64;
        let block_flops = block_bytes * flops_per_byte;
        let mut block_tasks = Vec::new();
        for gpu in 0..n_gpus {
            // Tensor parallelism: each GPU streams 1/n of the block weights.
            let load = dag.add_task(
                names.load,
                DagWork::Transfer {
                    from: sites.host(),
                    to: sites.gpu(gpu),
                    bytes: block_bytes / n_gpus as f64,
                },
            );
            dag.set_phase(load, phase);
            if let Some(d) = pass_dep {
                dag.add_after(load, d);
            }
            if let Some(p) = prev_load[gpu] {
                dag.add_after(load, p);
            }
            let weights = dag.add_output(
                load,
                names.weights,
                block_bytes / n_gpus as f64,
                Some(sites.gpu(gpu)),
            );
            prev_load[gpu] = Some(load);
            let compute = dag.add_task(
                names.compute,
                DagWork::Compute { site: sites.gpu(gpu), amount: block_flops / n_gpus as f64 },
            );
            dag.set_phase(compute, phase);
            dag.connect(compute, weights);
            if let Some(p) = prev_compute[gpu] {
                dag.add_after(compute, p);
            }
            prev_compute[gpu] = Some(compute);
            block_tasks.push(compute);
            // Tensor-parallel activation exchange with GPU 0 after the block.
            if n_gpus > 1 && gpu != 0 {
                let acts =
                    dag.add_output(compute, names.acts, act_bytes_per_block, Some(sites.gpu(gpu)));
                let xfer = dag.add_task(
                    names.actxfer,
                    DagWork::Transfer {
                        from: sites.gpu(gpu),
                        to: sites.gpu(0),
                        bytes: act_bytes_per_block,
                    },
                );
                dag.set_phase(xfer, phase);
                dag.connect(xfer, acts);
                block_tasks.push(xfer);
            }
        }
        last = block_tasks;
    }
    let end = dag.add_task(names.end, DagWork::Join);
    for t in last {
        dag.add_after(end, t);
    }
    end
}

/// Builds the shared iteration graph: forward pass, backward pass with
/// per-block gradient offload towards the storage class, and the update
/// placed per `knobs.placement`. Task creation order mirrors the historical
/// schedule builders exactly, so any policy lowered over this graph in
/// ready-order reproduces the legacy timelines bit for bit.
pub fn build_iteration_graph(
    workload: &Workload,
    sites: SiteMap,
    optimizer: OptimizerKind,
    knobs: &GraphKnobs,
    phases: IterPhases,
) -> IterationGraph {
    let mut dag = Dag::new();
    let fw_end = build_pass(&mut dag, workload, sites, phases.forward, None, 1.0, &FORWARD);
    let bw_compute_end =
        build_pass(&mut dag, workload, sites, phases.backward, Some(fw_end), 2.0, &BACKWARD);

    // Backward gradient offload: per block, (compress →) stage to host →
    // scatter towards the storage class. The scatter's placement — striped
    // or owner-routed — is the scheduler's call.
    let n_dev = sites.num_devices;
    let transfer_ratio = knobs.transfer_ratio();
    let compressed = knobs.keep_ratio.is_some();
    let block_sizes = workload.block_bytes_fp16();
    let total_params = workload.model().num_params() as usize;
    let partitioner = Partitioner::contiguous(total_params, n_dev);
    let mut blocks: Vec<BlockPlan> = Vec::new();
    let mut cursor = 0usize; // flattened-parameter offset of the block
    for block_m in block_sizes.iter().copied() {
        let block_params = (block_m / 2) as usize;
        let block_start = cursor.min(total_params);
        let block_end = (cursor + block_params).min(total_params);
        cursor += block_params;
        let block_m = block_m as f64;
        let dense_grad_bytes = 2.0 * block_m;
        // SmartComp: sort/select on the GPU before offloading, modelled as a
        // few extra passes over the block's gradients.
        let (head, compress, stage) = if compressed {
            let sort_flops = 16.0 * (block_m / 2.0);
            let compress = dag
                .add_task("compress", DagWork::Compute { site: sites.gpu(0), amount: sort_flops });
            dag.set_phase(compress, phases.backward);
            dag.add_after(compress, fw_end);
            let compact = dag.add_output(
                compress,
                "topk",
                block_m * transfer_ratio.max(0.02),
                Some(sites.gpu(0)),
            );
            let stage = dag.add_task(
                "stage",
                DagWork::Transfer {
                    from: sites.gpu(0),
                    to: sites.host(),
                    bytes: block_m * transfer_ratio.max(0.02),
                },
            );
            dag.set_phase(stage, phases.backward);
            dag.connect(stage, compact);
            (compress, Some(compress), stage)
        } else {
            let stage = dag.add_task(
                "stage",
                DagWork::Transfer { from: sites.gpu(0), to: sites.host(), bytes: block_m },
            );
            dag.set_phase(stage, phases.backward);
            dag.add_after(stage, fw_end);
            (stage, None, stage)
        };
        let staged = dag.add_output(
            stage,
            "grads@host",
            dense_grad_bytes * transfer_ratio,
            Some(sites.host()),
        );
        let scatter = dag.add_task(
            "offload",
            DagWork::Transfer {
                from: sites.host(),
                to: SITE_STORAGE,
                bytes: dense_grad_bytes * transfer_ratio,
            },
        );
        dag.set_phase(scatter, phases.backward);
        dag.connect(scatter, staged);
        let stored =
            dag.add_output(scatter, "grads@storage", dense_grad_bytes * transfer_ratio, None);
        let striped: Vec<(usize, f64)> = (0..n_dev)
            .map(|d| (sites.dev(d), dense_grad_bytes * transfer_ratio / n_dev as f64))
            .collect();
        let mut owned: Vec<(usize, f64)> = Vec::new();
        for d in 0..n_dev {
            let shard = partitioner.shard(d);
            let lo = block_start.max(shard.offset);
            let hi = block_end.min(shard.offset + shard.len);
            if hi <= lo {
                continue;
            }
            owned.push((sites.dev(d), 4.0 * (hi - lo) as f64 * transfer_ratio));
        }
        blocks.push(BlockPlan { head, compress, stage, scatter, stored, striped, owned });
    }
    let bw_end = dag.add_task("bw.offload_end", DagWork::Join);
    dag.add_after(bw_end, bw_compute_end);
    for plan in &blocks {
        dag.connect_soft(bw_end, plan.stored);
    }

    // Update phase.
    let (up_end, phase_end, devices, host_updates) = match knobs.placement {
        UpdatePlacement::InStorage => {
            let state_bytes_per_param = optimizer.state_bytes_per_param() as f64;
            // Per device, the blocks routed to it, in block order.
            let mut owned_by: Vec<Vec<&BlockPlan>> = vec![Vec::new(); n_dev];
            for plan in &blocks {
                for &(site, _) in &plan.owned {
                    owned_by[site - sites.dev(0)].push(plan);
                }
            }
            let mut devices: Vec<DevicePlan> = Vec::new();
            let mut chain_ends: Vec<DagTaskId> = Vec::new();
            for (dev, routed) in owned_by.iter().enumerate() {
                let shard = partitioner.shard(dev);
                if shard.len == 0 {
                    continue;
                }
                let site = sites.dev(dev);
                let grad_scatters: Vec<DagTaskId> = routed.iter().map(|p| p.scatter).collect();
                let owning: Vec<DataId> = routed.iter().map(|p| p.stored).collect();
                let chunker = Chunker::new(shard.len, knobs.subgroup_elems);
                let mut chains: Vec<ChainPlan> = Vec::new();
                for subgroup in chunker.subgroups() {
                    let s = subgroup.index;
                    let elems = subgroup.len as f64;
                    let state_bytes = elems * state_bytes_per_param;
                    let grad_load_bytes = elems * 4.0 * transfer_ratio;
                    let dense_grad_bytes = elems * 4.0;
                    let param_writeback_bytes = elems * 4.0; // FP32 master copy (urgent)
                    let deferred_state_bytes = state_bytes - param_writeback_bytes;
                    let upstream_bytes = elems * 2.0; // FP16 parameters to host memory

                    // 1. P2P load of gradients + optimizer states (media → FPGA).
                    let load = dag.add_task(
                        "load",
                        DagWork::Transfer {
                            from: site,
                            to: sites.fpga(dev),
                            bytes: state_bytes + grad_load_bytes,
                        },
                    );
                    dag.set_phase(load, phases.update);
                    if s == 0 {
                        // The first tasklet consumes the gradients this
                        // device received during backward; when exactly it
                        // may start is the scheduler's call.
                        for &item in &owning {
                            dag.connect_soft(load, item);
                        }
                    }
                    let loaded = dag.add_output(
                        load,
                        "states@fpga",
                        state_bytes + grad_load_bytes,
                        Some(sites.fpga(dev)),
                    );
                    // 2. Decompression (SmartComp only), then the update kernel.
                    let (update_src, decompress) = if compressed {
                        let dec = dag.add_task(
                            "decompress",
                            DagWork::Compute { site: sites.decomp(dev), amount: dense_grad_bytes },
                        );
                        dag.set_phase(dec, phases.update);
                        dag.connect(dec, loaded);
                        let dense = dag.add_output(
                            dec,
                            "dense_grads",
                            dense_grad_bytes,
                            Some(sites.fpga(dev)),
                        );
                        (dense, Some(dec))
                    } else {
                        (loaded, None)
                    };
                    let update = dag.add_task(
                        "update",
                        DagWork::Compute {
                            site: sites.fpga(dev),
                            amount: state_bytes + dense_grad_bytes,
                        },
                    );
                    dag.set_phase(update, phases.update);
                    dag.connect(update, update_src);
                    let updated = dag.add_output(
                        update,
                        "states@fpga.fresh",
                        state_bytes,
                        Some(sites.fpga(dev)),
                    );
                    // 3. Urgent parameter write-back, then upstream to host.
                    let wb_param = dag.add_task(
                        "wb_param",
                        DagWork::Transfer {
                            from: sites.fpga(dev),
                            to: site,
                            bytes: param_writeback_bytes,
                        },
                    );
                    dag.set_phase(wb_param, phases.update);
                    dag.connect(wb_param, updated);
                    let params_ssd =
                        dag.add_output(wb_param, "params@media", param_writeback_bytes, Some(site));
                    let upstream = dag.add_task(
                        "upstream",
                        DagWork::Transfer { from: site, to: sites.host(), bytes: upstream_bytes },
                    );
                    dag.set_phase(upstream, phases.update);
                    dag.connect(upstream, params_ssd);
                    // 4. Deferred write-back of the remaining optimizer
                    // states: consumes the updated states, but whether it
                    // waits on the update kernel or on the urgent write-back
                    // is the handler policy's call.
                    let wb_state = dag.add_task(
                        "wb_state",
                        DagWork::Transfer {
                            from: sites.fpga(dev),
                            to: site,
                            bytes: deferred_state_bytes,
                        },
                    );
                    dag.set_phase(wb_state, phases.update);
                    dag.connect_soft(wb_state, updated);
                    let chain_end = dag.add_task("chain_end", DagWork::Join);
                    dag.add_after(chain_end, upstream);
                    dag.add_after(chain_end, wb_state);
                    chains.push(ChainPlan {
                        load,
                        decompress,
                        update,
                        wb_param,
                        upstream,
                        wb_state,
                        chain_end,
                    });
                    chain_ends.push(chain_end);
                }
                devices.push(DevicePlan { dev, site, grad_scatters, chains });
            }
            let up_end = dag.add_task("update.end", DagWork::Join);
            for &ce in &chain_ends {
                dag.add_after(up_end, ce);
            }
            let phase_end = dag.add_task("iter.end", DagWork::Join);
            dag.add_after(phase_end, bw_end);
            dag.add_after(phase_end, up_end);
            (up_end, Some(phase_end), devices, Vec::new())
        }
        UpdatePlacement::HostCpu => {
            let state_per_m = optimizer.state_size_in_m(); // 6 for Adam, 4 for SGD/AdaGrad
            let mut host_updates: Vec<HostUpdatePlan> = Vec::new();
            let mut prev_gather: Option<DagTaskId> = None;
            for block_m in block_sizes.iter().copied() {
                let block_m = block_m as f64; // FP16 bytes of this block = "1M"
                let upload_bytes = (state_per_m + 2.0) * block_m; // states + FP32 gradients
                let offload_bytes = state_per_m * block_m;
                // Striped upload from the array; the next block's upload
                // overlaps the CPU update and offload of the previous one
                // (DeepSpeed's double-buffered pipeline).
                let gather = dag.add_task(
                    "gather",
                    DagWork::Transfer { from: SITE_STORAGE, to: sites.host(), bytes: upload_bytes },
                );
                dag.set_phase(gather, phases.update);
                dag.add_after(gather, bw_end);
                if let Some(p) = prev_gather {
                    dag.add_after(gather, p);
                }
                prev_gather = Some(gather);
                let gathered =
                    dag.add_output(gather, "states@host", upload_bytes, Some(sites.host()));
                // CPU update streams states + gradients through the AVX kernel.
                let update = dag.add_task(
                    "cpu_update",
                    DagWork::Compute { site: sites.host(), amount: upload_bytes },
                );
                dag.set_phase(update, phases.update);
                dag.connect(update, gathered);
                let fresh =
                    dag.add_output(update, "states@host.fresh", offload_bytes, Some(sites.host()));
                // Striped offload of the refreshed optimizer states.
                let offload = dag.add_task(
                    "writeback",
                    DagWork::Transfer {
                        from: sites.host(),
                        to: SITE_STORAGE,
                        bytes: offload_bytes,
                    },
                );
                dag.set_phase(offload, phases.update);
                dag.connect(offload, fresh);
                let upload_striped: Vec<(usize, f64)> =
                    (0..n_dev).map(|d| (sites.dev(d), upload_bytes / n_dev as f64)).collect();
                let offload_striped: Vec<(usize, f64)> =
                    (0..n_dev).map(|d| (sites.dev(d), offload_bytes / n_dev as f64)).collect();
                host_updates.push(HostUpdatePlan {
                    gather,
                    update,
                    offload,
                    upload_striped,
                    offload_striped,
                });
            }
            let up_end = dag.add_task("update.end", DagWork::Join);
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
    };
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
/// all their ordering structurally and schedule as-is.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// First task of gradient-offload block `b` (chains on the previous
    /// block per the routing policy).
    BlockHead(usize),
    /// Gradient scatter of block `b` (placed per the routing policy).
    BlockScatter(usize),
    /// End-of-backward join (synchronises on scatters per the routing).
    BwEnd,
    /// In-storage tasklet load: chain `chain` of `layout.devices[device]`.
    ChainLoad {
        /// Index into [`IterLayout::devices`].
        device: usize,
        /// Chain index within the device.
        chain: usize,
    },
    /// Deferred state write-back of a tasklet chain.
    ChainWbState {
        /// Index into [`IterLayout::devices`].
        device: usize,
        /// Chain index within the device.
        chain: usize,
    },
    /// Host-update upload of block `b` (striped from the array).
    HostGather(usize),
    /// Host-update state offload of block `b` (striped to the array).
    HostOffload(usize),
    /// End-of-update join of the host-update graph.
    HostUpEnd,
}

/// Gives `task` its role, growing the table to reach it.
fn set_role(roles: &mut Vec<Option<Role>>, task: DagTaskId, role: Role) {
    if roles.len() <= task.index() {
        roles.resize(task.index() + 1, None);
    }
    roles[task.index()] = Some(role);
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
}

impl<'a> MethodPolicy<'a> {
    /// The ZeRO-Infinity baseline schedule: striped gradient offload and the
    /// double-buffered host-CPU update pipeline.
    pub fn host_update(layout: &'a IterLayout) -> Self {
        let mut roles = Vec::new();
        Self::insert_block_roles(&mut roles, layout);
        for (b, plan) in layout.host_updates.iter().enumerate() {
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
        let mut roles = Vec::new();
        Self::insert_block_roles(&mut roles, layout);
        for (di, dev) in layout.devices.iter().enumerate() {
            for (ci, c) in dev.chains.iter().enumerate() {
                set_role(&mut roles, c.load, Role::ChainLoad { device: di, chain: ci });
                set_role(&mut roles, c.wb_state, Role::ChainWbState { device: di, chain: ci });
            }
        }
        Self { name, routing, chain, layout, roles }
    }

    fn insert_block_roles(roles: &mut Vec<Option<Role>>, layout: &IterLayout) {
        for (b, plan) in layout.blocks.iter().enumerate() {
            set_role(roles, plan.head, Role::BlockHead(b));
            set_role(roles, plan.scatter, Role::BlockScatter(b));
        }
        set_role(roles, layout.bw_end, Role::BwEnd);
    }

    /// The layout this policy schedules over.
    pub fn layout(&self) -> &IterLayout {
        self.layout
    }

    /// What device `dev`'s first tasklet waits for: the global end of
    /// backward when striped, the device's own gradient writes when
    /// owner-routed.
    fn grad_anchors(&self, dev: &DevicePlan) -> Vec<Anchor> {
        match self.routing {
            OffloadRouting::Striped => vec![Anchor::Task(self.layout.bw_end)],
            OffloadRouting::OwnerRouted => {
                if dev.grad_scatters.is_empty() {
                    vec![Anchor::Task(self.layout.bw_end)]
                } else {
                    dev.grad_scatters.iter().map(|&s| Anchor::TaskAtSite(s, dev.site)).collect()
                }
            }
        }
    }
}

impl Scheduler for MethodPolicy<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_task_ready(
        &mut self,
        task: DagTaskId,
        _dag: &Dag,
        _system: &SystemView<'_>,
        out: &mut Vec<Decision>,
    ) {
        let Some(role) = self.roles.get(task.index()).copied().flatten() else {
            return out.push(Decision::Schedule(ScheduleDecision::new(task)));
        };
        let decision = match role {
            Role::BlockHead(b) => {
                let mut d = ScheduleDecision::new(task);
                if b > 0 {
                    let prev = &self.layout.blocks[b - 1];
                    d = d.after(match self.routing {
                        // One staging buffer: wait for the previous block's
                        // joined writes.
                        OffloadRouting::Striped => Anchor::Task(prev.scatter),
                        // Per-device buffers: chain on the previous staging
                        // transfer only; its writes drain asynchronously.
                        OffloadRouting::OwnerRouted => Anchor::Task(prev.stage),
                    });
                }
                d
            }
            Role::BlockScatter(b) => {
                let plan = &self.layout.blocks[b];
                let (transfers, join) = match self.routing {
                    OffloadRouting::Striped => (plan.striped.clone(), true),
                    OffloadRouting::OwnerRouted => (plan.owned.clone(), false),
                };
                ScheduleDecision::new(task).scatter(ScatterPlan { transfers, join })
            }
            Role::BwEnd => {
                let anchors: Vec<Anchor> = match self.routing {
                    OffloadRouting::Striped => {
                        self.layout.blocks.iter().map(|p| Anchor::Task(p.scatter)).collect()
                    }
                    OffloadRouting::OwnerRouted => self
                        .layout
                        .blocks
                        .iter()
                        .flat_map(|p| {
                            p.owned.iter().map(|&(site, _)| Anchor::TaskAtSite(p.scatter, site))
                        })
                        .collect(),
                };
                ScheduleDecision::new(task).after_all(anchors)
            }
            Role::ChainLoad { device, chain } => {
                let dev = &self.layout.devices[device];
                let grads = self.grad_anchors(dev);
                match self.chain {
                    ChainSync::Overlapped => {
                        let mut d = ScheduleDecision::new(task).after_all(grads);
                        if chain > 0 {
                            d = d.after(Anchor::Task(dev.chains[chain - 1].update));
                        }
                        d
                    }
                    ChainSync::Sequential { setup_s } => {
                        let mut setup_after = grads.clone();
                        if chain > 0 {
                            setup_after.push(Anchor::Task(dev.chains[chain - 1].chain_end));
                        }
                        ScheduleDecision::new(task)
                            .after_all(grads)
                            .setup(SetupDelay { seconds: setup_s, after: setup_after })
                    }
                }
            }
            Role::ChainWbState { device, chain } => {
                let c = &self.layout.devices[device].chains[chain];
                let anchor = match self.chain {
                    ChainSync::Overlapped => Anchor::Task(c.update),
                    ChainSync::Sequential { .. } => Anchor::Task(c.wb_param),
                };
                ScheduleDecision::new(task).after(anchor)
            }
            Role::HostGather(b) => {
                let plan = &self.layout.host_updates[b];
                ScheduleDecision::new(task)
                    .scatter(ScatterPlan { transfers: plan.upload_striped.clone(), join: true })
            }
            Role::HostOffload(b) => {
                let plan = &self.layout.host_updates[b];
                ScheduleDecision::new(task)
                    .scatter(ScatterPlan { transfers: plan.offload_striped.clone(), join: false })
            }
            Role::HostUpEnd => {
                // The phase drains when the last block's offload writes and
                // CPU update are all done.
                let last = self
                    .layout
                    .host_updates
                    .last()
                    .expect("host-update layout has at least one block");
                let mut anchors: Vec<Anchor> = last
                    .offload_striped
                    .iter()
                    .map(|&(site, _)| Anchor::TaskAtSite(last.offload, site))
                    .collect();
                anchors.push(Anchor::Task(last.update));
                ScheduleDecision::new(task).after_all(anchors)
            }
        };
        out.push(Decision::Schedule(decision));
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

    fn on_task_ready(
        &mut self,
        task: DagTaskId,
        dag: &Dag,
        system: &SystemView<'_>,
        out: &mut Vec<Decision>,
    ) {
        self.0.on_task_ready(task, dag, system, out);
    }
}

/// Lowers scheduled DAG tasks onto a [`TimedPlatform`]: computes map to the
/// GPU / CPU / FPGA resources, transfers to the fabric path helpers, and
/// storage-class scatters to per-device media writes/reads.
#[derive(Debug)]
pub struct PlatformLowering<'a> {
    plat: &'a mut TimedPlatform,
    sites: SiteMap,
}

impl<'a> PlatformLowering<'a> {
    /// A lowering onto `plat`, with sites mapped per its machine config.
    pub fn new(plat: &'a mut TimedPlatform) -> Self {
        let sites = SiteMap::new(plat.num_gpus(), plat.num_devices());
        Self { plat, sites }
    }

    fn classify(&self, site: usize) -> Result<SiteKind, SimError> {
        self.sites.classify(site).ok_or(SimError::UnknownId { kind: "site", index: site })
    }

    fn require_phase(id: DagTaskId, task: &simkit::DagTask) -> Result<PhaseId, SimError> {
        task.phase.ok_or_else(|| SimError::InvalidParameter {
            message: format!(
                "dag task {} ('{}') carries work but no phase attribution",
                id.index(),
                task.name
            ),
        })
    }

    fn lower_scatter(
        &mut self,
        from: usize,
        to: usize,
        plan: &ScatterPlan,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> Result<Lowered, SimError> {
        let mut flows: Vec<(usize, TaskId)> = Vec::with_capacity(plan.transfers.len());
        for &(site, bytes) in &plan.transfers {
            let SiteKind::Storage(d) = self.classify(site)? else {
                return Err(SimError::InvalidParameter {
                    message: format!("scatter target site {site} is not a storage device"),
                });
            };
            let flow = if to == SITE_STORAGE {
                match self.classify(from)? {
                    SiteKind::Host => self.plat.host_to_ssd(d, bytes, deps, phase),
                    SiteKind::Gpu(g) => self.plat.gpu_to_ssd(g, d, bytes, deps, phase),
                    _ => {
                        return Err(SimError::InvalidParameter {
                            message: format!("unsupported scatter source site {from}"),
                        })
                    }
                }
            } else {
                match self.classify(to)? {
                    SiteKind::Host => self.plat.ssd_to_host(d, bytes, deps, phase),
                    _ => {
                        return Err(SimError::InvalidParameter {
                            message: format!("unsupported gather target site {to}"),
                        })
                    }
                }
            };
            flows.push((site, flow));
        }
        let main = if flows.is_empty() {
            self.plat.barrier(deps)
        } else if plan.join {
            let ids: Vec<TaskId> = flows.iter().map(|&(_, t)| t).collect();
            self.plat.barrier(&ids)
        } else {
            flows.last().map(|&(_, t)| t).expect("non-empty flows")
        };
        Ok(Lowered { main, per_site: flows })
    }
}

impl Lowering for PlatformLowering<'_> {
    fn lower(
        &mut self,
        dag: &Dag,
        task: DagTaskId,
        scatter: Option<&ScatterPlan>,
        deps: &[TaskId],
    ) -> Result<Lowered, SimError> {
        let node =
            dag.task(task).ok_or(SimError::UnknownId { kind: "task", index: task.index() })?;
        match node.work {
            DagWork::Join => Ok(Lowered::single(self.plat.barrier(deps))),
            DagWork::Delay { seconds } => {
                let phase = Self::require_phase(task, node)?;
                Ok(Lowered::single(self.plat.delay(seconds, deps, phase)))
            }
            DagWork::Compute { site, amount } => {
                let phase = Self::require_phase(task, node)?;
                let id = match self.classify(site)? {
                    SiteKind::Host => self.plat.cpu_update(amount, deps, phase),
                    SiteKind::Gpu(g) => self.plat.gpu_compute(g, amount, deps, phase),
                    SiteKind::Fpga(d) => self.plat.fpga_update(d, amount, deps, phase),
                    SiteKind::Decompressor(d) => self.plat.fpga_decompress(d, amount, deps, phase),
                    SiteKind::Storage(_) => {
                        return Err(SimError::InvalidParameter {
                            message: format!(
                                "dag task {} ('{}'): storage media cannot run compute",
                                task.index(),
                                node.name
                            ),
                        })
                    }
                };
                Ok(Lowered::single(id))
            }
            DagWork::Transfer { from, to, bytes } => {
                let phase = Self::require_phase(task, node)?;
                if from == SITE_STORAGE || to == SITE_STORAGE {
                    let plan = scatter.ok_or_else(|| SimError::InvalidParameter {
                        message: format!(
                            "dag task {} ('{}'): storage-class transfer scheduled without a \
                             scatter plan",
                            task.index(),
                            node.name
                        ),
                    })?;
                    return self.lower_scatter(from, to, plan, deps, phase);
                }
                let id = match (self.classify(from)?, self.classify(to)?) {
                    (SiteKind::Host, SiteKind::Gpu(g)) => {
                        self.plat.host_to_gpu(g, bytes, deps, phase)
                    }
                    (SiteKind::Gpu(g), SiteKind::Host) => {
                        self.plat.gpu_to_host(g, bytes, deps, phase)
                    }
                    (SiteKind::Gpu(a), SiteKind::Gpu(b)) => {
                        self.plat.gpu_to_gpu(a, b, bytes, deps, phase)
                    }
                    (SiteKind::Host, SiteKind::Storage(d)) => {
                        self.plat.host_to_ssd(d, bytes, deps, phase)
                    }
                    (SiteKind::Storage(d), SiteKind::Host) => {
                        self.plat.ssd_to_host(d, bytes, deps, phase)
                    }
                    (SiteKind::Gpu(g), SiteKind::Storage(d)) => {
                        self.plat.gpu_to_ssd(g, d, bytes, deps, phase)
                    }
                    (SiteKind::Storage(a), SiteKind::Fpga(b)) if a == b => {
                        self.plat.ssd_to_fpga(a, bytes, deps, phase)
                    }
                    (SiteKind::Fpga(a), SiteKind::Storage(b)) if a == b => {
                        self.plat.fpga_to_ssd(a, bytes, deps, phase)
                    }
                    (f, t) => {
                        return Err(SimError::InvalidParameter {
                            message: format!(
                                "dag task {} ('{}'): no fabric route from {f:?} to {t:?}",
                                task.index(),
                                node.name
                            ),
                        })
                    }
                };
                Ok(Lowered::single(id))
            }
        }
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
        assert_eq!(sites.classify(sites.len()), None);
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
            let striped: f64 = block.striped.iter().map(|&(_, b)| b).sum();
            let owned: f64 = block.owned.iter().map(|&(_, b)| b).sum();
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
