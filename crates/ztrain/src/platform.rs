//! The discrete-event scaffold the timed engine lowers every method onto.

use std::collections::HashMap;

use crate::machine::MachineConfig;
use fabric::{InstalledFabric, NodeId, Platform};
use faultkit::TimedFaultEffects;
use simkit::{
    ComputeSpec, FlowSpec, LinkId, PhaseId, ResourceId, SimError, Simulation, TaskId, Timeline,
};
use ssd::MediaLinks;

/// A [`simkit::Simulation`] pre-populated with the machine's PCIe fabric,
/// per-device SSD media links, GPU compute resources, the host-CPU update
/// resource, and (for CSD platforms) per-device FPGA updater/decompressor
/// resources.
///
/// Engines add flows and compute tasks through the helper methods below; the
/// helpers translate "who talks to whom" into link paths, so engine code reads
/// like the paper's dataflow description.
#[derive(Debug)]
pub struct TimedPlatform {
    sim: Simulation,
    fabric: InstalledFabric,
    platform: Platform,
    media: Vec<MediaLinks>,
    gpu_resources: Vec<ResourceId>,
    cpu_update: ResourceId,
    fpga_update: Vec<ResourceId>,
    fpga_decompress: Vec<ResourceId>,
    config: MachineConfig,
    fault_effects: TimedFaultEffects,
    /// Full link paths of the routes transfers have used, filled on first
    /// use: one entry per endpoint pair served, never a table over all
    /// nodes. The topology is fixed once installed, so no entry goes stale.
    routes: HashMap<Route, Vec<LinkId>>,
}

/// The endpoint pair of a transfer helper, by component index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Route {
    HostToGpu(usize),
    GpuToHost(usize),
    GpuToGpu(usize, usize),
    HostToSsd(usize),
    SsdToHost(usize),
    SsdToFpga(usize),
    FpgaToSsd(usize),
    GpuToSsd(usize, usize),
}

impl TimedPlatform {
    /// Builds the simulation scaffold for a machine.
    ///
    /// # Panics
    ///
    /// Panics if the machine's platform spec cannot be built (which only
    /// happens for non-positive link bandwidths).
    pub fn new(config: &MachineConfig) -> Self {
        Self::new_with_faults(config, None)
    }

    /// Builds the simulation scaffold with a fault plan's timed effects
    /// applied: the straggler device's FPGA kernels run at `1/factor` of
    /// their configured rate, and the shared host uplink edge is derated to
    /// the remaining-bandwidth fraction *before* the fabric is installed.
    /// `None` (or empty effects) builds exactly the same platform as
    /// [`TimedPlatform::new`].
    ///
    /// # Panics
    ///
    /// Panics if the machine's platform spec cannot be built (which only
    /// happens for non-positive link bandwidths) or if the effects carry an
    /// out-of-range bandwidth factor (plans built from a validated
    /// `FaultSpec` never do).
    pub fn new_with_faults(config: &MachineConfig, effects: Option<&TimedFaultEffects>) -> Self {
        let effects = effects.copied().unwrap_or_default();
        let mut platform =
            config.platform_spec().build().expect("machine link rates must be positive");
        if let Some(factor) = effects.uplink_bandwidth_factor {
            let edge = platform
                .topology
                .edge_between(platform.host, platform.expansion)
                .expect("host and expansion switch are always directly connected");
            platform
                .topology
                .degrade_edge(edge, factor)
                .expect("fault spec validation bounds the bandwidth factor");
        }
        let mut sim = Simulation::new();
        let fabric = platform.topology.install(&mut sim);
        let media = (0..config.num_devices)
            .map(|d| config.ssd.install(&mut sim, &format!("dev{d}")))
            .collect();
        let gpu_resources = (0..config.num_gpus)
            .map(|g| sim.add_resource(format!("gpu{g}"), config.gpu.effective_flops))
            .collect();
        let cpu_update = sim.add_resource("cpu-update", config.cpu.update_bytes_per_sec);
        let (fpga_update, fpga_decompress) = if config.is_csd() {
            (
                (0..config.num_devices)
                    .map(|d| {
                        sim.add_resource(
                            format!("fpga{d}-updater"),
                            config.fpga_update_bytes_per_sec / effects.compute_slowdown(d),
                        )
                    })
                    .collect(),
                (0..config.num_devices)
                    .map(|d| {
                        sim.add_resource(
                            format!("fpga{d}-decompressor"),
                            config.fpga_decompress_bytes_per_sec / effects.compute_slowdown(d),
                        )
                    })
                    .collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        Self {
            sim,
            fabric,
            platform,
            media,
            gpu_resources,
            cpu_update,
            fpga_update,
            fpga_decompress,
            config: config.clone(),
            fault_effects: effects,
            routes: HashMap::new(),
        }
    }

    /// The timed fault effects this platform was built with (empty when
    /// fault-free).
    pub fn fault_effects(&self) -> &TimedFaultEffects {
        &self.fault_effects
    }

    /// The machine this platform was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of storage devices.
    pub fn num_devices(&self) -> usize {
        self.config.num_devices
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.config.num_gpus
    }

    /// Registers a named phase for breakdown reporting.
    pub fn add_phase(&mut self, name: &str) -> PhaseId {
        self.sim.add_phase(name)
    }

    /// Describes the machine's processing sites as [`simkit::Resource`]s, in
    /// the site order used by the iteration DAGs (host, GPUs, storage
    /// devices, FPGA updaters, FPGA decompressors). Schedulers consult this
    /// catalog through [`simkit::SystemView::resources`]; FPGA entries of a
    /// plain-SSD machine carry zero speed (there is nothing to run on).
    pub fn resource_catalog(&self) -> Vec<simkit::Resource> {
        use simkit::{Resource, SpeedupCurve};
        let c = &self.config;
        let mut out = Vec::with_capacity(1 + c.num_gpus + 3 * c.num_devices);
        out.push(Resource::new(
            c.cpu.name.clone(),
            1,
            c.cpu.update_bytes_per_sec,
            c.cpu.memory_bytes as f64,
            SpeedupCurve::Flat,
        ));
        for g in 0..c.num_gpus {
            out.push(Resource::new(
                format!("{}#{g}", c.gpu.name),
                1,
                c.gpu.effective_flops,
                c.gpu.memory_bytes as f64,
                SpeedupCurve::Flat,
            ));
        }
        for d in 0..c.num_devices {
            out.push(Resource::new(
                format!("dev{d}"),
                1,
                c.ssd.read_bytes_per_sec,
                f64::INFINITY,
                SpeedupCurve::Flat,
            ));
        }
        let csd = c.is_csd();
        for d in 0..c.num_devices {
            let rate = if csd {
                c.fpga_update_bytes_per_sec / self.fault_effects.compute_slowdown(d)
            } else {
                0.0
            };
            out.push(Resource::new(
                format!("fpga{d}-updater"),
                1,
                rate,
                4.0 * simkit::GB,
                SpeedupCurve::Flat,
            ));
        }
        for d in 0..c.num_devices {
            let rate = if csd {
                c.fpga_decompress_bytes_per_sec / self.fault_effects.compute_slowdown(d)
            } else {
                0.0
            };
            out.push(Resource::new(
                format!("fpga{d}-decompressor"),
                1,
                rate,
                4.0 * simkit::GB,
                SpeedupCurve::Flat,
            ));
        }
        out
    }

    /// The two directional simulation links of the *shared host interconnect*
    /// (the host ↔ expansion-switch edge every storage device funnels
    /// through), as `(host→devices, devices→host)`. Pipelined engines pass
    /// these to [`simkit::Timeline::link_busy_time_in_phase`] to report how
    /// long each stage occupied the shared uplink.
    ///
    /// # Panics
    ///
    /// Never in practice: every platform preset connects the host to the
    /// expansion switch directly.
    pub fn host_uplink_links(&self) -> (LinkId, LinkId) {
        let edge = self
            .fabric
            .topology()
            .edge_between(self.platform.host, self.platform.expansion)
            .expect("host and expansion switch are always directly connected");
        self.fabric.links_of_edge(edge)
    }

    /// Adds a barrier completing after all `deps`.
    pub fn barrier(&mut self, deps: &[TaskId]) -> TaskId {
        self.sim.barrier(deps)
    }

    /// Adds a fixed delay (software/setup overhead such as device buffer
    /// allocation or kernel launch latency).
    pub fn delay(&mut self, seconds: f64, deps: &[TaskId], phase: PhaseId) -> TaskId {
        self.sim.delay(simkit::DelaySpec::new(seconds).after(deps).phase(phase))
    }

    /// Runs the simulation and returns the timeline. Active fault effects are
    /// recorded as [`simkit::FaultAnnotation`]s on the timeline, so reports
    /// can tell a degraded run from a healthy one.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the simulation kernel.
    pub fn run(&mut self) -> Result<Timeline, SimError> {
        let mut timeline = self.sim.run()?;
        if let Some((dev, factor)) = self.fault_effects.straggler {
            timeline.annotate_fault(
                0.0,
                format!("dev{dev}"),
                format!("straggler: in-storage compute {factor}x slower"),
            );
        }
        if let Some(factor) = self.fault_effects.uplink_bandwidth_factor {
            timeline.annotate_fault(
                0.0,
                "host-uplink",
                format!("bandwidth derated to {:.1}% of nominal", factor * 100.0),
            );
        }
        Ok(timeline)
    }

    // ---- compute helpers ---------------------------------------------------

    /// GPU compute task (`flops` floating point operations on GPU `gpu`).
    pub(crate) fn gpu_compute(
        &mut self,
        gpu: usize,
        flops: f64,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> TaskId {
        let spec = ComputeSpec::new(self.gpu_resources[gpu], flops).after(deps).phase(phase);
        self.sim.compute(spec)
    }

    /// Host-CPU optimizer update over `bytes` of state+gradient.
    pub(crate) fn cpu_update(&mut self, bytes: f64, deps: &[TaskId], phase: PhaseId) -> TaskId {
        let spec = ComputeSpec::new(self.cpu_update, bytes).after(deps).phase(phase);
        self.sim.compute(spec)
    }

    /// FPGA updater kernel on device `dev` over `bytes` of state+gradient.
    ///
    /// # Panics
    ///
    /// Panics if the platform was built with plain SSDs.
    pub fn fpga_update(
        &mut self,
        dev: usize,
        bytes: f64,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> TaskId {
        let spec = ComputeSpec::new(self.fpga_update[dev], bytes).after(deps).phase(phase);
        self.sim.compute(spec)
    }

    /// FPGA decompressor kernel on device `dev` producing `bytes` of dense gradient.
    ///
    /// # Panics
    ///
    /// Panics if the platform was built with plain SSDs.
    pub(crate) fn fpga_decompress(
        &mut self,
        dev: usize,
        bytes: f64,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> TaskId {
        let spec = ComputeSpec::new(self.fpga_decompress[dev], bytes).after(deps).phase(phase);
        self.sim.compute(spec)
    }

    // ---- transfer helpers --------------------------------------------------

    /// Adds a flow over `route`. Its path is resolved on first use and then
    /// lent from the memo, never copied.
    ///
    /// # Panics
    ///
    /// Panics if `route` names an FPGA of a plain-SSD platform.
    fn flow(&mut self, route: Route, bytes: f64, deps: &[TaskId], phase: PhaseId) -> TaskId {
        let Self { sim, routes, platform, fabric, media, .. } = self;
        let path =
            routes.entry(route).or_insert_with(|| Self::resolve(platform, fabric, media, route));
        sim.flow(FlowSpec::new(path.as_slice(), bytes).after(deps).phase(phase))
    }

    /// The fabric path of `route` with the SSD media link it crosses
    /// appended.
    fn resolve(
        p: &Platform,
        fabric: &InstalledFabric,
        media: &[MediaLinks],
        route: Route,
    ) -> Vec<LinkId> {
        let fpga = |dev: usize, what: &str| -> NodeId {
            p.devices[dev].fpga.unwrap_or_else(|| panic!("{what} requires a CSD platform"))
        };
        let (from, to, link, what) = match route {
            Route::HostToGpu(g) => (p.host, p.gpus[g], None, "host and GPU"),
            Route::GpuToHost(g) => (p.gpus[g], p.host, None, "host and GPU"),
            Route::GpuToGpu(a, b) => (p.gpus[a], p.gpus[b], None, "GPUs"),
            Route::HostToSsd(d) => (p.host, p.devices[d].ssd, Some(media[d].write), "host and SSD"),
            Route::SsdToHost(d) => (p.devices[d].ssd, p.host, Some(media[d].read), "host and SSD"),
            Route::SsdToFpga(d) => (
                p.devices[d].ssd,
                fpga(d, "ssd_to_fpga"),
                Some(media[d].read),
                "CSD internal ports",
            ),
            Route::FpgaToSsd(d) => (
                fpga(d, "fpga_to_ssd"),
                p.devices[d].ssd,
                Some(media[d].write),
                "CSD internal ports",
            ),
            Route::GpuToSsd(g, d) => {
                (p.gpus[g], p.devices[d].ssd, Some(media[d].write), "GPU and SSD")
            }
        };
        let mut path =
            fabric.path(from, to).unwrap_or_else(|e| panic!("{what} are always connected: {e}"));
        path.extend(link);
        path
    }

    /// Host memory → GPU transfer (parameter/activation upload).
    pub(crate) fn host_to_gpu(
        &mut self,
        gpu: usize,
        bytes: f64,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> TaskId {
        self.flow(Route::HostToGpu(gpu), bytes, deps, phase)
    }

    /// GPU → host memory transfer (activation checkpoint / gradient staging).
    pub(crate) fn gpu_to_host(
        &mut self,
        gpu: usize,
        bytes: f64,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> TaskId {
        self.flow(Route::GpuToHost(gpu), bytes, deps, phase)
    }

    /// GPU ↔ GPU transfer (tensor-parallel activation exchange).
    pub(crate) fn gpu_to_gpu(
        &mut self,
        from: usize,
        to: usize,
        bytes: f64,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> TaskId {
        self.flow(Route::GpuToGpu(from, to), bytes, deps, phase)
    }

    /// Host memory → SSD write on device `dev` (limited by the PCIe path and
    /// the device's write media bandwidth).
    pub fn host_to_ssd(
        &mut self,
        dev: usize,
        bytes: f64,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> TaskId {
        self.flow(Route::HostToSsd(dev), bytes, deps, phase)
    }

    /// SSD → host memory read on device `dev`.
    pub(crate) fn ssd_to_host(
        &mut self,
        dev: usize,
        bytes: f64,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> TaskId {
        self.flow(Route::SsdToHost(dev), bytes, deps, phase)
    }

    /// CSD-internal P2P read: SSD → FPGA on device `dev`, never touching the
    /// shared host interconnect.
    ///
    /// # Panics
    ///
    /// Panics if the platform was built with plain SSDs.
    pub(crate) fn ssd_to_fpga(
        &mut self,
        dev: usize,
        bytes: f64,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> TaskId {
        self.flow(Route::SsdToFpga(dev), bytes, deps, phase)
    }

    /// CSD-internal P2P write: FPGA → SSD on device `dev`.
    ///
    /// # Panics
    ///
    /// Panics if the platform was built with plain SSDs.
    pub(crate) fn fpga_to_ssd(
        &mut self,
        dev: usize,
        bytes: f64,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> TaskId {
        self.flow(Route::FpgaToSsd(dev), bytes, deps, phase)
    }

    /// GPU → SSD transfer (gradient offload path in the congested topology,
    /// where the GPU and the device share the expansion switch).
    pub(crate) fn gpu_to_ssd(
        &mut self,
        gpu: usize,
        dev: usize,
        bytes: f64,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> TaskId {
        self.flow(Route::GpuToSsd(gpu, dev), bytes, deps, phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(plat: &mut TimedPlatform) -> PhaseId {
        plat.add_phase("test")
    }

    #[test]
    fn baseline_platform_has_no_fpga_resources() {
        let mut plat = TimedPlatform::new(&MachineConfig::baseline_raid0(2));
        assert_eq!(plat.num_devices(), 2);
        assert_eq!(plat.num_gpus(), 1);
        assert!(!plat.config().is_csd());
        let p = phase(&mut plat);
        let a = plat.host_to_ssd(0, 1e9, &[], p);
        let b = plat.ssd_to_host(1, 1e9, &[a], p);
        let tl = plat.run().unwrap();
        assert!(tl.finish_time(b) > tl.finish_time(a));
    }

    #[test]
    #[should_panic(expected = "requires a CSD platform")]
    fn internal_p2p_on_plain_ssd_panics() {
        let mut plat = TimedPlatform::new(&MachineConfig::baseline_raid0(1));
        let p = phase(&mut plat);
        plat.ssd_to_fpga(0, 1.0, &[], p);
    }

    #[test]
    fn csd_internal_p2p_scales_with_device_count_while_host_path_does_not() {
        // 8 CSDs all stream 3 GB internally: finishes in ~1 s because each CSD
        // has its own 3.2 GB/s path. The same aggregate volume host->SSDs is
        // limited by the 16 GB/s shared uplink.
        let config = MachineConfig::smart_infinity(8);
        let mut internal = TimedPlatform::new(&config);
        let p = internal.add_phase("p2p");
        for d in 0..8 {
            internal.ssd_to_fpga(d, 3.0e9, &[], p);
        }
        let t_internal = internal.run().unwrap().makespan();

        let mut host_side = TimedPlatform::new(&config);
        let p = host_side.add_phase("host");
        for d in 0..8 {
            host_side.ssd_to_host(d, 3.0e9, &[], p);
        }
        let t_host = host_side.run().unwrap().makespan();
        assert!(t_internal < 1.05, "internal: {t_internal}");
        assert!(t_host > 1.4, "host side should saturate the uplink: {t_host}");
    }

    #[test]
    fn host_uplink_links_identify_the_shared_interconnect() {
        let mut plat = TimedPlatform::new(&MachineConfig::smart_infinity(2));
        let (down, up) = plat.host_uplink_links();
        assert_ne!(down, up);
        let p = plat.add_phase("write");
        let w = plat.host_to_ssd(0, 3.2e9, &[], p);
        let tl = plat.run().unwrap();
        // The downlink is busy exactly while the write flows; the opposite
        // direction idles (full duplex).
        let t = tl.finish_time(w);
        assert!(t > 0.0);
        assert!((tl.link_busy_time(down) - t).abs() < 1e-9);
        assert!((tl.link_busy_time_in_phase(down, p) - t).abs() < 1e-9);
        assert_eq!(tl.link_busy_time(up), 0.0);
    }

    #[test]
    fn gpu_compute_and_transfers_compose() {
        let mut plat = TimedPlatform::new(&MachineConfig::smart_infinity(2));
        let p = plat.add_phase("fw");
        let load = plat.host_to_gpu(0, 16.0e9, &[], p);
        let compute = plat.gpu_compute(0, 50.0e12, &[load], p);
        let store = plat.gpu_to_host(0, 1.0e9, &[compute], p);
        let upd = plat.fpga_update(0, 7.3e9, &[store], p);
        let dec = plat.fpga_decompress(1, 3.8e9, &[], p);
        let cpu = plat.cpu_update(6.0e9, &[], p);
        let tl = plat.run().unwrap();
        // load: 1 s, compute: 1 s, store: ~0.06 s, update: 1 s.
        assert!((tl.finish_time(load) - 1.0).abs() < 0.05);
        assert!((tl.finish_time(compute) - 2.0).abs() < 0.1);
        assert!(tl.finish_time(upd) > tl.finish_time(store));
        assert!((tl.finish_time(dec) - 1.0).abs() < 0.05);
        assert!((tl.finish_time(cpu) - 1.0).abs() < 0.05);
    }

    #[test]
    fn congested_topology_gpu_traffic_shares_the_uplink() {
        // In the congested topology a GPU->host transfer crosses the shared
        // uplink and contends with SSD->host traffic; in the default topology
        // it does not.
        let run = |config: MachineConfig| {
            let mut plat = TimedPlatform::new(&config);
            let p = plat.add_phase("x");
            plat.gpu_to_host(0, 16.0e9, &[], p);
            plat.ssd_to_host(0, 3.0e9, &[], p);
            plat.run().unwrap().makespan()
        };
        let default_t = run(MachineConfig::smart_infinity(1));
        let congested_t = run(MachineConfig::congested_multi_gpu(1, 1));
        assert!(congested_t > default_t * 1.05, "{congested_t} vs {default_t}");
    }

    #[test]
    fn empty_fault_effects_leave_the_timed_model_untouched() {
        let config = MachineConfig::smart_infinity(2);
        let run = |plat: &mut TimedPlatform| {
            let p = plat.add_phase("x");
            let u = plat.fpga_update(0, 7.3e9, &[], p);
            plat.host_to_ssd(1, 4.0e9, &[u], p);
            plat.run().unwrap()
        };
        let clean = run(&mut TimedPlatform::new(&config));
        let faulted =
            run(&mut TimedPlatform::new_with_faults(&config, Some(&TimedFaultEffects::default())));
        assert_eq!(clean.makespan(), faulted.makespan());
        assert!(faulted.fault_annotations().is_empty());
    }

    #[test]
    fn straggler_slows_only_its_own_fpga() {
        let config = MachineConfig::smart_infinity(2);
        let effects =
            TimedFaultEffects { straggler: Some((0, 2.0)), ..TimedFaultEffects::default() };
        let mut plat = TimedPlatform::new_with_faults(&config, Some(&effects));
        let p = plat.add_phase("update");
        let slow = plat.fpga_update(0, 7.3e9, &[], p);
        let fast = plat.fpga_update(1, 7.3e9, &[], p);
        let tl = plat.run().unwrap();
        // Device 0 runs its updater at half rate; device 1 is unaffected.
        assert!((tl.finish_time(slow) - 2.0 * tl.finish_time(fast)).abs() < 1e-6);
        assert_eq!(tl.fault_annotations().len(), 1);
        assert_eq!(tl.fault_annotations()[0].site, "dev0");
    }

    #[test]
    fn uplink_derating_slows_host_traffic_and_is_annotated() {
        let config = MachineConfig::smart_infinity(1);
        let run = |effects: Option<&TimedFaultEffects>| {
            let mut plat = TimedPlatform::new_with_faults(&config, effects);
            let p = plat.add_phase("x");
            plat.host_to_ssd(0, 16.0e9, &[], p);
            plat.run().unwrap()
        };
        let clean = run(None);
        // The transfer is normally bottlenecked by the SSD media write rate,
        // so derate the 16 GB/s uplink hard enough (to 1.6 GB/s) that it
        // becomes the binding constraint: 16 GB / 1.6 GB/s = 10 s.
        let effects = TimedFaultEffects {
            uplink_bandwidth_factor: Some(0.1),
            ..TimedFaultEffects::default()
        };
        let derated = run(Some(&effects));
        assert!(
            (derated.makespan() - 10.0).abs() < 1e-6,
            "derated {} vs clean {}",
            derated.makespan(),
            clean.makespan()
        );
        assert!(derated.makespan() > clean.makespan() * 1.5);
        let notes = derated.fault_annotations();
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].site, "host-uplink");
        assert!(notes[0].detail.contains("10.0%"));
    }

    /// Calls one transfer helper twice on a fresh platform (a miss, then a
    /// hit) and returns the one path its memo then holds.
    fn memoised(
        config: &MachineConfig,
        effects: Option<&TimedFaultEffects>,
        helper: impl Fn(&mut TimedPlatform, PhaseId) -> TaskId,
    ) -> Vec<LinkId> {
        let mut plat = TimedPlatform::new_with_faults(config, effects);
        let p = phase(&mut plat);
        helper(&mut plat, p);
        helper(&mut plat, p);
        assert_eq!(plat.routes.len(), 1);
        plat.routes.into_values().next().expect("one route")
    }

    #[test]
    fn every_transfer_helper_takes_the_fresh_fabric_path_plus_its_media_link() {
        let derated = TimedFaultEffects {
            uplink_bandwidth_factor: Some(0.5),
            ..TimedFaultEffects::default()
        };
        for (config, effects) in [
            (MachineConfig::smart_infinity(10), None),
            (MachineConfig::congested_multi_gpu(4, 2), None),
            (MachineConfig::baseline_raid0(4), None),
            (MachineConfig::smart_infinity(10), Some(&derated)),
        ] {
            let fresh = TimedPlatform::new_with_faults(&config, effects);
            let (p, media) = (&fresh.platform, &fresh.media);
            let path = |from, to, link: Option<LinkId>| {
                let mut path = fresh.fabric.path(from, to).expect("connected");
                path.extend(link);
                path
            };
            let check = |helper: &dyn Fn(&mut TimedPlatform, PhaseId) -> TaskId, want| {
                assert_eq!(memoised(&config, effects, helper), want);
            };
            for g in 0..p.gpus.len() {
                check(&|t, ph| t.host_to_gpu(g, 1.0, &[], ph), path(p.host, p.gpus[g], None));
                check(&|t, ph| t.gpu_to_host(g, 1.0, &[], ph), path(p.gpus[g], p.host, None));
                for h in 0..p.gpus.len() {
                    check(
                        &|t, ph| t.gpu_to_gpu(g, h, 1.0, &[], ph),
                        path(p.gpus[g], p.gpus[h], None),
                    );
                }
                for (d, ports) in p.devices.iter().enumerate() {
                    check(
                        &|t, ph| t.gpu_to_ssd(g, d, 1.0, &[], ph),
                        path(p.gpus[g], ports.ssd, Some(media[d].write)),
                    );
                }
            }
            for (d, ports) in p.devices.iter().enumerate() {
                check(
                    &|t, ph| t.host_to_ssd(d, 1.0, &[], ph),
                    path(p.host, ports.ssd, Some(media[d].write)),
                );
                check(
                    &|t, ph| t.ssd_to_host(d, 1.0, &[], ph),
                    path(ports.ssd, p.host, Some(media[d].read)),
                );
                if let Some(fpga) = ports.fpga {
                    check(
                        &|t, ph| t.ssd_to_fpga(d, 1.0, &[], ph),
                        path(ports.ssd, fpga, Some(media[d].read)),
                    );
                    check(
                        &|t, ph| t.fpga_to_ssd(d, 1.0, &[], ph),
                        path(fpga, ports.ssd, Some(media[d].write)),
                    );
                }
            }
        }
    }

    #[test]
    fn a_4096_device_graph_memoises_only_the_endpoint_pairs_it_serves() {
        use crate::schedule::{
            build_iteration_graph, ChainSync, GraphKnobs, IterPhases, MethodPolicy, OffloadRouting,
            PlatformLowering, SiteMap,
        };
        use simkit::{DagWork, SITE_STORAGE};

        let mut plat = TimedPlatform::new(&MachineConfig::smart_infinity(4096));
        let phases = IterPhases {
            forward: plat.add_phase("fw"),
            backward: plat.add_phase("bw"),
            update: plat.add_phase("up"),
        };
        let sites = SiteMap::new(plat.num_gpus(), plat.num_devices());
        let graph = build_iteration_graph(
            &llm::Workload::new(llm::ModelConfig::gpt2_0_34b(), 4, 1024),
            sites,
            optim::OptimizerKind::Adam,
            &GraphKnobs::in_storage(None, 100_000_000),
            phases,
        );
        let mut policy = MethodPolicy::in_storage(
            &graph.layout,
            OffloadRouting::OwnerRouted,
            ChainSync::Overlapped,
            "pipelined",
        );
        let resources = plat.resource_catalog();
        simkit::execute(&graph.dag, &resources, &mut policy, &mut PlatformLowering::new(&mut plat))
            .expect("the graph lowers");
        // The endpoint pairs the graph's transfers can name: a storage-class
        // transfer is counted towards every device a plan could place it on.
        let devices: Vec<usize> = (0..sites.num_devices).map(|d| sites.dev(d)).collect();
        let mut served = std::collections::HashSet::new();
        for task in graph.dag.tasks() {
            if let DagWork::Transfer { from, to, .. } = task.work {
                match (from == SITE_STORAGE, to == SITE_STORAGE) {
                    (true, _) => served.extend(devices.iter().map(|&d| (d, to))),
                    (_, true) => served.extend(devices.iter().map(|&d| (from, d))),
                    _ => {
                        served.insert((from, to));
                    }
                }
            }
        }
        // Every device loads, writes back and sends upstream; every one
        // receives gradients.
        assert!(plat.routes.len() >= 4 * 4096, "{} routes", plat.routes.len());
        assert!(plat.routes.len() <= served.len(), "{} > {}", plat.routes.len(), served.len());
    }
}
