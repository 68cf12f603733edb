//! The discrete-event scaffold the timed engine lowers every method onto.

use crate::machine::MachineConfig;
use fabric::{InstalledFabric, Platform, StorageKind};
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
    shape: Shape,
    fault_effects: TimedFaultEffects,
    /// Per [`Route::slot`], the span of `route_links` holding that route's
    /// full link path, filled on first use: one slot per endpoint pair a
    /// helper can name, never a table over all nodes. The topology is fixed
    /// once installed, so no entry goes stale.
    routes: Vec<Option<(usize, usize)>>,
    /// The resolved paths, back to back.
    route_links: Vec<LinkId>,
}

/// The counts and rates of the machine a platform was built from: all that
/// the helpers and [`TimedPlatform::resource_catalog`] read after the
/// simulation is populated, so no `MachineConfig` (and none of its names) is
/// kept.
#[derive(Debug, Clone, Copy)]
struct Shape {
    gpus: usize,
    devices: usize,
    csd: bool,
    gpu_flops: f64,
    gpu_memory: f64,
    cpu_update: f64,
    cpu_memory: f64,
    ssd_read: f64,
    fpga_update: f64,
    fpga_decompress: f64,
}

/// The endpoint pair of a flow, by component index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    HostToGpu(usize),
    GpuToHost(usize),
    GpuToGpu(usize, usize),
    HostToSsd(usize),
    SsdToHost(usize),
    SsdToFpga(usize),
    FpgaToSsd(usize),
    GpuToSsd(usize, usize),
}

impl Route {
    /// Number of routes the helpers can name on a machine with `gpus` GPUs
    /// and `devices` storage devices.
    fn slots(gpus: usize, devices: usize) -> usize {
        gpus * (2 + gpus + devices) + 4 * devices
    }

    /// This route's index among [`Route::slots`] (the GPU routes first,
    /// then four per device, then the GPU → device pairs), or `None` when
    /// it names a GPU or device the machine does not have.
    fn slot(self, gpus: usize, devices: usize) -> Option<usize> {
        let (g, d) = (|g: usize| (g < gpus).then_some(g), |d: usize| (d < devices).then_some(d));
        let gpu_routes = gpus * (2 + gpus);
        Some(match self {
            Route::HostToGpu(a) => g(a)?,
            Route::GpuToHost(a) => gpus + g(a)?,
            Route::GpuToGpu(a, b) => 2 * gpus + g(a)? * gpus + g(b)?,
            Route::HostToSsd(a) => gpu_routes + 4 * d(a)?,
            Route::SsdToHost(a) => gpu_routes + 4 * d(a)? + 1,
            Route::SsdToFpga(a) => gpu_routes + 4 * d(a)? + 2,
            Route::FpgaToSsd(a) => gpu_routes + 4 * d(a)? + 3,
            Route::GpuToSsd(a, b) => gpu_routes + 4 * devices + g(a)? * devices + d(b)?,
        })
    }
}

impl TimedPlatform {
    /// Builds the simulation scaffold for a machine.
    ///
    /// # Panics
    ///
    /// Panics if the machine's platform spec cannot be built (which only
    /// happens for non-positive link bandwidths).
    pub fn new(config: &MachineConfig) -> Self {
        Self::new_with_faults(config, config.storage, None)
    }

    /// Builds the simulation scaffold with `storage` devices in place of the
    /// kind `config` carries, and with a fault plan's timed effects applied:
    /// the straggler device's FPGA kernels run at `1/factor` of their
    /// configured rate, and the shared host uplink edge is derated to the
    /// remaining-bandwidth fraction *before* the fabric is installed.
    /// `config.storage` with `None` (or empty effects) builds exactly the
    /// same platform as [`TimedPlatform::new`].
    ///
    /// # Panics
    ///
    /// Panics if the machine's platform spec cannot be built (which only
    /// happens for non-positive link bandwidths) or if the effects carry an
    /// out-of-range bandwidth factor (plans built from a validated
    /// `FaultSpec` never do).
    pub fn new_with_faults(
        config: &MachineConfig,
        storage: StorageKind,
        effects: Option<&TimedFaultEffects>,
    ) -> Self {
        let effects = effects.copied().unwrap_or_default();
        let csd = storage == StorageKind::Csd;
        let mut platform =
            config.platform_spec(storage).build().expect("machine link rates must be positive");
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
        let media = (0..config.num_devices).map(|_| config.ssd.install(&mut sim)).collect();
        let gpu_resources =
            (0..config.num_gpus).map(|_| sim.add_resource(config.gpu.effective_flops)).collect();
        let cpu_update = sim.add_resource(config.cpu.update_bytes_per_sec);
        let (fpga_update, fpga_decompress) = if csd {
            let fpga = |sim: &mut Simulation, rate: f64| -> Vec<ResourceId> {
                (0..config.num_devices)
                    .map(|d| sim.add_resource(rate / effects.compute_slowdown(d)))
                    .collect()
            };
            (
                fpga(&mut sim, config.fpga_update_bytes_per_sec),
                fpga(&mut sim, config.fpga_decompress_bytes_per_sec),
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
            shape: Shape {
                gpus: config.num_gpus,
                devices: config.num_devices,
                csd,
                gpu_flops: config.gpu.effective_flops,
                gpu_memory: config.gpu.memory_bytes as f64,
                cpu_update: config.cpu.update_bytes_per_sec,
                cpu_memory: config.cpu.memory_bytes as f64,
                ssd_read: config.ssd.read_bytes_per_sec,
                fpga_update: config.fpga_update_bytes_per_sec,
                fpga_decompress: config.fpga_decompress_bytes_per_sec,
            },
            fault_effects: effects,
            routes: vec![None; Route::slots(config.num_gpus, config.num_devices)],
            route_links: Vec::new(),
        }
    }

    /// Number of storage devices.
    pub fn num_devices(&self) -> usize {
        self.shape.devices
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.shape.gpus
    }

    /// Registers a phase for breakdown reporting. `name` says what the
    /// phase is where it is registered; the timeline reports phases by id.
    pub fn add_phase(&mut self, name: &str) -> PhaseId {
        let _ = name;
        self.sim.add_phase()
    }

    /// Describes the machine's processing sites as [`simkit::Resource`]s, in
    /// the site order used by the iteration DAGs (host, GPUs, storage
    /// devices, FPGA updaters, FPGA decompressors). Schedulers consult this
    /// catalog through [`simkit::SystemView::resources`]; FPGA entries of a
    /// plain-SSD machine carry zero speed (there is nothing to run on).
    pub fn resource_catalog(&self) -> Vec<simkit::Resource> {
        use simkit::{Resource, SpeedupCurve};
        let c = &self.shape;
        let mut out = Vec::with_capacity(1 + c.gpus + 3 * c.devices);
        out.push(Resource::new(1, c.cpu_update, c.cpu_memory, SpeedupCurve::Flat));
        for _ in 0..c.gpus {
            out.push(Resource::new(1, c.gpu_flops, c.gpu_memory, SpeedupCurve::Flat));
        }
        for _ in 0..c.devices {
            out.push(Resource::new(1, c.ssd_read, f64::INFINITY, SpeedupCurve::Flat));
        }
        for rate in [c.fpga_update, c.fpga_decompress] {
            for d in 0..c.devices {
                let rate = if c.csd { rate / self.fault_effects.compute_slowdown(d) } else { 0.0 };
                out.push(Resource::new(1, rate, 4.0 * simkit::GB, SpeedupCurve::Flat));
            }
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
            .platform
            .topology
            .edge_between(self.platform.host, self.platform.expansion)
            .expect("host and expansion switch are always directly connected");
        self.fabric.links_of_edge(edge)
    }

    /// Makes room in the simulation for `tasks` more tasks with `deps`
    /// dependencies between them and `path_links` links of flow paths.
    pub(crate) fn reserve(&mut self, tasks: usize, deps: usize, path_links: usize) {
        self.sim.reserve(tasks, deps, path_links);
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
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] if the platform was built with plain
    /// SSDs or has no device `dev`.
    pub fn fpga_update(
        &mut self,
        dev: usize,
        bytes: f64,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> Result<TaskId, SimError> {
        let resource = Self::fpga(&self.fpga_update, dev, "updater")?;
        Ok(self.sim.compute(ComputeSpec::new(resource, bytes).after(deps).phase(phase)))
    }

    /// FPGA decompressor kernel on device `dev` producing `bytes` of dense gradient.
    ///
    /// # Errors
    ///
    /// As [`TimedPlatform::fpga_update`].
    pub(crate) fn fpga_decompress(
        &mut self,
        dev: usize,
        bytes: f64,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> Result<TaskId, SimError> {
        let resource = Self::fpga(&self.fpga_decompress, dev, "decompressor")?;
        Ok(self.sim.compute(ComputeSpec::new(resource, bytes).after(deps).phase(phase)))
    }

    /// The FPGA `kernel` resource of device `dev`, if the platform has one.
    fn fpga(resources: &[ResourceId], dev: usize, kernel: &str) -> Result<ResourceId, SimError> {
        resources.get(dev).copied().ok_or_else(|| SimError::InvalidParameter {
            message: format!("the FPGA {kernel} of device {dev} requires a CSD platform"),
        })
    }

    // ---- transfer helpers --------------------------------------------------

    /// Adds a flow over `route`. Its path is resolved on first use into the
    /// route arena and then lent from it, never copied.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] naming `route` when the platform does
    /// not have its endpoints: a GPU or device beyond its counts, or the
    /// FPGA of a plain-SSD machine.
    pub(crate) fn flow(
        &mut self,
        route: Route,
        bytes: f64,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> Result<TaskId, SimError> {
        let (start, end) = self.path(route)?;
        let path = &self.route_links[start..end];
        Ok(self.sim.flow(FlowSpec::new(path, bytes).after(deps).phase(phase)))
    }

    /// The number of links a flow over `route` crosses, 0 when the
    /// platform does not have its endpoints.
    pub(crate) fn route_len(&mut self, route: Route) -> usize {
        self.path(route).map_or(0, |(start, end)| end - start)
    }

    /// Where `route`'s path lies in the route arena, resolved on first use.
    fn path(&mut self, route: Route) -> Result<(usize, usize), SimError> {
        let invalid =
            |why: &str| SimError::InvalidParameter { message: format!("route {route:?} {why}") };
        let slot = route
            .slot(self.shape.gpus, self.shape.devices)
            .ok_or_else(|| invalid("names a GPU or device this platform does not have"))?;
        if let Some(span) = self.routes[slot] {
            return Ok(span);
        }
        let start = self.route_links.len();
        self.resolve(route).map_err(|why| invalid(&why))?;
        let span = (start, self.route_links.len());
        self.routes[slot] = Some(span);
        Ok(span)
    }

    /// Appends the fabric path of `route`, whose indices are in range, then
    /// the SSD media link it crosses, to the route arena.
    fn resolve(&mut self, route: Route) -> Result<(), String> {
        let p = &self.platform;
        let media = &self.media;
        let fpga = |d: usize| p.devices[d].fpga.ok_or("requires a CSD platform");
        let (from, to, link) = match route {
            Route::HostToGpu(g) => (p.host, p.gpus[g], None),
            Route::GpuToHost(g) => (p.gpus[g], p.host, None),
            Route::GpuToGpu(a, b) => (p.gpus[a], p.gpus[b], None),
            Route::HostToSsd(d) => (p.host, p.devices[d].ssd, Some(media[d].write)),
            Route::SsdToHost(d) => (p.devices[d].ssd, p.host, Some(media[d].read)),
            Route::SsdToFpga(d) => (p.devices[d].ssd, fpga(d)?, Some(media[d].read)),
            Route::FpgaToSsd(d) => (fpga(d)?, p.devices[d].ssd, Some(media[d].write)),
            Route::GpuToSsd(g, d) => (p.gpus[g], p.devices[d].ssd, Some(media[d].write)),
        };
        self.fabric.extend_path(from, to, &mut self.route_links).map_err(|e| e.to_string())?;
        self.route_links.extend(link);
        Ok(())
    }

    /// Host memory → SSD write on device `dev` (limited by the PCIe path and
    /// the device's write media bandwidth).
    pub fn host_to_ssd(
        &mut self,
        dev: usize,
        bytes: f64,
        deps: &[TaskId],
        phase: PhaseId,
    ) -> Result<TaskId, SimError> {
        self.flow(Route::HostToSsd(dev), bytes, deps, phase)
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
        assert!(!plat.shape.csd);
        let p = phase(&mut plat);
        let a = plat.host_to_ssd(0, 1e9, &[], p).unwrap();
        let b = plat.flow(Route::SsdToHost(1), 1e9, &[a], p).unwrap();
        let tl = plat.run().unwrap();
        assert!(tl.finish_time(b) > tl.finish_time(a));
    }

    /// The message of an `InvalidParameter` error.
    fn invalid(result: Result<TaskId, SimError>) -> String {
        match result {
            Err(SimError::InvalidParameter { message }) => message,
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    /// A plain-SSD machine has no FPGA: its P2P routes and kernels are a
    /// typed error naming what is missing, never a panic, and nothing is
    /// added to the simulation or the route memo.
    #[test]
    fn internal_p2p_on_plain_ssd_panics() {
        let mut plat = TimedPlatform::new(&MachineConfig::baseline_raid0(1));
        let p = phase(&mut plat);
        let message = invalid(plat.flow(Route::SsdToFpga(0), 1.0, &[], p));
        assert_eq!(message, "route SsdToFpga(0) requires a CSD platform");
        assert!(invalid(plat.flow(Route::FpgaToSsd(0), 1.0, &[], p)).contains("FpgaToSsd(0)"));
        let message = invalid(plat.fpga_update(0, 1.0, &[], p));
        assert_eq!(message, "the FPGA updater of device 0 requires a CSD platform");
        assert!(invalid(plat.fpga_decompress(0, 1.0, &[], p)).contains("decompressor"));
        // Indices beyond the machine name no route at all.
        assert!(invalid(plat.host_to_ssd(1, 1.0, &[], p)).contains("does not have"));
        assert!(invalid(plat.flow(Route::GpuToGpu(0, 1), 1.0, &[], p)).contains("does not have"));
        assert_eq!(resolved(&plat), 0);
        assert!(plat.route_links.is_empty());
        assert!(plat.run().unwrap().records().is_empty());
    }

    /// The same, reached through the public lowering: a graph that names an
    /// FPGA site on a plain-SSD machine fails to lower with the error.
    #[test]
    fn a_graph_naming_an_fpga_on_plain_ssds_fails_to_lower_with_a_typed_error() {
        use crate::schedule::{PlatformLowering, SiteMap};
        use simkit::{Dag, DagTaskId, DagWork, ScheduleDecision, Scheduler, SystemView};

        struct Asap;
        impl Scheduler for Asap {
            fn name(&self) -> &'static str {
                "asap"
            }
            fn decide(
                &mut self,
                task: DagTaskId,
                _: &Dag,
                _: &SystemView<'_>,
                out: &mut dyn FnMut(ScheduleDecision<'_>),
            ) {
                out(ScheduleDecision::new(task));
            }
        }

        let mut plat = TimedPlatform::new(&MachineConfig::baseline_raid0(2));
        let p = phase(&mut plat);
        let sites = SiteMap::new(plat.num_gpus(), plat.num_devices());
        for work in [
            DagWork::Transfer { from: sites.dev(1), to: sites.fpga(1), bytes: 1.0 },
            DagWork::Compute { site: sites.fpga(0), amount: 1.0 },
        ] {
            let mut dag = Dag::new();
            let task = dag.add_task(work);
            dag.set_phase(task, p);
            let resources = plat.resource_catalog();
            let err =
                simkit::execute(&dag, &resources, &mut Asap, &mut PlatformLowering::new(&mut plat))
                    .expect_err("a plain-SSD machine has no FPGA");
            assert!(err.to_string().contains("requires a CSD platform"), "{err}");
        }
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
            internal.flow(Route::SsdToFpga(d), 3.0e9, &[], p).unwrap();
        }
        let t_internal = internal.run().unwrap().makespan();

        let mut host_side = TimedPlatform::new(&config);
        let p = host_side.add_phase("host");
        for d in 0..8 {
            host_side.flow(Route::SsdToHost(d), 3.0e9, &[], p).unwrap();
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
        let w = plat.host_to_ssd(0, 3.2e9, &[], p).unwrap();
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
        let load = plat.flow(Route::HostToGpu(0), 16.0e9, &[], p).unwrap();
        let compute = plat.gpu_compute(0, 50.0e12, &[load], p);
        let store = plat.flow(Route::GpuToHost(0), 1.0e9, &[compute], p).unwrap();
        let upd = plat.fpga_update(0, 7.3e9, &[store], p).unwrap();
        let dec = plat.fpga_decompress(1, 3.8e9, &[], p).unwrap();
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
            plat.flow(Route::GpuToHost(0), 16.0e9, &[], p).unwrap();
            plat.flow(Route::SsdToHost(0), 3.0e9, &[], p).unwrap();
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
            let u = plat.fpga_update(0, 7.3e9, &[], p).unwrap();
            plat.host_to_ssd(1, 4.0e9, &[u], p).unwrap();
            plat.run().unwrap()
        };
        let clean = run(&mut TimedPlatform::new(&config));
        let faulted = run(&mut TimedPlatform::new_with_faults(
            &config,
            config.storage,
            Some(&TimedFaultEffects::default()),
        ));
        assert_eq!(clean.makespan(), faulted.makespan());
        assert!(faulted.fault_annotations().is_empty());
    }

    #[test]
    fn straggler_slows_only_its_own_fpga() {
        let config = MachineConfig::smart_infinity(2);
        let effects =
            TimedFaultEffects { straggler: Some((0, 2.0)), ..TimedFaultEffects::default() };
        let mut plat = TimedPlatform::new_with_faults(&config, config.storage, Some(&effects));
        let p = plat.add_phase("update");
        let slow = plat.fpga_update(0, 7.3e9, &[], p).unwrap();
        let fast = plat.fpga_update(1, 7.3e9, &[], p).unwrap();
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
            let mut plat = TimedPlatform::new_with_faults(&config, config.storage, effects);
            let p = plat.add_phase("x");
            plat.host_to_ssd(0, 16.0e9, &[], p).unwrap();
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

    /// How many routes the platform has resolved.
    fn resolved(plat: &TimedPlatform) -> usize {
        plat.routes.iter().flatten().count()
    }

    /// Calls one transfer helper twice on a fresh platform (a miss, then a
    /// hit) and returns the one path its memo then holds.
    fn memoised(
        config: &MachineConfig,
        effects: Option<&TimedFaultEffects>,
        helper: impl Fn(&mut TimedPlatform, PhaseId) -> TaskId,
    ) -> Vec<LinkId> {
        let mut plat = TimedPlatform::new_with_faults(config, config.storage, effects);
        let p = phase(&mut plat);
        helper(&mut plat, p);
        helper(&mut plat, p);
        assert_eq!(resolved(&plat), 1);
        let &(start, end) = plat.routes.iter().flatten().next().expect("one route");
        assert_eq!(end, plat.route_links.len(), "the hit appended nothing");
        plat.route_links[start..end].to_vec()
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
            let fresh = TimedPlatform::new_with_faults(&config, config.storage, effects);
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
                check(
                    &|t, ph| t.flow(Route::HostToGpu(g), 1.0, &[], ph).unwrap(),
                    path(p.host, p.gpus[g], None),
                );
                check(
                    &|t, ph| t.flow(Route::GpuToHost(g), 1.0, &[], ph).unwrap(),
                    path(p.gpus[g], p.host, None),
                );
                for h in 0..p.gpus.len() {
                    check(
                        &|t, ph| t.flow(Route::GpuToGpu(g, h), 1.0, &[], ph).unwrap(),
                        path(p.gpus[g], p.gpus[h], None),
                    );
                }
                for (d, ports) in p.devices.iter().enumerate() {
                    check(
                        &|t, ph| t.flow(Route::GpuToSsd(g, d), 1.0, &[], ph).unwrap(),
                        path(p.gpus[g], ports.ssd, Some(media[d].write)),
                    );
                }
            }
            for (d, ports) in p.devices.iter().enumerate() {
                check(
                    &|t, ph| t.host_to_ssd(d, 1.0, &[], ph).unwrap(),
                    path(p.host, ports.ssd, Some(media[d].write)),
                );
                check(
                    &|t, ph| t.flow(Route::SsdToHost(d), 1.0, &[], ph).unwrap(),
                    path(ports.ssd, p.host, Some(media[d].read)),
                );
                if let Some(fpga) = ports.fpga {
                    check(
                        &|t, ph| t.flow(Route::SsdToFpga(d), 1.0, &[], ph).unwrap(),
                        path(ports.ssd, fpga, Some(media[d].read)),
                    );
                    check(
                        &|t, ph| t.flow(Route::FpgaToSsd(d), 1.0, &[], ph).unwrap(),
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
        let devices: Vec<u32> = (0..sites.num_devices).map(|d| sites.dev(d)).collect();
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
        let routes = resolved(&plat);
        assert!(routes >= 4 * 4096, "{routes} routes");
        assert!(routes <= served.len(), "{routes} > {}", served.len());
    }

    /// Every route a helper can name on a machine, as a helper call.
    fn every_route(config: &MachineConfig) -> Vec<Route> {
        let (gpus, devices) = (config.num_gpus, config.num_devices);
        let mut routes = Vec::new();
        for g in 0..gpus {
            routes.extend([Route::HostToGpu(g), Route::GpuToHost(g)]);
            routes.extend((0..gpus).map(|h| Route::GpuToGpu(g, h)));
            routes.extend((0..devices).map(|d| Route::GpuToSsd(g, d)));
        }
        for d in 0..devices {
            routes.extend([Route::HostToSsd(d), Route::SsdToHost(d)]);
            if config.storage == StorageKind::Csd {
                routes.extend([Route::SsdToFpga(d), Route::FpgaToSsd(d)]);
            }
        }
        routes
    }

    /// The preset machines the route test covers: 1 to 16 devices, plain
    /// SSDs and CSDs, the default and the congested topology, 1 and 2 GPUs.
    fn route_machines() -> Vec<MachineConfig> {
        let mut machines = Vec::new();
        for devices in [1, 2, 4, 10, 16] {
            for gpus in [1, 2] {
                machines.push(MachineConfig {
                    num_gpus: gpus,
                    ..MachineConfig::baseline_raid0(devices)
                });
                machines.push(MachineConfig {
                    num_gpus: gpus,
                    ..MachineConfig::smart_infinity(devices)
                });
                machines.push(MachineConfig::congested_multi_gpu(devices, gpus));
            }
        }
        machines
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 96,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// On every preset machine, every route a helper can name, resolved
        /// in a random order with repeats into one platform's memo, is the
        /// fabric path on a fresh platform (`InstalledFabric::path`) plus
        /// the route's media link, and each slot keeps its own.
        #[test]
        fn routes_resolved_in_any_order_equal_the_fresh_fabric_path(
            machine in 0usize..30,
            order in proptest::collection::vec(0usize..1000, 1..64),
        ) {
            let config = &route_machines()[machine];
            let routes = every_route(config);
            let mut plat = TimedPlatform::new(config);
            let p = phase(&mut plat);
            for pick in order.iter().map(|&o| routes[o % routes.len()]).chain(routes.iter().copied()) {
                plat.flow(pick, 1.0, &[], p).unwrap();
            }
            proptest::prop_assert_eq!(resolved(&plat), routes.len());
            let fresh = TimedPlatform::new(config);
            let (fp, media) = (&fresh.platform, &fresh.media);
            for &route in &routes {
                let (from, to, link) = match route {
                    Route::HostToGpu(g) => (fp.host, fp.gpus[g], None),
                    Route::GpuToHost(g) => (fp.gpus[g], fp.host, None),
                    Route::GpuToGpu(a, b) => (fp.gpus[a], fp.gpus[b], None),
                    Route::HostToSsd(d) => (fp.host, fp.devices[d].ssd, Some(media[d].write)),
                    Route::SsdToHost(d) => (fp.devices[d].ssd, fp.host, Some(media[d].read)),
                    Route::SsdToFpga(d) => {
                        (fp.devices[d].ssd, fp.devices[d].fpga.unwrap(), Some(media[d].read))
                    }
                    Route::FpgaToSsd(d) => {
                        (fp.devices[d].fpga.unwrap(), fp.devices[d].ssd, Some(media[d].write))
                    }
                    Route::GpuToSsd(g, d) => (fp.gpus[g], fp.devices[d].ssd, Some(media[d].write)),
                };
                let mut want = fresh.fabric.path(from, to).unwrap();
                want.extend(link);
                let slot = route.slot(config.num_gpus, config.num_devices).unwrap();
                let (start, end) = plat.routes[slot].unwrap();
                proptest::prop_assert_eq!(&plat.route_links[start..end], &want[..], "{:?}", route);
            }
        }
    }
}
