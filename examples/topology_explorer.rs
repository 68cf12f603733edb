//! Topology explorer: build the paper's PCIe platforms, inspect the routes
//! traffic takes, and see how the congested multi-GPU placement (paper
//! Fig. 17) changes the picture.
//!
//! ```text
//! cargo run --release -p smart_infinity --example topology_explorer
//! ```

use fabric::{NodeKind, PlatformSpec, StorageKind};
use simkit::{FlowSpec, Simulation};
use smart_infinity::{MachineSpec, MethodSpec, ModelSpec, RunSpec, TrainError};

// `?` spans both stacks: the raw simkit runs convert through
// `TrainError::from(SimError)`, the session runs return `TrainError` already.
fn main() -> Result<(), TrainError> {
    // ------------------------------------------------------------------
    // 1. Inspect the default Smart-Infinity platform topology.
    // ------------------------------------------------------------------
    let platform =
        PlatformSpec::default_smart_infinity(4, StorageKind::Csd).build().expect("platform");
    let topo = &platform.topology;
    println!("Default platform: {} nodes, {} PCIe links", topo.node_count(), topo.edge_count());
    for (kind, label) in [
        (NodeKind::Host, "host"),
        (NodeKind::Gpu, "GPU"),
        (NodeKind::Switch, "switch"),
        (NodeKind::SsdPort, "SSD"),
        (NodeKind::FpgaPort, "FPGA"),
    ] {
        println!("  {:<7}: {}", label, topo.nodes_of_kind(kind).len());
    }

    let dev = &platform.devices[0];
    let host_to_ssd = topo.route(platform.host, dev.ssd).expect("route");
    let p2p = topo.route(dev.ssd, dev.fpga.expect("CSD has an FPGA")).expect("route");
    println!(
        "\nRoute host -> CSD0 SSD crosses {} links (incl. the shared uplink):",
        host_to_ssd.len()
    );
    for edge in &host_to_ssd {
        println!("  - {:>6.1} GB/s", topo.edge_bandwidth(*edge) / 1e9);
    }
    println!("Route CSD0 SSD -> CSD0 FPGA crosses {} links (all private):", p2p.len());
    for edge in &p2p {
        println!("  - {:>6.1} GB/s", topo.edge_bandwidth(*edge) / 1e9);
    }

    // ------------------------------------------------------------------
    // 2. Show the aggregate-bandwidth effect directly on the simulator.
    // ------------------------------------------------------------------
    let mut sim = Simulation::new();
    let inst = topo.install(&mut sim);
    let mut host_flows = Vec::new();
    let mut p2p_flows = Vec::new();
    for d in &platform.devices {
        let to_host = inst.path(d.ssd, platform.host).expect("path");
        host_flows.push(sim.flow(FlowSpec::new(to_host, 8e9)));
        let internal = inst.path(d.ssd, d.fpga.expect("fpga")).expect("path");
        p2p_flows.push(sim.flow(FlowSpec::new(internal, 8e9)));
    }
    let tl = sim.run()?;
    let host_done = host_flows.iter().map(|&t| tl.finish_time(t)).fold(0.0, f64::max);
    let p2p_done = p2p_flows.iter().map(|&t| tl.finish_time(t)).fold(0.0, f64::max);
    println!("\nStreaming 8 GB from every SSD simultaneously:");
    println!("  to host memory (shared uplink): {host_done:.2} s");
    println!("  to the local FPGA (private P2P): {p2p_done:.2} s");

    // ------------------------------------------------------------------
    // 3. The congested multi-GPU placement of Fig. 17, as a (GPU count x
    //    method) grid of specs.
    // ------------------------------------------------------------------
    println!("\nCongested topology (GPUs behind the same expansion switch as the CSDs):");
    let specs: Vec<RunSpec> = (1..=3usize)
        .flat_map(|gpus| {
            [MethodSpec::baseline(), MethodSpec::smart_comp(0.01)].into_iter().map(move |m| {
                RunSpec::new(
                    ModelSpec::preset("GPT2-1.16B"),
                    MachineSpec::devices(10).with_num_gpus(gpus).congested(),
                    m,
                )
            })
        })
        .collect();
    let mut reports = Vec::with_capacity(specs.len());
    for spec in &specs {
        reports.push(spec.session()?.simulate_iteration()?);
    }
    for (i, pair) in reports.chunks(2).enumerate() {
        let (base, smart) = (&pair[0], &pair[1]);
        println!(
            "  {} x A4000: baseline {:.2} s/iter, Smart-Infinity {:.2} s/iter ({:.2}x)",
            i + 1,
            base.total_s(),
            smart.total_s(),
            smart.speedup_over(base)
        );
    }
    println!("\nEven when GPU traffic shares the PCIe switch with the CSDs, the update phase");
    println!("still runs on the devices' private bandwidth, so the speedup persists (Fig. 17).");
    Ok(())
}
