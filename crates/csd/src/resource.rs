//! FPGA resource budget and per-kernel utilisation model (paper Table III).

use serde::{Deserialize, Serialize};

/// The programmable-logic resources of an FPGA device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FpgaResources {
    /// Look-up tables.
    pub luts: u32,
    /// 36 Kb block RAMs.
    pub brams: u32,
    /// UltraRAM blocks.
    pub urams: u32,
    /// DSP slices.
    pub dsps: u32,
}

impl FpgaResources {
    /// The Kintex UltraScale+ KU15P inside a SmartSSD (Table II: ~522K LUTs,
    /// 984 BRAMs, 128 URAMs, 1968 DSPs).
    pub fn ku15p() -> Self {
        Self { luts: 522_000, brams: 984, urams: 128, dsps: 1968 }
    }
}

/// Absolute resource consumption of one synthesized kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResourceUtilization {
    /// Look-up tables used.
    pub luts: u32,
    /// Block RAMs used.
    pub brams: u32,
    /// UltraRAMs used.
    pub urams: u32,
    /// DSP slices used.
    pub dsps: u32,
}

impl ResourceUtilization {
    /// Adds two utilisations component-wise.
    pub fn plus(self, other: ResourceUtilization) -> ResourceUtilization {
        ResourceUtilization {
            luts: self.luts + other.luts,
            brams: self.brams + other.brams,
            urams: self.urams + other.urams,
            dsps: self.dsps + other.dsps,
        }
    }

    /// Utilisation as percentages of a device's budget `(lut%, bram%, uram%, dsp%)`.
    pub fn percentages(&self, device: &FpgaResources) -> (f64, f64, f64, f64) {
        (
            100.0 * self.luts as f64 / device.luts as f64,
            100.0 * self.brams as f64 / device.brams as f64,
            100.0 * self.urams as f64 / device.urams as f64,
            100.0 * self.dsps as f64 / device.dsps as f64,
        )
    }

    /// Whether the kernel fits within the device's budget.
    pub fn fits(&self, device: &FpgaResources) -> bool {
        self.luts <= device.luts
            && self.brams <= device.brams
            && self.urams <= device.urams
            && self.dsps <= device.dsps
    }
}

/// A simple synthesis cost model for the Smart-Infinity kernels, calibrated to
/// the implementation results of Table III.
///
/// The model is additive: a static shell (PCIe/DMA/memory controllers), a per
/// AXPBY-unit cost for the updater datapath, staging buffers in BRAM/URAM and
/// a small routing-only decompressor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelResourceModel {
    /// Static shell consumption (platform logic present for any kernel).
    pub shell: ResourceUtilization,
    /// Cost of one SIMD AXPBY unit (FP32 multiply-add datapath + pipeline registers).
    pub per_axpby_unit: ResourceUtilization,
    /// Staging buffers for the updater (gradient/momentum/variance/parameter chunks).
    pub updater_buffers: ResourceUtilization,
    /// The Top-K decompressor (index routing, no arithmetic).
    pub decompressor: ResourceUtilization,
}

impl Default for KernelResourceModel {
    fn default() -> Self {
        Self {
            shell: ResourceUtilization { luts: 104_000, brams: 148, urams: 0, dsps: 25 },
            per_axpby_unit: ResourceUtilization { luts: 1_130, brams: 0, urams: 0, dsps: 3 },
            updater_buffers: ResourceUtilization { luts: 0, brams: 119, urams: 44, dsps: 0 },
            decompressor: ResourceUtilization { luts: 2_400, brams: 0, urams: 2, dsps: 0 },
        }
    }
}

impl KernelResourceModel {
    /// Utilisation of an updater kernel with `num_axpby_units` SIMD lanes
    /// (the paper's Adam updater uses 4 PEs × 16 AXPBY units = 64 lanes).
    pub fn updater(&self, num_axpby_units: u32) -> ResourceUtilization {
        let mut u = self.shell.plus(self.updater_buffers);
        u.luts += self.per_axpby_unit.luts * num_axpby_units;
        u.brams += self.per_axpby_unit.brams * num_axpby_units;
        u.urams += self.per_axpby_unit.urams * num_axpby_units;
        u.dsps += self.per_axpby_unit.dsps * num_axpby_units;
        u
    }

    /// Utilisation of the updater plus the Top-K decompressor (the SmartComp
    /// configuration of Table III).
    pub fn updater_with_decompressor(&self, num_axpby_units: u32) -> ResourceUtilization {
        self.updater(num_axpby_units).plus(self.decompressor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_ADAM: (f64, f64, f64, f64) = (33.66, 27.13, 34.38, 11.03);
    const PAPER_ADAM_TOPK: (f64, f64, f64, f64) = (34.12, 27.13, 35.94, 11.03);

    fn assert_close(actual: (f64, f64, f64, f64), expected: (f64, f64, f64, f64), tol: f64) {
        for (a, e) in [
            (actual.0, expected.0),
            (actual.1, expected.1),
            (actual.2, expected.2),
            (actual.3, expected.3),
        ] {
            assert!((a - e).abs() <= tol, "utilisation {a:.2}% vs paper {e:.2}%");
        }
    }

    #[test]
    fn adam_updater_matches_table_three() {
        let model = KernelResourceModel::default();
        let util = model.updater(64);
        let pct = util.percentages(&FpgaResources::ku15p());
        assert_close(pct, PAPER_ADAM, 1.5);
        assert!(util.fits(&FpgaResources::ku15p()));
    }

    #[test]
    fn adam_with_topk_matches_table_three() {
        let model = KernelResourceModel::default();
        let util = model.updater_with_decompressor(64);
        let pct = util.percentages(&FpgaResources::ku15p());
        assert_close(pct, PAPER_ADAM_TOPK, 1.5);
        // The decompressor is cheap: it only adds routing logic, no DSPs.
        let base = model.updater(64);
        assert_eq!(util.dsps, base.dsps);
        assert_eq!(util.brams, base.brams);
        assert!(util.luts > base.luts);
    }

    /// Table III as the model prints it: (LUT, BRAM, URAM, DSP) percent of
    /// the KU15P for the Adam updater and for Adam with the Top-K
    /// decompressor, pinned bit for bit.
    #[test]
    fn tab3_matches_the_paper_within_tolerance() {
        let model = KernelResourceModel::default();
        let device = FpgaResources::ku15p();
        let adam = model.updater(64).percentages(&device);
        let adam_topk = model.updater_with_decompressor(64).percentages(&device);
        assert!((adam.0 - 33.66).abs() < 1.5);
        assert!((adam_topk.2 - 35.94).abs() < 1.5);
        let bits = |(lut, bram, uram, dsp): (f64, f64, f64, f64)| {
            [lut.to_bits(), bram.to_bits(), uram.to_bits(), dsp.to_bits()]
        };
        assert_eq!(
            bits(adam),
            bits((33.77777777777778, 27.134146341463413, 34.375, 11.026422764227643))
        );
        assert_eq!(
            bits(adam_topk),
            bits((34.23754789272031, 27.134146341463413, 35.9375, 11.026422764227643))
        );
    }

    #[test]
    fn there_is_headroom_for_extensions() {
        // The paper notes "much room left for extra logic despite the FPGA
        // being lightweight" (Section VII-B): utilisation stays below 50%.
        let util = KernelResourceModel::default().updater_with_decompressor(64);
        let (lut, bram, uram, dsp) = util.percentages(&FpgaResources::ku15p());
        assert!(lut < 50.0 && bram < 50.0 && uram < 50.0 && dsp < 50.0);
    }

    #[test]
    fn doubling_the_pe_array_still_fits() {
        let util = KernelResourceModel::default().updater_with_decompressor(128);
        assert!(util.fits(&FpgaResources::ku15p()));
    }

    #[test]
    fn utilization_arithmetic() {
        let a = ResourceUtilization { luts: 1, brams: 2, urams: 3, dsps: 4 };
        let b = ResourceUtilization { luts: 10, brams: 20, urams: 30, dsps: 40 };
        let s = a.plus(b);
        assert_eq!(s, ResourceUtilization { luts: 11, brams: 22, urams: 33, dsps: 44 });
        let dev = FpgaResources { luts: 100, brams: 100, urams: 100, dsps: 100 };
        assert_eq!(s.percentages(&dev), (11.0, 22.0, 33.0, 44.0));
        assert!(s.fits(&dev));
        assert!(!ResourceUtilization { luts: 101, ..Default::default() }.fits(&dev));
    }
}
