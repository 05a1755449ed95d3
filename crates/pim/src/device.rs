//! Assembled PIM devices: an HBM stack plus near-bank FPUs.

use crate::area::AreaParams;
use crate::config::PimConfig;
use crate::energy::PimEnergyModel;
use crate::fpu::FpuSpec;
use papi_dram::{derive, HbmDevice};
use papi_types::{Bandwidth, Bytes, DataType, FlopsRate};
use serde::{Deserialize, Serialize};

/// One PIM-enabled HBM device.
///
/// Construction derives the sustainable per-bank streaming bandwidth from
/// the cycle-level DRAM model, so every latency this device reports is
/// grounded in the timing simulation rather than in datasheet peaks.
///
/// # Example
///
/// ```
/// use papi_pim::PimDevice;
///
/// let attacc = PimDevice::attacc();
/// let fc = PimDevice::fc_pim();
/// // FC-PIM trades capacity for compute: fewer banks, 3× the FLOPS.
/// assert!(fc.capacity().value() < attacc.capacity().value());
/// assert!(fc.peak_flops().value() > 2.5 * attacc.peak_flops().value());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PimDevice {
    /// Device name (e.g. `"Attn-PIM"`).
    pub name: String,
    /// The underlying HBM stack.
    pub hbm: HbmDevice,
    /// FPU-per-bank configuration.
    pub config: PimConfig,
    /// The FPU design.
    pub fpu: FpuSpec,
    /// Transfer/compute energy constants.
    pub energy_model: PimEnergyModel,
    banks: usize,
    per_bank_stream: Bandwidth,
}

impl PimDevice {
    /// Builds a device, deriving sustained bandwidth from the DRAM model
    /// and the bank count from the Eq. (3) area solver.
    ///
    /// # Panics
    ///
    /// Panics if the area solver's bank count does not tile under
    /// `config` or does not match the HBM topology.
    #[track_caller]
    pub fn new(
        name: impl Into<String>,
        hbm: HbmDevice,
        config: PimConfig,
        fpu: FpuSpec,
        energy_model: PimEnergyModel,
    ) -> Self {
        let banks = hbm.topology.total_banks();
        let area_banks = AreaParams::paper().bank_count(config);
        assert_eq!(
            banks, area_banks,
            "topology has {banks} banks but Eq. (3) allows {area_banks} for {config}"
        );
        let derived =
            derive::pim_streaming_bandwidth(&hbm, hbm.topology.banks_per_pseudo_channel(), 32);
        Self {
            name: name.into(),
            hbm,
            config,
            fpu,
            energy_model,
            banks,
            per_bank_stream: derived.per_bank,
        }
    }

    /// The AttAcc baseline device: 1P1B on a 16 GB stack.
    pub fn attacc() -> Self {
        Self::new(
            "AttAcc",
            HbmDevice::hbm3_16gb(),
            PimConfig::ATTACC_1P1B,
            FpuSpec::attacc(),
            PimEnergyModel::paper(),
        )
    }

    /// The Samsung HBM-PIM baseline device: 1P2B on a 16 GB stack.
    pub fn hbm_pim() -> Self {
        Self::new(
            "HBM-PIM",
            HbmDevice::hbm3_16gb(),
            PimConfig::ATTN_PIM_1P2B,
            FpuSpec::attacc(),
            PimEnergyModel::paper(),
        )
    }

    /// PAPI's Attn-PIM device: 1P2B on a 16 GB stack (capacity-dense,
    /// power-safe at data-reuse 1).
    pub fn attn_pim() -> Self {
        Self::new(
            "Attn-PIM",
            HbmDevice::hbm3_16gb(),
            PimConfig::ATTN_PIM_1P2B,
            FpuSpec::attacc(),
            PimEnergyModel::paper(),
        )
    }

    /// PAPI's FC-PIM device: 4P1B on the 12 GB / 96-bank die of Eq. (4).
    pub fn fc_pim() -> Self {
        Self::new(
            "FC-PIM",
            HbmDevice::fc_pim_12gb(),
            PimConfig::FC_PIM_4P1B,
            FpuSpec::attacc(),
            PimEnergyModel::paper(),
        )
    }

    /// Banks on this die.
    pub(crate) fn banks(&self) -> usize {
        self.banks
    }

    /// Total FPUs on this die.
    pub(crate) fn total_fpus(&self) -> usize {
        self.config.total_fpus(self.banks)
    }

    /// Memory capacity.
    pub fn capacity(&self) -> Bytes {
        self.hbm.capacity()
    }

    /// Peak compute throughput (all FPUs busy).
    pub fn peak_flops(&self) -> FlopsRate {
        FlopsRate::new(self.total_fpus() as f64 * self.fpu.flops_rate().value())
    }

    /// Number of parallel weight streams one bank runs at data-reuse
    /// level `reuse` under the batched-broadcast dataflow: enough streams
    /// to keep all `n` FPU groups fed, `ceil(n / reuse)`, capped to `n`.
    /// Devices with shared FPUs (1P2B) always run one stream per FPU.
    pub(crate) fn streams_per_bank(&self, reuse: u64) -> f64 {
        let n = self.config.fpus_per_bank();
        if n <= 1.0 {
            return n; // one stream per FPU, shared across its banks
        }
        (n / reuse.max(1) as f64).ceil().clamp(1.0, n)
    }

    /// Achievable multiply-accumulate rate (MAC/s) of the whole device at
    /// data-reuse level `reuse` for `dtype` weights.
    ///
    /// For `n ≥ 1` FPUs per bank this is
    /// `banks × min(n × f_mac, streams × s_w × reuse)` where `s_w` is the
    /// derived per-stream weight rate; for shared FPUs (1 FPU per `m`
    /// banks) ping-ponging across its banks hides row turnaround, so the
    /// FPU sustains `min(f_mac, m × s_w) ` weights/s and reuse never
    /// starves it.
    pub(crate) fn mac_rate(&self, reuse: u64, dtype: DataType) -> f64 {
        let reuse = reuse.max(1) as f64;
        let f_mac = self.fpu.mac_rate();
        let s_w = self.per_bank_stream.value() / dtype.size().value(); // weights/s per stream
        let n = self.config.fpus_per_bank();
        if n >= 1.0 {
            let streams = self.streams_per_bank(reuse as u64);
            self.banks as f64 * (n * f_mac).min(streams * s_w * reuse)
        } else {
            let m = self.config.banks_per_fpu();
            let port = f_mac.min(m * s_w); // weights/s delivered to one FPU
            self.total_fpus() as f64 * f_mac.min(reuse * port)
        }
    }

    /// Weight bytes fetched from DRAM per second at `reuse` (each weight
    /// is fetched once and used `reuse` times).
    pub(crate) fn weight_fetch_bandwidth(&self, reuse: u64, dtype: DataType) -> Bandwidth {
        let reuse_f = reuse.max(1) as f64;
        Bandwidth::new(self.mac_rate(reuse, dtype) / reuse_f * dtype.size().value())
    }

    /// Vector-operation rate for softmax/normalization work (one op per
    /// FPU lane per cycle).
    pub(crate) fn vector_op_rate(&self) -> f64 {
        self.total_fpus() as f64 * self.fpu.mac_rate()
    }

    /// Effective DRAM access energy per fetched byte (column read plus
    /// amortized row activation), in picojoules.
    pub fn dram_access_pj_per_byte(&self) -> f64 {
        self.hbm.energy.read_pj_per_byte
            + self.hbm.energy.activate_pj / self.hbm.topology.row_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_fpu_counts_match_paper() {
        assert_eq!(PimDevice::attacc().total_fpus(), 128);
        assert_eq!(PimDevice::hbm_pim().total_fpus(), 64);
        assert_eq!(PimDevice::attn_pim().total_fpus(), 64);
        assert_eq!(PimDevice::fc_pim().total_fpus(), 384);
    }

    #[test]
    fn fc_pim_mac_rate_saturates_with_reuse() {
        let fc = PimDevice::fc_pim();
        let r1 = fc.mac_rate(1, DataType::Fp16);
        let r4 = fc.mac_rate(4, DataType::Fp16);
        let r64 = fc.mac_rate(64, DataType::Fp16);
        // Reuse 1 runs 4 parallel streams; reuse ≥ 4 broadcasts one stream
        // to all four FPU groups — same MAC rate, a quarter the fetch.
        assert!((r1 - r4).abs() / r4 < 0.05, "r1={r1} r4={r4}");
        assert!(r64 >= r4);
        // 96 banks × ~31 GMAC/s ≈ 3 TMAC/s.
        assert!(r4 > 2.5e12 && r4 < 4.5e12);
    }

    #[test]
    fn fetch_bandwidth_drops_with_reuse() {
        let fc = PimDevice::fc_pim();
        let f1 = fc.weight_fetch_bandwidth(1, DataType::Fp16);
        let f4 = fc.weight_fetch_bandwidth(4, DataType::Fp16);
        let f16 = fc.weight_fetch_bandwidth(16, DataType::Fp16);
        assert!(f1.value() > 3.0 * f4.value());
        assert!(f4.value() > f16.value());
    }

    #[test]
    fn fc_pim_vs_attacc_throughput_ratio_is_about_3x() {
        // The Fig. 12 claim: PAPI's FC execution is ~2.9× faster than
        // AttAcc's at batch 4 × speculation 4 (reuse 16).
        let fc = PimDevice::fc_pim();
        let attacc = PimDevice::attacc();
        let ratio = fc.mac_rate(16, DataType::Fp16) / attacc.mac_rate(16, DataType::Fp16);
        assert!(
            ratio > 2.5 && ratio < 3.5,
            "FC-PIM/AttAcc MAC ratio {ratio}, want ~3"
        );
    }

    #[test]
    fn attacc_vs_attn_pim_stream_ratio() {
        // Fig. 12: attention runs slower on Attn-PIM (1P2B) than AttAcc
        // (1P1B) because it has half the FPUs; ping-pong across two banks
        // partially compensates.
        let attacc = PimDevice::attacc();
        let attn = PimDevice::attn_pim();
        let ratio = attacc.mac_rate(1, DataType::Fp16) / attn.mac_rate(1, DataType::Fp16);
        assert!(
            ratio > 1.3 && ratio < 2.0,
            "1P1B/1P2B attention ratio {ratio}, want in (1.3, 2.0)"
        );
    }

    #[test]
    fn streams_follow_broadcast_rule() {
        let fc = PimDevice::fc_pim();
        assert_eq!(fc.streams_per_bank(1), 4.0);
        assert_eq!(fc.streams_per_bank(2), 2.0);
        assert_eq!(fc.streams_per_bank(4), 1.0);
        assert_eq!(fc.streams_per_bank(64), 1.0);
        let attn = PimDevice::attn_pim();
        assert_eq!(attn.streams_per_bank(1), 0.5);
    }

    #[test]
    fn dram_access_energy_matches_calibration() {
        let d = PimDevice::attacc();
        // ~62 pJ/byte ⇒ 7.77 pJ/bit; the Fig. 7(a) calibration target.
        let pj = d.dram_access_pj_per_byte();
        assert!((pj - 62.1).abs() < 0.5, "got {pj} pJ/B");
    }

    #[test]
    fn capacity_presets() {
        assert!((PimDevice::attn_pim().capacity().as_gib() - 16.0).abs() < 1e-9);
        assert!((PimDevice::fc_pim().capacity().as_gib() - 12.0).abs() < 1e-9);
    }
}
