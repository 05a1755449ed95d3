//! Extension beyond the paper's evaluation: mixed continuous batching
//! (§2.2.1) versus the static batching the paper measures. Continuous
//! refill keeps RLP — and therefore FC data reuse — high, which shrinks
//! PAPI's edge over a static GPU mapping exactly as §7.3 predicts for
//! high-parallelism regimes. The example asserts both halves of that
//! claim: continuous batching raises mean RLP, and lowers PAPI's speedup
//! over the A100+AttAcc baseline.
//!
//! ```sh
//! cargo run --release --example continuous_batching
//! ```

use papi::core::{DecodingSimulator, SystemConfig};
use papi::llm::ModelPreset;
use papi::workload::{DatasetKind, WorkloadSpec};

fn main() {
    let model = ModelPreset::Llama65B.config();
    let batch = 32;
    let queue = 96;

    let static_wl = WorkloadSpec::static_batching(DatasetKind::GeneralQa, batch, 1).with_seed(17);
    let continuous_wl =
        WorkloadSpec::continuous_batching(DatasetKind::GeneralQa, batch, 1, queue).with_seed(17);

    println!(
        "LLaMA-65B, general-qa, batch {batch} (continuous refills from a {queue}-deep queue)\n"
    );
    let mut rows = Vec::new();
    for (label, workload) in [("static", &static_wl), ("continuous", &continuous_wl)] {
        let trace = workload.trace();
        let papi = DecodingSimulator::new(SystemConfig::papi(model.clone())).run_trace(&trace);
        let base =
            DecodingSimulator::new(SystemConfig::a100_attacc(model.clone())).run_trace(&trace);
        println!(
            "{label:11} | {:4} requests | mean RLP {:5.1} | PAPI {:7.1} tok/s | A100+AttAcc {:7.1} tok/s | PAPI speedup {:.2}x",
            trace.requests,
            trace.mean_rlp(),
            papi.tokens_per_second(),
            base.tokens_per_second(),
            papi.speedup_over(&base),
        );
        rows.push((trace.mean_rlp(), papi.speedup_over(&base)));
    }
    println!("\nContinuous batching holds RLP near the maximum, so the scheduler");
    println!("keeps FC on the GPU and PAPI converges towards the baseline —");
    println!("while static batching's RLP decay is where dynamic scheduling pays.");
    let [(static_rlp, static_speedup), (continuous_rlp, continuous_speedup)] = rows[..] else {
        unreachable!("one row per batching policy");
    };
    assert!(
        continuous_rlp > static_rlp,
        "continuous mean RLP {continuous_rlp:.1} should exceed static {static_rlp:.1}"
    );
    assert!(
        continuous_speedup < static_speedup,
        "PAPI's speedup under continuous batching ({continuous_speedup:.2}x) should fall \
         below static's ({static_speedup:.2}x)"
    );
}
