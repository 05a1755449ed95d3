//! Bit-level goldens for the FR-FCFS controller and the bandwidth
//! derivations built on it.
//!
//! The derived bandwidths feed every PIM device model, so any change to
//! the controller's scheduling order shows up here first. The values were
//! captured from the controller that aged requests with a per-bank arrival
//! token deque; they pin the stamp-ordered scheduler to the same cycles,
//! statistics, energy counters and `f64` bit patterns.

use papi_dram::derive::{
    external_streaming_bandwidth, pim_streaming_bandwidth, random_row_bandwidth, DerivedBandwidth,
};
use papi_dram::{BusModel, Controller, HbmDevice, MemRequest, TimingParams};

/// The five `DerivedBandwidth` fields as `f64` bit patterns, in
/// declaration order.
fn bits(bw: &DerivedBandwidth) -> [u64; 5] {
    [
        bw.per_bank.value().to_bits(),
        bw.controller_aggregate.value().to_bits(),
        bw.device_aggregate.value().to_bits(),
        bw.efficiency.to_bits(),
        bw.simulated.as_secs().to_bits(),
    ]
}

#[test]
fn pim_streaming_bandwidth_on_hbm3_16gb_is_pinned() {
    let bw = pim_streaming_bandwidth(&HbmDevice::hbm3_16gb(), 8, 32);
    assert_eq!(bits(&bw), PIM_HBM3_16GB, "{bw:?}");
}

#[test]
fn pim_streaming_bandwidth_on_fc_pim_12gb_is_pinned() {
    let bw = pim_streaming_bandwidth(&HbmDevice::fc_pim_12gb(), 6, 32);
    assert_eq!(bits(&bw), PIM_FC_PIM_12GB, "{bw:?}");
}

#[test]
fn external_streaming_bandwidth_is_pinned() {
    let bw = external_streaming_bandwidth(&HbmDevice::hbm3_16gb(), 8, 16);
    assert_eq!(bits(&bw), EXTERNAL_HBM3_16GB, "{bw:?}");
}

#[test]
fn random_row_bandwidth_is_pinned() {
    let bw = random_row_bandwidth(&HbmDevice::hbm3_16gb(), 256);
    assert_eq!(bits(&bw), RANDOM_ROW_HBM3_16GB, "{bw:?}");
}

/// SplitMix64: a tiny deterministic generator, so the streams need no
/// dependency and never change under a crate upgrade.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Stream `case` of [`STREAM_CASES`]: even cases use the shared data bus,
/// odd ones per-bank PIM, and each bus sees 1 to 8 banks. Requests come in
/// short bursts along one row of a random bank, so banks interleave, rows
/// hit, and a small row span forces conflicts. A quarter to a half of the
/// requests write in two cases of every three.
fn stream(case: u64) -> (BusModel, usize, Vec<MemRequest>) {
    let bus = if case.is_multiple_of(2) {
        BusModel::SharedDataBus
    } else {
        BusModel::PerBankPim
    };
    let banks = 1 + (case / 2) as usize;
    let row_span = 1 << (case % 4);
    let write_quarters = case % 3;
    let len = 512 + 160 * case as usize;
    let mut rng = SplitMix(0x5EED ^ case);
    let mut reqs = Vec::with_capacity(len);
    while reqs.len() < len {
        let bank = rng.below(banks as u64) as usize;
        let row = rng.below(row_span);
        let burst = 1 + rng.below(8);
        let start = rng.below(56);
        for col in start..start + burst {
            reqs.push(if rng.below(4) < write_quarters {
                MemRequest::write(bank, row, col)
            } else {
                MemRequest::read(bank, row, col)
            });
        }
    }
    reqs.truncate(len);
    (bus, banks, reqs)
}

/// Drain cycles, final clock, the seven `ControllerStats` counters and the
/// five `EnergyCounter` counters of one stream. Half the stream is queued
/// up front; the rest lands after a case-dependent number of ticks, while
/// the first half is in flight.
fn run(case: u64) -> [u64; 14] {
    let (bus, banks, reqs) = stream(case);
    let mut c = Controller::new(TimingParams::hbm3(), banks, 32, bus);
    let (first, rest) = reqs.split_at(reqs.len() / 2);
    for &r in first {
        c.enqueue(r);
    }
    for _ in 0..17 * case {
        c.tick();
    }
    for &r in rest {
        c.enqueue(r);
    }
    let cycles = c.run_until_drained(50_000_000).unwrap();
    let s = c.stats();
    let e = c.energy();
    [
        cycles,
        c.now(),
        s.completed,
        s.row_hits,
        s.row_misses,
        s.row_conflicts,
        s.commands_issued,
        s.refreshes,
        s.bytes_transferred,
        e.activations,
        e.read_bytes,
        e.write_bytes,
        e.io_bytes,
        e.bank_refreshes,
    ]
}

#[test]
fn seeded_mixed_streams_are_pinned() {
    for (case, want) in STREAM_CASES.iter().enumerate() {
        assert_eq!(run(case as u64), *want, "stream case {case}");
    }
}

const PIM_HBM3_16GB: [u64; 5] = [
    4758986929549701186,
    4772497728431812674,
    4790512126941294658,
    4604367480060116816,
    4526889499537153737,
];

const PIM_FC_PIM_12GB: [u64; 5] = [
    4759010230527500664,
    4770592873496705306,
    4788607272006187290,
    4604386244485919362,
    4526873561550274052,
];

const EXTERNAL_HBM3_16GB: [u64; 5] = [
    4751617950018921512,
    4765128748901033000,
    4783143147410514984,
    4596937523954306952,
    4530023084846442926,
];

const RANDOM_ROW_HBM3_16GB: [u64; 5] = [
    4739261674305405606,
    4739261674305405606,
    4770786871696999078,
    4584975317727353756,
    4532902780699516623,
];

/// Per case: drain cycles, final clock, `ControllerStats` (completed, row
/// hits, misses, conflicts, commands, refreshes, bytes) and `EnergyCounter`
/// (activations, read, write and I/O bytes, bank refreshes).
#[rustfmt::skip]
const STREAM_CASES: [[u64; 14]; 16] = [
    [1062, 1042, 512, 511, 1, 0, 513, 0, 16384, 1, 16384, 0, 16384, 0],
    [6546, 6543, 672, 602, 1, 69, 814, 1, 21504, 71, 16320, 5184, 0, 1],
    [6666, 6680, 832, 685, 2, 145, 1126, 1, 26624, 147, 13696, 12928, 26624, 2],
    [6616, 6647, 992, 786, 2, 204, 1404, 1, 31744, 206, 31744, 0, 0, 2],
    [1129, 1177, 1152, 1149, 3, 0, 1155, 0, 36864, 3, 28480, 8384, 36864, 0],
    [4242, 4307, 1312, 1174, 3, 135, 1585, 0, 41984, 138, 22016, 19968, 0, 0],
    [3866, 3948, 1472, 1239, 4, 229, 1934, 0, 47104, 233, 47104, 0, 47104, 0],
    [6738, 6837, 1632, 1305, 4, 323, 2288, 1, 52224, 328, 39392, 12832, 0, 4],
    [1705, 1821, 1792, 1787, 5, 0, 1797, 0, 57344, 5, 29024, 28320, 57344, 0],
    [3360, 3493, 1952, 1698, 5, 249, 2455, 0, 62464, 254, 62464, 0, 0, 0],
    [5614, 5764, 2112, 1783, 6, 323, 2775, 1, 67584, 329, 50816, 16768, 67584, 6],
    [7391, 7558, 2272, 1822, 6, 444, 3174, 1, 72704, 451, 35296, 37408, 0, 6],
    [2668, 2852, 2432, 2425, 7, 0, 2439, 0, 77824, 7, 77824, 0, 77824, 0],
    [3953, 4154, 2592, 2312, 7, 273, 3145, 0, 82944, 280, 62592, 20352, 0, 0],
    [6401, 6619, 2752, 2286, 8, 458, 3687, 1, 88064, 467, 42368, 45696, 88064, 8],
    [4777, 5012, 2912, 2347, 8, 557, 4034, 0, 93184, 565, 93184, 0, 0, 0],
];
