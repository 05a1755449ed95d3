//! Bit-level goldens for the per-bank PIM stream controller and the
//! bandwidth derivation built on it.
//!
//! The derived bandwidth feeds every PIM device model, so any change to
//! the controller's command timing shows up here first. The two
//! derivation goldens pin the `f64` bit patterns `PimDevice::new` reads;
//! the 16 seeded read streams pin drain cycles and statistics on 1 to 8
//! banks, with conflicts, refresh and requests landing mid-drain.

use papi_dram::derive::{pim_streaming_bandwidth, DerivedBandwidth};
use papi_dram::{Controller, HbmDevice, MemRequest, TimingParams};

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

/// Stream `case` of [`STREAM_CASES`] over 1 to 8 banks. Requests come in
/// short bursts along one row of a random bank, so banks interleave, rows
/// hit, and a small row span forces conflicts. Each read still takes the
/// draw that once chose between a read and a write, so every case keeps
/// its banks, rows and columns.
fn stream(case: u64) -> (usize, Vec<MemRequest>) {
    let banks = 1 + (case / 2) as usize;
    let row_span = 1 << (case % 4);
    let len = 512 + 160 * case as usize;
    let mut rng = SplitMix(0x5EED ^ case);
    let mut reqs = Vec::with_capacity(len);
    while reqs.len() < len {
        let bank = rng.below(banks as u64) as usize;
        let row = rng.below(row_span);
        let burst = 1 + rng.below(8);
        let start = rng.below(56);
        for col in start..start + burst {
            rng.below(4);
            reqs.push(MemRequest::read(bank, row, col));
        }
    }
    reqs.truncate(len);
    (banks, reqs)
}

/// Drain cycles, final clock and the seven `ControllerStats` counters of
/// one stream. Half the stream is queued up front; the rest lands after a
/// case-dependent number of ticks, while the first half is in flight.
fn run(case: u64) -> [u64; 9] {
    let (banks, reqs) = stream(case);
    let mut c = Controller::new(TimingParams::hbm3(), banks, 32);
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
    ]
}

#[test]
fn seeded_read_streams_are_pinned() {
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

/// Per case: drain cycles, final clock and `ControllerStats` (completed,
/// row hits, misses, conflicts, commands, refreshes, bytes).
#[rustfmt::skip]
const STREAM_CASES: [[u64; 9]; 16] = [
    [1062, 1042, 512, 511, 1, 0, 513, 0, 16384],
    [4573, 4570, 672, 602, 1, 69, 811, 0, 21504],
    [4282, 4296, 832, 686, 2, 144, 1122, 0, 26624],
    [6616, 6647, 992, 786, 2, 204, 1404, 1, 31744],
    [936, 984, 1152, 1149, 3, 0, 1155, 0, 36864],
    [2930, 2995, 1312, 1174, 3, 135, 1585, 0, 41984],
    [3677, 3759, 1472, 1239, 4, 229, 1934, 0, 47104],
    [4721, 4820, 1632, 1305, 4, 323, 2282, 0, 52224],
    [698, 814, 1792, 1787, 5, 0, 1797, 0, 57344],
    [3360, 3493, 1952, 1698, 5, 249, 2455, 0, 62464],
    [3790, 3940, 2112, 1783, 6, 323, 2764, 0, 67584],
    [4697, 4864, 2272, 1822, 6, 444, 3166, 0, 72704],
    [674, 858, 2432, 2425, 7, 0, 2439, 0, 77824],
    [2821, 3022, 2592, 2312, 7, 273, 3145, 0, 82944],
    [3766, 3984, 2752, 2287, 8, 457, 3674, 0, 88064],
    [4777, 5012, 2912, 2347, 8, 557, 4034, 0, 93184],
];
