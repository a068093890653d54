//! Pinned inputs and calibrated rates. The input hashes make the
//! harness refuse to run on bytes other than the ones measured before;
//! the rates were calibrated once on a 2-core host so the server stays
//! clearly below saturation at the fixed rates.

/// The primary data seed, and the held-out one a claimed gain must also
/// hold on.
pub const DATA_SEEDS: [u64; 2] = [1, 2];

const SEED_1: &[(&str, u64)] = &[
    ("g.edges", 0x909121d897084d88),
    ("hot.wl", 0x22d736cb597e6a98),
    ("cold.wl", 0x9d849042c6f87d71),
    ("hot.markov", 0x688286a0bb550977),
    ("updates.upd", 0xa5208a6c1834d4e4),
    ("hot.ref", 0x0854220e44184a77),
    ("cold.ref", 0x3c0a1a7d66cbd26b),
];

const SEED_2: &[(&str, u64)] = &[
    ("g.edges", 0x448076b2bbe3a3ff),
    ("hot.wl", 0x7e0372ae5acabde5),
    ("cold.wl", 0xe39c5e4f9ffd0d2e),
    ("hot.markov", 0xbd4bcd845b67479c),
    ("updates.upd", 0x5d11092919ed408a),
    ("hot.ref", 0xbc4439baeb68b9bd),
    ("cold.ref", 0xd4304bdd4b21af1f),
];

/// FNV-1a hashes of the generated input files of a pinned data seed, and
/// of the cold reference estimates (`*.ref`, one line per pool query:
/// the estimate's bits in hex, or `none`) the correctness gate compares
/// served estimates against.
pub fn hashes(data_seed: u64) -> Option<&'static [(&'static str, u64)]> {
    match data_seed {
        1 => Some(SEED_1),
        2 => Some(SEED_2),
        _ => None,
    }
}

/// hot_zipf: fixed open-loop estimate rate (requests per second).
pub const HOT_RATE: f64 = 8000.0;
/// hot_zipf: the sustained-rate ladder, `LADDER_BASE * LADDER_STEP^k`
/// for `k < LADDER_RUNGS` (steps 8% apart).
pub const LADDER_BASE: f64 = 6000.0;
pub const LADDER_STEP: f64 = 1.08;
pub const LADDER_RUNGS: usize = 30;
/// update_mix: the working set each commit cycle reads back, the
/// hottest queries of the hot pool's popularity order. After a commit
/// every read of it rebuilds its estimate from the recounted catalog
/// (a stale cache miss).
pub const UPDATE_POOL: usize = 250;
