//! Pin of the seeded trace generators' output.
//!
//! Every experiment and every benchmark workload gets its requests from
//! these generators, so a change to how they draw — the Zipf sampler's
//! lookup, `gen_range`'s rejection step, where a page's level count is
//! read from — must not move a single `(page, level)`. Each digest folds
//! a whole trace (or a prefix of the benchmark's much longer ones; the
//! generators are sequential, so a prefix is the full trace's start).
//! The digests were recorded before the Zipf sampler moved from a binary
//! search over its CDF to a guide table, and must hold, unmodified,
//! across any change that claims "same traces".
//!
//! The adaptive adversary's traces are pinned too: they depend on the
//! policy's decisions and on how the adversary steps it, so a change to
//! either that claims "same behaviour" must leave them green.

use wmlp::algos::PolicyRegistry;
use wmlp::core::instance::{MlInstance, Request};
use wmlp::core::writeback::{RwOp, WbInstance, WbRequest};
use wmlp::sim::adversary::adaptive_trace;
use wmlp::workloads::wb::wb_zipf_trace;
use wmlp::workloads::{
    ml_rows_geometric, phased_trace, weights_pow2_classes, zipf_trace, LevelDist,
};

/// Requests of each benchmark-shaped trace: a prefix, so the debug
/// tier-1 run stays quick.
const PREFIX: usize = 200_000;

/// FNV-1a over the bytes of each request.
fn digest(reqs: impl IntoIterator<Item = (u32, u8)>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut n = 0u64;
    for (page, level) in reqs {
        for b in page.to_le_bytes().into_iter().chain([level]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        n += 1;
    }
    h ^ n
}

fn ml(trace: &[Request]) -> u64 {
    digest(trace.iter().map(|r| (r.page, r.level)))
}

fn wb(trace: &[WbRequest]) -> u64 {
    digest(
        trace
            .iter()
            .map(|r| (r.page, u8::from(r.op == RwOp::Write))),
    )
}

/// The instance `wmlp-serve` (and so the benchmark) builds from
/// `--pages`, `--levels`, `--k` and `--weight-seed 7`.
fn serving_instance(pages: usize, levels: u8, k: usize) -> MlInstance {
    MlInstance::from_rows(k, ml_rows_geometric(pages, levels, 16, 256, 4, 7)).unwrap()
}

/// The benchmark's generator inputs (`pipe-mem`/`open-mem`/`rtt-mem`,
/// `store-writeback`, `policy-randomized`): Zipf 0.9, two trace seeds.
#[test]
fn benchmark_zipf_traces_are_pinned() {
    let shapes = [
        (serving_instance(16_384, 3, 1024), LevelDist::Uniform),
        (serving_instance(16_384, 2, 1024), LevelDist::TopProb(0.5)),
        (serving_instance(1024, 2, 128), LevelDist::Uniform),
    ];
    let got: Vec<u64> = shapes
        .iter()
        .flat_map(|(inst, dist)| {
            [1, 204].map(|seed| ml(&zipf_trace(inst, 0.9, PREFIX, *dist, seed)))
        })
        .collect();
    assert_eq!(
        got,
        [
            7260250535827229049,
            12416147564456778047,
            7124042676941472486,
            17323443594775630727,
            17381272750189895034,
            12522100470191700503,
        ]
    );
}

/// Two E-suite shapes: classic weighted paging (ℓ = 1, power-of-two
/// weight classes) at level 1, as E10 (α = 1.0) and E9 (α = 1.2) draw
/// them.
#[test]
fn experiment_zipf_traces_are_pinned() {
    let e10 = MlInstance::weighted_paging(16, weights_pow2_classes(64, 5, 13)).unwrap();
    let e9 = MlInstance::weighted_paging(16, weights_pow2_classes(128, 6, 9)).unwrap();
    let got = [
        ml(&zipf_trace(&e10, 1.0, 4000, LevelDist::Top, 31)),
        ml(&zipf_trace(&e9, 1.2, 12_000, LevelDist::Top, 22)),
    ];
    assert_eq!(got, [4388944756674551948, 17149883057226978606]);
}

/// The writeback generator (E8's Zipf rows) and the phased working-set
/// generator, which draws pages and levels through `gen_range`.
#[test]
fn writeback_and_phased_traces_are_pinned() {
    let wb_inst = WbInstance::uniform(16, 64, 16, 1).unwrap();
    let e9 = MlInstance::weighted_paging(16, weights_pow2_classes(128, 6, 9)).unwrap();
    let multi = serving_instance(1024, 3, 128);
    let got = [
        wb(&wb_zipf_trace(&wb_inst, 1.0, 12_000, 0.3, 0.9, 0.05, 77)),
        ml(&phased_trace(&e9, 8, 32, 12_000, LevelDist::Top, 23)),
        ml(&phased_trace(&multi, 5, 300, 50_000, LevelDist::Uniform, 9)),
    ];
    assert_eq!(
        got,
        [
            12493141228719032544,
            12826088270041728827,
            6628183581248623025,
        ]
    );
}

/// E1c's adaptive adversary: waterfill, lru and landlord at `k` ∈ {4, 8,
/// 16} on `k + 1` unweighted pages, `80·k` requests each.
#[test]
fn adaptive_adversary_traces_are_pinned() {
    let registry = PolicyRegistry::standard();
    let got: Vec<u64> = [4usize, 8, 16]
        .into_iter()
        .flat_map(|k| {
            let inst = MlInstance::unweighted_paging(k, k + 1).unwrap();
            let registry = &registry;
            ["waterfill", "lru", "landlord"].map(move |name| {
                let mut policy = registry.build(name, &inst, 0).unwrap();
                ml(&adaptive_trace(&inst, policy.as_mut(), 80 * k).unwrap())
            })
        })
        .collect();
    assert_eq!(
        got,
        [
            6625348092896946565,
            10310754284041568549,
            10310754284041568549,
            13313462351957132645,
            17362948143521065005,
            17362948143521065005,
            16359424957199733701,
            4493906858936863065,
            4493906858936863065,
        ]
    );
}
