//! Exact allocation counts of the per-request paths.
//!
//! Timing drifts between machines and runs; the number of heap
//! allocations a request makes does not. A counting global allocator
//! tallies every allocation and reallocation of the calling thread
//! (a const-initialised thread-local, so tests running in parallel do not
//! see each other's allocations), and each test pins a count the code's
//! docs claim:
//!
//! * `SimStorage`'s `get`/`put`/`promote`/`flush` allocate nothing once
//!   its slabs have grown;
//! * `SimSession::step_batch` allocates nothing per request once its
//!   batch log has grown, under every policy in the standard registry —
//!   which also covers the dense policy structures and `RunCounters`;
//! * `SimSession::step_batch_store` allocates exactly one `Vec` per read
//!   (the value that becomes the read's reply) and nothing else;
//! * `Histogram::record` allocates nothing;
//! * `weighted_paging_opt_with` allocates nothing on a scratch that has
//!   already solved a trace at least as long.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wmlp::algos::PolicyRegistry;
use wmlp::core::instance::{MlInstance, Request};
use wmlp::core::policy::OnlinePolicy;
use wmlp::core::storage::{SimStorage, Storage};
use wmlp::flow::{weighted_paging_opt_with, PagingOptScratch};
use wmlp::sim::engine::{BatchLog, SimSession, StoreRequest};
use wmlp::sim::stats::Histogram;
use wmlp::workloads::{ml_rows_geometric, zipf_trace, LevelDist};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations.
struct Counting;

fn count() {
    // `try_with`: a thread being torn down still gets its memory.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// lint:allow(U1): a global allocator is an `unsafe` trait; both methods
// forward their caller's contract to `System` unchanged (the provided
// `alloc_zeroed` and `realloc` allocate through `alloc`, so they count).
unsafe impl GlobalAlloc for Counting {
    // lint:allow(U1): the caller upholds `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    // lint:allow(U1): `ptr` came from `alloc` above, i.e. from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// SplitMix64: the tests' seeded RNG.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }
}

const VALUE_SIZE: usize = 16;

/// A `SimStorage` whose slabs have grown to full size: every page was
/// written back once (a backing value each) and warm at the same time as
/// every other (a warm buffer each), and all are cold again.
fn grown_sim_storage(n: usize, levels: u8) -> SimStorage {
    let mut s = SimStorage::new(n, levels, VALUE_SIZE);
    for p in 0..n as u32 {
        s.put(p, &[0; VALUE_SIZE]).unwrap();
    }
    for p in 0..n as u32 {
        s.flush(p).unwrap();
    }
    for p in 0..n as u32 {
        s.promote(p, 1).unwrap();
    }
    for p in 0..n as u32 {
        s.flush(p).unwrap();
    }
    s
}

#[test]
fn sim_storage_get_put_promote_flush_allocate_nothing_once_grown() {
    const N: u32 = 256;
    const LEVELS: u8 = 3;
    let mut s = grown_sim_storage(N as usize, LEVELS);
    let value = [7u8; VALUE_SIZE];
    let mut out = Vec::with_capacity(VALUE_SIZE);

    let mut rng = Rng(11);
    let mut ops = [0u64; 4];
    let n = allocations(|| {
        for _ in 0..20_000 {
            let page = rng.below(u64::from(N)) as u32;
            let op = rng.below(4) as usize;
            ops[op] += 1;
            match op {
                0 => {
                    out.clear();
                    s.get(page, &mut out).unwrap();
                }
                1 => s.put(page, &value).unwrap(),
                2 => s
                    .promote(page, 1 + rng.below(u64::from(LEVELS)) as u8)
                    .unwrap(),
                _ => {
                    s.flush(page).unwrap();
                }
            }
        }
    });
    assert!(ops.iter().all(|&c| c > 4_000), "every op ran: {ops:?}");
    assert_eq!(n, 0, "steady-state SimStorage ops allocated");
}

/// The benchmark's main instance, scaled down: 3 levels, k = 128.
fn instance() -> MlInstance {
    MlInstance::from_rows(128, ml_rows_geometric(2048, 3, 16, 256, 4, 7)).unwrap()
}

fn landlord(inst: &MlInstance) -> Box<dyn OnlinePolicy> {
    PolicyRegistry::standard()
        .build("landlord", inst, 1)
        .unwrap()
}

const BATCH: usize = 64;

#[test]
fn step_batch_allocates_nothing_per_request_once_grown() {
    let inst = instance();
    // The engine's step log grows to the largest step seen so far, and
    // `randomized`'s steps vary in size (cascading demotions), so on this
    // stream its log last grows between 20 000 and 40 000 requests.
    let trace = zipf_trace(&inst, 0.9, 60_000, LevelDist::Uniform, 3);
    let (warm, measured) = trace.split_at(40_000);
    let registry = PolicyRegistry::standard();
    for name in registry.names() {
        let mut policy = registry.build(name, &inst, 1).unwrap();
        let mut session = SimSession::new(&inst);
        let mut log = BatchLog::new();
        for chunk in warm.chunks(BATCH) {
            session.step_batch(&inst, policy.as_mut(), chunk, &mut log);
        }
        let n = allocations(|| {
            for chunk in measured.chunks(BATCH) {
                session.step_batch(&inst, policy.as_mut(), chunk, &mut log);
                assert!(log.outcomes().iter().all(Result::is_ok));
            }
        });
        assert_eq!(n, 0, "{name}: {} requests allocated", measured.len());
    }
}

#[test]
fn step_batch_store_allocates_one_vec_per_read() {
    let inst = instance();
    let trace = zipf_trace(&inst, 0.9, 40_000, LevelDist::Uniform, 4);
    let mut rng = Rng(5);
    let value = [9u8; VALUE_SIZE];
    // Half the requests write; a write carries no reply value.
    let reqs: Vec<StoreRequest<'_>> = trace
        .iter()
        .map(|&req: &Request| StoreRequest {
            req,
            put: (rng.below(2) == 0).then_some(&value[..]),
        })
        .collect();
    let (warm, measured) = reqs.split_at(20_000);
    let mut policy = landlord(&inst);
    let mut session = SimSession::new(&inst);
    let mut store = grown_sim_storage(inst.n(), inst.max_levels());
    let mut log = BatchLog::new();
    for chunk in warm.chunks(BATCH) {
        session.step_batch_store(&inst, policy.as_mut(), chunk, &mut store, &mut log);
    }
    let reads = measured.iter().filter(|r| r.put.is_none()).count() as u64;
    let n = allocations(|| {
        for chunk in measured.chunks(BATCH) {
            session.step_batch_store(&inst, policy.as_mut(), chunk, &mut store, &mut log);
            assert!(log.outcomes().iter().all(Result::is_ok));
        }
    });
    assert!(reads > 9_000, "{reads} reads");
    assert_eq!(n, reads, "allocations for {reads} reads");
}

#[test]
fn histogram_record_allocates_nothing() {
    let mut h = Histogram::new();
    let mut rng = Rng(17);
    let n = allocations(|| {
        for i in 0..100_000u32 {
            // Spread the samples over every bucket range.
            h.record(rng.below(u64::MAX) >> (i % 64));
        }
    });
    assert_eq!(h.count(), 100_000);
    assert_eq!(n, 0, "recording allocated");
}

#[test]
fn warm_flow_opt_solves_allocate_nothing() {
    const N: u32 = 64;
    let mut rng = Rng(23);
    let weights = (0..N).map(|_| 1 + rng.below(64)).collect();
    let inst = MlInstance::weighted_paging(8, weights).unwrap();
    let trace: Vec<Request> = (0..2_000)
        .map(|_| Request::top(rng.below(u64::from(N)) as u32))
        .collect();
    let mut scratch = PagingOptScratch::new();
    let cold = weighted_paging_opt_with(&inst, &trace, &mut scratch);
    let mut warm = 0;
    let mut shorter = 0;
    let n = allocations(|| {
        warm = weighted_paging_opt_with(&inst, &trace, &mut scratch);
        shorter = weighted_paging_opt_with(&inst, &trace[..1_000], &mut scratch);
    });
    assert_eq!(warm, cold);
    assert!(0 < shorter && shorter < cold);
    assert_eq!(n, 0, "two warm solves allocated");
}
