//! The scenario runner's output must be independent of the worker thread
//! count (records are keyed by grid position, not completion order), and
//! manifests must round-trip through their JSON format.

use std::sync::Arc;

use wmlp_algos::PolicyRegistry;
use wmlp_core::instance::MlInstance;
use wmlp_sim::runner::{Manifest, Runner, Scenario};
use wmlp_workloads::{zipf_trace, LevelDist};

fn grid() -> Vec<Scenario> {
    let inst = Arc::new(MlInstance::weighted_paging(4, vec![16, 8, 8, 4, 2, 2, 1, 1]).unwrap());
    let trace = Arc::new(zipf_trace(&inst, 1.0, 400, LevelDist::Top, 9));
    vec![
        Scenario::new("grid", inst.clone(), trace.clone()).policies([
            "lru",
            "fifo",
            "landlord",
            "waterfill",
        ]),
        Scenario::new("grid", inst, trace)
            .policies(["marking", "randomized", "randomized(beta=2.5)"])
            .seeds(0..4),
    ]
}

fn run_grid() -> Manifest {
    Runner::new(PolicyRegistry::standard())
        .run("determinism", &grid())
        .expect("grid must run")
}

/// `RAYON_NUM_THREADS=1` and the default worker count must produce
/// byte-identical canonical manifests (wall times zeroed).
#[test]
fn manifest_is_byte_identical_across_thread_counts() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let single = run_grid().canonical().to_json();
    std::env::remove_var("RAYON_NUM_THREADS");
    let parallel = run_grid().canonical().to_json();
    assert_eq!(single, parallel);
    // Sanity: the grid actually produced every cell.
    assert_eq!(run_grid().runs.len(), 4 + 3 * 4);
}

/// `Manifest::write` output parses back to an equal manifest.
#[test]
fn manifest_round_trips_through_disk() {
    let m = run_grid().canonical();
    assert_eq!(Manifest::from_json(&m.to_json()).expect("parse"), m);

    let dir = std::env::temp_dir().join("wmlp-runner-determinism-test");
    let path = m.write(&dir).expect("write manifest");
    let text = std::fs::read_to_string(&path).expect("read back");
    assert_eq!(Manifest::from_json(&text).expect("parse file"), m);
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}
