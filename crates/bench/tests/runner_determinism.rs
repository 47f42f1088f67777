//! The scenario runner's output must be independent of the worker thread
//! count (records are keyed by grid position, not completion order), and
//! a manifest written to disk must hold exactly its JSON text.

use std::sync::Arc;

use wmlp_algos::runner::{run, Manifest, Scenario};
use wmlp_core::instance::MlInstance;
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
    run("determinism", &grid()).expect("grid must run")
}

/// Brackets the probe's manifest in its child's stdout.
const BEGIN: &str = "<<manifest>>";
const END: &str = "<</manifest>>";

/// The canonical manifest [`manifest_probe`] prints when it runs alone in
/// a child process of this test binary under `RAYON_NUM_THREADS=threads`.
/// Alone in its process, the grid has the whole worker budget at every
/// call: no other test's grid holds a helper slot, and no other test's
/// `RAYON_NUM_THREADS` is in force.
fn manifest_in_child(threads: &str) -> String {
    let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args(["manifest_probe", "--exact", "--ignored", "--nocapture"])
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("run the probe");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(out.status.success(), "probe failed: {stdout}");
    let (_, rest) = stdout.split_once(BEGIN).expect("probe printed a manifest");
    let (manifest, _) = rest.split_once(END).expect("manifest end marker");
    manifest.to_string()
}

/// Prints the grid's canonical manifest; run by
/// [`manifest_is_byte_identical_across_thread_counts`] in child processes.
#[test]
#[ignore = "a probe: its caller runs it in a child process"]
fn manifest_probe() {
    println!("{BEGIN}{}{END}", run_grid().canonical().to_json());
}

/// One worker and four workers must produce byte-identical canonical
/// manifests (wall times zeroed). Each side runs in its own process with
/// the worker budget set explicitly, so the four-worker side really has
/// three helpers to run on, whatever the machine's core count and
/// whatever other tests of this binary are running.
#[test]
fn manifest_is_byte_identical_across_thread_counts() {
    let single = manifest_in_child("1");
    let parallel = manifest_in_child("4");
    assert_eq!(single, parallel);
    // Sanity: the grid actually produced every cell.
    assert_eq!(run_grid().runs.len(), 4 + 3 * 4);
    assert!(single.contains("\"randomized(beta=2.5)\""), "{single}");
}

/// `Manifest::write` writes exactly `Manifest::to_json`, byte for byte.
#[test]
fn manifest_round_trips_through_disk() {
    let m = run_grid().canonical();
    let dir = std::env::temp_dir().join("wmlp-runner-determinism-test");
    let path = m.write(&dir).expect("write manifest");
    let text = std::fs::read_to_string(&path).expect("read back");
    assert_eq!(text, m.to_json());
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}
