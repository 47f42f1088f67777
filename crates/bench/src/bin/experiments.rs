//! The `experiments` binary: regenerates the E1–E11 evaluation tables.
//!
//! ```text
//! cargo run -p wmlp-bench --release --bin experiments -- all
//! cargo run -p wmlp-bench --release --bin experiments -- e3 e9
//! ```
//!
//! Tables are printed to stdout and written as CSV under
//! `target/experiments/`; each experiment's run manifest (per-run costs,
//! ledgers and engine counters as JSON) is written next to them. The
//! experiments run concurrently, but each one's output comes in id order,
//! as soon as it and every earlier id are done, and ends with an
//! `[eN] completed in …` line giving that experiment's own wall time.
//!
//! Every id is checked before any experiment runs: an unknown one exits 2
//! with one line on stderr and nothing on stdout. A CSV or manifest that
//! cannot be written is reported and the remaining experiments still run,
//! but the process exits 1.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use wmlp_bench::experiments::{experiment_id, run_experiment, ALL_IDS};
use wmlp_sim::sweep::par_each_ordered;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let named: Result<Vec<&str>, String> = args
        .iter()
        .filter(|a| *a != "all")
        .map(|a| experiment_id(a))
        .collect();
    let ids = match named {
        Ok(_) if args.is_empty() || args.iter().any(|a| a == "all") => ALL_IDS.to_vec(),
        Ok(ids) => ids,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from("target/experiments");
    let mut write_failed = false;
    // The experiments run side by side under the process's one worker
    // budget (a thread with no experiment left frees its slot for the
    // grids still running); each is reported, in id order, as soon as it
    // and every id before it are done.
    par_each_ordered(
        &ids,
        |&id| {
            let start = Instant::now();
            let out = run_experiment(id).expect("ids are validated up front");
            (out, start.elapsed())
        },
        |n, (out, took)| {
            let id = ids[n];
            for (i, table) in out.tables.iter().enumerate() {
                println!("{}", table.render());
                let slug = if out.tables.len() == 1 {
                    id.to_string()
                } else {
                    format!("{id}_{}", (b'a' + i as u8) as char)
                };
                match table.write_csv(&out_dir, &slug) {
                    Ok(path) => println!("[csv] {}", path.display()),
                    Err(e) => {
                        eprintln!("[csv] failed to write {slug}: {e}");
                        write_failed = true;
                    }
                }
            }
            match out.manifest.write(&out_dir) {
                Ok(path) => println!("[json] {}", path.display()),
                Err(e) => {
                    eprintln!("[json] failed to write {id}: {e}");
                    write_failed = true;
                }
            }
            println!("[{id}] completed in {took:.1?}\n");
        },
    );
    if write_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
