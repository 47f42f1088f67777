//! **E10 — ablations of the paper's parameter choices.**
//!
//! (a) The rounding amplification `β` (paper: `4 log k`). Small `β` makes
//! the local rule too timid, shifting work onto reset evictions (whose
//! expected cost Lemma 4.12 bounds only when `β = Ω(log k)`); large `β`
//! over-evicts. Expected shape: reset share falls monotonically in `β`;
//! total cost has a shallow optimum around the paper's choice.
//!
//! (b) The fractional update's additive term `η` (paper: `1/k`). Small
//! `η` freezes fully-present pages (`x ≈ 0` grows at rate `η/w`, so cold
//! pages are slow to leave), large `η` evicts aggressively regardless of
//! presence, hurting heavy pages. Expected shape: cost is minimized near `η = 1/k`
//! within a modest factor.
//!
//! (c) Lemma 4.5: quantizing the fractional stream to multiples of `δ`
//! should cost at most a factor 2, for `δ` down to the paper's `1/(4k)`.
//!
//! All three parts run on one workload. The β sweep's `(β, seed)` cells
//! share its trace and the paper's `η`, so all 30 run as one seed group
//! (`run_group`): one fractional pass feeds every cell's rounding. Each
//! cell is recorded under the registry spec that builds the same policy
//! (`randomized(eta=…,beta=…)`) and also yields the policy-internal reset
//! telemetry. That pass is also E10b's `η = 1/k` stream and the stream
//! E10c quantizes, so those costs are folded from it; E10b's other `η`s
//! each run their own fractional pass beside the group.

use std::sync::Arc;

use wmlp_algos::rounding::default_beta;
use wmlp_algos::runner::{run_group, Manifest, RunRecord, Scenario};
use wmlp_algos::{FracMultiplicative, QuantizedStream};
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::policy::FracDelta;
use wmlp_sim::frac_engine::{run_fractional, FracFold};
use wmlp_sim::sweep::par_grid;
use wmlp_workloads::{weights_pow2_classes, zipf_trace, LevelDist};

use super::{seed_mean_stdev, ExperimentOutput};
use crate::table::{fr, Table};

const SEEDS: usize = 6;

/// The cache size of every part.
const K: usize = 16;

/// E10b's `η·k` values; the paper's `η = 1/k` is at [`PAPER`].
const ETA_MULTS: [f64; 6] = [0.1, 0.5, 1.0, 2.0, 10.0, 16.0];
const PAPER: usize = 2;

/// Invariant-check cadence of the fractional folds.
const CHECK_EVERY: usize = 256;

/// Run E10: E10b's `η`s as one grid, the paper's among them running
/// E10a's seed group (and folding E10c's grids), so that the other `η`s
/// run beside the group rather than after it.
pub fn run() -> ExperimentOutput {
    let mut streams = eta_streams();
    let eta = eta_table(&streams);
    let paper = streams[PAPER].1.take().expect("the paper's stream");
    let quantization = quantization_table(&paper);
    let (beta, records) = paper.beta;
    ExperimentOutput::new("e10", vec![beta, eta, quantization], records)
}

/// The shared workload: `k = 16`, 64 pages in five weight classes, 4 000
/// Zipf requests.
fn workload() -> (Arc<MlInstance>, Arc<Vec<Request>>) {
    let inst = Arc::new(MlInstance::weighted_paging(K, weights_pow2_classes(64, 5, 13)).unwrap());
    let trace = Arc::new(zipf_trace(&inst, 1.0, 4000, LevelDist::Top, 31));
    (inst, trace)
}

/// What the paper's `η = 1/k` stream gives.
struct PaperStream {
    /// E10a's table and records.
    beta: (Table, Vec<RunRecord>),
    /// The fractional cost of the stream.
    frac: f64,
    /// The fractional cost of its quantized form, per grid of
    /// [`QUANT_DELTAS`].
    quantized: Vec<f64>,
}

/// Per `η·k` of [`ETA_MULTS`], the fractional cost of its stream, and for
/// the paper's `η` what that stream gave.
fn eta_streams() -> Vec<(f64, Option<PaperStream>)> {
    let (inst, trace) = workload();
    let jobs: Vec<usize> = (0..ETA_MULTS.len()).collect();
    par_grid(&jobs, |&i| {
        if i == PAPER {
            let paper = paper_stream(&inst, &trace);
            return (paper.frac, Some(paper));
        }
        let mut alg = FracMultiplicative::with_eta(&inst, ETA_MULTS[i] / K as f64);
        let cost = run_fractional(&inst, &trace, &mut alg, CHECK_EVERY)
            .expect("feasible")
            .cost;
        (cost, None)
    })
}

/// E10c's grids `δ`; the paper's is `1/(4k)`.
const QUANT_DELTAS: [f64; 4] = [
    1.0 / (64.0 * K as f64),
    1.0 / (4.0 * K as f64),
    1.0 / K as f64,
    0.25,
];

fn quantization_table(paper: &PaperStream) -> Table {
    let mut t = Table::new(
        "E10c: quantization ablation (Lemma 4.5; paper delta = 1/(4k))",
        &["delta", "frac cost", "quantized", "ratio"],
    );
    // Every ratio is taken against the unquantized stream.
    let raw = paper.frac;
    for (delta, &cost) in QUANT_DELTAS.iter().zip(&paper.quantized) {
        t.row(vec![fr(*delta), fr(raw), fr(cost), fr(cost / raw)]);
    }
    t
}

/// The β sweep's cells, `(β/β0, β, spec)`, for the paper's `η = 1/k`.
/// `{}` on f64 prints the shortest round-trip representation, so each
/// spec re-parses to exactly its β.
pub(crate) fn beta_specs(k: usize) -> Vec<(f64, f64, String)> {
    let eta = 1.0 / k as f64;
    [0.25f64, 0.5, 1.0, 2.0, 4.0]
        .into_iter()
        .map(|mult| {
            let beta = (default_beta(k) * mult).max(1.01);
            (mult, beta, format!("randomized(eta={eta},beta={beta})"))
        })
        .collect()
}

/// E10a's seed group on the workload, folding the fractional cost of its
/// stream and of the stream on each of E10c's grids as it goes.
fn paper_stream(inst: &Arc<MlInstance>, trace: &Arc<Vec<Request>>) -> PaperStream {
    let mut t = Table::new(
        "E10a: beta ablation (k=16, l=1 Zipf; paper beta = 4 ln k)",
        &[
            "beta/beta0",
            "beta",
            "rnd(mean)",
            "rnd(sd)",
            "resets",
            "reset share",
        ],
    );
    let rows: Vec<(f64, f64, String, Scenario)> = beta_specs(K)
        .into_iter()
        .map(|(mult, beta, spec)| {
            let sc = Scenario::new(format!("beta-x{mult}"), inst.clone(), trace.clone());
            (mult, beta, spec, sc)
        })
        .collect();
    let cells: Vec<(&Scenario, &str, u64)> = rows
        .iter()
        .flat_map(|(_, _, spec, sc)| (0..SEEDS as u64).map(move |seed| (sc, spec.as_str(), seed)))
        .collect();
    let mut frac = FracFold::new(inst, trace.len(), CHECK_EVERY);
    let mut grids: Vec<(QuantizedStream, FracFold)> = QUANT_DELTAS
        .into_iter()
        .map(|delta| {
            let fold = FracFold::new(inst, trace.len(), CHECK_EVERY);
            (QuantizedStream::new(inst, delta), fold)
        })
        .collect();
    let mut snapped = Vec::new();
    let mut observe = |t: usize, req: Request, deltas: &[FracDelta]| {
        frac.step(t, req, deltas).expect("feasible");
        for (grid, fold) in &mut grids {
            snapped.clear();
            grid.step(req, deltas, &mut snapped);
            fold.step(t, req, &snapped).expect("feasible");
        }
    };
    let (runs, resets): (Vec<_>, Vec<_>) = run_group(&cells, None, Some(&mut observe))
        .unwrap_or_else(|e| panic!("{e}"))
        .into_iter()
        .unzip();
    let m = Manifest {
        name: "e10a".into(),
        runs,
    };
    for ((mult, beta, spec, sc), resets) in rows.iter().zip(resets.chunks(SEEDS)) {
        let (mean, sd) = seed_mean_stdev(&m, &sc.label, spec);
        let n = resets.len() as f64;
        let reset_count = resets.iter().map(|&(count, _)| count as f64).sum::<f64>() / n;
        let reset_cost = resets.iter().map(|&(_, cost)| cost as f64).sum::<f64>() / n;
        t.row(vec![
            fr(*mult),
            fr(*beta),
            fr(mean),
            fr(sd),
            fr(reset_count),
            fr(reset_cost / mean),
        ]);
    }
    PaperStream {
        beta: (t, m.runs),
        frac: frac.finish().cost,
        quantized: grids
            .into_iter()
            .map(|(_, fold)| fold.finish().cost)
            .collect(),
    }
}

fn eta_table(streams: &[(f64, Option<PaperStream>)]) -> Table {
    let mut t = Table::new(
        "E10b: eta ablation (k=16, l=1 Zipf; paper eta = 1/k)",
        &["eta*k", "eta", "frac cost"],
    );
    for (&mult, (cost, _)) in ETA_MULTS.iter().zip(streams) {
        t.row(vec![fr(mult), fr(mult / K as f64), fr(*cost)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E10a's table and records, as `run` builds them.
    fn beta_ablation() -> (Table, Vec<RunRecord>) {
        let (inst, trace) = workload();
        paper_stream(&inst, &trace).beta
    }

    /// E10b's table, as `run` builds it.
    fn eta_ablation() -> Table {
        eta_table(&eta_streams())
    }

    /// E10c's table, as `run` builds it.
    fn quantization_ablation() -> Table {
        let (inst, trace) = workload();
        quantization_table(&paper_stream(&inst, &trace))
    }

    /// Each β spec builds exactly its `(η, β)`: E10a's records name the
    /// policy that ran.
    #[test]
    fn beta_specs_build_their_beta() {
        let k = 16;
        let inst = MlInstance::unweighted_paging(k, k + 1).unwrap();
        for (_, beta, spec) in beta_specs(k) {
            let params = wmlp_algos::registry::randomized_params(&spec, &inst);
            assert_eq!(params, Some((1.0 / k as f64, beta)), "{spec}");
        }
    }

    #[test]
    fn e10a_reset_share_decreases_in_beta() {
        let t = beta_ablation().0;
        let first: f64 = t.cell(0, 5).parse().unwrap();
        let last: f64 = t.cell(t.num_rows() - 1, 5).parse().unwrap();
        assert!(
            last <= first + 1e-9,
            "reset share should shrink as beta grows: {first} -> {last}"
        );
    }

    #[test]
    fn e10c_quantization_within_factor_two() {
        let t = quantization_ablation();
        for r in 0..t.num_rows() - 1 {
            // All but the deliberately coarse last grid stay within the
            // Lemma 4.5 factor.
            let ratio: f64 = t.cell(r, 3).parse().unwrap();
            assert!(
                (0.5..=2.0).contains(&ratio),
                "row {r}: quantization ratio {ratio}"
            );
        }
    }

    #[test]
    fn e10b_eta_matters() {
        let t = eta_ablation();
        let costs: Vec<f64> = (0..t.num_rows())
            .map(|r| t.cell(r, 2).parse().unwrap())
            .collect();
        assert!(costs.iter().all(|&c| c > 0.0));
        let max = costs.iter().cloned().fold(f64::MIN, f64::max);
        let min = costs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > min, "eta sweep must change the fractional cost");
    }
}
