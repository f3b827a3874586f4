//! The compiled campaign's multi-range path: a fault universe longer
//! than one work item's fault range splits every stimulus word into
//! several (word, fault range) items. Splitting must never show in the
//! results — the full-universe run equals runs over fault sub-slices
//! that each fit one range (the single-range path, the oracle here), at
//! any thread count and across an interruption and resume — and a
//! journal written with one record per whole word is recomputed, not
//! misread.

use std::path::PathBuf;

use lowvolt_circuit::compiled::{campaign_items, run_campaign_packed};
use lowvolt_circuit::faults::{
    stuck_at_universe, CampaignOptions, FaultReport, FaultTarget, GateFault, ResilientCampaign,
};
use lowvolt_circuit::persist::encode_word_classes;
use lowvolt_circuit::stimulus::PatternSource;
use lowvolt_exec::{CheckpointJournal, CheckpointSpec, ExecPolicy};
use lowvolt_io::{generate, GeneratorConfig};

const SEED: u64 = 0x5EED;
/// Two stimulus words, the second partial.
const VECTORS: usize = 100;
/// Faults per sub-slice of the oracle runs: well inside one range.
const SLICE: usize = 8_192;

/// The 10k-gate generated netlist the CLI builds with `--generate 10000
/// --seed 42`: 20,034 stuck-at faults, so each word is two ranges.
fn generated_target() -> FaultTarget {
    let c = generate(&GeneratorConfig::new(10_000, 42)).expect("generates");
    FaultTarget {
        name: c.name,
        netlist: c.netlist,
        inputs: c.inputs,
        outputs: c.outputs,
        clock: c.clock,
    }
}

fn run(
    target: &FaultTarget,
    faults: &[GateFault],
    threads: usize,
    checkpoint: Option<CheckpointSpec<'_>>,
) -> ResilientCampaign {
    let mut stimulus = PatternSource::random(target.inputs.len(), SEED).expect("stimulus");
    run_campaign_packed(
        &ExecPolicy::with_threads(threads),
        lowvolt_obs::noop(),
        target,
        faults,
        &mut stimulus,
        VECTORS,
        CampaignOptions {
            checkpoint,
            ..CampaignOptions::default()
        },
    )
    .expect("packed campaign")
}

fn resolved(run: &ResilientCampaign) -> Vec<FaultReport> {
    run.reports
        .iter()
        .map(|r| r.clone().expect("resolved fault"))
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lowvolt-ranges-{name}-{}", std::process::id()));
    p
}

/// Runs against the journal at `path` (resuming it), running at most
/// `cap` new items.
fn run_journaled(
    target: &FaultTarget,
    faults: &[GateFault],
    path: &PathBuf,
    cap: Option<usize>,
    threads: usize,
) -> ResilientCampaign {
    let (mut journal, replay) = CheckpointJournal::resume(path).expect("journal");
    let completed = replay.completed();
    run(
        target,
        faults,
        threads,
        Some(CheckpointSpec {
            journal: &mut journal,
            completed: &completed,
            index_base: 0,
            max_new_items: cap,
        }),
    )
}

#[test]
fn full_universe_equals_single_range_slices_at_any_thread_count() {
    let target = generated_target();
    let faults = stuck_at_universe(&target.netlist);
    assert!(faults.len() > 16_384, "{} faults", faults.len());
    let items = campaign_items(faults.len(), VECTORS);
    assert_eq!(items, 2 * faults.len().div_ceil(16_384));

    let oracle: Vec<FaultReport> = faults
        .chunks(SLICE)
        .flat_map(|slice| {
            let part = run(&target, slice, 1, None);
            assert_eq!(part.computed, VECTORS.div_ceil(64), "one range per word");
            resolved(&part)
        })
        .collect();
    // The slices must exercise every class the fold distinguishes.
    let labels: Vec<&str> = oracle.iter().map(|r| r.outcome.label()).collect();
    assert!(labels.contains(&"corrupted") && labels.contains(&"masked"));

    for threads in [1, 2, 8] {
        let full = run(&target, &faults, threads, None);
        assert_eq!(full.computed, items, "threads {threads}");
        assert_eq!(resolved(&full), oracle, "threads {threads}");
    }
}

#[test]
fn interrupted_multi_range_campaign_resumes_identically() {
    let target = generated_target();
    let faults = stuck_at_universe(&target.netlist);
    let items = campaign_items(faults.len(), VECTORS);
    let reference = resolved(&run(&target, &faults, 2, None));
    for k in [1, 2, items - 1] {
        let path = tmp(&format!("resume-{k}"));
        let _ = std::fs::remove_file(&path);
        let partial = run_journaled(&target, &faults, &path, Some(k), 1);
        assert!(partial.interrupted());
        assert_eq!(partial.computed, k);
        assert_eq!(partial.skipped, items - k);
        assert!(
            partial.reports.iter().all(Option::is_none),
            "an interrupted run resolves no fault (K = {k})"
        );
        let resumed = run_journaled(&target, &faults, &path, None, 8);
        assert!(!resumed.interrupted());
        assert_eq!(resumed.replayed, k);
        assert_eq!(resumed.computed, items - k);
        assert!(resumed.warnings.is_empty(), "{:?}", resumed.warnings);
        assert_eq!(resolved(&resumed), reference, "K = {k}");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn word_sized_journal_records_are_recomputed_not_misread() {
    let target = generated_target();
    let faults = stuck_at_universe(&target.netlist);
    let items = campaign_items(faults.len(), VECTORS);
    let words = VECTORS.div_ceil(64);
    let reference = resolved(&run(&target, &faults, 2, None));
    // One record per whole word, every fault "corrupted": a journal
    // written under a one-item-per-word plan.
    let path = tmp("word-sized");
    let mut journal = CheckpointJournal::create(&path).expect("journal");
    let bogus = encode_word_classes(&vec![2u8; faults.len()]);
    for w in 0..words {
        journal
            .append(w as u64, &bogus, lowvolt_obs::noop())
            .expect("append");
    }
    drop(journal);
    let resumed = run_journaled(&target, &faults, &path, None, 2);
    assert_eq!(resumed.replayed, 0);
    assert_eq!(resumed.computed, items);
    assert_eq!(resumed.warnings.len(), words, "{:?}", resumed.warnings);
    assert!(resumed
        .warnings
        .iter()
        .all(|w| w.contains("recomputing item")));
    assert_eq!(resolved(&resumed), reference);
    let _ = std::fs::remove_file(&path);
}
