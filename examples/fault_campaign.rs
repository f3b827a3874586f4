//! Fault-injection campaign over the gate-level datapaths.
//!
//! Sweeps the classical single-stuck-at universe (every node stuck at 0
//! and stuck at 1) over the 8-bit ripple-carry adder, classifies each
//! injection against a golden run, then prints the per-fault breakdown
//! for the carry chain and a summary across all five standard datapath
//! targets. Demonstrates the robustness contract: every fault — including
//! ones that send the simulator into oscillation — is *classified*, never
//! a panic.
//!
//! Run with: `cargo run --release --example fault_campaign`

use lowvolt::circuit::faults::{
    run_campaign_resilient, standard_targets, stuck_at_universe, CampaignOptions, CampaignReport,
    FaultOutcome, FaultTarget, GateFault,
};
use lowvolt::circuit::stimulus::PatternSource;
use lowvolt::circuit::CircuitError;
use lowvolt::exec::ExecPolicy;

/// One campaign with default options: nothing is journaled, cached or
/// skipped, so every fault ends up in the report.
fn campaign(
    policy: &ExecPolicy,
    target: &FaultTarget,
    faults: &[GateFault],
    src: &mut PatternSource,
    vectors: usize,
) -> Result<CampaignReport, CircuitError> {
    let run = run_campaign_resilient(
        policy,
        lowvolt::obs::noop(),
        target,
        faults,
        src,
        vectors,
        CampaignOptions::default(),
    )?;
    run.report().ok_or(CircuitError::Internal {
        detail: "an uninterrupted campaign left faults unresolved",
    })
}

fn main() -> Result<(), CircuitError> {
    // Injections are partitioned over LOWVOLT_THREADS workers (default:
    // all cores); the report is bit-identical for any thread count.
    let policy = ExecPolicy::from_env();
    println!("running with {} worker thread(s)\n", policy.threads());

    // ---- the 8-bit adder, in depth ----
    let targets = standard_targets(8)?;
    let adder = &targets[0];
    let faults = stuck_at_universe(&adder.netlist);
    let mut src = PatternSource::random(adder.inputs.len(), 1996)?;
    let report = campaign(&policy, adder, &faults, &mut src, 64)?;
    println!("== single-stuck-at sweep, 8-bit ripple-carry adder ==");
    print!("{report}");

    // Show what a corrupted carry chain looks like, node by node.
    println!("\nsample corrupted-output faults:");
    let mut shown = 0;
    for r in &report.reports {
        if matches!(r.outcome, FaultOutcome::Corrupted) {
            if let GateFault::NodeStuckAt { node, .. } = r.fault {
                println!(
                    "  {:30} ({})",
                    r.fault.to_string(),
                    adder.netlist.node_name(node)
                );
                shown += 1;
                if shown == 8 {
                    break;
                }
            }
        }
    }

    // Harness-level faults: an undriven and an inverted input column.
    let harness = [
        GateFault::InputX { input_index: 0 },
        GateFault::StimulusBitFlip { input_index: 0 },
    ];
    let mut src = PatternSource::random(adder.inputs.len(), 7)?;
    let hr = campaign(&ExecPolicy::serial(), adder, &harness, &mut src, 64)?;
    println!("\nharness faults on input column 0:");
    for r in &hr.reports {
        println!("  {:30} -> {}", r.fault.to_string(), r.outcome.label());
    }

    // ---- summary over all five standard datapaths ----
    println!("\n== stuck-at coverage across the standard targets (width 4) ==");
    for target in &standard_targets(4)? {
        let faults = stuck_at_universe(&target.netlist);
        let mut src = PatternSource::random(target.inputs.len(), 42)?;
        let report = campaign(&policy, target, &faults, &mut src, 32)?;
        print!("{report}");
    }
    println!("\nevery fault above was classified — zero panics by construction.");
    Ok(())
}
