//! The parallel engine's core guarantee, end to end: a fault campaign
//! partitioned over worker threads produces a report **bit-identical**
//! to the serial sweep, for any thread count.

use lowvolt_circuit::faults::{
    run_campaign_resilient, standard_targets, stuck_at_universe, CampaignOptions, CampaignReport,
    FaultTarget,
};
use lowvolt_circuit::stimulus::PatternSource;
use lowvolt_exec::ExecPolicy;

fn campaign(
    policy: &ExecPolicy,
    target: &FaultTarget,
    src: &mut PatternSource,
    vectors: usize,
) -> CampaignReport {
    let faults = stuck_at_universe(&target.netlist);
    run_campaign_resilient(
        policy,
        lowvolt_obs::noop(),
        target,
        &faults,
        src,
        vectors,
        CampaignOptions::default(),
    )
    .expect("campaign")
    .report()
    .expect("an uninterrupted campaign resolves every fault")
}

fn serial_reports(width: usize, vectors: usize) -> Vec<CampaignReport> {
    let targets = standard_targets(width).expect("standard targets build");
    targets
        .iter()
        .map(|target| {
            let mut src = PatternSource::random(target.inputs.len(), 0xD5EED).expect("stimulus");
            campaign(&ExecPolicy::serial(), target, &mut src, vectors)
        })
        .collect()
}

#[test]
fn campaign_identical_for_any_thread_count() {
    let width = 4;
    let vectors = 8;
    let serial = serial_reports(width, vectors);
    let targets = standard_targets(width).expect("standard targets build");
    for threads in [1, 2, 3, 8] {
        let policy = ExecPolicy::with_threads(threads);
        for (target, expected) in targets.iter().zip(&serial) {
            let mut src = PatternSource::random(target.inputs.len(), 0xD5EED).expect("stimulus");
            let got = campaign(&policy, target, &mut src, vectors);
            // Structural equality: same faults in the same order with the
            // same classifications…
            assert_eq!(&got, expected, "threads = {threads}, {}", target.name);
            // …and the rendered summary matches byte for byte.
            assert_eq!(
                got.to_string(),
                expected.to_string(),
                "threads = {threads}, {}",
                target.name
            );
        }
    }
}

#[test]
fn campaign_default_policy_matches_serial() {
    // Whatever the machine's parallelism, the env-derived default policy
    // must agree with the serial reference.
    let targets = standard_targets(2).expect("standard targets build");
    let target = &targets[0];
    let mut src = PatternSource::random(target.inputs.len(), 7).expect("stimulus");
    let serial = campaign(&ExecPolicy::serial(), target, &mut src, 4);
    let mut src = PatternSource::random(target.inputs.len(), 7).expect("stimulus");
    let parallel = campaign(&ExecPolicy::from_env(), target, &mut src, 4);
    assert_eq!(serial, parallel);
}
