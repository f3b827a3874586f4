//! The `serve-mixed` request loop: one client, at most one request in
//! flight (closed loop), against a daemon `run.py` started.

use std::collections::btree_map::{BTreeMap, Entry};
use std::time::Instant;

use lowvolt_serve::client::{submit_line, SubmitOutcome};

use crate::workload::{read_expect, Workload};
use crate::{ms_since, JsonObj};

/// One finished request: its kind, round-trip time, and verdict.
struct Op {
    kind: usize,
    ms: f64,
    failure: Option<String>,
}

fn submit(addr: &str, line: &str) -> (f64, Result<SubmitOutcome, String>) {
    let t = Instant::now();
    let out = submit_line(addr, line, &mut |_| {}).map_err(|e| e.0);
    (ms_since(t), out)
}

/// Runs whole cycles until `seconds` have passed (at least one), then
/// checks every campaign payload against an in-process oracle for its
/// stimulus seed (cycle 0's oracle is written before the loop). Each
/// cycle sends, in order, a fresh campaign (new seed), the previous
/// cycle's campaign again (a journal replay, which must compute
/// nothing), an STA job and an `optimize` job.
pub fn drive(w: &Workload, addr: &str, seconds: f64) -> Result<String, String> {
    let expect_sta = read_expect(w.path("expect-sta.out").as_ref())?;
    let expect_small = read_expect(w.path("expect-small.out").as_ref())?;
    let mut ops: Vec<Op> = Vec::new();
    // (op index, stimulus seed, payload) awaiting the campaign oracle.
    let mut pending: Vec<(usize, u64, String)> = Vec::new();
    let start = Instant::now();
    let mut cycle = 0u64;
    while cycle == 0 || start.elapsed().as_secs_f64() < seconds {
        let seed = w.cycle_seed(cycle);
        let previous = w.cycle_seed(cycle.saturating_sub(1));
        for (kind, name) in w.cycle.iter().enumerate() {
            let (line, seed) = match *name {
                "campaign" => (w.campaign_request(seed), seed),
                "replay" => (w.campaign_request(previous), previous),
                "sta" => (w.sta_request(), 0),
                "small" => (w.small_request(), 0),
                other => return Err(format!("no daemon operation `{other}`")),
            };
            let (ms, out) = submit(addr, &line);
            let mut failure = None;
            match out {
                Err(e) => failure = Some(e),
                Ok(out) if out.status != "ok" => failure = Some(format!("status {}", out.status)),
                Ok(out) => match *name {
                    "campaign" if out.replayed != 0 => {
                        failure = Some(format!("fresh campaign replayed {}", out.replayed));
                    }
                    "replay" if out.computed != 0 || out.replayed == 0 => {
                        failure = Some(format!(
                            "replay computed {} and replayed {}",
                            out.computed, out.replayed
                        ));
                    }
                    "campaign" | "replay" => pending.push((ops.len(), seed, out.payload)),
                    "sta" if out.payload != expect_sta => {
                        failure = Some("sta payload differs from the oracle".to_string());
                    }
                    "small" if out.payload != expect_small => {
                        failure = Some("optimize payload differs from the oracle".to_string());
                    }
                    _ => {}
                },
            }
            ops.push(Op {
                kind,
                ms,
                failure: failure.map(|f| format!("{name} (cycle {cycle}): {f}")),
            });
        }
        cycle += 1;
    }
    let elapsed_s = start.elapsed().as_secs_f64();

    let verify = Instant::now();
    let mut oracles = BTreeMap::from([(
        w.cycle_seed(0),
        read_expect(w.path("expect-campaign.out").as_ref())?,
    )]);
    for (index, seed, payload) in pending {
        let oracle = match oracles.entry(seed) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(w.campaign_oracle(seed)?),
        };
        if *oracle != payload {
            let op = &mut ops[index];
            op.failure = Some(format!(
                "{} seed {seed}: payload differs from the oracle",
                w.cycle[op.kind]
            ));
        }
    }

    let mut out = JsonObj::default();
    let mut samples = JsonObj::default();
    for (k, name) in w.cycle.iter().enumerate() {
        let ms: Vec<f64> = ops
            .iter()
            .filter(|o| o.kind == k && o.failure.is_none())
            .map(|o| o.ms)
            .collect();
        samples.nums(name, &ms);
    }
    let failures: Vec<String> = ops.iter().filter_map(|o| o.failure.clone()).collect();
    out.raw("samples", &samples.finish())
        .int("attempted", ops.len() as u64)
        .int("failed", failures.len() as u64)
        .strs("failures", &failures)
        .int("cycles", cycle)
        .num("elapsed_s", elapsed_s)
        .num("verify_s", verify.elapsed().as_secs_f64());
    Ok(out.finish())
}
