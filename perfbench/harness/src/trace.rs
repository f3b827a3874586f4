//! The traced run: calls each layer's public functions in-process on the
//! workload's inputs, times them from outside, and reads the program's
//! own counters and spans through a `MetricsRegistry`. Nothing inside
//! the program changes; the end-to-end runs stay untraced.

use std::process::{Command, Stdio};
use std::time::Instant;

use lowvolt_circuit::compiled::{run_campaign_packed, CompiledNetlist};
use lowvolt_circuit::faults::{
    standard_targets, stuck_at_universe, CampaignOptions, CampaignReport, FaultTarget,
    ResilientCampaign,
};
use lowvolt_circuit::stimulus::PatternSource;
use lowvolt_exec::{ByteCache, FaultPolicy};
use lowvolt_io::parse_path;
use lowvolt_lint::LintTarget;
use lowvolt_obs::{names, MetricsRegistry, Recorder};
use lowvolt_serve::client::submit_line;
use lowvolt_serve::jobs::{
    imported_fault_target, imported_lint_target, select_standard_targets, CampaignPersist, RunMode,
    SourceSpec,
};
use lowvolt_serve::json::Json;
use lowvolt_serve::proto::result_event;
use lowvolt_sta::{analyze, StaConfig, NOMINAL_VDD, NOMINAL_VT};

use crate::workload::{Front, Workload};
use crate::{median, ms_since, JsonObj};

/// Vectors of the reference campaign (one 64-lane word).
const REFERENCE_VECTORS: usize = 32;

/// Times the front end's fixed cost on this many small operations.
const SMALL_REPEATS: usize = 5;

/// Baseline/measured pairs behind each difference metric, per pass.
const PAIRS: usize = 2;

/// Metrics whose values are exact counts: they must repeat exactly
/// across passes (and across runs of one seed).
const COUNTS: [&str; 6] = [
    "circuit.gate_evals_per_fault_word",
    "exec.items",
    "serve.shard_rounds",
    "checkpoint.records",
    "cache.hits",
    "jobs.replayed",
];

/// The measurements of one pass, by metric name.
type Pass = Vec<(&'static str, f64)>;

/// Failed checks of the run so far.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// CPU seconds this process has used, all threads included.
fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(io_err("/proc/self/stat"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15, in USER_HZ ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "unreadable /proc/self/stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) / 100.0)
}

fn load_fault_targets(source: &SourceSpec, width: usize) -> Result<Vec<FaultTarget>, String> {
    match source {
        SourceSpec::Netlist { path } => {
            let c = parse_path(path.as_ref()).map_err(|e| format!("{path}: {e}"))?;
            Ok(vec![imported_fault_target(&c)])
        }
        _ => standard_targets(width).map_err(|e| e.to_string()),
    }
}

fn load_sta_targets(w: &Workload) -> Result<Vec<LintTarget>, String> {
    match &w.sta.source {
        SourceSpec::Netlist { path } => {
            let c = parse_path(path.as_ref()).map_err(|e| format!("{path}: {e}"))?;
            Ok(vec![imported_lint_target(&c)])
        }
        _ => select_standard_targets(&w.sta.circuit, w.sta.width).map_err(|e| e.0),
    }
}

/// Runs the compiled campaign on every target straight through the
/// circuit layer, as the job layer does (target `i` at `seed + i`).
fn campaign_pass(
    w: &Workload,
    rec: &dyn Recorder,
    targets: &[FaultTarget],
    vectors: usize,
) -> Result<Vec<ResilientCampaign>, String> {
    let policy = w.policy();
    targets
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let faults = stuck_at_universe(&t.netlist);
            let mut stimulus =
                PatternSource::wide_random(t.inputs.len(), w.seed.wrapping_add(i as u64))
                    .map_err(|e| e.to_string())?;
            let options = CampaignOptions {
                fault: FaultPolicy::default(),
                cache: None,
                checkpoint: None,
            };
            run_campaign_packed(&policy, rec, t, &faults, &mut stimulus, vectors, options)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Fault injections × 64-lane words over all targets.
fn fault_words(targets: &[FaultTarget], vectors: usize) -> f64 {
    let faults: usize = targets
        .iter()
        .map(|t| stuck_at_universe(&t.netlist).len())
        .sum();
    (faults * vectors.div_ceil(64)) as f64
}

/// Fault-propagation milliseconds: the `campaign.run` span minus its
/// golden child.
fn fault_ms(reg: &MetricsRegistry) -> (f64, f64) {
    let snap = reg.snapshot();
    let span = |name: &str| snap.span(name).map_or(0.0, lowvolt_obs::SpanStat::wall_ms);
    let golden = span("campaign.run.golden");
    (golden, span(names::SPAN_CAMPAIGN_RUN) - golden)
}

/// Runs `PAIRS` pairs of a baseline and a measured run. The order
/// alternates between pairs, so a bias of whichever runs first cancels
/// in the median of the pairs' differences.
fn alternate<A, B>(
    mut base: impl FnMut() -> Result<A, String>,
    mut measured: impl FnMut() -> Result<B, String>,
) -> Result<Vec<(A, B)>, String> {
    (0..PAIRS)
        .map(|k| {
            if k % 2 == 0 {
                let a = base()?;
                Ok((a, measured()?))
            } else {
                let b = measured()?;
                Ok((base()?, b))
            }
        })
        .collect()
}

/// The daemon's persistence for a campaign job: journaled shard rounds
/// that resume `journal`, with golden traces in `cache`.
fn sharded<'a>(w: &Workload, journal: &'a str, cache: &'a ByteCache) -> CampaignPersist<'a> {
    CampaignPersist {
        checkpoint: Some(journal),
        resume: true,
        cache: Some(cache),
        mode: RunMode::Sharded {
            shard_items: w.shard_items,
        },
        announce: false,
    }
}

/// Median over `items` of `f`.
fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Runs one cold CLI process, returning its wall milliseconds and stdout.
fn run_cli(lowvolt: &str, argv: &[&str]) -> Result<(f64, Vec<u8>), String> {
    let t = Instant::now();
    let out = Command::new(lowvolt)
        .args(argv)
        .stderr(Stdio::null())
        .output()
        .map_err(io_err(lowvolt))?;
    let ms = ms_since(t);
    if !out.status.success() {
        return Err(format!(
            "`lowvolt {}` failed: {}",
            argv.join(" "),
            out.status
        ));
    }
    Ok((ms, out.stdout))
}

/// The front end's share of an operation. On the CLI that is the
/// fixed cost of a cold process (`lowvolt help`, which does no work),
/// and nothing decodes a result. On the daemon it is the round trip of
/// the small job minus its in-process time and the client's decode of
/// its `result` line, and the decode of the STA result.
fn front_pass(
    w: &Workload,
    lowvolt: &str,
    addr: Option<&str>,
    sta: &str,
    checks: &mut Checks,
    pass: &mut Pass,
) -> Result<(), String> {
    let (overhead_ms, decode_ms) = match (w.front, addr) {
        (Front::Cli, _) => {
            let mut cold_ms = Vec::new();
            for _ in 0..SMALL_REPEATS {
                let (ms, stdout) = run_cli(lowvolt, &["help"])?;
                cold_ms.push(ms);
                checks.expect(String::from_utf8_lossy(&stdout).contains("USAGE"), || {
                    "`lowvolt help` printed no usage".to_string()
                });
            }
            // No CLI front end decodes its output: a fixed 0.
            (median(&cold_ms), 0.0)
        }
        (Front::Serve, None) => return Err("a daemon workload needs --addr".to_string()),
        (Front::Serve, Some(addr)) => {
            let small = w.small_oracle()?;
            let decode = |payload: &str, metrics: &str| {
                let line = result_event(0, "ok", 0, 0, 0, payload, metrics);
                let t = Instant::now();
                let parsed = Json::parse(&line);
                (ms_since(t), parsed.is_ok())
            };
            let mut job_ms = Vec::new();
            let mut round_trip_ms = Vec::new();
            let mut decode_small = Vec::new();
            for _ in 0..SMALL_REPEATS {
                let t = Instant::now();
                let out = w.small_oracle()?;
                job_ms.push(ms_since(t));
                checks.expect(out == small, || {
                    "optimize job is not deterministic".to_string()
                });
                let t = Instant::now();
                let out = submit_line(addr, &w.small_request(), &mut |_| {});
                round_trip_ms.push(ms_since(t));
                let out = out.map_err(|e| e.0)?;
                checks.expect(out.payload == small, || {
                    "optimize payload differs from the oracle".to_string()
                });
                decode_small.push(decode(&out.payload, &out.metrics).0);
            }
            let out = submit_line(addr, &w.sta_request(), &mut |_| {}).map_err(|e| e.0)?;
            checks.expect(out.payload == sta, || {
                "sta payload differs from the oracle".to_string()
            });
            let (decode_ms, parsed) = decode(&out.payload, &out.metrics);
            checks.expect(parsed, || "sta result line does not parse".to_string());
            (
                median(&round_trip_ms) - median(&job_ms) - median(&decode_small),
                decode_ms,
            )
        }
    };
    pass.push(("front.overhead_ms", overhead_ms));
    pass.push(("front.decode_ms", decode_ms));
    pass.push(("front.result_kb", sta.len() as f64 / 1024.0));
    Ok(())
}

fn layer_pass(
    w: &Workload,
    lowvolt: &str,
    addr: Option<&str>,
    checks: &mut Checks,
) -> Result<Pass, String> {
    let mut pass: Pass = Vec::new();
    let vectors = w.campaign.vectors;

    // io: everything the operations read, parsed (or, for builtin
    // datapaths, constructed).
    let t = Instant::now();
    let targets = load_fault_targets(&w.campaign.source, w.campaign.width)?;
    let sta_targets = load_sta_targets(w)?;
    pass.push(("io.load_ms", ms_since(t)));

    // circuit: levelization, then the campaign untraced and traced.
    let t = Instant::now();
    for target in &targets {
        CompiledNetlist::compile(&target.netlist).map_err(|e| e.to_string())?;
    }
    pass.push(("circuit.compile_ms", ms_since(t)));
    let untraced = || {
        let t = Instant::now();
        let runs = campaign_pass(w, lowvolt_obs::noop(), &targets, vectors)?;
        Ok((ms_since(t), runs))
    };
    let traced = || {
        let reg = MetricsRegistry::new();
        let cpu = process_cpu_s()?;
        let t = Instant::now();
        let runs = campaign_pass(w, &reg, &targets, vectors)?;
        let ms = ms_since(t);
        Ok((ms, process_cpu_s()? - cpu, reg, runs))
    };
    let pairs = alternate(untraced, traced)?;
    for ((_, plain), (_, _, _, runs)) in &pairs {
        checks.expect(
            runs.iter()
                .map(|r| &r.reports)
                .eq(plain.iter().map(|r| &r.reports)),
            || "traced and untraced campaigns classify differently".to_string(),
        );
    }
    let (_, (_, _, reg, runs)) = &pairs[0];
    let t = Instant::now();
    let rendered: String = runs
        .iter()
        .map(|r| {
            CampaignReport {
                target: r.target.clone(),
                vectors: r.vectors,
                reports: r.reports.iter().flatten().cloned().collect(),
            }
            .to_string()
        })
        .collect();
    pass.push(("circuit.render_ms", ms_since(t)));
    checks.expect(!rendered.is_empty(), || "empty campaign report".to_string());
    let words = fault_words(&targets, vectors);
    let fault_ms_w = median_of(&pairs, |(_, (_, _, reg, _))| fault_ms(reg).1);
    let us_per_fault_word = fault_ms_w * 1e3 / words;
    pass.push((
        "circuit.golden_ms",
        median_of(&pairs, |(_, (_, _, reg, _))| fault_ms(reg).0),
    ));
    pass.push(("circuit.fault_ms", fault_ms_w));
    pass.push(("circuit.us_per_fault_word", us_per_fault_word));
    pass.push((
        "circuit.gate_evals_per_fault_word",
        reg.counter(names::COMPILED_GATE_EVALS) as f64 / words,
    ));
    pass.push((
        "circuit.dropout_frac",
        reg.counter(names::COMPILED_FAULT_DROPOUTS) as f64 / words,
    ));
    pass.push(("exec.items", reg.counter(names::EXEC_ITEMS) as f64));
    pass.push((
        "exec.cpu_util",
        median_of(&pairs, |(_, (ms, cpu_s, _, _))| {
            cpu_s * 1e3 / (ms * w.threads as f64)
        }),
    ));
    pass.push((
        "obs.trace_overhead_frac",
        median_of(&pairs, |((plain_ms, _), (ms, _, _, _))| {
            (ms - plain_ms) / plain_ms
        }),
    ));
    pass.push((
        "trace.untraced_ms",
        median_of(&pairs, |((plain_ms, _), _)| *plain_ms),
    ));
    pass.push(("trace.traced_ms", median_of(&pairs, |(_, (ms, ..))| *ms)));

    // circuit: the same per-fault cost on the 10k-gate reference.
    let reference = load_fault_targets(&w.reference.source_spec(), 8)?;
    let ref_reg = MetricsRegistry::new();
    campaign_pass(w, &ref_reg, &reference, REFERENCE_VECTORS)?;
    let ref_us = fault_ms(&ref_reg).1 * 1e3 / fault_words(&reference, REFERENCE_VECTORS);
    pass.push(("circuit.fault_cost_growth", us_per_fault_word / ref_us));

    // sta: analysis and rendering, then the whole job.
    let sta_reg = MetricsRegistry::new();
    let config = StaConfig::at(NOMINAL_VDD, NOMINAL_VT);
    let policy = w.policy();
    let reports = sta_targets
        .iter()
        .map(|t| analyze(&policy, &sta_reg, &t.name, &t.netlist, &t.outputs, config))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    let text: String = reports.iter().map(|r| format!("{r}\n")).collect();
    pass.push(("sta.render_ms", ms_since(t)));
    let analyze_ms = sta_reg
        .snapshot()
        .span(names::SPAN_STA_ANALYZE)
        .map_or(0.0, lowvolt_obs::SpanStat::wall_ms);
    pass.push(("sta.analyze_ms", analyze_ms));
    let t = Instant::now();
    let sta_payload = w.sta_oracle(lowvolt_obs::noop())?;
    pass.push(("jobs.sta_ms", ms_since(t)));
    checks.expect(sta_payload == text, || {
        "sta job payload differs from analyze + render".to_string()
    });

    // jobs: the unjournaled pass against the journaled shard rounds the
    // daemon runs (fresh journal and cache each time), then the replay of
    // the last finished journal.
    let journal = w.path("trace.lvjr");
    let cache_dir = w.path("trace-cache");
    let once = || {
        let t = Instant::now();
        let out = w.run_campaign(lowvolt_obs::noop(), w.seed, &CampaignPersist::default())?;
        Ok((ms_since(t), out))
    };
    let fresh = || {
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_dir_all(&cache_dir);
        let cache = ByteCache::open(&cache_dir).map_err(|e| e.to_string())?;
        let reg = MetricsRegistry::new();
        let t = Instant::now();
        let out = w.run_campaign(&reg, w.seed, &sharded(w, &journal, &cache))?;
        Ok((ms_since(t), out, reg))
    };
    let pairs = alternate(once, fresh)?;
    let cache = ByteCache::open(&cache_dir).map_err(|e| e.to_string())?;
    let replay_reg = MetricsRegistry::new();
    let t = Instant::now();
    let replay = w.run_campaign(&replay_reg, w.seed, &sharded(w, &journal, &cache))?;
    pass.push(("jobs.replay_ms", ms_since(t)));
    pass.push(("jobs.campaign_ms", median_of(&pairs, |(_, (ms, ..))| *ms)));
    pass.push((
        "jobs.journal_ms",
        median_of(&pairs, |((once_ms, _), (ms, ..))| ms - once_ms),
    ));
    let ((_, once), _) = &pairs[0];
    for (_, (_, out, _)) in &pairs {
        checks.expect(out.payload == once.payload, || {
            "sharded campaign payload differs from one pass".to_string()
        });
    }
    checks.expect(replay.payload == once.payload, || {
        "replayed campaign payload differs from one pass".to_string()
    });
    checks.expect(replay.computed == 0, || {
        format!("replay computed {} items", replay.computed)
    });
    // The replay read the journal and cache of the last sharded run.
    let jobs_reg = &pairs[PAIRS - 1].1 .2;
    pass.push(("jobs.replayed", replay.replayed as f64));
    pass.push((
        "serve.shard_rounds",
        jobs_reg.counter(names::SERVE_SHARD_ROUNDS) as f64,
    ));
    pass.push((
        "checkpoint.records",
        jobs_reg.counter(names::CHECKPOINT_RECORDS) as f64,
    ));
    pass.push((
        "cache.hits",
        (jobs_reg.counter(names::CACHE_HITS) + replay_reg.counter(names::CACHE_HITS)) as f64,
    ));
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_dir_all(&cache_dir);

    front_pass(w, lowvolt, addr, &sta_payload, checks, &mut pass)?;
    Ok(pass)
}

/// Writes the inputs, then repeats the layer pass while `seconds` allow
/// (at least once). Timings are medians over passes; counts must repeat
/// exactly between passes.
pub fn trace(
    w: &Workload,
    lowvolt: &str,
    addr: Option<&str>,
    seconds: f64,
) -> Result<String, String> {
    std::fs::create_dir_all(&w.work).map_err(io_err(&w.work))?;
    for n in w.netlists.iter().chain([&w.reference]) {
        n.write()?;
    }
    let mut checks = Checks::default();
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let mut last_s = 0.0;
    while passes.is_empty() || start.elapsed().as_secs_f64() + last_s <= seconds {
        let t = Instant::now();
        passes.push(layer_pass(w, lowvolt, addr, &mut checks)?);
        last_s = t.elapsed().as_secs_f64();
    }
    let mut metrics = JsonObj::default();
    for (i, (name, first)) in passes[0].iter().enumerate() {
        let values: Vec<f64> = passes.iter().map(|p| p[i].1).collect();
        if COUNTS.contains(name) {
            checks.expect(values.iter().all(|v| v == first), || {
                format!("count {name} changed between passes: {values:?}")
            });
            metrics.num(name, *first);
        } else {
            metrics.num(name, median(&values));
        }
    }
    let mut out = JsonObj::default();
    out.raw("metrics", &metrics.finish())
        .int("attempted", checks.attempted)
        .int("failed", checks.failures.len() as u64)
        .strs("failures", &checks.failures)
        .int("passes", passes.len() as u64);
    Ok(out.finish())
}
