//! The three workloads: what each one runs, on which inputs, and the
//! expected output of every operation.
//!
//! A workload repeats one cycle of operations, each through its own
//! front end (cold `lowvolt` processes, or requests to one `lowvolt
//! serve` daemon). The operation kinds are:
//!
//! - `campaign`: a fresh compiled-engine stuck-at campaign;
//! - `replay`: the previous campaign again, answered from its finished
//!   journal (daemon only);
//! - `sta`: a static timing report;
//! - `small`: the default `optimize` sweep, whose work is negligible, so
//!   its time is the front end's fixed cost per operation (daemon only).

use std::path::Path;
use std::time::Instant;

use lowvolt_circuit::faults::standard_targets;
use lowvolt_exec::ExecPolicy;
use lowvolt_io::{generate, write_blif, GeneratorConfig};
use lowvolt_obs::Recorder;
use lowvolt_serve::jobs::{
    run_campaign_job, run_optimize_job, run_sta_job, CampaignOutcome, CampaignPersist,
    CampaignSpec, Engine, NullSink, OptimizeSpec, SourceSpec, StaSpec,
};
use lowvolt_serve::server::DEFAULT_SHARD_ITEMS;

use crate::{ms_since, JsonObj};

/// Generator seed of every netlist the workloads read. The netlists are
/// fixed and the workload seed selects the stimulus: between generator
/// seeds the same-size netlists differ by 10-20% in campaign and STA
/// cost (output count, depth, dropout), which would swamp the bounds.
const NETLIST_SEED: u64 = 42;

/// Input sizes: `Full` for measurement, `Small` for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// How operations reach the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// One cold `lowvolt` process per operation.
    Cli,
    /// One request per operation to a `lowvolt serve` daemon.
    Serve,
}

/// A generated netlist the workload writes as BLIF.
#[derive(Debug, Clone)]
pub struct NetlistFile {
    pub path: String,
    pub gates: usize,
    pub seed: u64,
}

impl NetlistFile {
    /// Generates the netlist and writes it as BLIF.
    pub fn write(&self) -> Result<(), String> {
        let circuit = generate(&GeneratorConfig::new(self.gates, self.seed))
            .map_err(|e| format!("generate {}: {e}", self.path))?;
        let text = write_blif(&circuit).map_err(|e| format!("write {}: {e}", self.path))?;
        std::fs::write(&self.path, text).map_err(|e| format!("write {}: {e}", self.path))
    }

    pub fn source_spec(&self) -> SourceSpec {
        SourceSpec::Netlist {
            path: self.path.clone(),
        }
    }
}

/// One workload at one seed.
#[derive(Debug, Clone)]
pub struct Workload {
    pub front: Front,
    pub seed: u64,
    pub threads: usize,
    pub work: String,
    /// Netlists the operations read (campaign first, then STA).
    pub netlists: Vec<NetlistFile>,
    /// The fresh campaign at the workload seed.
    pub campaign: CampaignSpec,
    pub sta: StaSpec,
    /// Journal items per shard round of a journaled (daemon) campaign.
    pub shard_items: usize,
    /// The 10k-gate netlist whose per-fault cost the traced run divides
    /// the workload's by (ROADMAP item 1's scaling target).
    pub reference: NetlistFile,
    /// The operation kinds of one cycle, in order, one of each.
    pub cycle: &'static [&'static str],
}

impl Workload {
    pub fn new(
        name: &str,
        seed: u64,
        scale: Scale,
        threads: usize,
        work: &str,
    ) -> Result<Workload, String> {
        let full = scale == Scale::Full;
        let file = |stem: &str, gates: usize, gen_seed: u64| NetlistFile {
            path: format!("{work}/{stem}.blif"),
            gates,
            seed: gen_seed,
        };
        let reference = file("ref", if full { 10_000 } else { 500 }, NETLIST_SEED + 2);
        let (front, netlists, campaign, sta, shard_items, cycle) = match name {
            // Cold CLI runs on generated netlists: the 40k-gate campaign
            // is where per-fault cost grows with netlist size, and the
            // 100k-gate STA is the backtrace-bound region.
            "cli-netlist" => {
                let c = file("campaign", if full { 40_000 } else { 2_000 }, NETLIST_SEED);
                let s = file("sta", if full { 100_000 } else { 4_000 }, NETLIST_SEED + 1);
                let mut campaign = CampaignSpec::new(c.source_spec());
                campaign.vectors = 32;
                let sta = StaSpec::new(s.source_spec());
                (
                    Front::Cli,
                    vec![c, s],
                    campaign,
                    sta,
                    DEFAULT_SHARD_ITEMS,
                    &["campaign", "sta"][..],
                )
            }
            // Cold CLI runs on the five standard datapaths: many 64-lane
            // words on small netlists, already parallel across words.
            "datapath-words" => {
                let width = if full { 32 } else { 8 };
                let mut campaign = CampaignSpec::new(SourceSpec::Builtin);
                campaign.width = width;
                campaign.vectors = if full { 4096 } else { 256 };
                let mut sta = StaSpec::new(SourceSpec::Builtin);
                sta.width = width;
                (
                    Front::Cli,
                    Vec::new(),
                    campaign,
                    sta,
                    DEFAULT_SHARD_ITEMS,
                    &["campaign"][..],
                )
            }
            // One daemon, closed loop: journaled shard rounds, journal
            // replay, and a large STA payload on the wire.
            "serve-mixed" => {
                let c = file("campaign", if full { 10_000 } else { 1_000 }, NETLIST_SEED);
                let s = file("sta", if full { 2_000 } else { 300 }, NETLIST_SEED + 1);
                let mut campaign = CampaignSpec::new(c.source_spec());
                campaign.vectors = if full { 256 } else { 128 };
                let sta = StaSpec::new(s.source_spec());
                (
                    Front::Serve,
                    vec![c, s],
                    campaign,
                    sta,
                    1,
                    &["campaign", "replay", "sta", "small"][..],
                )
            }
            other => {
                return Err(format!(
                    "unknown workload `{other}` (cli-netlist, datapath-words, serve-mixed)"
                ))
            }
        };
        let mut campaign = campaign;
        campaign.engine = Engine::Compiled;
        campaign.seed = seed;
        Ok(Workload {
            front,
            seed,
            threads,
            work: work.to_string(),
            netlists,
            campaign,
            sta,
            shard_items,
            reference,
            cycle,
        })
    }

    pub fn policy(&self) -> ExecPolicy {
        ExecPolicy::with_threads(self.threads)
    }

    /// The stimulus seed of cycle `i` of the daemon loop: a new seed per
    /// cycle makes every cycle's campaign a new job with a new journal.
    pub fn cycle_seed(&self, i: u64) -> u64 {
        self.seed.wrapping_mul(1000).wrapping_add(i)
    }

    pub fn path(&self, file: &str) -> String {
        format!("{}/{file}", self.work)
    }

    /// Runs the workload's campaign (at `seed`) through the job layer.
    pub fn run_campaign(
        &self,
        rec: &dyn Recorder,
        seed: u64,
        persist: &CampaignPersist<'_>,
    ) -> Result<CampaignOutcome, String> {
        let mut spec = self.campaign.clone();
        spec.seed = seed;
        run_campaign_job(&self.policy(), rec, &spec, persist, &mut NullSink).map_err(|e| e.0)
    }

    /// The expected payload of a fresh campaign at `seed`: one pass of
    /// the job layer with no journal, as a clean CLI run.
    pub fn campaign_oracle(&self, seed: u64) -> Result<String, String> {
        let out = self.run_campaign(lowvolt_obs::noop(), seed, &CampaignPersist::default())?;
        if out.pending != 0 {
            return Err("oracle campaign left items pending".to_string());
        }
        Ok(out.payload)
    }

    pub fn sta_oracle(&self, rec: &dyn Recorder) -> Result<String, String> {
        run_sta_job(&self.policy(), rec, &self.sta).map_err(|e| e.0)
    }

    pub fn small_oracle(&self) -> Result<String, String> {
        run_optimize_job(&self.policy(), &OptimizeSpec::new(), &mut NullSink).map_err(|e| e.0)
    }

    fn source_flags(&self, source: &SourceSpec, width: usize) -> Vec<String> {
        match source {
            SourceSpec::Netlist { path } => vec!["--netlist".into(), path.clone()],
            _ => vec!["--width".into(), width.to_string()],
        }
    }

    fn threads_flag(&self) -> [String; 2] {
        ["--threads".into(), self.threads.to_string()]
    }

    pub fn campaign_argv(&self) -> Vec<String> {
        let c = &self.campaign;
        let mut argv = vec!["campaign".to_string()];
        argv.extend(self.source_flags(&c.source, c.width));
        argv.extend([
            "--engine".into(),
            "compiled".into(),
            "--vectors".into(),
            c.vectors.to_string(),
            "--seed".into(),
            c.seed.to_string(),
        ]);
        argv.extend(self.threads_flag());
        argv
    }

    pub fn sta_argv(&self) -> Vec<String> {
        let mut argv = vec!["sta".to_string()];
        argv.extend(self.source_flags(&self.sta.source, self.sta.width));
        argv.extend(self.threads_flag());
        argv
    }

    fn source_json(source: &SourceSpec) -> String {
        match source {
            SourceSpec::Netlist { path } => format!(
                ",\"source\":{{\"kind\":\"netlist\",\"path\":\"{}\"}}",
                lowvolt_serve::json::escape(path)
            ),
            _ => String::new(),
        }
    }

    pub fn campaign_request(&self, seed: u64) -> String {
        let c = &self.campaign;
        format!(
            "{{\"job\":\"campaign\"{},\"width\":{},\"engine\":\"compiled\",\"vectors\":{},\"seed\":{seed},\"threads\":{},\"shard_items\":{}}}",
            Self::source_json(&c.source),
            c.width,
            c.vectors,
            self.threads,
            self.shard_items
        )
    }

    pub fn sta_request(&self) -> String {
        format!(
            "{{\"job\":\"sta\"{},\"width\":{},\"threads\":{}}}",
            Self::source_json(&self.sta.source),
            self.sta.width,
            self.threads
        )
    }

    pub fn small_request(&self) -> String {
        format!("{{\"job\":\"optimize\",\"threads\":{}}}", self.threads)
    }

    /// The program's set-up of the workload's inputs, `repeats` times:
    /// generating each netlist and writing it as BLIF, or, for the
    /// builtin datapaths, building them as `--width` does. Returns the
    /// wall milliseconds of each repeat.
    pub fn setup(&self, repeats: u64) -> Result<String, String> {
        std::fs::create_dir_all(&self.work).map_err(|e| format!("create {}: {e}", self.work))?;
        let mut input_ms = Vec::new();
        for _ in 0..repeats.max(1) {
            let t = Instant::now();
            if self.netlists.is_empty() {
                let targets = standard_targets(self.campaign.width).map_err(|e| e.to_string())?;
                std::hint::black_box(targets);
            }
            for n in &self.netlists {
                n.write()?;
            }
            input_ms.push(ms_since(t));
        }
        Ok(JsonObj::default().nums("input_ms", &input_ms).finish())
    }

    /// Writes the expected output of every operation of a cycle and, for
    /// the CLI workloads, returns the manifest of operations `run.py`
    /// executes. Run after [`Workload::setup`]; the daemon's later
    /// cycles' campaign oracles run after its timed loop, because their
    /// seeds depend on how many cycles fit.
    pub fn oracle(&self) -> Result<String, String> {
        let write_expect = |kind: &str, payload: &str| -> Result<String, String> {
            let path = self.path(&format!("expect-{kind}.out"));
            std::fs::write(&path, payload).map_err(|e| format!("write {path}: {e}"))?;
            Ok(path)
        };
        let mut manifest = JsonObj::default();
        match self.front {
            Front::Serve => {
                write_expect("campaign", &self.campaign_oracle(self.cycle_seed(0))?)?;
                write_expect("sta", &self.sta_oracle(lowvolt_obs::noop())?)?;
                write_expect("small", &self.small_oracle()?)?;
            }
            Front::Cli => {
                // The CLI prints the report plus one newline.
                let mut rendered = Vec::new();
                for kind in self.cycle {
                    let (argv, payload) = match *kind {
                        "campaign" => (self.campaign_argv(), self.campaign_oracle(self.seed)?),
                        "sta" => (self.sta_argv(), self.sta_oracle(lowvolt_obs::noop())?),
                        other => return Err(format!("no CLI operation `{other}`")),
                    };
                    let mut op = JsonObj::default();
                    op.str("kind", kind)
                        .strs("argv", &argv)
                        .str("expect", &write_expect(kind, &format!("{payload}\n"))?);
                    rendered.push(op.finish());
                }
                manifest.raw("ops", &format!("[{}]", rendered.join(",")));
            }
        }
        Ok(manifest.finish())
    }
}

/// Reads an expected-output file written by [`Workload::setup`].
pub fn read_expect(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}
