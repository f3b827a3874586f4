//! The in-process half of the lowvolt benchmark. `perfbench/run.py`
//! calls it with one subcommand per step:
//!
//! - `setup`: the program's set-up of the workload's inputs (BLIF
//!   netlists written, or builtin datapaths built), `--repeats` times,
//!   each timed;
//! - `oracle`: write the expected output of every operation, and print
//!   the manifest of CLI operations to run;
//! - `drive`: run the `serve-mixed` request loop against a running
//!   `lowvolt serve` daemon and check every payload;
//! - `trace`: the traced run, which calls each layer's public functions
//!   and prints the per-layer metrics (for `serve-mixed`, against the
//!   daemon at `--addr`).
//!
//! Every subcommand prints one JSON object on stdout; errors go to
//! stderr with exit code 2. See `perfbench/README.md` for the metrics.

mod drive;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use workload::{Scale, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: perfbench-harness setup|oracle|drive|trace --workload NAME \
                     --seed N --work DIR --threads N [--scale full|small] [--repeats N] \
                     [--seconds S] [--lowvolt PATH] [--addr HOST:PORT]";

fn run(args: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(USAGE.to_string());
    };
    let flag = |name: &str| -> Option<&str> {
        rest.iter()
            .position(|a| a == name)
            .and_then(|i| rest.get(i + 1))
            .map(String::as_str)
    };
    let need = |name: &str| flag(name).ok_or_else(|| format!("missing {name}\n{USAGE}"));
    let number = |name: &str| -> Result<u64, String> {
        need(name)?
            .parse()
            .map_err(|_| format!("{name} expects a whole number"))
    };
    let scale = match flag("--scale").unwrap_or("full") {
        "full" => Scale::Full,
        "small" => Scale::Small,
        other => return Err(format!("unknown --scale `{other}` (full, small)")),
    };
    let threads = usize::try_from(number("--threads")?).map_err(|e| e.to_string())?;
    let w = Workload::new(
        need("--workload")?,
        number("--seed")?,
        scale,
        threads.max(1),
        need("--work")?,
    )?;
    match cmd.as_str() {
        "setup" => w.setup(number("--repeats")?),
        "oracle" => w.oracle(),
        "drive" => drive::drive(&w, need("--addr")?, number("--seconds")? as f64),
        "trace" => trace::trace(
            &w,
            need("--lowvolt")?,
            flag("--addr"),
            number("--seconds")? as f64,
        ),
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of a sample (mean of the two middle values for even counts;
/// NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A flat JSON object built field by field (keys are fixed ASCII
/// identifiers; string values are escaped).
#[derive(Default)]
pub struct JsonObj(String);

impl JsonObj {
    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{k}\":");
    }

    /// Adds a number; non-finite values become `null`.
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.0, "{v}");
        } else {
            self.0.push_str("null");
        }
        self
    }

    /// Adds a whole number.
    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    /// Adds an escaped string.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        let _ = write!(self.0, "\"{}\"", lowvolt_serve::json::escape(v));
        self
    }

    /// Adds already-rendered JSON.
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.0.push_str(json);
        self
    }

    /// Adds a list of strings.
    pub fn strs(&mut self, k: &str, items: &[String]) -> &mut Self {
        let body: Vec<String> = items
            .iter()
            .map(|s| format!("\"{}\"", lowvolt_serve::json::escape(s)))
            .collect();
        self.raw(k, &format!("[{}]", body.join(",")))
    }

    /// Adds a list of numbers.
    pub fn nums(&mut self, k: &str, items: &[f64]) -> &mut Self {
        let body: Vec<String> = items.iter().map(|v| format!("{v}")).collect();
        self.raw(k, &format!("[{}]", body.join(",")))
    }

    /// The rendered object.
    pub fn finish(&self) -> String {
        if self.0.is_empty() {
            "{}".to_string()
        } else {
            format!("{}}}", self.0)
        }
    }
}
