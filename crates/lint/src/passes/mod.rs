//! The five analysis pass families. Each pass is a pure function
//! `(&LintTarget, &LintConfig) -> Vec<Diagnostic>` — no simulation, no
//! I/O, no shared state — which is what lets the engine fan the passes
//! out over `lowvolt_exec::parallel_map_recorded` with deterministic
//! results.

pub mod leakage;
pub mod power;
pub mod structural;
pub mod timing;
pub mod xreach;

use crate::config::LintConfig;
use crate::diagnostic::{Diagnostic, Pass};
use crate::target::LintTarget;

/// Runs one pass family over a target.
#[must_use]
pub fn run_pass(pass: Pass, target: &LintTarget, config: &LintConfig) -> Vec<Diagnostic> {
    match pass {
        Pass::Structural => structural::run(target),
        Pass::XReachability => xreach::run(target),
        Pass::PowerIntent => power::run(target, config),
        Pass::Leakage => leakage::run(target, config),
        Pass::Timing => timing::run(target, config),
    }
}
