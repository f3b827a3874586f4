//! STA result types and their text / JSON renderings.
//!
//! Both renderers are fully deterministic functions of the report
//! contents — CI diffs them byte-for-byte across thread counts — and the
//! JSON is hand-rolled like every other emitter in the workspace.

use lowvolt_device::units::{Seconds, Volts};
use lowvolt_obs::push_json_str as json_str;
use std::fmt;
use std::fmt::Write as _;

/// What kind of timing endpoint a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// A declared primary output.
    Output,
    /// A flip-flop data pin (the path is captured at the next clock edge).
    Register,
}

impl EndpointKind {
    /// Stable lowercase label used in both renderings.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            EndpointKind::Output => "output",
            EndpointKind::Register => "register",
        }
    }
}

/// One gate along the critical path, startpoint first.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Gate kind name (`and2`, `xor2`, ...).
    pub gate: String,
    /// Name of the node the gate drives.
    pub output: String,
    /// Topological level of the gate.
    pub level: usize,
    /// Reader count the delay was priced at.
    pub fanout: usize,
    /// Priced propagation delay of this gate.
    pub delay: Seconds,
    /// Arrival time at the gate's output.
    pub arrival: Seconds,
}

/// Worst-path summary for one timing endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointSummary {
    /// Endpoint node name.
    pub node: String,
    /// Endpoint node index in the source netlist.
    pub node_index: usize,
    /// Output or register.
    pub kind: EndpointKind,
    /// Arrival time of the latest path into the endpoint.
    pub arrival: Seconds,
    /// Required time applied at the endpoint.
    pub required: Seconds,
    /// `required - arrival`.
    pub slack: Seconds,
    /// Gate count along the endpoint's worst path.
    pub depth: usize,
    /// Name of the node the worst path starts from.
    pub startpoint: String,
}

/// Arrival / required / slack for one netlist node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSlack {
    /// Node name.
    pub node: String,
    /// Topological level (inputs and register outputs are level 0).
    pub level: usize,
    /// Latest arrival time at the node.
    pub arrival: Seconds,
    /// Earliest required time propagated back to the node (infinite for
    /// nodes that reach no endpoint).
    pub required: Seconds,
    /// `required - arrival`.
    pub slack: Seconds,
}

/// The full result of one static timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct StaReport {
    /// Target circuit name.
    pub target: String,
    /// Supply voltage the delays were priced at.
    pub vdd: Volts,
    /// Threshold voltage the delays were priced at.
    pub vt: Volts,
    /// `false` when `V_DD <= V_T`: no gate can switch, every arrival is
    /// infinite, and per-node slack is not computed.
    pub feasible: bool,
    /// Netlist node count.
    pub nodes: usize,
    /// Combinational gate count (flip-flops excluded).
    pub gates: usize,
    /// Topological level count.
    pub levels: usize,
    /// Flip-flop count.
    pub registers: usize,
    /// Latest arrival over all endpoints — the critical delay.
    pub critical: Seconds,
    /// Required time applied at every endpoint (defaults to the critical
    /// delay, making the worst slack exactly zero).
    pub required: Seconds,
    /// Minimum endpoint slack.
    pub worst_slack: Seconds,
    /// The critical path, startpoint gate first.
    pub critical_path: Vec<PathStep>,
    /// Per-endpoint worst-path summaries, declared outputs first then
    /// register data pins, in netlist order.
    pub endpoints: Vec<EndpointSummary>,
    /// Per-node slack in node-index order (empty when infeasible).
    pub node_slacks: Vec<NodeSlack>,
}

/// `123.456 ps` for finite values, `inf` / `-inf` otherwise.
fn fmt_ps(s: Seconds) -> String {
    if s.0.is_finite() {
        format!("{:.3} ps", s.0 * 1e12)
    } else if s.0 > 0.0 {
        "inf".to_owned()
    } else {
        "-inf".to_owned()
    }
}

/// JSON number in picoseconds, or `null` for non-finite values.
fn json_ps(s: Seconds) -> String {
    if s.0.is_finite() {
        format!("{}", s.0 * 1e12)
    } else {
        "null".to_owned()
    }
}

impl StaReport {
    /// Gate kind names along the critical path, startpoint first.
    #[must_use]
    pub fn critical_path_gates(&self) -> Vec<&str> {
        self.critical_path.iter().map(|s| s.gate.as_str()).collect()
    }

    /// The hand-rolled JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"target\": ");
        json_str(&mut out, &self.target);
        let _ = write!(
            out,
            ",\n  \"vdd\": {},\n  \"vt\": {},\n  \"feasible\": {},\n  \
             \"nodes\": {},\n  \"gates\": {},\n  \"levels\": {},\n  \
             \"registers\": {},\n  \"critical_ps\": {},\n  \
             \"required_ps\": {},\n  \"worst_slack_ps\": {},\n",
            self.vdd.0,
            self.vt.0,
            self.feasible,
            self.nodes,
            self.gates,
            self.levels,
            self.registers,
            json_ps(self.critical),
            json_ps(self.required),
            json_ps(self.worst_slack),
        );
        out.push_str("  \"critical_path\": [");
        for (i, step) in self.critical_path.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"gate\": ");
            json_str(&mut out, &step.gate);
            out.push_str(", \"output\": ");
            json_str(&mut out, &step.output);
            let _ = write!(
                out,
                ", \"level\": {}, \"fanout\": {}, \"delay_ps\": {}, \"arrival_ps\": {}}}",
                step.level,
                step.fanout,
                json_ps(step.delay),
                json_ps(step.arrival),
            );
        }
        out.push_str(if self.critical_path.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"endpoints\": [");
        for (i, ep) in self.endpoints.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"node\": ");
            json_str(&mut out, &ep.node);
            let _ = write!(out, ", \"kind\": \"{}\"", ep.kind.label());
            let _ = write!(
                out,
                ", \"arrival_ps\": {}, \"required_ps\": {}, \"slack_ps\": {}, \"depth\": {}, \"startpoint\": ",
                json_ps(ep.arrival),
                json_ps(ep.required),
                json_ps(ep.slack),
                ep.depth,
            );
            json_str(&mut out, &ep.startpoint);
            out.push('}');
        }
        out.push_str(if self.endpoints.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"node_slack\": [");
        for (i, ns) in self.node_slacks.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"node\": ");
            json_str(&mut out, &ns.node);
            let _ = write!(
                out,
                ", \"level\": {}, \"arrival_ps\": {}, \"required_ps\": {}, \"slack_ps\": {}}}",
                ns.level,
                json_ps(ns.arrival),
                json_ps(ns.required),
                json_ps(ns.slack),
            );
        }
        out.push_str(if self.node_slacks.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        out
    }
}

impl fmt::Display for StaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "static timing report: {}", self.target)?;
        writeln!(
            f,
            "operating point: vdd {:.3} V, vt {:.3} V",
            self.vdd.0, self.vt.0
        )?;
        writeln!(
            f,
            "nodes {}  gates {}  levels {}  registers {}",
            self.nodes, self.gates, self.levels, self.registers
        )?;
        if !self.feasible {
            writeln!(f, "INFEASIBLE: vdd <= vt, devices cannot switch")?;
        }
        writeln!(
            f,
            "critical delay {}  required {}  worst slack {}",
            fmt_ps(self.critical),
            fmt_ps(self.required),
            fmt_ps(self.worst_slack)
        )?;
        match self.critical_path.last() {
            Some(last) => {
                writeln!(
                    f,
                    "critical path ({} gates, to '{}'):",
                    self.critical_path.len(),
                    last.output
                )?;
                for step in &self.critical_path {
                    writeln!(
                        f,
                        "  level {:>3}  {:<5} -> {:<12} fanout {:>2}  delay {:>12}  arrival {:>12}",
                        step.level,
                        step.gate,
                        step.output,
                        step.fanout,
                        fmt_ps(step.delay),
                        fmt_ps(step.arrival)
                    )?;
                }
            }
            None => writeln!(f, "critical path: empty (endpoint is a primary input)")?,
        }
        writeln!(f, "endpoints ({}):", self.endpoints.len())?;
        for ep in &self.endpoints {
            writeln!(
                f,
                "  {:<12} {:<8} arrival {:>12}  slack {:>12}  depth {:>3}  from '{}'",
                ep.node,
                ep.kind.label(),
                fmt_ps(ep.arrival),
                fmt_ps(ep.slack),
                ep.depth,
                ep.startpoint
            )?;
        }
        if !self.node_slacks.is_empty() {
            writeln!(f, "node slack:")?;
            for ns in &self.node_slacks {
                writeln!(
                    f,
                    "  {:<12} level {:>3}  arrival {:>12}  required {:>12}  slack {:>12}",
                    ns.node,
                    ns.level,
                    fmt_ps(ns.arrival),
                    fmt_ps(ns.required),
                    fmt_ps(ns.slack)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> StaReport {
        StaReport {
            target: "t".to_owned(),
            vdd: Volts(1.0),
            vt: Volts(0.2),
            feasible: true,
            nodes: 3,
            gates: 1,
            levels: 1,
            registers: 0,
            critical: Seconds(10e-12),
            required: Seconds(10e-12),
            worst_slack: Seconds(0.0),
            critical_path: vec![PathStep {
                gate: "and2".to_owned(),
                output: "y".to_owned(),
                level: 1,
                fanout: 1,
                delay: Seconds(10e-12),
                arrival: Seconds(10e-12),
            }],
            endpoints: vec![EndpointSummary {
                node: "y".to_owned(),
                node_index: 2,
                kind: EndpointKind::Output,
                arrival: Seconds(10e-12),
                required: Seconds(10e-12),
                slack: Seconds(0.0),
                depth: 1,
                startpoint: "a".to_owned(),
            }],
            node_slacks: vec![NodeSlack {
                node: "a".to_owned(),
                level: 0,
                arrival: Seconds(0.0),
                required: Seconds(0.0),
                slack: Seconds(0.0),
            }],
        }
    }

    #[test]
    fn text_names_the_path_and_operating_point() {
        let text = tiny_report().to_string();
        assert!(text.contains("static timing report: t"));
        assert!(text.contains("vdd 1.000 V, vt 0.200 V"));
        assert!(text.contains("and2"));
        assert!(text.contains("critical delay 10.000 ps"));
    }

    #[test]
    fn json_is_parseable_shape_and_nulls_non_finite() {
        let mut r = tiny_report();
        r.feasible = false;
        r.critical = Seconds(f64::INFINITY);
        let json = r.to_json();
        assert!(json.contains("\"critical_ps\": null"));
        assert!(json.contains("\"feasible\": false"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_escapes_hostile_names() {
        let mut out = String::new();
        json_str(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }
}
