//! Compiled bit-parallel (parallel-pattern) simulation backend.
//!
//! The event-driven [`Simulator`](crate::sim::Simulator) pays a heap
//! push/pop per gate evaluation and re-settles the whole netlist once per
//! (fault, vector) pair. This module trades that generality for
//! throughput the classic EDA way: a **levelization pass** over the
//! netlist's CSR fanout index cuts `Dff` edges (exactly as the lint
//! engine's Tarjan pass does), topologically orders the combinational
//! core into per-level struct-of-arrays gate tables, and a **two-plane
//! bitwise evaluator** (`val`/`known` u64 planes, so X propagates soundly
//! through Kleene logic) settles 64 stimulus vectors per machine word per
//! gate — no heap, no events, no per-vector allocation.
//!
//! On an acyclic combinational core the event simulator's settled state
//! is the unique fixpoint of the gate functions, which is exactly what
//! levelized evaluation computes, so packed results are **bit-identical**
//! to the event engine — including X propagation, because every plane
//! operation implements the same three-valued algebra as
//! [`GateKind::evaluate`].
//!
//! On top of the evaluator, [`run_campaign_packed`] computes the golden
//! planes once per 64-vector word and, per fault, re-evaluates only
//! levels at or after the injection point, early-exiting the moment the
//! difference frontier against the golden planes goes all-zero
//! (concurrent-fault-style dropout). The event engine remains required
//! for combinational cycles, bridge-fault drive fights, gated or derived
//! flip-flop clocks, register-to-register feedback, and
//! oscillation/timing diagnosis — a levelized evaluator cannot
//! oscillate, so such netlists are refused with
//! [`CircuitError::Unlevelizable`] rather than silently mis-simulated.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::activity::{ActivityReport, NodeActivity};
use crate::error::CircuitError;
use crate::faults::{
    cached_golden_trace, check_stimulus, expand_stimulus, flush_campaign_counters, CampaignOptions,
    FaultOutcome, FaultReport, FaultTarget, GateFault, ResilientCampaign,
};
use crate::logic::Bit;
use crate::netlist::{GateKind, Netlist, NodeId};
use crate::stimulus::PatternSource;
use lowvolt_exec::{run_checkpointed, CheckpointSpec, ExecError, ExecPolicy, ItemStatus};
use lowvolt_obs::{names, span, Recorder};

/// One node's 64 packed lanes: `(val, known)`. Encoding is canonical
/// Kleene: `One` = `(1, 1)`, `Zero` = `(0, 1)`, `X` = `(0, 0)`; a set
/// `val` bit implies a set `known` bit, and every plane operation below
/// preserves that invariant.
type P = (u64, u64);

const ONES: u64 = !0u64;

/// Word-local classification bytes stored in checkpoint-journal records.
const CLASS_MASKED: u8 = 0;
const CLASS_X: u8 = 1;
const CLASS_CORRUPTED: u8 = 2;
const CLASS_BAD_INPUT_INDEX: u8 = 3;
const CLASS_UNKNOWN_NODE: u8 = 4;

#[inline]
fn bit_planes(bit: Bit) -> P {
    match bit {
        Bit::Zero => (0, ONES),
        Bit::One => (ONES, ONES),
        Bit::X => (0, 0),
    }
}

#[inline]
fn lane_bit(p: P, lane: usize) -> Bit {
    if (p.1 >> lane) & 1 == 0 {
        Bit::X
    } else if (p.0 >> lane) & 1 == 1 {
        Bit::One
    } else {
        Bit::Zero
    }
}

#[inline]
fn p_not(a: P) -> P {
    (!a.0 & a.1, a.1)
}

#[inline]
fn p_and(a: P, b: P) -> P {
    // Known when both known, or either side is a known Zero (Zero
    // dominates, as in `Bit::and`).
    (a.0 & b.0, (a.1 & b.1) | (a.1 & !a.0) | (b.1 & !b.0))
}

#[inline]
fn p_or(a: P, b: P) -> P {
    // Known when both known, or either side is a known One.
    (a.0 | b.0, (a.1 & b.1) | a.0 | b.0)
}

#[inline]
fn p_xor(a: P, b: P) -> P {
    let k = a.1 & b.1;
    ((a.0 ^ b.0) & k, k)
}

#[inline]
fn p_mux(s: P, a: P, b: P) -> P {
    let sel0 = s.1 & !s.0;
    let sel1 = s.0;
    let xsel = !s.1;
    // With an X select the output is the data value only where both data
    // inputs are known and agree — `GateKind::evaluate`'s rule.
    let agree = a.1 & b.1 & !(a.0 ^ b.0);
    (
        (sel0 & a.0) | (sel1 & b.0) | (xsel & agree & a.0),
        (sel0 & a.1) | (sel1 & b.1) | (xsel & agree),
    )
}

/// The packed counterpart of [`GateKind::evaluate`], 64 lanes at a time.
#[inline]
fn eval_kind(kind: GateKind, a: P, b: P, c: P) -> P {
    match kind {
        GateKind::Buf => a,
        GateKind::Not => p_not(a),
        GateKind::And2 => p_and(a, b),
        GateKind::And3 => p_and(p_and(a, b), c),
        GateKind::Or2 => p_or(a, b),
        GateKind::Or3 => p_or(p_or(a, b), c),
        GateKind::Nand2 => p_not(p_and(a, b)),
        GateKind::Nand3 => p_not(p_and(p_and(a, b), c)),
        GateKind::Nor2 => p_not(p_or(a, b)),
        GateKind::Nor3 => p_not(p_or(p_or(a, b), c)),
        GateKind::Xor2 => p_xor(a, b),
        GateKind::Xnor2 => p_not(p_xor(a, b)),
        GateKind::Mux2 => p_mux(a, b, c),
        // Flip-flop outputs are level-0 state, never combinationally
        // evaluated; `GateKind::evaluate` returns X for Dff too.
        GateKind::Dff => (0, 0),
    }
}

/// Per-node `val`/`known` bit planes for one 64-vector word.
#[derive(Clone, Debug, PartialEq)]
struct Planes {
    val: Vec<u64>,
    known: Vec<u64>,
}

impl Planes {
    fn new(nodes: usize) -> Planes {
        Planes {
            val: vec![0; nodes],
            known: vec![0; nodes],
        }
    }

    #[inline]
    fn get(&self, node: usize) -> P {
        (self.val[node], self.known[node])
    }

    /// Planes for a possibly-foreign node id — X, matching
    /// [`Simulator::value`](crate::sim::Simulator::value)'s behaviour.
    #[inline]
    fn get_or_x(&self, node: usize) -> P {
        if node < self.val.len() {
            self.get(node)
        } else {
            (0, 0)
        }
    }

    #[inline]
    fn set(&mut self, node: usize, p: P) {
        self.val[node] = p.0;
        self.known[node] = p.1;
    }
}

/// One flip-flop with its `Dff` edge cut: the clock and data inputs it
/// samples and the state output it drives at level 0.
#[derive(Debug, Clone, Copy)]
struct CompiledDff {
    clk: u32,
    d: u32,
    q: u32,
}

/// Accumulates every structure the compiled engine cannot model, so a
/// refusal names all of them in one error instead of stopping at the
/// first. Each finding carries its historical static category string
/// plus a named detail; a single finding keeps the historical
/// [`CircuitError::Unlevelizable`] shape (exact static reason, the
/// contract differential tests match on), while several findings become
/// [`CircuitError::UnlevelizableMany`] with one named entry each. The
/// static timing analyzer reuses this collector through
/// [`CompiledNetlist::compile`] for its cycle refusal.
#[derive(Debug, Default)]
struct IssueCollector {
    /// `(historical static reason, named detail)` per finding.
    issues: Vec<(&'static str, String)>,
}

impl IssueCollector {
    fn push(&mut self, category: &'static str, detail: String) {
        self.issues.push((category, detail));
    }

    /// The refusal built from the collected findings; `Ok(())` when
    /// nothing was collected.
    fn into_result(self) -> Result<(), CircuitError> {
        match self.issues.len() {
            0 => Ok(()),
            1 => Err(CircuitError::Unlevelizable {
                reason: self.issues[0].0,
            }),
            _ => Err(CircuitError::UnlevelizableMany {
                reasons: self.issues.into_iter().map(|(_, d)| d).collect(),
            }),
        }
    }
}

/// A netlist levelized for bit-parallel evaluation: the combinational
/// gates in topological-level order as flat struct-of-arrays tables
/// (kind, input slots, output slot), plus the cut flip-flop edges and a
/// node → reader-gate CSR used to seed fault difference frontiers.
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    node_count: usize,
    /// Gate kind per compiled gate, sorted by (level, original gate id).
    kinds: Vec<GateKind>,
    in0: Vec<u32>,
    in1: Vec<u32>,
    in2: Vec<u32>,
    outs: Vec<u32>,
    /// Topological level per compiled gate (≥ 1; level 0 is nodes).
    gate_level: Vec<u32>,
    /// `level_starts[l]..level_starts[l + 1]` is the compiled-gate range
    /// of level `l + 1`.
    level_starts: Vec<usize>,
    /// CSR of compiled-gate positions reading each node.
    reader_starts: Vec<usize>,
    readers: Vec<u32>,
    /// Original netlist gate index per compiled gate — the key that
    /// maps compiled positions back to gate-keyed annotations such as
    /// power-intent domain assignments.
    source: Vec<u32>,
    /// Level of every node (0 for inputs, flip-flop outputs, and
    /// undriven nodes).
    node_level: Vec<u32>,
    dffs: Vec<CompiledDff>,
}

impl CompiledNetlist {
    /// Levelizes `netlist` for packed evaluation: flip-flop edges are
    /// cut (their outputs become level-0 state nodes, exactly the edge
    /// filter the lint engine's Tarjan pass applies), and every
    /// combinational gate gets level `1 + max(input levels)`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Unlevelizable`] if the combinational core
    /// contains a cycle, a node has more than one driver, or a gate
    /// drives a primary input — all structures only the event-driven
    /// engine can simulate. When several such structures exist they are
    /// all collected and named in one
    /// [`CircuitError::UnlevelizableMany`], so a netlist can be fixed in
    /// a single pass.
    pub fn compile(netlist: &Netlist) -> Result<CompiledNetlist, CircuitError> {
        let node_count = netlist.node_count();
        let gates = netlist.gates();
        let mut issues = IssueCollector::default();
        let mut has_driver = vec![false; node_count];
        let mut dffs = Vec::new();
        let mut comb: Vec<usize> = Vec::new();
        for (gi, g) in gates.iter().enumerate() {
            let out = g.output.index();
            if has_driver[out] {
                issues.push(
                    "a node is driven by more than one gate",
                    format!(
                        "node '{}' is driven by more than one gate",
                        netlist.node_name(g.output)
                    ),
                );
            }
            has_driver[out] = true;
            if netlist.is_primary_input(g.output) {
                issues.push(
                    "a gate drives a primary input",
                    format!(
                        "a gate drives primary input '{}'",
                        netlist.node_name(g.output)
                    ),
                );
            }
            if g.kind == GateKind::Dff {
                dffs.push(CompiledDff {
                    clk: g.inputs[0].index() as u32,
                    d: g.inputs[1].index() as u32,
                    q: out as u32,
                });
            } else {
                comb.push(gi);
            }
        }

        // Kahn's algorithm over the combinational core. A node is level
        // 0 unless a combinational gate drives it; a gate is ready once
        // every input occurrence has a level.
        let mut node_level: Vec<Option<u32>> = vec![Some(0); node_count];
        for &gi in &comb {
            node_level[gates[gi].output.index()] = None;
        }
        let mut node_comb_readers: Vec<Vec<u32>> = vec![Vec::new(); node_count];
        let mut indeg: Vec<u32> = vec![0; comb.len()];
        for (ci, &gi) in comb.iter().enumerate() {
            for inp in &gates[gi].inputs {
                if node_level[inp.index()].is_none() {
                    indeg[ci] += 1;
                    node_comb_readers[inp.index()].push(ci as u32);
                }
            }
        }
        let mut queue: Vec<u32> = indeg
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(ci, _)| ci as u32)
            .collect();
        let mut gate_level_by_ci: Vec<u32> = vec![0; comb.len()];
        let mut done = vec![false; comb.len()];
        let mut done_count = 0usize;
        let mut head = 0usize;
        while head < queue.len() {
            let ci = queue[head] as usize;
            head += 1;
            // A multiply-driven node (already collected above) can make
            // a reader's in-degree hit zero more than once; process each
            // gate at most once.
            if done[ci] {
                continue;
            }
            done[ci] = true;
            done_count += 1;
            let gi = comb[ci];
            let lvl = 1 + gates[gi]
                .inputs
                .iter()
                .map(|n| node_level[n.index()].unwrap_or(0))
                .max()
                .unwrap_or(0);
            gate_level_by_ci[ci] = lvl;
            let out = gates[gi].output.index();
            node_level[out] = Some(lvl);
            for &rdr in &node_comb_readers[out] {
                let rdr = rdr as usize;
                indeg[rdr] = indeg[rdr].saturating_sub(1);
                if indeg[rdr] == 0 && !done[rdr] {
                    queue.push(rdr as u32);
                }
            }
        }
        if done_count != comb.len() {
            // Name the cycle members: outputs of gates never dequeued.
            let stuck: Vec<&str> = comb
                .iter()
                .enumerate()
                .filter(|&(ci, _)| !done[ci])
                .map(|(_, &gi)| netlist.node_name(gates[gi].output))
                .take(8)
                .collect();
            issues.push(
                "combinational cycle",
                format!("combinational cycle through node(s) {}", stuck.join(", ")),
            );
        }
        issues.into_result()?;

        // Compiled order: (level, original gate id) — deterministic and
        // cache-friendly per-level sweeps.
        let mut order: Vec<u32> = (0..comb.len() as u32).collect();
        order.sort_by_key(|&ci| (gate_level_by_ci[ci as usize], comb[ci as usize]));
        let level_count = order
            .last()
            .map_or(0, |&ci| gate_level_by_ci[ci as usize] as usize);

        let mut kinds = Vec::with_capacity(comb.len());
        let mut in0 = Vec::with_capacity(comb.len());
        let mut in1 = Vec::with_capacity(comb.len());
        let mut in2 = Vec::with_capacity(comb.len());
        let mut outs = Vec::with_capacity(comb.len());
        let mut gate_level = Vec::with_capacity(comb.len());
        let mut source = Vec::with_capacity(comb.len());
        let mut level_starts = vec![0usize; level_count + 1];
        for &ci in &order {
            let gi = comb[ci as usize];
            let g = &gates[gi];
            kinds.push(g.kind);
            let a = g.inputs[0].index() as u32;
            in0.push(a);
            in1.push(g.inputs.get(1).map_or(a, |n| n.index() as u32));
            in2.push(g.inputs.get(2).map_or(a, |n| n.index() as u32));
            outs.push(g.output.index() as u32);
            gate_level.push(gate_level_by_ci[ci as usize]);
            source.push(gi as u32);
            level_starts[gate_level_by_ci[ci as usize] as usize] += 1;
        }
        // Prefix-sum the per-level counts into range starts.
        let mut acc = 0usize;
        for slot in &mut level_starts {
            let n = *slot;
            *slot = acc;
            acc += n;
        }

        // Reader CSR over the compiled gates, positions ascending.
        let mut reader_starts = vec![0usize; node_count + 1];
        for p in 0..kinds.len() {
            for slot in 0..kinds[p].arity() {
                let n = [in0[p], in1[p], in2[p]][slot] as usize;
                reader_starts[n + 1] += 1;
            }
        }
        for i in 0..node_count {
            reader_starts[i + 1] += reader_starts[i];
        }
        let mut cursor = reader_starts.clone();
        let mut readers = vec![0u32; reader_starts[node_count]];
        for p in 0..kinds.len() {
            for slot in 0..kinds[p].arity() {
                let n = [in0[p], in1[p], in2[p]][slot] as usize;
                readers[cursor[n]] = p as u32;
                cursor[n] += 1;
            }
        }

        Ok(CompiledNetlist {
            node_count,
            kinds,
            in0,
            in1,
            in2,
            outs,
            gate_level,
            level_starts,
            reader_starts,
            readers,
            source,
            node_level: node_level.into_iter().map(|l| l.unwrap_or(0)).collect(),
            dffs,
        })
    }

    /// Number of topological levels in the combinational core.
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.level_starts.len() - 1
    }

    /// Number of combinational gates in the compiled tables.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of flip-flop edges cut during levelization.
    #[must_use]
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// Number of nodes in the source netlist (levelized node ids are the
    /// netlist's node indices).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Kind of compiled gate `p`. Compiled positions are level-ascending
    /// (all of level 1, then level 2, …), so a plain `0..gate_count()`
    /// sweep is a topological order — the property the static timing
    /// analyzer's forward/backward passes rely on.
    #[must_use]
    pub fn gate_kind(&self, p: usize) -> GateKind {
        self.kinds[p]
    }

    /// Input node indices of compiled gate `p`; only the first
    /// [`GateKind::arity`] entries are meaningful (unary gates repeat
    /// their single input in the unused slots).
    #[must_use]
    pub fn gate_inputs(&self, p: usize) -> [usize; 3] {
        [
            self.in0[p] as usize,
            self.in1[p] as usize,
            self.in2[p] as usize,
        ]
    }

    /// Output node index of compiled gate `p`.
    #[must_use]
    pub fn gate_output(&self, p: usize) -> usize {
        self.outs[p] as usize
    }

    /// Original netlist gate index of compiled gate `p`, for looking up
    /// gate-keyed annotations (e.g. power-intent domain assignments).
    #[must_use]
    pub fn gate_source(&self, p: usize) -> usize {
        self.source[p] as usize
    }

    /// Topological level of compiled gate `p` (levels start at 1; level
    /// 0 is the node plane).
    #[must_use]
    pub fn gate_level(&self, p: usize) -> usize {
        self.gate_level[p] as usize
    }

    /// Topological level of node `n`: 0 for primary inputs, flip-flop
    /// outputs, and undriven nodes; the driving gate's level otherwise.
    #[must_use]
    pub fn node_level(&self, n: usize) -> usize {
        self.node_level[n] as usize
    }

    /// Number of compiled-gate input pins reading node `n` — the fanout
    /// count the static timing analyzer prices capacitive load from.
    #[must_use]
    pub fn node_fanout(&self, n: usize) -> usize {
        self.reader_starts[n + 1] - self.reader_starts[n]
    }

    /// Node indices of every cut flip-flop's data (`d`) input — the
    /// register capture endpoints of the combinational DAG.
    #[must_use]
    pub fn dff_data_nodes(&self) -> Vec<usize> {
        self.dffs.iter().map(|d| d.d as usize).collect()
    }

    /// Node indices of every cut flip-flop's state (`q`) output — the
    /// level-0 register launch points of the combinational DAG.
    #[must_use]
    pub fn dff_state_nodes(&self) -> Vec<usize> {
        self.dffs.iter().map(|d| d.q as usize).collect()
    }

    #[inline]
    fn eval_at(&self, p: usize, planes: &Planes) -> P {
        eval_kind(
            self.kinds[p],
            planes.get(self.in0[p] as usize),
            planes.get(self.in1[p] as usize),
            planes.get(self.in2[p] as usize),
        )
    }

    /// Full-netlist packed settle: one sweep in level order.
    fn eval_all(&self, planes: &mut Planes) {
        for p in 0..self.kinds.len() {
            let out = self.outs[p] as usize;
            let v = self.eval_at(p, planes);
            planes.set(out, v);
        }
    }

    fn node_readers(&self, node: usize) -> &[u32] {
        &self.readers[self.reader_starts[node]..self.reader_starts[node + 1]]
    }

    /// Checks the netlist/target pairing against the packed campaign's
    /// supported shapes (see the module docs for the full list). Every
    /// violation is collected and named, so a refusal lists all of the
    /// target's unsupported structures at once; `bridge_faults` folds
    /// the fault-universe check into the same report.
    fn validate_campaign(
        &self,
        target: &FaultTarget,
        bridge_faults: bool,
    ) -> Result<(), CircuitError> {
        let mut issues = IssueCollector::default();
        let name_of = |n: usize| target.netlist.node_name(NodeId::from_index(n));
        match target.clock {
            Some(clk) => {
                let clk = clk.index();
                if clk >= self.node_count {
                    return Err(CircuitError::UnknownNode(clk));
                }
                if target.inputs.iter().any(|n| n.index() == clk) {
                    issues.push(
                        "the campaign clock overlaps the stimulus inputs",
                        format!(
                            "the campaign clock '{}' overlaps the stimulus inputs",
                            name_of(clk)
                        ),
                    );
                }
                if self.node_level[clk] > 0 || self.dffs.iter().any(|d| d.q as usize == clk) {
                    issues.push(
                        "the campaign clock is itself a driven node",
                        format!(
                            "the campaign clock '{}' is itself a driven node",
                            name_of(clk)
                        ),
                    );
                }
                let gated: Vec<&str> = self
                    .dffs
                    .iter()
                    .filter(|d| d.clk as usize != clk)
                    .map(|d| name_of(d.q as usize))
                    .take(8)
                    .collect();
                if !gated.is_empty() {
                    issues.push(
                        "gated or derived flip-flop clocks need the event engine",
                        format!(
                            "gated or derived flip-flop clocks need the event engine \
                             (flip-flop(s) {})",
                            gated.join(", ")
                        ),
                    );
                }
                if self.state_feedback() {
                    issues.push(
                        "register-to-register feedback needs the event engine",
                        "register-to-register feedback needs the event engine".to_string(),
                    );
                }
            }
            None => {
                // Without a declared clock the event engine never
                // toggles one either, so flip-flops are inert (stuck at
                // X) — but only if nothing can edge their clock pins.
                let edged: Vec<&str> = self
                    .dffs
                    .iter()
                    .filter(|d| {
                        let clk = d.clk as usize;
                        self.node_level[clk] > 0 || target.inputs.iter().any(|n| n.index() == clk)
                    })
                    .map(|d| name_of(d.q as usize))
                    .take(8)
                    .collect();
                if !edged.is_empty() {
                    issues.push(
                        "flip-flops without a declared campaign clock need the event engine",
                        format!(
                            "flip-flops without a declared campaign clock need the event \
                             engine (flip-flop(s) {})",
                            edged.join(", ")
                        ),
                    );
                }
            }
        }
        if bridge_faults {
            issues.push(
                "bridge faults need the event engine",
                "bridge faults need the event engine".to_string(),
            );
        }
        issues.into_result()
    }

    /// Whether any flip-flop output combinationally reaches any
    /// flip-flop data input. Lane-local single-shot capture is only
    /// sound when it does not: with feedback, vector `t`'s captured
    /// state depends on vector `t - 1`.
    fn state_feedback(&self) -> bool {
        let is_d: Vec<bool> = {
            let mut v = vec![false; self.node_count];
            for dff in &self.dffs {
                v[dff.d as usize] = true;
            }
            v
        };
        let mut seen = vec![false; self.node_count];
        let mut stack: Vec<usize> = Vec::new();
        for dff in &self.dffs {
            let q = dff.q as usize;
            if !seen[q] {
                seen[q] = true;
                stack.push(q);
            }
        }
        while let Some(n) = stack.pop() {
            if is_d[n] {
                return true;
            }
            for &p in self.node_readers(n) {
                let out = self.outs[p as usize] as usize;
                if !seen[out] {
                    seen[out] = true;
                    stack.push(out);
                }
            }
        }
        false
    }

    /// Settles a single stimulus vector and returns every node's settled
    /// value — the packed evaluator running one lane, for differential
    /// and property testing against [`Simulator::settle`].
    ///
    /// [`Simulator::settle`]: crate::sim::Simulator::settle
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthMismatch`] if `bits` and `inputs`
    /// disagree in length, [`CircuitError::UnknownNode`] for a foreign
    /// input node, or [`CircuitError::Unlevelizable`] if a flip-flop
    /// clock could see an edge (combinationally driven), where event
    /// timing decides what gets captured.
    pub fn settle_vector(&self, inputs: &[NodeId], bits: &[Bit]) -> Result<Vec<Bit>, CircuitError> {
        if inputs.len() != bits.len() {
            return Err(CircuitError::WidthMismatch {
                what: "set_bus",
                expected: inputs.len(),
                got: bits.len(),
            });
        }
        for n in inputs {
            if n.index() >= self.node_count {
                return Err(CircuitError::UnknownNode(n.index()));
            }
        }
        if self
            .dffs
            .iter()
            .any(|d| self.node_level[d.clk as usize] > 0)
        {
            return Err(CircuitError::Unlevelizable {
                reason: "gated or derived flip-flop clocks need the event engine",
            });
        }
        let mut planes = Planes::new(self.node_count);
        for (n, &b) in inputs.iter().zip(bits) {
            planes.set(n.index(), bit_planes(b));
        }
        self.eval_all(&mut planes);
        Ok((0..self.node_count)
            .map(|n| lane_bit(planes.get(n), 0))
            .collect())
    }
}

/// Reusable per-word worklist state for fault re-evaluation: a working
/// plane set kept equal to its golden reference between faults via an
/// undo log, an epoch-stamped dedup array, and per-level gate buckets.
struct Scratch {
    planes: Planes,
    /// Nodes whose planes differ from the reference — the fault's
    /// difference frontier, also the undo log.
    touched: Vec<u32>,
    queued: Vec<u64>,
    epoch: u64,
    buckets: Vec<Vec<u32>>,
    /// Lowest bucket holding an enqueued gate (`usize::MAX` when none),
    /// so propagation starts there instead of at level 1.
    lowest: usize,
}

impl Scratch {
    fn new(comp: &CompiledNetlist, reference: &Planes) -> Scratch {
        Scratch {
            planes: reference.clone(),
            touched: Vec::new(),
            queued: vec![0; comp.gate_count()],
            epoch: 0,
            buckets: vec![Vec::new(); comp.level_count()],
            lowest: usize::MAX,
        }
    }

    fn undo(&mut self, reference: &Planes) {
        while let Some(n) = self.touched.pop() {
            let n = n as usize;
            self.planes.set(n, reference.get(n));
        }
    }
}

impl CompiledNetlist {
    fn enqueue_readers(&self, s: &mut Scratch, node: usize, pending: &mut usize) {
        for &p in self.node_readers(node) {
            let p = p as usize;
            if s.queued[p] != s.epoch {
                s.queued[p] = s.epoch;
                let bucket = self.gate_level[p] as usize - 1;
                s.buckets[bucket].push(p as u32);
                s.lowest = s.lowest.min(bucket);
                *pending += 1;
            }
        }
    }

    /// Writes `new` at `node` if it differs from the working planes,
    /// logging the touch and enqueueing the node's readers.
    fn seed(&self, s: &mut Scratch, node: usize, new: P, pending: &mut usize) {
        if s.planes.get(node) == new {
            return;
        }
        s.touched.push(node as u32);
        s.planes.set(node, new);
        self.enqueue_readers(s, node, pending);
    }

    /// Difference-frontier propagation: evaluates only enqueued gates,
    /// level-ascending from the lowest enqueued level, enqueueing fanout
    /// only where the faulty planes diverge from `reference`. Early-exits
    /// the moment no gate remains enqueued — the concurrent-fault-style
    /// dropout. Returns the gate evaluations performed and whether the
    /// frontier died before the last level.
    fn propagate(
        &self,
        s: &mut Scratch,
        reference: &Planes,
        forced: Option<usize>,
        mut pending: usize,
    ) -> (u64, bool) {
        let mut evals = 0u64;
        let mut dropped = false;
        // Levels below the lowest enqueued one hold no work; an empty
        // frontier still reports its dropout from level 1.
        let first = if pending == 0 { 0 } else { s.lowest };
        for l in first..self.level_count() {
            if pending == 0 {
                dropped = true;
                break;
            }
            let mut i = 0;
            while i < s.buckets[l].len() {
                let p = s.buckets[l][i] as usize;
                i += 1;
                pending -= 1;
                let out = self.outs[p] as usize;
                if forced == Some(out) {
                    continue;
                }
                evals += 1;
                let new = self.eval_at(p, &s.planes);
                if new != reference.get(out) {
                    s.touched.push(out as u32);
                    s.planes.set(out, new);
                    self.enqueue_readers(s, out, &mut pending);
                }
            }
            s.buckets[l].clear();
        }
        s.lowest = usize::MAX;
        (evals, dropped)
    }
}

/// Per-campaign lookups that keep a fault's cost proportional to its
/// difference frontier: the flip-flops each data node feeds (so phase B
/// carries only touched state) and which nodes are observed outputs (so
/// classification visits only touched outputs).
struct FrontierIndex {
    /// `q_starts[n]..q_starts[n + 1]` ranges over `qs`, the state nodes
    /// of the flip-flops whose data input is node `n`.
    q_starts: Vec<u32>,
    qs: Vec<u32>,
    /// Whether each node is one of the target's observed outputs.
    is_output: Vec<bool>,
}

impl FrontierIndex {
    fn new(comp: &CompiledNetlist, target: &FaultTarget) -> FrontierIndex {
        let mut q_starts = vec![0u32; comp.node_count + 1];
        for dff in &comp.dffs {
            q_starts[dff.d as usize + 1] += 1;
        }
        for n in 0..comp.node_count {
            q_starts[n + 1] += q_starts[n];
        }
        let mut fill = q_starts.clone();
        let mut qs = vec![0u32; comp.dffs.len()];
        for dff in &comp.dffs {
            let slot = &mut fill[dff.d as usize];
            qs[*slot as usize] = dff.q;
            *slot += 1;
        }
        let mut is_output = vec![false; comp.node_count];
        for n in &target.outputs {
            if let Some(o) = is_output.get_mut(n.index()) {
                *o = true;
            }
        }
        FrontierIndex {
            q_starts,
            qs,
            is_output,
        }
    }

    /// State nodes of the flip-flops sampling data node `n`.
    fn fed_by(&self, n: usize) -> &[u32] {
        &self.qs[self.q_starts[n] as usize..self.q_starts[n + 1] as usize]
    }
}

/// Golden (fault-free) planes for one 64-vector stimulus word.
struct GoldenWord {
    /// Stimulus columns, one per target input, for seeding fault planes.
    input_planes: Vec<P>,
    /// Phase-A planes (clock low) for clocked targets; `None` for
    /// combinational ones.
    a: Option<Planes>,
    /// The planes classification samples: phase B for clocked targets,
    /// the single settled pass otherwise.
    fin: Planes,
    /// Mask of lanes carrying real stimulus vectors (the last word of a
    /// campaign may be partial).
    active: u64,
    lanes: usize,
}

impl CompiledNetlist {
    /// Packs and settles stimulus word `w` fault-free. Clocked targets
    /// run the event engine's two-phase protocol: settle with the clock
    /// low, capture every flip-flop's data plane, then settle with the
    /// clock high and the captured state installed. Single-shot capture
    /// is lane-local because `validate_campaign` rejected
    /// register-to-register feedback.
    fn golden_word(&self, target: &FaultTarget, vecs: &[Vec<Bit>], w: usize) -> (GoldenWord, u64) {
        let base = w * 64;
        let lanes = (vecs.len() - base).min(64);
        let active = if lanes == 64 {
            ONES
        } else {
            (1u64 << lanes) - 1
        };
        let mut input_planes = vec![(0u64, 0u64); target.inputs.len()];
        for t in 0..lanes {
            let row = &vecs[base + t];
            for (j, col) in input_planes.iter_mut().enumerate() {
                match row[j] {
                    Bit::One => {
                        col.0 |= 1 << t;
                        col.1 |= 1 << t;
                    }
                    Bit::Zero => col.1 |= 1 << t,
                    Bit::X => {}
                }
            }
        }
        let set_inputs = |planes: &mut Planes| {
            for (n, &p) in target.inputs.iter().zip(&input_planes) {
                planes.set(n.index(), p);
            }
        };
        let (a, fin, evals) = match target.clock {
            Some(clk) => {
                let mut pa = Planes::new(self.node_count);
                set_inputs(&mut pa);
                pa.set(clk.index(), (0, ONES));
                self.eval_all(&mut pa);
                let captured: Vec<P> = self.dffs.iter().map(|d| pa.get(d.d as usize)).collect();
                let mut pb = Planes::new(self.node_count);
                set_inputs(&mut pb);
                pb.set(clk.index(), (ONES, ONES));
                for (dff, &q) in self.dffs.iter().zip(&captured) {
                    pb.set(dff.q as usize, q);
                }
                self.eval_all(&mut pb);
                (Some(pa), pb, 2 * self.gate_count() as u64)
            }
            None => {
                let mut p = Planes::new(self.node_count);
                set_inputs(&mut p);
                self.eval_all(&mut p);
                (None, p, self.gate_count() as u64)
            }
        };
        (
            GoldenWord {
                input_planes,
                a,
                fin,
                active,
                lanes,
            },
            evals,
        )
    }

    /// Seeds one fault's perturbation into `s` (whose planes equal
    /// `reference`). Returns the forced node (for stuck-at faults) or an
    /// early `Err(class)` for malformed faults the event engine would
    /// classify as `Detected`.
    fn seed_fault(
        &self,
        s: &mut Scratch,
        gw: &GoldenWord,
        target: &FaultTarget,
        fault: &GateFault,
        pending: &mut usize,
    ) -> Result<Option<usize>, u8> {
        match *fault {
            GateFault::NodeStuckAt { node, value } => {
                let n = node.index();
                if n >= self.node_count {
                    return Err(CLASS_UNKNOWN_NODE);
                }
                self.seed(s, n, bit_planes(value), pending);
                Ok(Some(n))
            }
            GateFault::InputX { input_index } => {
                if input_index >= target.inputs.len() {
                    return Err(CLASS_BAD_INPUT_INDEX);
                }
                let n = target.inputs[input_index].index();
                self.seed(s, n, (0, 0), pending);
                Ok(None)
            }
            GateFault::StimulusBitFlip { input_index } => {
                if input_index >= target.inputs.len() {
                    return Err(CLASS_BAD_INPUT_INDEX);
                }
                let n = target.inputs[input_index].index();
                // `Bit::not` flips known lanes and keeps X lanes X.
                let cur = gw.input_planes[input_index];
                self.seed(s, n, (cur.0 ^ cur.1, cur.1), pending);
                Ok(None)
            }
            // Rejected up front by `run_campaign_packed`.
            GateFault::Bridge { .. } => Err(CLASS_UNKNOWN_NODE),
        }
    }

    /// Classifies the faulty planes against the golden planes over the
    /// observed outputs, restricted to active lanes — the packed form of
    /// the event campaign's per-vector `classify` scan. Only the touched
    /// outputs are visited: an untouched output equals its golden value,
    /// and a foreign output id is X on both sides, so neither can set a
    /// definite or X-divergent lane.
    fn classify_word(index: &FrontierIndex, gw: &GoldenWord, faulty: &Scratch) -> u8 {
        let mut definite = 0u64;
        let mut xdiv = 0u64;
        for &n in &faulty.touched {
            let n = n as usize;
            if !index.is_output[n] {
                continue;
            }
            let g = gw.fin.get(n);
            let f = faulty.planes.get(n);
            definite |= g.1 & f.1 & (g.0 ^ f.0);
            xdiv |= g.1 ^ f.1;
        }
        if definite & gw.active != 0 {
            CLASS_CORRUPTED
        } else if xdiv & gw.active != 0 {
            CLASS_X
        } else {
            CLASS_MASKED
        }
    }

    /// Evaluates one fault over one stimulus word via difference-frontier
    /// propagation, returning the word-local class byte plus (gate
    /// evaluations, dropout flag).
    fn fault_word_class(
        &self,
        target: &FaultTarget,
        index: &FrontierIndex,
        gw: &GoldenWord,
        sa: &mut Option<Scratch>,
        sb: &mut Scratch,
        fault: &GateFault,
    ) -> (u8, u64, bool) {
        let mut evals = 0u64;
        let mut dropped = false;
        // A stuck clock never produces the clean low→high edge flip-flops
        // capture on, so state is X for every lane; everything else about
        // the circuit still sees the forced clock level.
        let clock_fault = match (fault, target.clock) {
            (&GateFault::NodeStuckAt { node, value }, Some(clk)) if node == clk => Some(value),
            _ => None,
        };
        if let (Some(ga), None) = (gw.a.as_ref(), clock_fault) {
            // Clocked target, non-clock fault: phase A computes the
            // faulty captured state, phase B samples the outputs.
            let sa = match sa.as_mut() {
                Some(s) => s,
                None => return (CLASS_MASKED, 0, false),
            };
            sa.epoch += 1;
            let mut pending = 0usize;
            let forced = match self.seed_fault(sa, gw, target, fault, &mut pending) {
                Ok(f) => f,
                Err(class) => return (class, 0, false),
            };
            let (e, d) = self.propagate(sa, ga, forced, pending);
            evals += e;
            dropped |= d;

            sb.epoch += 1;
            let mut pending = 0usize;
            let forced = match self.seed_fault(sb, gw, target, fault, &mut pending) {
                Ok(f) => f,
                Err(class) => {
                    sa.undo(ga);
                    return (class, evals, dropped);
                }
            };
            // Only a touched data node captures a non-golden state; every
            // other flip-flop already holds its golden state in `gw.fin`.
            for &dn in &sa.touched {
                let captured = sa.planes.get(dn as usize);
                for &qn in index.fed_by(dn as usize) {
                    let qn = qn as usize;
                    if forced != Some(qn) {
                        self.seed(sb, qn, captured, &mut pending);
                    }
                }
            }
            sa.undo(ga);
            let (e, d) = self.propagate(sb, &gw.fin, forced, pending);
            evals += e;
            dropped |= d;
            let class = Self::classify_word(index, gw, sb);
            sb.undo(&gw.fin);
            return (class, evals, dropped);
        }
        // Combinational target, inert flip-flops, or a stuck clock:
        // a single pass in the sampled (phase-B) plane space.
        sb.epoch += 1;
        let mut pending = 0usize;
        let forced = match clock_fault {
            Some(value) => {
                let clk = match target.clock {
                    Some(c) => c.index(),
                    None => 0,
                };
                self.seed(sb, clk, bit_planes(value), &mut pending);
                for dff in &self.dffs {
                    self.seed(sb, dff.q as usize, (0, 0), &mut pending);
                }
                Some(clk)
            }
            None => match self.seed_fault(sb, gw, target, fault, &mut pending) {
                Ok(f) => f,
                Err(class) => return (class, 0, false),
            },
        };
        let (e, d) = self.propagate(sb, &gw.fin, forced, pending);
        evals += e;
        dropped |= d;
        let class = Self::classify_word(index, gw, sb);
        sb.undo(&gw.fin);
        (class, evals, dropped)
    }

    /// The packed counterpart of
    /// [`Simulator::measure_activity`](crate::sim::Simulator::measure_activity):
    /// applies `cycles` pattern vectors 64 at a time and counts **settled**
    /// per-node transitions between consecutive cycles, discarding
    /// transitions into the first `warmup` cycles.
    ///
    /// The event engine counts every transition its event loop applies,
    /// *including glitches* on reconvergent paths; a zero-delay levelized
    /// evaluator has no event ordering, so this method reports the
    /// settled-state activity instead — the α a glitch-free
    /// implementation of the same logic would exhibit. The two agree
    /// exactly on glitch-free circuits.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidStimulus`] if `warmup >= cycles`,
    /// [`CircuitError::WidthMismatch`] if the source width mismatches the
    /// input count, [`CircuitError::UnknownNode`] for a foreign input
    /// node, or [`CircuitError::Unlevelizable`] if any flip-flop clock
    /// could see an edge (stimulus-driven or combinationally driven) —
    /// multi-cycle state needs the event engine.
    pub fn measure_activity(
        &self,
        netlist: &Netlist,
        rec: &dyn Recorder,
        source: &mut PatternSource,
        inputs: &[NodeId],
        cycles: usize,
        warmup: usize,
    ) -> Result<ActivityReport, CircuitError> {
        if warmup >= cycles {
            return Err(CircuitError::InvalidStimulus {
                reason: "warmup must leave cycles to measure",
            });
        }
        if source.width() != inputs.len() {
            return Err(CircuitError::WidthMismatch {
                what: "set_bus",
                expected: inputs.len(),
                got: source.width(),
            });
        }
        for n in inputs {
            if n.index() >= self.node_count {
                return Err(CircuitError::UnknownNode(n.index()));
            }
        }
        for dff in &self.dffs {
            let clk = dff.clk as usize;
            if self.node_level[clk] > 0 || inputs.iter().any(|n| n.index() == clk) {
                return Err(CircuitError::Unlevelizable {
                    reason: "clocked activity measurement needs the event engine",
                });
            }
        }
        let timer = span(rec, names::SPAN_SIM_MEASURE_ACTIVITY);
        let vecs: Vec<Vec<Bit>> = (0..cycles).map(|_| source.next_pattern()).collect();
        let mut rising = vec![0u64; self.node_count];
        let mut falling = vec![0u64; self.node_count];
        let mut planes = Planes::new(self.node_count);
        // Lane 63 of each word carried into lane 0 of the next; the
        // initial "previous cycle" is X, so nothing counts into cycle 0.
        let mut carry_v = vec![0u64; self.node_count];
        let mut carry_k = vec![0u64; self.node_count];
        let n_words = cycles.div_ceil(64);
        let mut evals = 0u64;
        for w in 0..n_words {
            let base = w * 64;
            let lanes = (cycles - base).min(64);
            for (j, n) in inputs.iter().enumerate() {
                let mut col = (0u64, 0u64);
                for (t, row) in vecs[base..base + lanes].iter().enumerate() {
                    match row[j] {
                        Bit::One => {
                            col.0 |= 1 << t;
                            col.1 |= 1 << t;
                        }
                        Bit::Zero => col.1 |= 1 << t,
                        Bit::X => {}
                    }
                }
                planes.set(n.index(), col);
            }
            self.eval_all(&mut planes);
            evals += self.gate_count() as u64;
            // Transitions *into* cycle t count when t >= warmup — the
            // event engine enables counting after the warmup settles.
            let mut measured = if lanes == 64 {
                ONES
            } else {
                (1u64 << lanes) - 1
            };
            if warmup > base {
                let skip = warmup - base;
                measured = if skip >= 64 {
                    0
                } else {
                    measured & (ONES << skip)
                };
            }
            for n in 0..self.node_count {
                let cur = planes.get(n);
                let prev_v = (cur.0 << 1) | carry_v[n];
                let prev_k = (cur.1 << 1) | carry_k[n];
                rising[n] += u64::from((prev_k & !prev_v & cur.0 & cur.1 & measured).count_ones());
                falling[n] += u64::from((prev_v & prev_k & !cur.0 & cur.1 & measured).count_ones());
                if lanes == 64 {
                    carry_v[n] = cur.0 >> 63;
                    carry_k[n] = cur.1 >> 63;
                }
            }
        }
        let entries: Vec<NodeActivity> = netlist
            .node_ids()
            .map(|n| NodeActivity {
                node: n,
                name: netlist.node_name(n).to_string(),
                rising: rising[n.index()],
                falling: falling[n.index()],
                capacitance: netlist.node_capacitance(n),
                is_primary_input: netlist.is_primary_input(n),
            })
            .collect();
        drop(timer);
        if rec.is_enabled() {
            let internal = entries.iter().filter(|e| !e.is_primary_input).count();
            rec.add(names::SIM_ALPHA_NODES, internal as u64);
            rec.add(
                names::SIM_TRANSITIONS_RISING,
                entries.iter().map(|e| e.rising).sum(),
            );
            rec.add(
                names::SIM_TRANSITIONS_FALLING,
                entries.iter().map(|e| e.falling).sum(),
            );
            rec.add(names::COMPILED_WORDS, n_words as u64);
            rec.add(names::COMPILED_GATE_EVALS, evals);
        }
        Ok(ActivityReport::new(entries, (cycles - warmup) as u64))
    }
}

/// Faults per compiled-campaign work item. A longer fault list splits
/// into near-equal contiguous ranges, so one stimulus word becomes
/// several parallel, separately journaled items. The plan depends only
/// on the campaign, never on the thread count, so a journal resumes
/// under any thread count.
const FAULTS_PER_ITEM: usize = 16_384;

/// The contiguous fault ranges every stimulus word is split into:
/// `ceil(faults / FAULTS_PER_ITEM)` of them (at least one), of
/// near-equal length.
fn fault_ranges(faults: usize) -> Vec<Range<usize>> {
    let count = faults.div_ceil(FAULTS_PER_ITEM).max(1);
    (0..count)
        .map(|r| r * faults / count..(r + 1) * faults / count)
        .collect()
}

/// Work items — and checkpoint-journal records — of a compiled campaign
/// over `faults` faults and `vectors` stimulus vectors: one per
/// (64-vector word, fault range) pair. Items are numbered word-major,
/// so item `w * ranges + r` is range `r` of word `w`.
#[must_use]
pub fn campaign_items(faults: usize, vectors: usize) -> usize {
    vectors.div_ceil(64) * fault_ranges(faults).len()
}

/// A record whose class count is not its item's range length was
/// written under another item plan (a word-sized record of an older
/// journal). Returns the completed-record map without such records, one
/// warning each, so they are recomputed rather than misread; `None` when
/// every record fits.
fn without_misfit_records(
    spec: &CheckpointSpec<'_>,
    items: &[(usize, Range<usize>)],
    warnings: &mut Vec<String>,
) -> Option<HashMap<u64, Vec<u8>>> {
    let mut kept: Option<HashMap<u64, Vec<u8>>> = None;
    for (i, (_, range)) in items.iter().enumerate() {
        let key = spec.index_base + i as u64;
        let held = spec
            .completed
            .get(&key)
            .and_then(|bytes| crate::persist::decode_word_classes(bytes))
            .map(|c| c.len());
        if let Some(held) = held.filter(|&h| h != range.len()) {
            warnings.push(format!(
                "checkpoint record {key} holds {held} fault classes, not its item's {}; \
                 recomputing item",
                range.len()
            ));
            kept.get_or_insert_with(|| spec.completed.clone())
                .remove(&key);
        }
    }
    kept
}

/// Outcome of one fault from the class bytes of all its words.
/// Precedence mirrors the event engine: a trace error is `Detected`
/// before any vector is classified, a definite disagreement anywhere
/// dominates X divergence, X divergence dominates agreement.
fn packed_outcome(fault: &GateFault, has: &[bool; 5]) -> FaultOutcome {
    if has[usize::from(CLASS_UNKNOWN_NODE)] {
        match *fault {
            GateFault::NodeStuckAt { node, .. } => {
                FaultOutcome::Detected(CircuitError::UnknownNode(node.index()))
            }
            _ => FaultOutcome::Detected(CircuitError::Internal {
                detail: "unknown-node class for a non-stuck-at fault",
            }),
        }
    } else if has[usize::from(CLASS_BAD_INPUT_INDEX)] {
        FaultOutcome::Detected(CircuitError::InvalidStimulus {
            reason: "fault input index out of range",
        })
    } else if has[usize::from(CLASS_CORRUPTED)] {
        FaultOutcome::Corrupted
    } else if has[usize::from(CLASS_X)] {
        FaultOutcome::PropagatedAsX
    } else {
        FaultOutcome::Masked
    }
}

/// [`run_campaign_resilient`](crate::faults::run_campaign_resilient)'s
/// contract executed on the compiled bit-parallel engine: the golden
/// planes are computed once per 64-vector stimulus word, each fault is
/// re-evaluated per word via difference-frontier propagation with
/// dropout, and per-fault outcomes are combined from per-word class
/// bytes. Classifications and the resume/cache determinism contract are
/// **byte-identical** to the event engine's. The unit of parallel work,
/// checkpoint journaling, and interruption accounting is a (word, fault
/// range) item — see [`campaign_items`] — so `replayed`/`computed`/
/// `skipped` count items (not injections), and an interrupted run
/// reports every fault slot as unresolved until resumed to completion.
///
/// # Errors
///
/// The [`run_campaign_resilient`](crate::faults::run_campaign_resilient)
/// stimulus-validation contract, plus [`CircuitError::Unlevelizable`]
/// for netlist/target/fault shapes only the event engine can simulate:
/// combinational cycles, multiply-driven nodes, gated or derived
/// flip-flop clocks, register-to-register feedback, and bridge faults
/// (drive fights need event-ordered resolution).
#[allow(clippy::too_many_lines)]
pub fn run_campaign_packed(
    policy: &ExecPolicy,
    rec: &dyn Recorder,
    target: &FaultTarget,
    faults: &[GateFault],
    stimulus: &mut PatternSource,
    vectors: usize,
    options: CampaignOptions<'_>,
) -> Result<ResilientCampaign, CircuitError> {
    check_stimulus(target, stimulus, vectors)?;
    let comp = CompiledNetlist::compile(&target.netlist)?;
    comp.validate_campaign(
        target,
        faults.iter().any(|f| matches!(f, GateFault::Bridge { .. })),
    )?;
    let CampaignOptions {
        fault,
        cache,
        checkpoint,
    } = options;
    let index = FrontierIndex::new(&comp, target);
    let timer = span(rec, names::SPAN_CAMPAIGN_RUN);
    let vecs = expand_stimulus(stimulus, vectors);
    let mut warnings = Vec::new();
    let mut golden_from_cache = false;
    let n_words = vectors.div_ceil(64);
    let mut golden_evals = 0u64;
    let golden_words: Vec<GoldenWord> = {
        let _golden_timer = timer.child("golden");
        let words: Vec<GoldenWord> = (0..n_words)
            .map(|w| {
                let (gw, e) = comp.golden_word(target, &vecs, w);
                golden_evals += e;
                gw
            })
            .collect();
        // Share the event engine's golden-trace cache protocol; the
        // stored trace is the one derived from these planes, which the
        // differential contract makes identical to an event-simulated
        // one. Classification always runs against the fresh planes.
        if let Some(c) = cache {
            let derived = || {
                Ok((0..vectors)
                    .map(|t| {
                        let gw = &words[t / 64];
                        target
                            .outputs
                            .iter()
                            .map(|n| lane_bit(gw.fin.get_or_x(n.index()), t % 64))
                            .collect()
                    })
                    .collect())
            };
            golden_from_cache =
                cached_golden_trace(c, rec, target, &vecs, &mut warnings, derived)?.1;
        }
        words
    };
    let ranges = fault_ranges(faults.len());
    let items: Vec<(usize, Range<usize>)> = (0..n_words)
        .flat_map(|w| ranges.iter().map(move |r| (w, r.clone())))
        .collect();
    let kept = checkpoint
        .as_ref()
        .and_then(|spec| without_misfit_records(spec, &items, &mut warnings));
    let checkpoint = match (checkpoint, &kept) {
        (Some(spec), Some(completed)) => Some(CheckpointSpec { completed, ..spec }),
        (checkpoint, _) => checkpoint,
    };
    let gate_evals = AtomicU64::new(golden_evals);
    let dropouts = AtomicU64::new(0);
    let word_ran: Vec<AtomicBool> = (0..n_words).map(|_| AtomicBool::new(false)).collect();
    let injections_done = AtomicU64::new(0);
    let out = run_checkpointed(
        policy,
        &fault,
        rec,
        &items,
        checkpoint,
        |c: &Vec<u8>| crate::persist::encode_word_classes(c),
        crate::persist::decode_word_classes,
        |_, (w, range), token| {
            let gw = &golden_words[*w];
            let mut sa = gw.a.as_ref().map(|ga| Scratch::new(&comp, ga));
            let mut sb = Scratch::new(&comp, &gw.fin);
            let mut classes = Vec::with_capacity(range.len());
            let mut evals = 0u64;
            let mut drops = 0u64;
            for f in &faults[range.clone()] {
                if token.is_cancelled() {
                    return ItemStatus::TimedOut;
                }
                let (class, e, d) = comp.fault_word_class(target, &index, gw, &mut sa, &mut sb, f);
                classes.push(class);
                evals += e;
                drops += u64::from(d);
            }
            gate_evals.fetch_add(evals, Ordering::Relaxed);
            dropouts.fetch_add(drops, Ordering::Relaxed);
            word_ran[*w].store(true, Ordering::Relaxed);
            injections_done.fetch_add((gw.lanes * range.len()) as u64, Ordering::Relaxed);
            ItemStatus::Done(classes)
        },
    );
    drop(timer);
    warnings.extend(out.warnings);
    let resolved: Option<Vec<Result<Vec<u8>, ExecError>>> = out.results.into_iter().collect();
    let reports: Vec<Option<FaultReport>> = match resolved {
        // An interrupted run has whole items outstanding, and every fault
        // needs every word — no fault slot is resolvable yet.
        None => vec![None; faults.len()],
        Some(results) => {
            let mut reports = Vec::with_capacity(faults.len());
            for (r, range) in ranges.iter().enumerate() {
                let range_faults = &faults[range.clone()];
                let words: Vec<&Result<Vec<u8>, ExecError>> =
                    results.iter().skip(r).step_by(ranges.len()).collect();
                if let Some(e) = words.iter().find_map(|res| res.as_ref().err()) {
                    // An item-level execution failure (exhausted retries
                    // or a deadline) leaves no classes for its range's
                    // faults over that word: the packed analogue of the
                    // event engine's per-injection `Errored` slots.
                    reports.extend(range_faults.iter().map(|f| {
                        Some(FaultReport {
                            fault: f.clone(),
                            outcome: FaultOutcome::Errored(e.clone()),
                        })
                    }));
                    continue;
                }
                let mut has = vec![[false; 5]; range_faults.len()];
                for classes in words.iter().filter_map(|res| res.as_ref().ok()) {
                    for (h, &c) in has.iter_mut().zip(classes) {
                        h[usize::from(c)] = true;
                    }
                }
                reports.extend(range_faults.iter().zip(&has).map(|(f, h)| {
                    Some(FaultReport {
                        fault: f.clone(),
                        outcome: packed_outcome(f, h),
                    })
                }));
            }
            reports
        }
    };
    flush_campaign_counters(rec, &reports, injections_done.load(Ordering::Relaxed));
    if rec.is_enabled() {
        // A word counts once, however many of its ranges ran.
        let words = word_ran
            .iter()
            .filter(|r| r.load(Ordering::Relaxed))
            .count();
        rec.add(names::COMPILED_WORDS, words as u64);
        rec.add(
            names::COMPILED_GATE_EVALS,
            gate_evals.load(Ordering::Relaxed),
        );
        rec.add(
            names::COMPILED_FAULT_DROPOUTS,
            dropouts.load(Ordering::Relaxed),
        );
    }
    Ok(ResilientCampaign {
        target: target.name.clone(),
        vectors,
        reports,
        replayed: out.replayed,
        computed: out.computed,
        skipped: out.skipped,
        golden_from_cache,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{run_campaign_resilient, standard_targets};
    use crate::sim::Simulator;

    fn packed_outcomes(
        target: &FaultTarget,
        faults: &[GateFault],
        vectors: usize,
        seed: u64,
    ) -> Vec<FaultOutcome> {
        let mut src = PatternSource::random(target.inputs.len(), seed).unwrap();
        let run = run_campaign_packed(
            &ExecPolicy::serial(),
            lowvolt_obs::noop(),
            target,
            faults,
            &mut src,
            vectors,
            CampaignOptions::default(),
        )
        .unwrap();
        run.reports
            .into_iter()
            .map(|r| r.unwrap().outcome)
            .collect()
    }

    fn event_outcomes(
        target: &FaultTarget,
        faults: &[GateFault],
        vectors: usize,
        seed: u64,
    ) -> Vec<FaultOutcome> {
        let mut src = PatternSource::random(target.inputs.len(), seed).unwrap();
        let report = run_campaign_resilient(
            &ExecPolicy::serial(),
            lowvolt_obs::noop(),
            target,
            faults,
            &mut src,
            vectors,
            CampaignOptions::default(),
        )
        .unwrap()
        .report()
        .unwrap();
        report.reports.into_iter().map(|r| r.outcome).collect()
    }

    fn stuck_faults(target: &FaultTarget) -> Vec<GateFault> {
        let mut faults = Vec::new();
        for n in target.netlist.node_ids() {
            faults.push(GateFault::NodeStuckAt {
                node: n,
                value: Bit::Zero,
            });
            faults.push(GateFault::NodeStuckAt {
                node: n,
                value: Bit::One,
            });
        }
        for i in 0..target.inputs.len() {
            faults.push(GateFault::InputX { input_index: i });
            faults.push(GateFault::StimulusBitFlip { input_index: i });
        }
        faults
    }

    #[test]
    fn compile_levelizes_a_chain() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.gate(GateKind::And2, &[a, b]).unwrap();
        let y = n.gate(GateKind::Not, &[x]).unwrap();
        let _z = n.gate(GateKind::Or2, &[y, a]).unwrap();
        let comp = CompiledNetlist::compile(&n).unwrap();
        assert_eq!(comp.gate_count(), 3);
        assert_eq!(comp.level_count(), 3);
        assert_eq!(comp.dff_count(), 0);
        // Levels ascend through the compiled tables.
        assert!(comp.gate_level.windows(2).all(|w| w[0] <= w[1]));
        // The public levelization accessors the STA crate builds on.
        assert_eq!(comp.node_count(), n.node_count());
        assert_eq!(comp.gate_kind(0), GateKind::And2);
        assert_eq!(comp.gate_level(0), 1);
        assert_eq!(comp.gate_inputs(0)[..2], [a.index(), b.index()]);
        assert_eq!(comp.node_level(comp.gate_output(0)), 1);
        assert_eq!(comp.node_fanout(a.index()), 2);
        assert!(comp.dff_data_nodes().is_empty());
        assert!(comp.dff_state_nodes().is_empty());
    }

    #[test]
    fn compile_refuses_a_combinational_cycle() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let fb = n.node("fb");
        let x = n.gate(GateKind::And2, &[a, fb]).unwrap();
        n.gate_into(GateKind::Not, &[x], fb).unwrap();
        assert_eq!(
            CompiledNetlist::compile(&n).unwrap_err(),
            CircuitError::Unlevelizable {
                reason: "combinational cycle"
            }
        );
    }

    #[test]
    fn compile_collects_and_names_every_refusal() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let fb = n.node("fb");
        let x = n.gate(GateKind::And2, &[a, fb]).unwrap();
        n.gate_into(GateKind::Not, &[x], fb).unwrap();
        // A second refusal alongside the cycle: a gate driving a
        // primary input. One error must name both.
        n.gate_into(GateKind::Buf, &[fb], a).unwrap();
        match CompiledNetlist::compile(&n).unwrap_err() {
            CircuitError::UnlevelizableMany { reasons } => {
                assert_eq!(reasons.len(), 2, "{reasons:?}");
                assert!(reasons.iter().any(|r| r.contains("primary input 'a'")));
                assert!(reasons
                    .iter()
                    .any(|r| r.contains("combinational cycle") && r.contains("fb")));
            }
            other => panic!("expected UnlevelizableMany, got {other:?}"),
        }
    }

    #[test]
    fn campaign_validation_collects_multiple_issues() {
        // Register feedback AND a bridge fault: one refusal names both.
        let mut n = Netlist::new();
        let clk = n.input("clk");
        let a = n.input("a");
        let d = n.node("d");
        let q = n.gate(GateKind::Dff, &[clk, d]).unwrap();
        n.gate_into(GateKind::Not, &[q], d).unwrap();
        let y = n.gate(GateKind::And2, &[q, a]).unwrap();
        let target = FaultTarget {
            name: "feedback".into(),
            netlist: n,
            inputs: vec![a],
            outputs: vec![y],
            clock: Some(clk),
        };
        let faults = vec![GateFault::Bridge { a, b: y }];
        let mut src = PatternSource::random(1, 1).unwrap();
        let err = run_campaign_packed(
            &ExecPolicy::serial(),
            lowvolt_obs::noop(),
            &target,
            &faults,
            &mut src,
            8,
            CampaignOptions::default(),
        )
        .unwrap_err();
        match err {
            CircuitError::UnlevelizableMany { reasons } => {
                assert_eq!(reasons.len(), 2, "{reasons:?}");
                assert!(reasons
                    .iter()
                    .any(|r| r.contains("register-to-register feedback")));
                assert!(reasons.iter().any(|r| r.contains("bridge faults")));
            }
            other => panic!("expected UnlevelizableMany, got {other:?}"),
        }
    }

    #[test]
    fn compile_cuts_dff_loops() {
        // q feeding back through an inverter into d is fine to *compile*
        // (the Dff edge is cut); only the packed campaign path rejects
        // it as register-to-register feedback.
        let mut n = Netlist::new();
        let clk = n.input("clk");
        let d = n.node("d");
        let q = n.gate(GateKind::Dff, &[clk, d]).unwrap();
        n.gate_into(GateKind::Not, &[q], d).unwrap();
        let comp = CompiledNetlist::compile(&n).unwrap();
        assert_eq!(comp.dff_count(), 1);
        assert!(comp.state_feedback());
    }

    #[test]
    fn settle_vector_matches_the_event_simulator_including_x() {
        let mut n = Netlist::new();
        let adder = crate::adder::ripple_carry_adder(&mut n, 4).unwrap();
        let inputs = adder.input_nodes();
        let comp = CompiledNetlist::compile(&n).unwrap();
        let mut src = PatternSource::random(inputs.len(), 0xBEEF).unwrap();
        for round in 0..16 {
            let mut bits = src.next_pattern();
            // Poison a rotating subset of columns with X.
            for (j, b) in bits.iter_mut().enumerate() {
                if (j + round) % 3 == 0 {
                    *b = Bit::X;
                }
            }
            let packed = comp.settle_vector(&inputs, &bits).unwrap();
            let mut sim = Simulator::new(&n);
            sim.apply_vector(&inputs, &bits).unwrap();
            for node in n.node_ids() {
                assert_eq!(
                    packed[node.index()],
                    sim.value(node),
                    "node {} diverged on round {round}",
                    n.node_name(node)
                );
            }
        }
    }

    #[test]
    fn packed_campaign_matches_event_on_a_combinational_target() {
        let targets = standard_targets(4).unwrap();
        let adder = &targets[0];
        let mut faults = stuck_faults(adder);
        faults.push(GateFault::NodeStuckAt {
            node: NodeId(adder.netlist.node_count() + 7),
            value: Bit::One,
        });
        faults.push(GateFault::InputX { input_index: 999 });
        assert_eq!(
            packed_outcomes(adder, &faults, 100, 42),
            event_outcomes(adder, &faults, 100, 42)
        );
    }

    #[test]
    fn packed_campaign_matches_event_on_a_clocked_target() {
        let targets = standard_targets(4).unwrap();
        let registers = targets.last().unwrap();
        assert!(registers.clock.is_some(), "expected the register target");
        let mut faults = stuck_faults(registers);
        // Clock-stuck faults exercise the no-edge state-X path.
        if let Some(clk) = registers.clock {
            faults.push(GateFault::NodeStuckAt {
                node: clk,
                value: Bit::Zero,
            });
            faults.push(GateFault::NodeStuckAt {
                node: clk,
                value: Bit::One,
            });
        }
        assert_eq!(
            packed_outcomes(registers, &faults, 70, 7),
            event_outcomes(registers, &faults, 70, 7)
        );
    }

    #[test]
    fn packed_campaign_carries_every_touched_flip_flop_input() {
        // A fault on `a` reaches both flip-flop data inputs through logic,
        // so phase B must carry captured state from data nodes other than
        // the fault site; the flip-flops are the only path to the outputs.
        let mut n = Netlist::new();
        let clk = n.input("clk");
        let a = n.input("a");
        let b = n.input("b");
        let g = n.gate(GateKind::And2, &[a, b]).unwrap();
        let h = n.gate(GateKind::Not, &[g]).unwrap();
        let q1 = n.gate(GateKind::Dff, &[clk, g]).unwrap();
        let q2 = n.gate(GateKind::Dff, &[clk, h]).unwrap();
        let target = FaultTarget {
            name: "carry".into(),
            netlist: n,
            inputs: vec![a, b],
            outputs: vec![q1, q2],
            clock: Some(clk),
        };
        let faults = stuck_faults(&target);
        let packed = packed_outcomes(&target, &faults, 16, 3);
        assert_eq!(packed, event_outcomes(&target, &faults, 16, 3));
        let a0 = faults
            .iter()
            .position(|f| {
                *f == GateFault::NodeStuckAt {
                    node: a,
                    value: Bit::Zero,
                }
            })
            .unwrap();
        assert_eq!(packed[a0], FaultOutcome::Corrupted);
    }

    #[test]
    fn packed_campaign_rejects_bridge_faults() {
        let targets = standard_targets(4).unwrap();
        let adder = &targets[0];
        let faults = vec![GateFault::Bridge {
            a: adder.inputs[0],
            b: adder.inputs[1],
        }];
        let mut src = PatternSource::random(adder.inputs.len(), 1).unwrap();
        let err = run_campaign_packed(
            &ExecPolicy::serial(),
            lowvolt_obs::noop(),
            adder,
            &faults,
            &mut src,
            8,
            CampaignOptions::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CircuitError::Unlevelizable {
                reason: "bridge faults need the event engine"
            }
        );
    }

    #[test]
    fn packed_campaign_flushes_compiled_counters_and_drops_out() {
        let targets = standard_targets(8).unwrap();
        let adder = &targets[0];
        // A fault on the highest-index input's stuck value rarely reaches
        // every output; the frontier should die early at least once.
        let faults = stuck_faults(adder);
        let reg = lowvolt_obs::MetricsRegistry::new();
        let mut src = PatternSource::random(adder.inputs.len(), 3).unwrap();
        let run = run_campaign_packed(
            &ExecPolicy::serial(),
            &reg,
            adder,
            &faults,
            &mut src,
            130,
            CampaignOptions::default(),
        )
        .unwrap();
        assert!(!run.interrupted());
        assert_eq!(reg.counter(names::COMPILED_WORDS), 3);
        assert!(reg.counter(names::COMPILED_GATE_EVALS) > 0);
        assert!(reg.counter(names::COMPILED_FAULT_DROPOUTS) > 0);
        assert_eq!(reg.counter(names::CAMPAIGN_TARGETS), 1);
        assert_eq!(reg.counter(names::CAMPAIGN_INJECTIONS), faults.len() as u64);
        assert_eq!(
            reg.counter(names::CAMPAIGN_VECTORS),
            130 * faults.len() as u64
        );
    }

    #[test]
    fn multi_range_campaign_keeps_word_and_vector_counters() {
        // Repeating the register target's universe past one range makes
        // every word several items; the counters must still read as one
        // evaluation per word and `vectors` applications per fault.
        let targets = standard_targets(4).unwrap();
        let registers = targets.last().unwrap();
        let one = stuck_faults(registers);
        let faults: Vec<GateFault> = one
            .iter()
            .cycle()
            .take(2 * FAULTS_PER_ITEM + 7)
            .cloned()
            .collect();
        let vectors = 130;
        assert_eq!(fault_ranges(faults.len()).len(), 3);
        assert_eq!(campaign_items(faults.len(), vectors), 9);
        let reg = lowvolt_obs::MetricsRegistry::new();
        let mut src = PatternSource::random(registers.inputs.len(), 5).unwrap();
        let run = run_campaign_packed(
            &ExecPolicy::with_threads(2),
            &reg,
            registers,
            &faults,
            &mut src,
            vectors,
            CampaignOptions::default(),
        )
        .unwrap();
        assert_eq!(run.computed, 9);
        assert_eq!(reg.counter(names::EXEC_ITEMS), 9);
        assert_eq!(reg.counter(names::COMPILED_WORDS), 3);
        assert_eq!(
            reg.counter(names::CAMPAIGN_VECTORS),
            (vectors * faults.len()) as u64
        );
        // Every repetition of a fault lands on the same outcome, and the
        // gate evaluations and dropouts are the single universe's, scaled.
        let single = lowvolt_obs::MetricsRegistry::new();
        let mut src = PatternSource::random(registers.inputs.len(), 5).unwrap();
        let base = run_campaign_packed(
            &ExecPolicy::serial(),
            &single,
            registers,
            &one,
            &mut src,
            vectors,
            CampaignOptions::default(),
        )
        .unwrap();
        for (i, r) in run.reports.iter().enumerate() {
            assert_eq!(r, &base.reports[i % one.len()], "fault {i}");
        }
        assert_eq!(
            reg.counter(names::COMPILED_FAULT_DROPOUTS) * one.len() as u64,
            single.counter(names::COMPILED_FAULT_DROPOUTS) * faults.len() as u64
        );
    }

    #[test]
    fn fault_ranges_tile_the_universe_in_near_equal_parts() {
        for n in [0, 1, FAULTS_PER_ITEM, FAULTS_PER_ITEM + 1, 80_034] {
            let ranges = fault_ranges(n);
            assert_eq!(ranges.len(), n.div_ceil(FAULTS_PER_ITEM).max(1));
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[ranges.len() - 1].end, n);
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
            let lens: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
            assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
            assert!(lens.iter().all(|&l| l <= FAULTS_PER_ITEM));
        }
        assert_eq!(campaign_items(80_034, 32), 5);
        assert_eq!(campaign_items(11_904, 4096), 64);
    }

    #[test]
    fn packed_activity_matches_event_on_a_glitch_free_chain() {
        // A buffer/inverter chain has single-path fanin everywhere, so the
        // event engine sees no glitches and the settled-α definitions
        // coincide exactly.
        let mut n = Netlist::new();
        let a = n.input("a");
        let b1 = n.gate(GateKind::Buf, &[a]).unwrap();
        let i1 = n.gate(GateKind::Not, &[b1]).unwrap();
        let _b2 = n.gate(GateKind::Buf, &[i1]).unwrap();
        let comp = CompiledNetlist::compile(&n).unwrap();
        let mut src_a = PatternSource::random(1, 77).unwrap();
        let mut src_b = PatternSource::random(1, 77).unwrap();
        let packed = comp
            .measure_activity(&n, lowvolt_obs::noop(), &mut src_a, &[a], 200, 10)
            .unwrap();
        let mut sim = Simulator::new(&n);
        let event = sim.measure_activity(&mut src_b, &[a], 200, 10).unwrap();
        for (p, e) in packed.entries().iter().zip(event.entries()) {
            assert_eq!(p.node, e.node);
            assert_eq!(p.rising, e.rising, "rising mismatch on {}", p.name);
            assert_eq!(p.falling, e.falling, "falling mismatch on {}", p.name);
        }
    }

    #[test]
    fn packed_activity_validates_like_the_event_engine() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let _x = n.gate(GateKind::Not, &[a]).unwrap();
        let comp = CompiledNetlist::compile(&n).unwrap();
        let mut src = PatternSource::random(1, 1).unwrap();
        assert_eq!(
            comp.measure_activity(&n, lowvolt_obs::noop(), &mut src, &[a], 5, 5)
                .unwrap_err(),
            CircuitError::InvalidStimulus {
                reason: "warmup must leave cycles to measure"
            }
        );
        let mut wide = PatternSource::random(2, 1).unwrap();
        assert!(matches!(
            comp.measure_activity(&n, lowvolt_obs::noop(), &mut wide, &[a], 5, 0)
                .unwrap_err(),
            CircuitError::WidthMismatch {
                what: "set_bus",
                ..
            }
        ));
    }
}
