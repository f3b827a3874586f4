//! BLIF (Berkeley Logic Interchange Format) import and export.
//!
//! The parser is streaming and line-oriented: `#` comments, `\`
//! continuations, `.model`/`.inputs`/`.outputs`/`.names`/`.latch`/`.end`
//! directives. Each `.names` single-output cover is mapped onto the
//! [`lowvolt_circuit`] gate library — first by truth-table matching
//! (fanin ≤ 3 covers that compute exactly a library function become one
//! gate, input order preserved), then by sum-of-products decomposition
//! (each cube an AND chain of literals, cubes OR-ed, off-set covers
//! inverted). `.latch` becomes a [`GateKind::Dff`] clocked by the
//! latch's `re` control signal.
//!
//! The writer emits one canonical on-set cover per gate kind, so every
//! library gate survives a write → parse cycle as itself, and nodes are
//! created at first textual reference on both sides — the round-trip
//! identity the fixture tests pin down.

use std::collections::HashMap;

use lowvolt_circuit::netlist::{GateKind, Netlist, NodeId};

use crate::{ImportedCircuit, IoError};

/// Maximum cover fanin the parser accepts. SOP decomposition is linear
/// in cubes × literals, but truth-table phase handling expands the
/// input plane, and real BLIF from synthesis rarely exceeds this.
const MAX_COVER_FANIN: usize = 24;

/// One logical (continuation-joined) line and where it started.
struct Line<'a> {
    line_no: usize,
    text: &'a str,
    joined: String,
}

impl Line<'_> {
    /// The effective text: the borrowed line, or the joined buffer when
    /// continuations were folded in.
    fn text(&self) -> &str {
        if self.joined.is_empty() {
            self.text
        } else {
            &self.joined
        }
    }

    /// 1-based column of a token within this line (best effort for
    /// joined lines: position within the folded text).
    fn column_of(&self, token: &str) -> usize {
        self.text().find(token).map_or(1, |p| p + 1)
    }
}

/// Strips a `#` comment, honouring nothing fancier (BLIF has no
/// strings).
fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(p) => &line[..p],
        None => line,
    }
}

/// Folds `\` continuations into logical lines, tracking the physical
/// line each began on.
fn logical_lines(text: &str) -> Vec<Line<'_>> {
    let mut out: Vec<Line<'_>> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let stripped = strip_comment(raw);
        let (content, continues) = match stripped.trim_end().strip_suffix('\\') {
            Some(head) => (head, true),
            None => (stripped, false),
        };
        match (&mut pending, continues) {
            (Some((_, buf)), true) => {
                buf.push(' ');
                buf.push_str(content);
            }
            (Some((start, buf)), false) => {
                buf.push(' ');
                buf.push_str(content);
                let (start, joined) = (*start, std::mem::take(buf));
                pending = None;
                out.push(Line {
                    line_no: start,
                    text: "",
                    joined,
                });
            }
            (None, true) => pending = Some((line_no, content.to_string())),
            (None, false) => out.push(Line {
                line_no,
                text: stripped,
                joined: String::new(),
            }),
        }
    }
    if let Some((start, buf)) = pending {
        out.push(Line {
            line_no: start,
            text: "",
            joined: buf,
        });
    }
    out
}

/// Builder state shared by both parsers: a netlist, the name → node
/// map (nodes created at first reference — the round-trip ordering
/// contract), and per-node declaration flags enforcing single drivers
/// and single input/output declarations. Every check is one hashed
/// name lookup, so building is linear in the netlist.
pub(crate) struct NetBuilder {
    pub netlist: Netlist,
    nodes: HashMap<String, NodeId>,
    decl: Vec<Decl>,
}

/// How one node has been declared so far.
#[derive(Clone, Copy, Default)]
struct Decl {
    driven: bool,
    input: bool,
    output: bool,
}

impl NetBuilder {
    pub(crate) fn new() -> NetBuilder {
        NetBuilder {
            netlist: Netlist::new(),
            nodes: HashMap::new(),
            decl: Vec::new(),
        }
    }

    /// Records a freshly created node under `name`.
    fn register(&mut self, name: String, id: NodeId, decl: Decl) {
        self.nodes.insert(name, id);
        self.decl.push(decl);
    }

    /// The node for `name`, created as a plain node on first reference.
    pub(crate) fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.nodes.get(name) {
            return id;
        }
        let id = self.netlist.node(name);
        self.register(name.to_string(), id, Decl::default());
        id
    }

    /// Declares `name` a primary input. Errors if it is already driven
    /// by a gate or already declared.
    pub(crate) fn input(&mut self, name: &str) -> Result<NodeId, String> {
        if let Some(&id) = self.nodes.get(name) {
            let decl = self.decl[id.index()];
            if decl.input {
                return Err(format!("`{name}` is declared an input twice"));
            }
            if decl.driven {
                return Err(format!("`{name}` is both a gate output and an input"));
            }
            // The node exists but was only referenced; netlists cannot
            // retrofit the input flag, so forward references to a name
            // later declared `.inputs` are rejected for determinism.
            return Err(format!("`{name}` was used before its input declaration"));
        }
        let id = self.netlist.input(name);
        let decl = Decl {
            input: true,
            ..Decl::default()
        };
        self.register(name.to_string(), id, decl);
        Ok(id)
    }

    /// Declares `name` a primary output, creating its node on first
    /// reference. Errors if it is already declared an output.
    pub(crate) fn output(&mut self, name: &str) -> Result<NodeId, String> {
        let id = self.node(name);
        let decl = &mut self.decl[id.index()];
        if decl.output {
            return Err(format!("`{name}` is declared an output twice"));
        }
        decl.output = true;
        Ok(id)
    }

    /// Marks `name`'s node as gate-driven, enforcing one driver and no
    /// drive fights with declared inputs. Returns the node.
    pub(crate) fn drive(&mut self, name: &str) -> Result<NodeId, String> {
        let id = self.node(name);
        let decl = &mut self.decl[id.index()];
        if decl.input {
            return Err(format!("`{name}` is a declared input and cannot be driven"));
        }
        if decl.driven {
            return Err(format!("`{name}` is driven twice"));
        }
        decl.driven = true;
        Ok(id)
    }

    /// Adds an intermediate gate (auto-named output) during SOP or
    /// wide-fanin decomposition; the auto-generated name is registered
    /// so the written form re-parses to the identical structure.
    pub(crate) fn synth_gate(
        &mut self,
        kind: GateKind,
        inputs: &[NodeId],
    ) -> Result<NodeId, String> {
        let out = self.netlist.gate(kind, inputs).map_err(|e| e.to_string())?;
        let name = self.netlist.node_name(out).to_string();
        if self.nodes.contains_key(&name) {
            return Err(format!(
                "auto-generated name `{name}` collides with an existing signal"
            ));
        }
        let decl = Decl {
            driven: true,
            ..Decl::default()
        };
        self.register(name, out, decl);
        Ok(out)
    }

    /// Whether any signal with this name exists yet.
    pub(crate) fn contains(&self, name: &str) -> bool {
        self.nodes.contains_key(name)
    }

    /// Signals that are referenced somewhere but never driven, never
    /// declared inputs: undriven wires the caller may want to report.
    pub(crate) fn undriven(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for (name, &id) in &self.nodes {
            let decl = self.decl[id.index()];
            if !decl.driven && !decl.input {
                out.push(name.clone());
            }
        }
        out.sort();
        out
    }
}

/// One cube of a cover as bitmasks over its inputs: bit `i` of `care`
/// is set where input `i` is a literal (`0` or `1`), and bit `i` of
/// `ones` where that literal is `1`.
#[derive(Clone, Copy)]
struct Cube {
    care: u32,
    ones: u32,
}

const _: () = assert!(MAX_COVER_FANIN <= u32::BITS as usize);

/// A `.names` cover: input names and output name borrowed from the
/// text, and the cube rows.
struct Cover<'t> {
    line_no: usize,
    column: usize,
    inputs: Vec<&'t str>,
    output: &'t str,
    /// The rows' input planes. Kept only while the fanin fits a
    /// [`Cube`]; a wider cover is refused before its rows are read.
    cubes: Vec<Cube>,
    /// The first row's output bit: `true` for an on-set cover.
    on_set: Option<bool>,
    /// Whether a later row's output bit differs from the first's.
    mixed: bool,
}

/// Library gates eligible for truth-table matching, grouped by arity,
/// with their truth tables (bit `idx` = the output for the input
/// assignment `idx`, bit `i` of `idx` = input `i`). Order is fixed: it
/// decides which kind a matching cover becomes, and the writer's
/// canonical covers land on these same entries.
const MATCH_1: [(GateKind, u64); 2] = [(GateKind::Buf, 0b10), (GateKind::Not, 0b01)];
const MATCH_2: [(GateKind, u64); 6] = [
    (GateKind::And2, 0b1000),
    (GateKind::Or2, 0b1110),
    (GateKind::Nand2, 0b0111),
    (GateKind::Nor2, 0b0001),
    (GateKind::Xor2, 0b0110),
    (GateKind::Xnor2, 0b1001),
];
const MATCH_3: [(GateKind, u64); 5] = [
    (GateKind::And3, 0x80),
    (GateKind::Or3, 0xfe),
    (GateKind::Nand3, 0x7f),
    (GateKind::Nor3, 0x01),
    // inputs [sel, a, b]: a when sel=0, b when sel=1.
    (GateKind::Mux2, 0xe4),
];

/// The truth table of a cover over `n ≤ 6` inputs as a bitmap indexed
/// by the input assignment (bit `i` of the index = input `i`).
fn cover_truth_table(n: usize, cubes: &[Cube], on_set: bool) -> u64 {
    let mut on = 0u64;
    for idx in 0..(1u32 << n) {
        if cubes.iter().any(|c| idx & c.care == c.ones) {
            on |= 1 << idx;
        }
    }
    if on_set {
        on
    } else {
        !on & ((1u64 << (1u64 << n)) - 1)
    }
}

/// Builds the gates for one cover: a single library gate when the truth
/// table matches, otherwise an SOP decomposition. `err` converts a
/// message into a positioned parse error.
fn build_cover(b: &mut NetBuilder, cover: &Cover<'_>) -> Result<(), IoError> {
    let err = |msg: String| IoError::parse(cover.line_no, cover.column, msg);
    let n = cover.inputs.len();
    if n == 0 {
        return Err(err(format!(
            "constant cover for `{}` is not supported: the gate library has \
             no constant driver (tie the signal to an input instead)",
            cover.output
        )));
    }
    if n > MAX_COVER_FANIN {
        return Err(err(format!(
            "cover fanin {n} exceeds the supported maximum {MAX_COVER_FANIN}"
        )));
    }
    let Some(phase) = cover.on_set else {
        return Err(err(format!(
            "cover for `{}` has inputs but no cubes",
            cover.output
        )));
    };
    if cover.mixed {
        return Err(err("cover mixes on-set and off-set rows".to_string()));
    }

    // Fast path: small covers that compute exactly a library function
    // become one gate, preserving the cover's input order.
    if n <= 3 {
        let tt = cover_truth_table(n, &cover.cubes, phase);
        let candidates: &[(GateKind, u64)] = match n {
            1 => &MATCH_1,
            2 => &MATCH_2,
            _ => &MATCH_3,
        };
        if let Some(&(kind, _)) = candidates.iter().find(|&&(_, t)| t == tt) {
            let mut ins = [NodeId::from_index(0); 3];
            for (slot, name) in ins.iter_mut().zip(&cover.inputs) {
                *slot = b.node(name);
            }
            let out = b.drive(cover.output).map_err(err)?;
            b.netlist
                .gate_into(kind, &ins[..n], out)
                .map_err(|e| err(e.to_string()))?;
            return Ok(());
        }
    }

    // General path: SOP decomposition. Literals are resolved lazily so
    // node-creation order is the sub-gate reference order — the same
    // order a re-parse of the written form produces.
    let mut inverters: [Option<NodeId>; MAX_COVER_FANIN] = [None; MAX_COVER_FANIN];
    let mut cube_nodes: Vec<NodeId> = Vec::with_capacity(cover.cubes.len());
    let mut literals: Vec<NodeId> = Vec::with_capacity(n);
    for cube in &cover.cubes {
        if cube.care == 0 {
            return Err(err(format!(
                "cube `{}` covers every assignment, making `{}` constant \
                 — constants are not supported",
                "-".repeat(n),
                cover.output
            )));
        }
        literals.clear();
        for (i, name) in cover.inputs.iter().enumerate() {
            if cube.care >> i & 1 == 0 {
                continue;
            }
            let lit = if cube.ones >> i & 1 == 1 {
                b.node(name)
            } else if let Some(inv) = inverters[i] {
                inv
            } else {
                let base = b.node(name);
                let inv = b.synth_gate(GateKind::Not, &[base]).map_err(err)?;
                inverters[i] = Some(inv);
                inv
            };
            literals.push(lit);
        }
        let cube = fold_chain(b, GateKind::And2, &literals).map_err(err)?;
        cube_nodes.push(cube);
    }
    // OR the cubes; invert for off-set covers; the last gate drives the
    // declared output node directly.
    let out = b.drive(cover.output).map_err(err)?;
    let sum = if cube_nodes.len() == 1 {
        cube_nodes[0]
    } else {
        let partial =
            fold_chain(b, GateKind::Or2, &cube_nodes[..cube_nodes.len() - 1]).map_err(err)?;
        if phase {
            b.netlist
                .gate_into(
                    GateKind::Or2,
                    &[partial, cube_nodes[cube_nodes.len() - 1]],
                    out,
                )
                .map_err(|e| err(e.to_string()))?;
            return Ok(());
        }
        b.synth_gate(GateKind::Or2, &[partial, cube_nodes[cube_nodes.len() - 1]])
            .map_err(err)?
    };
    let final_kind = if phase { GateKind::Buf } else { GateKind::Not };
    b.netlist
        .gate_into(final_kind, &[sum], out)
        .map_err(|e| err(e.to_string()))?;
    Ok(())
}

/// Builds and clears the pending cover, if any.
fn flush_cover(b: &mut NetBuilder, pending: &mut Option<Cover<'_>>) -> Result<(), IoError> {
    match pending.take() {
        Some(cover) => build_cover(b, &cover),
        None => Ok(()),
    }
}

/// Left-folds `nodes` into a chain of 2-input gates; a single node is
/// returned unchanged.
pub(crate) fn fold_chain(
    b: &mut NetBuilder,
    kind: GateKind,
    nodes: &[NodeId],
) -> Result<NodeId, String> {
    match nodes {
        [] => Err("cube has no literals".to_string()),
        [one] => Ok(*one),
        [first, rest @ ..] => {
            let mut acc = *first;
            for &next in rest {
                acc = b.synth_gate(kind, &[acc, next])?;
            }
            Ok(acc)
        }
    }
}

/// Parses BLIF text into an [`ImportedCircuit`].
///
/// Supported directives: `.model` (first one names the circuit; a
/// second model is rejected), `.inputs`, `.outputs` (both repeatable,
/// appending), `.names` single-output covers, `.latch input output
/// [re|fe clock] [init]`, `.end`. `.exdc`, `.subckt`, `.search`,
/// `.gate`, and friends are rejected with a positioned error rather
/// than silently skipped.
///
/// All latches must share one `re` clock (the event and compiled
/// engines drive a single two-phase clock); `fe` latches and latch
/// types other than `re` are rejected.
///
/// # Errors
///
/// [`IoError::Parse`] anchored at the offending line and column.
pub fn parse_blif(fallback_name: &str, text: &str) -> Result<ImportedCircuit, IoError> {
    let lines = logical_lines(text);
    let mut name: Option<String> = None;
    let mut b = NetBuilder::new();
    let mut inputs: Vec<NodeId> = Vec::new();
    let mut outputs: Vec<NodeId> = Vec::new();
    let mut clock_name: Option<&str> = None;
    let mut pending_cover: Option<Cover<'_>> = None;
    let mut saw_end = false;

    for line in &lines {
        let text = line.text().trim();
        let mut tokens = text.split_whitespace();
        let Some(first) = tokens.next() else {
            continue;
        };
        let col = line.column_of(first);
        if saw_end && first.starts_with('.') {
            return Err(IoError::parse(
                line.line_no,
                col,
                format!("`{first}` after .end (one model per file)"),
            ));
        }
        match first {
            ".model" => {
                flush_cover(&mut b, &mut pending_cover)?;
                if name.is_some() {
                    return Err(IoError::parse(
                        line.line_no,
                        col,
                        "second .model — multi-model files are not supported",
                    ));
                }
                name = Some(
                    tokens
                        .next()
                        .map_or_else(|| fallback_name.to_string(), ToString::to_string),
                );
            }
            ".inputs" => {
                flush_cover(&mut b, &mut pending_cover)?;
                for t in tokens {
                    let id = b
                        .input(t)
                        .map_err(|m| IoError::parse(line.line_no, line.column_of(t), m))?;
                    inputs.push(id);
                }
            }
            ".outputs" => {
                flush_cover(&mut b, &mut pending_cover)?;
                for t in tokens {
                    let id = b
                        .output(t)
                        .map_err(|m| IoError::parse(line.line_no, line.column_of(t), m))?;
                    outputs.push(id);
                }
            }
            ".names" => {
                flush_cover(&mut b, &mut pending_cover)?;
                let mut signals: Vec<&str> = tokens.collect();
                let Some(output) = signals.pop() else {
                    return Err(IoError::parse(
                        line.line_no,
                        col,
                        ".names needs at least an output signal",
                    ));
                };
                pending_cover = Some(Cover {
                    line_no: line.line_no,
                    column: col,
                    inputs: signals,
                    output,
                    cubes: Vec::new(),
                    on_set: None,
                    mixed: false,
                });
            }
            ".latch" => {
                flush_cover(&mut b, &mut pending_cover)?;
                // .latch input output [type control] [init-val]
                let rest: Vec<&str> = tokens.collect();
                if rest.len() < 2 {
                    return Err(IoError::parse(
                        line.line_no,
                        col,
                        ".latch needs an input and an output signal",
                    ));
                }
                let (d, q) = (rest[0], rest[1]);
                let control = match rest.len() {
                    2 | 3 => None, // optional trailing init only
                    4 | 5 => Some((rest[2], rest[3])),
                    _ => {
                        return Err(IoError::parse(
                            line.line_no,
                            col,
                            format!(".latch takes 2–5 fields, got {}", rest.len()),
                        ))
                    }
                };
                let clk = match control {
                    Some(("re", clk)) => clk,
                    Some((ty, _)) => {
                        return Err(IoError::parse(
                            line.line_no,
                            line.column_of(ty),
                            format!("latch type `{ty}` is not supported (only rising-edge `re`)"),
                        ))
                    }
                    None => {
                        return Err(IoError::parse(
                            line.line_no,
                            col,
                            ".latch without a clock: declare `re <clock>` \
                             (the simulators drive one explicit clock)",
                        ))
                    }
                };
                match clock_name {
                    None => clock_name = Some(clk),
                    Some(existing) if existing == clk => {}
                    Some(existing) => {
                        return Err(IoError::parse(
                            line.line_no,
                            col,
                            format!(
                                "latch clock `{clk}` conflicts with `{existing}` \
                                 — a single global clock is required"
                            ),
                        ))
                    }
                }
                // Build immediately (reference order: d, clk, q) so gate
                // order matches statement order.
                let dn = b.node(d);
                let cn = b.node(clk);
                let qn = b
                    .drive(q)
                    .map_err(|m| IoError::parse(line.line_no, col, m))?;
                b.netlist
                    .gate_into(GateKind::Dff, &[cn, dn], qn)
                    .map_err(|e| IoError::parse(line.line_no, col, e.to_string()))?;
            }
            ".end" => {
                flush_cover(&mut b, &mut pending_cover)?;
                saw_end = true;
            }
            ".exdc" | ".subckt" | ".gate" | ".mlatch" | ".search" | ".clock" | ".attribute" => {
                return Err(IoError::parse(
                    line.line_no,
                    col,
                    format!("`{first}` is not supported (structural BLIF subset only)"),
                ));
            }
            other if other.starts_with('.') => {
                return Err(IoError::parse(
                    line.line_no,
                    col,
                    format!("unknown directive `{other}`"),
                ));
            }
            _ => {
                // A cover row.
                let Some(cover) = pending_cover.as_mut() else {
                    return Err(IoError::parse(
                        line.line_no,
                        col,
                        format!("`{first}` outside any .names cover"),
                    ));
                };
                let (plane, out) = match (tokens.next(), tokens.next()) {
                    (Some(out), None) => (first, out),
                    (None, _) if cover.inputs.is_empty() => ("", first),
                    _ => {
                        return Err(IoError::parse(
                            line.line_no,
                            col,
                            "cover rows are `<input-plane> <output-bit>`",
                        ))
                    }
                };
                if plane.len() != cover.inputs.len() {
                    return Err(IoError::parse(
                        line.line_no,
                        col,
                        format!(
                            "cube width {} does not match the {} cover input(s)",
                            plane.len(),
                            cover.inputs.len()
                        ),
                    ));
                }
                let on = match out {
                    "1" => true,
                    "0" => false,
                    other => {
                        return Err(IoError::parse(
                            line.line_no,
                            line.column_of(out),
                            format!("cover output must be 0 or 1, got `{other}`"),
                        ))
                    }
                };
                if let Some(bad) = plane.chars().find(|c| !matches!(c, '0' | '1' | '-')) {
                    return Err(IoError::parse(
                        line.line_no,
                        col,
                        format!("invalid cube character `{bad}` (expected 0, 1, or -)"),
                    ));
                }
                match cover.on_set {
                    None => cover.on_set = Some(on),
                    Some(first_on) => cover.mixed |= first_on != on,
                }
                if plane.len() <= MAX_COVER_FANIN {
                    let mut cube = Cube { care: 0, ones: 0 };
                    for (i, c) in plane.bytes().enumerate() {
                        if c != b'-' {
                            cube.care |= 1 << i;
                        }
                        if c == b'1' {
                            cube.ones |= 1 << i;
                        }
                    }
                    cover.cubes.push(cube);
                }
            }
        }
    }
    flush_cover(&mut b, &mut pending_cover)?;

    // Undriven signals (referenced but never defined and not inputs) are
    // parse errors: a partially connected netlist would lint as floating
    // anyway, and naming the wire here is far more useful.
    let undriven = b.undriven();
    if let Some(wire) = undriven.first() {
        return Err(IoError::parse(
            lines.last().map_or(1, |l| l.line_no),
            1,
            format!(
                "{} signal(s) referenced but never driven or declared as inputs \
                 (first: `{wire}`)",
                undriven.len()
            ),
        ));
    }

    // The clock is a declared input, but not a stimulus one.
    let clock = clock_name.map(|n| b.node(n));
    inputs.retain(|&id| Some(id) != clock);
    Ok(ImportedCircuit {
        name: name.unwrap_or_else(|| fallback_name.to_string()),
        netlist: b.netlist,
        inputs,
        outputs,
        clock,
    })
}

/// The canonical on-set cover rows the writer emits for one gate kind.
/// Each maps back to the same kind through the parser's truth-table
/// matcher, which is what makes write → parse the identity on library
/// gates.
fn canonical_cover(kind: GateKind) -> &'static [&'static str] {
    match kind {
        GateKind::Buf => &["1 1"],
        GateKind::Not => &["0 1"],
        GateKind::And2 => &["11 1"],
        GateKind::And3 => &["111 1"],
        GateKind::Or2 => &["1- 1", "-1 1"],
        GateKind::Or3 => &["1-- 1", "-1- 1", "--1 1"],
        GateKind::Nand2 => &["0- 1", "-0 1"],
        GateKind::Nand3 => &["0-- 1", "-0- 1", "--0 1"],
        GateKind::Nor2 => &["00 1"],
        GateKind::Nor3 => &["000 1"],
        GateKind::Xor2 => &["10 1", "01 1"],
        GateKind::Xnor2 => &["11 1", "00 1"],
        // inputs [sel, a, b]: a when sel=0, b when sel=1.
        GateKind::Mux2 => &["01- 1", "1-1 1"],
        GateKind::Dff => &[],
    }
}

/// A name is writable if the line-oriented format can carry it
/// unambiguously.
fn check_name(name: &str) -> Result<(), IoError> {
    if name.is_empty()
        || name.starts_with('.')
        || name
            .chars()
            .any(|c| c.is_whitespace() || c == '#' || c == '\\')
    {
        return Err(IoError::Unwritable {
            reason: format!(
                "node name `{name}` cannot be represented in BLIF \
                 (empty, leading dot, whitespace, `#`, or `\\`)"
            ),
        });
    }
    Ok(())
}

/// Serialises an [`ImportedCircuit`] as structural BLIF.
///
/// Primary inputs come from the netlist (clock included), outputs from
/// the circuit's declared list, and gates are emitted in creation order
/// — `.latch` for flip-flops, a canonical `.names` cover for everything
/// else — so `parse_blif(write_blif(c))` reproduces `c` (see
/// [`crate::circuits_equivalent`]).
///
/// # Errors
///
/// [`IoError::Unwritable`] if a node name cannot be carried by the
/// format, or if flip-flops exist without a resolvable clock.
pub fn write_blif(circuit: &ImportedCircuit) -> Result<String, IoError> {
    let n = &circuit.netlist;
    let mut out = String::with_capacity(64 + n.gate_count() * 24);
    out.push_str(".model ");
    out.push_str(&circuit.name);
    out.push('\n');

    let write_names = |out: &mut String, directive: &str, ids: &[NodeId]| -> Result<(), IoError> {
        for chunk in ids.chunks(10) {
            out.push_str(directive);
            for &id in chunk {
                let name = n.node_name(id);
                check_name(name)?;
                out.push(' ');
                out.push_str(name);
            }
            out.push('\n');
        }
        Ok(())
    };
    write_names(&mut out, ".inputs", n.primary_inputs())?;
    write_names(&mut out, ".outputs", &circuit.outputs)?;

    for gate in n.gates() {
        if gate.kind == GateKind::Dff {
            let clk = n.node_name(gate.inputs[0]);
            let d = n.node_name(gate.inputs[1]);
            let q = n.node_name(gate.output);
            for name in [clk, d, q] {
                check_name(name)?;
            }
            out.push_str(&format!(".latch {d} {q} re {clk} 3\n"));
        } else {
            out.push_str(".names");
            for &i in &gate.inputs {
                let name = n.node_name(i);
                check_name(name)?;
                out.push(' ');
                out.push_str(name);
            }
            let oname = n.node_name(gate.output);
            check_name(oname)?;
            out.push(' ');
            out.push_str(oname);
            out.push('\n');
            for row in canonical_cover(gate.kind) {
                out.push_str(row);
                out.push('\n');
            }
        }
    }
    out.push_str(".end\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits_equivalent;
    use lowvolt_circuit::logic::Bit;

    #[test]
    fn parses_simple_and() {
        let c = parse_blif(
            "t",
            ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n",
        )
        .unwrap();
        assert_eq!(c.name, "t");
        assert_eq!(c.netlist.gate_count(), 1);
        assert_eq!(c.netlist.gates()[0].kind, GateKind::And2);
        assert_eq!(c.inputs.len(), 2);
        assert_eq!(c.outputs.len(), 1);
        assert!(c.clock.is_none());
    }

    #[test]
    fn library_matching_covers_every_kind() {
        for kind in [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And2,
            GateKind::Or2,
            GateKind::Nand2,
            GateKind::Nor2,
            GateKind::Xor2,
            GateKind::Xnor2,
            GateKind::And3,
            GateKind::Or3,
            GateKind::Nand3,
            GateKind::Nor3,
            GateKind::Mux2,
        ] {
            let names: Vec<String> = (0..kind.arity()).map(|i| format!("i{i}")).collect();
            let mut text = format!(
                ".model m\n.inputs {}\n.outputs y\n.names {} y\n",
                names.join(" "),
                names.join(" ")
            );
            for row in canonical_cover(kind) {
                text.push_str(row);
                text.push('\n');
            }
            text.push_str(".end\n");
            let c = parse_blif("m", &text).unwrap();
            assert_eq!(c.netlist.gate_count(), 1, "{}", kind.name());
            assert_eq!(c.netlist.gates()[0].kind, kind, "{}", kind.name());
        }
    }

    #[test]
    fn match_tables_are_the_library_truth_tables() {
        for &(kind, table) in MATCH_1.iter().chain(&MATCH_2).chain(&MATCH_3) {
            let n = kind.arity();
            let mut on = 0u64;
            for idx in 0..(1u64 << n) {
                let bits: Vec<Bit> = (0..n)
                    .map(|i| {
                        if idx >> i & 1 == 1 {
                            Bit::One
                        } else {
                            Bit::Zero
                        }
                    })
                    .collect();
                if kind.evaluate(&bits) == Bit::One {
                    on |= 1 << idx;
                }
            }
            assert_eq!(table, on, "{}", kind.name());
        }
    }

    #[test]
    fn off_set_cover_inverts() {
        // ~(a & b) expressed as an off-set cover: output 0 when a=b=1.
        let c = parse_blif(
            "t",
            ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n",
        )
        .unwrap();
        assert_eq!(c.netlist.gate_count(), 1);
        assert_eq!(c.netlist.gates()[0].kind, GateKind::Nand2);
    }

    #[test]
    fn wide_cover_decomposes_and_roundtrips() {
        let text = ".model wide\n.inputs a b c d\n.outputs y\n\
                    .names a b c d y\n1100 1\n0011 1\n.end\n";
        let c = parse_blif("wide", text).unwrap();
        assert!(c.netlist.gate_count() > 1);
        let written = write_blif(&c).unwrap();
        let again = parse_blif("wide", &written).unwrap();
        circuits_equivalent(&c, &again).unwrap();
        // And the rewrite is a fixpoint.
        assert_eq!(written, write_blif(&again).unwrap());
    }

    #[test]
    fn latch_becomes_dff_with_shared_clock() {
        let text = ".model seq\n.inputs d clk\n.outputs q\n\
                    .latch d q re clk 3\n.end\n";
        let c = parse_blif("seq", text).unwrap();
        assert_eq!(c.netlist.gate_count(), 1);
        assert_eq!(c.netlist.gates()[0].kind, GateKind::Dff);
        assert_eq!(c.inputs.len(), 1, "clock excluded from stimulus inputs");
        assert!(c.clock.is_some());
    }

    #[test]
    fn conflicting_latch_clocks_rejected() {
        let text = ".model seq\n.inputs d e c1 c2\n.outputs q r\n\
                    .latch d q re c1 3\n.latch e r re c2 3\n.end\n";
        let err = parse_blif("seq", text).unwrap_err();
        match err {
            IoError::Parse { line, message, .. } => {
                assert_eq!(line, 5);
                assert!(message.contains("c2"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse_blif(
            "t",
            ".model t\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n",
        )
        .unwrap_err();
        match err {
            IoError::Parse { line, message, .. } => {
                assert_eq!(line, 5);
                assert!(message.contains('2'), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn undriven_signal_named() {
        let err = parse_blif(
            "t",
            ".model t\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn double_drive_rejected() {
        let text = ".model t\n.inputs a b\n.outputs y\n\
                    .names a y\n1 1\n.names b y\n1 1\n.end\n";
        let err = parse_blif("t", text).unwrap_err();
        assert!(err.to_string().contains("driven twice"), "{err}");
    }

    #[test]
    fn continuation_lines_fold() {
        let text = ".model t\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n";
        let c = parse_blif("t", text).unwrap();
        assert_eq!(c.inputs.len(), 2);
    }

    #[test]
    fn constant_cover_rejected() {
        let err = parse_blif("t", ".model t\n.outputs y\n.names y\n1\n.end\n").unwrap_err();
        assert!(err.to_string().contains("constant"), "{err}");
    }
}
