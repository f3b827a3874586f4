//! Import cost is linear in the netlist: both parsers check each
//! declared output against every earlier one through one hashed set, so
//! a file declaring tens of thousands of outputs parses in well under a
//! second. A scan of the earlier outputs per declaration takes many
//! seconds at this size.

use std::fmt::Write;
use std::time::{Duration, Instant};

use lowvolt_io::{parse_bench, parse_blif, ImportedCircuit, IoError};

/// Declared outputs per file: well past the 16,657 of the benchmark's
/// 100k-gate netlist.
const OUTPUTS: usize = 60_000;

/// Parse bound for either file. A linear parse reads about 0.15 s in a
/// release build and 1 s in a debug one; a quadratic one takes over
/// 10 s even in release.
const BOUND: Duration = Duration::from_secs(5);

fn timed(parse: impl FnOnce() -> Result<ImportedCircuit, IoError>) -> (ImportedCircuit, Duration) {
    let start = Instant::now();
    let c = parse().expect("generated text parses");
    (c, start.elapsed())
}

#[test]
fn blif_with_sixty_thousand_outputs_parses_in_linear_time() {
    let mut text = String::from(".model wide\n");
    for chunk in (0..OUTPUTS).collect::<Vec<_>>().chunks(10) {
        text.push_str(".inputs");
        for i in chunk {
            let _ = write!(text, " i{i}");
        }
        text.push_str("\n.outputs");
        for i in chunk {
            let _ = write!(text, " o{i}");
        }
        text.push('\n');
    }
    for i in 0..OUTPUTS {
        let _ = writeln!(text, ".names i{i} o{i}\n0 1");
    }
    text.push_str(".end\n");
    let (c, elapsed) = timed(|| parse_blif("wide", &text));
    assert_eq!(c.outputs.len(), OUTPUTS);
    assert_eq!(c.netlist.gate_count(), OUTPUTS);
    assert!(
        elapsed < BOUND,
        "{OUTPUTS}-output BLIF took {elapsed:?} to parse"
    );
}

#[test]
fn bench_with_sixty_thousand_outputs_parses_in_linear_time() {
    let mut text = String::new();
    for i in 0..OUTPUTS {
        let _ = writeln!(text, "INPUT(i{i})\nOUTPUT(o{i})");
    }
    for i in 0..OUTPUTS {
        let _ = writeln!(text, "o{i} = NOT(i{i})");
    }
    let (c, elapsed) = timed(|| parse_bench("wide", &text));
    assert_eq!(c.outputs.len(), OUTPUTS);
    assert_eq!(c.netlist.gate_count(), OUTPUTS);
    assert!(
        elapsed < BOUND,
        "{OUTPUTS}-output bench file took {elapsed:?} to parse"
    );
}

#[test]
fn duplicate_outputs_are_positioned_in_both_formats() {
    let blif = ".model t\n.inputs a b\n.outputs y z\n.outputs  q y\n\
                .names a b y\n11 1\n.names a z\n1 1\n.names b q\n0 1\n.end\n";
    assert_eq!(
        parse_blif("t", blif).unwrap_err().to_string(),
        "4:13: `y` is declared an output twice"
    );
    let bench = "INPUT(a)\nOUTPUT(y)\n  OUTPUT( y )\ny = NOT(a)\n";
    assert_eq!(
        parse_bench("t", bench).unwrap_err().to_string(),
        "3:3: `y` is declared an output twice"
    );
}
