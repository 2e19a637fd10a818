//! The committed `results/` is what the `paper` binary writes at its
//! defaults (`TABLE_SCALE`, seed 7): every table and figure regenerated
//! byte for byte, and no output missing or extra. The `BENCH_*.json`
//! manifests come from the manifest benches and are gated there.

use m3d_bench::{paper_outputs, TABLE_SCALE};
use std::fs;

#[test]
fn paper_outputs_are_the_committed_results() {
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let mut committed: Vec<String> = fs::read_dir(results)
        .expect("results/")
        .map(|entry| {
            entry
                .expect("results/ entry")
                .file_name()
                .into_string()
                .expect("UTF-8 name")
        })
        .filter(|name| !name.starts_with("BENCH_"))
        .collect();
    committed.sort();
    let outputs = paper_outputs(TABLE_SCALE, 7).expect("every flow runs");
    let mut names: Vec<String> = outputs.iter().map(|(name, _)| name.to_string()).collect();
    names.sort();
    assert_eq!(
        names, committed,
        "the outputs are exactly results/ minus BENCH_*"
    );
    for (name, content) in &outputs {
        let expected = fs::read_to_string(format!("{results}/{name}")).expect("committed output");
        assert!(
            *content == expected,
            "{name} differs from results/{name}; first differing line {:?}",
            content
                .lines()
                .zip(expected.lines())
                .position(|(a, b)| a != b)
        );
    }
}
