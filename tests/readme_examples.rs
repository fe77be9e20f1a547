//! README's `cargo run --release --example NAME` lines name exactly the
//! root package's examples: one command for each file in `examples/`, and
//! none for a file that is gone.

use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn readme_example_commands_match_the_examples_directory() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("read README.md");
    let named: BTreeSet<String> = readme
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("cargo run --release --example "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect();
    let files: BTreeSet<String> = std::fs::read_dir(root.join("examples"))
        .expect("read examples/")
        .map(|entry| entry.expect("examples/ entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .filter_map(|path| path.file_stem().map(|stem| stem.to_string_lossy().into_owned()))
        .collect();
    assert!(!files.is_empty(), "examples/ holds no examples");
    assert_eq!(named, files, "README's example commands against examples/*.rs");
}
