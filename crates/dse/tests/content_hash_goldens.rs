//! Committed golden content keys: the model, architecture, compile and
//! serving-workload hashes that cache files and sweep journals persist.
//!
//! A cache file written by one build must keep hitting in the next, so
//! these values may change only together with
//! [`CACHE_FORMAT_VERSION`](cimflow_dse::CACHE_FORMAT_VERSION).
//! `tests/goldens/content_hashes.txt` holds one line per key, its value in
//! hex:
//!
//! * `model <name> <px>`: [`model_content_hash`] of every zoo model at 32,
//!   48 and 68 px;
//! * `arch <label>`: [`arch_content_hash`] and
//!   [`ArchConfig::compile_fingerprint`] of architectures that cover the
//!   axes sweeps vary (chip count, macro-group size, flit size, core
//!   count, memory port, clock and the inter-chip link);
//! * `traffic <label>`: one [`traffic_fingerprint`].
//!
//! The file changes only through the ignored test at the bottom:
//!
//! ```text
//! cargo test -p cimflow-dse --test content_hash_goldens -- --ignored
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use cimflow_arch::{ArchConfig, InterChipTopology};
use cimflow_dse::{arch_content_hash, model_content_hash, traffic_fingerprint};
use cimflow_nn::models;
use cimflow_traffic::WorkloadSpec;

/// The architectures whose keys are pinned, each with its line label.
fn architectures() -> Vec<(&'static str, ArchConfig)> {
    let base = ArchConfig::paper_default;
    vec![
        ("paper_default", base()),
        ("chips2", base().with_chip_count(2)),
        ("chips4", base().with_chip_count(4)),
        ("mg4", base().with_macros_per_group(4)),
        ("mg16", base().with_macros_per_group(16)),
        ("flit16", base().with_flit_bytes(16)),
        ("flit32", base().with_flit_bytes(32)),
        ("cores16", base().with_core_count(16)),
        ("port7", base().with_memory_port(7)),
        ("mhz500", base().with_frequency_mhz(500)),
        ("chips1_link64", base().with_interchip_link_bytes(64)),
        (
            "chips2_mg16_flit32_port3_mhz800_ring",
            base()
                .with_chip_count(2)
                .with_macros_per_group(16)
                .with_flit_bytes(32)
                .with_memory_port(3)
                .with_frequency_mhz(800)
                .with_interchip_topology(InterChipTopology::Ring),
        ),
    ]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("content_hashes.txt")
}

/// Renders one line per pinned key.
fn render() -> String {
    let mut out = String::new();
    for resolution in [32, 48, 68] {
        for model in models::benchmark_suite(resolution) {
            writeln!(out, "model {} {resolution} {:016x}", model.name, model_content_hash(&model))
                .expect("writing to a String cannot fail");
        }
    }
    for (label, arch) in architectures() {
        writeln!(
            out,
            "arch {label} content={:016x} compile={:016x}",
            arch_content_hash(&arch),
            arch.compile_fingerprint()
        )
        .expect("writing to a String cannot fail");
    }
    let colocated: Vec<(String, Arc<_>)> = [models::resnet18(32), models::mobilenet_v2(32)]
        .into_iter()
        .map(|model| (model.name.clone(), Arc::new(model)))
        .collect();
    writeln!(
        out,
        "traffic default_qps100_resnet18_mobilenetv2 {:016x}",
        traffic_fingerprint(100, &WorkloadSpec::default(), &colocated)
    )
    .expect("writing to a String cannot fail");
    out
}

#[test]
fn content_keys_match_the_golden_file() {
    let path = golden_path();
    let golden =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let actual = render();
    let mismatch = golden.lines().zip(actual.lines()).enumerate().find(|(_, (g, a))| g != a);
    if let Some((line, (expected, got))) = mismatch {
        panic!("line {} differs from the golden:\n  golden {expected}\n  got    {got}", line + 1);
    }
    assert_eq!(golden.lines().count(), actual.lines().count(), "a different number of keys");
}

#[test]
#[ignore = "rewrites the committed goldens; run only with a CACHE_FORMAT_VERSION bump"]
fn regenerate_content_hash_goldens() {
    let path = golden_path();
    fs::create_dir_all(path.parent().expect("the golden file has a directory"))
        .expect("create the goldens directory");
    fs::write(&path, render()).expect("write the content-key goldens");
}
