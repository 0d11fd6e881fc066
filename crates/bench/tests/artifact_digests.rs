//! Golden digests of the smoke-scale sweep artifacts.
//!
//! `pipeline_sweep` and `serving_sweep` rows come straight out of the
//! pipeline simulator, so any change to how it orders or adds times shows
//! up here as a different artifact.  Each test serializes the rows exactly
//! like `dump_json` does and compares an FNV-1a digest of those bytes to a
//! constant: a refactor of the simulator (or of anything the sweeps call)
//! must leave both artifacts byte-identical.  If a change is *meant* to
//! move the numbers, update the constants in the same commit and say why.
//!
//! `hetero_sweep` rows carry measured balancer wall-clock inside
//! `tokens_per_second` (and the margins built from it), so its digest
//! covers only the row fields the simulation fixes: the labels, the
//! bubble ratio's bits and the rebalance count.

use dynmo_bench::hetero::run_hetero_sweep;
use dynmo_bench::serving::{run_serving_sweep, ServingSweepConfig};
use dynmo_bench::sweep::{run_sweep, SweepConfig};
use dynmo_bench::ExperimentScale;

/// Digest of the smoke-scale `results/pipeline_sweep.json` bytes.
const PIPELINE_SWEEP_DIGEST: u64 = 0x5500_09d1_2944_1ec9;
/// Digest of the smoke-scale `results/serving_sweep.json` bytes.
const SERVING_SWEEP_DIGEST: u64 = 0x47c6_10c8_9d7e_bff5;
/// Digest of the deterministic fields of the smoke-scale
/// `results/hetero_sweep.json` rows.
const HETERO_SWEEP_DIGEST: u64 = 0x2431_afe2_0bc0_627e;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the artifact bytes `dump_json` would write for `rows`.
fn artifact_digest<T: serde::Serialize>(rows: &T) -> u64 {
    fnv1a(
        serde_json::to_string_pretty(rows)
            .expect("sweep rows serialize")
            .as_bytes(),
    )
}

#[test]
fn fnv1a_matches_the_published_test_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn pipeline_sweep_artifact_matches_its_golden_digest() {
    let rows = run_sweep(&SweepConfig::for_scale(ExperimentScale::Smoke));
    let digest = artifact_digest(&rows);
    assert_eq!(
        digest, PIPELINE_SWEEP_DIGEST,
        "pipeline_sweep artifact digest {digest:#018x}"
    );
}

#[test]
fn serving_sweep_artifact_matches_its_golden_digest() {
    let rows = run_serving_sweep(&ServingSweepConfig::for_scale(ExperimentScale::Smoke));
    let digest = artifact_digest(&rows);
    assert_eq!(
        digest, SERVING_SWEEP_DIGEST,
        "serving_sweep artifact digest {digest:#018x}"
    );
}

#[test]
fn hetero_sweep_rows_match_their_golden_digest() {
    let report = run_hetero_sweep(ExperimentScale::Smoke);
    let fields: String = report
        .rows
        .iter()
        .map(|row| {
            format!(
                "{}\t{}\t{}\t{}\t{:016x}\t{}\n",
                row.case,
                row.cluster,
                row.configuration,
                row.schedule,
                row.bubble_ratio.to_bits(),
                row.rebalance_events
            )
        })
        .collect();
    let digest = fnv1a(fields.as_bytes());
    assert_eq!(
        digest, HETERO_SWEEP_DIGEST,
        "hetero_sweep row digest {digest:#018x}"
    );
}
