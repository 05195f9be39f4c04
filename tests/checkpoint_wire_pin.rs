//! Pins the checkpoint wire image and the report's channel order.
//!
//! The engine keeps its per-channel state in hash maps and sorts by
//! channel id wherever the order is observable. These tests hold that
//! boundary: the encoded image of fixed zoo runs must keep its exact
//! bytes (an FNV-1a pin recorded when the meters were still an ordered
//! map), and a network that first touches its channels in descending id
//! order still reports them, encodes them and feeds them to the
//! heavy-hitter sketch in ascending order.

use eqp::kahn::procs::{Copy, Source};
use eqp::kahn::{
    decode_checkpoint, encode_checkpoint, Network, RandomSched, RoundRobin, RunOptions, RunWith,
};
use eqp::processes::zoo::conformance_zoo;
use eqp::trace::{Chan, Value};

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of the checkpoint images of every conformance-zoo entry, each
/// run under `RandomSched::new(7)` with seed 7 and cut at half its
/// uninterrupted step count, concatenated in registry order (14,136
/// bytes).
const ZOO_IMAGES_FNV: u64 = 17_943_103_118_467_821_678;

#[test]
fn zoo_checkpoint_images_keep_their_bytes() {
    let mut images = Vec::new();
    for entry in conformance_zoo() {
        let opts = RunOptions {
            max_steps: entry.max_steps,
            seed: 7,
            ..RunOptions::default()
        };
        let full = entry.network(7).run_report(&mut RandomSched::new(7), opts);
        let with = RunWith {
            checkpoint_at: Some(full.steps / 2),
            ..RunWith::default()
        };
        let ckpt = entry
            .network(7)
            .run_with(&mut RandomSched::new(7), opts, with)
            .checkpoint
            .unwrap_or_else(|| panic!("{}: no checkpoint", entry.name));
        let image = encode_checkpoint(&ckpt)
            .unwrap_or_else(|e| panic!("{}: encode failed: {e}", entry.name));
        images.extend_from_slice(&image);
    }
    assert_eq!(
        fnv1a(&images),
        ZOO_IMAGES_FNV,
        "zoo checkpoint images changed ({} bytes)",
        images.len()
    );
}

/// FNV-1a of the descending chain's checkpoint image, cut at half its
/// round-robin run (10,653 bytes). A decoded image re-encodes to the
/// same bytes in any consistent map order, so only a pin recorded with
/// ordered meters shows that the image lists channels ascending.
const DESCENDING_IMAGE_FNV: u64 = 3_482_659_515_160_398_863;

/// FNV-1a of the descending chain's report sketch block, recorded with
/// ordered meters.
const DESCENDING_SKETCH_FNV: u64 = 6_515_843_458_644_612_562;

/// A relay chain `src → 100 → 99 → … → 100 - HOPS`: under round-robin
/// the source and then each relay touch their channels in descending id
/// order.
fn descending_chain() -> Network {
    const HOPS: u32 = 40;
    let mut net = Network::new();
    net.add(Source::new("src", Chan::new(100), (0..12).map(Value::Int)));
    for i in 0..HOPS {
        net.add(Copy::new(
            format!("relay{i}"),
            Chan::new(100 - i),
            Chan::new(99 - i),
        ));
    }
    net
}

#[test]
fn descending_first_touch_reports_and_encodes_ascending() {
    let opts = RunOptions {
        max_steps: 10_000,
        ..RunOptions::default()
    };
    let report = descending_chain().run_report(&mut RoundRobin::new(), opts);
    assert!(report.quiescent);
    let ids: Vec<u32> = report.channels.iter().map(|c| c.chan.index()).collect();
    assert_eq!(ids, (60..=100).collect::<Vec<u32>>());
    assert!(report.channels.iter().all(|c| c.sends == 12));
    // 41 equally loaded channels overflow the 32-slot heavy-hitter
    // sketch, so its contents depend on the order the report feeds it
    let sketches = report.sketches.as_ref().expect("sketches are on");
    assert_eq!(fnv1a(&sketches.to_bytes()), DESCENDING_SKETCH_FNV);

    let with = RunWith {
        checkpoint_at: Some(report.steps / 2),
        ..RunWith::default()
    };
    let ckpt = descending_chain()
        .run_with(&mut RoundRobin::new(), opts, with)
        .checkpoint
        .expect("checkpoint captured mid-run");
    let image = encode_checkpoint(&ckpt).expect("encodable");
    assert_eq!(
        fnv1a(&image),
        DESCENDING_IMAGE_FNV,
        "descending-chain checkpoint image changed ({} bytes)",
        image.len()
    );
    let decoded = decode_checkpoint(&image).expect("decodable");
    assert_eq!(decoded.fingerprint(), ckpt.fingerprint());
    assert_eq!(encode_checkpoint(&decoded).expect("encodable"), image);
}
