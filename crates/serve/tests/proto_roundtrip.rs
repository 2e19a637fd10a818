//! Property tests on the wire protocol: every generatable
//! [`FlowRequest`] round-trips through its JSON line losslessly, and
//! no truncation or corruption of a request line can make the decoder
//! panic or hang — malformed input always comes back as a typed
//! [`JsonError`].

use m3d_flow::{Config, FlowCommand, FlowOptions, FlowRequest, NetlistSpec, Proto, SweepSpec};
use m3d_json::ToJson;
use m3d_netgen::Benchmark;
use m3d_serve::protocol::{decode_request, decode_response, salvage_id, JsonError};
use m3d_tech::{Corner, Drive, StackingStyle};
use proptest::prelude::*;

const CONFIGS: [Config; 5] = [
    Config::TwoD9T,
    Config::TwoD12T,
    Config::ThreeD9T,
    Config::ThreeD12T,
    Config::Hetero3d,
];
const BENCHMARKS: [Benchmark; 4] = [
    Benchmark::Aes,
    Benchmark::Ldpc,
    Benchmark::Netcard,
    Benchmark::Cpu,
];
const DRIVES: [Drive; 5] = [Drive::X1, Drive::X2, Drive::X4, Drive::X8, Drive::X16];
const MAX_EXACT_JSON_INT: u64 = 1 << 53;

fn arb_options() -> impl Strategy<Value = FlowOptions> {
    (
        // JSON integers are exact only up to 2^53 (doubles on the
        // wire), so that is the documented — and generated — id/seed range.
        (0.3..0.95f64, 0..MAX_EXACT_JSON_INT, 1..64usize, 0..3usize),
        (0.0..1.0f64, 1..1_000usize, 2..64usize, 1..16usize),
        (0.01..0.9f64, 0..5usize, 0..5usize, 1e-6..0.1f64),
    )
        .prop_map(|(a, b, c)| {
            let (utilization, seed, iterations, flags) = a;
            let (timing_partition_cap, max_fanout, partition_bins, threads) = b;
            let (input_activity, fast, slow, wns_tolerance) = c;
            let mut o = FlowOptions {
                utilization,
                seed,
                timing_partition_cap,
                enable_timing_partition: flags & 1 != 0,
                enable_3d_cts: flags & 2 != 0,
                input_activity,
                max_fanout,
                partition_bins,
                wns_tolerance,
                threads,
                ..FlowOptions::default()
            };
            o.placer_mut().iterations = iterations;
            o.cts_mut().fast_drive = DRIVES[fast];
            o.cts_mut().slow_drive = DRIVES[slow];
            o
        })
}

fn arb_command() -> impl Strategy<Value = FlowCommand> {
    (
        0..4usize,
        0..5usize,
        0.1..4.0f64,
        (1..6usize, 1..3usize, 1..4usize, 1..8usize),
    )
        .prop_map(
            |(op, cfg, ghz, (n_configs, n_styles, n_corners, steps))| match op {
                0 => FlowCommand::RunFlow {
                    config: CONFIGS[cfg],
                    frequency_ghz: ghz,
                },
                1 => FlowCommand::FindFmax {
                    config: CONFIGS[cfg],
                    start_ghz: ghz,
                },
                2 => FlowCommand::CompareConfigs,
                // Duplicate-free axes as prefixes of the canonical orders.
                _ => FlowCommand::Sweep {
                    spec: SweepSpec {
                        configs: CONFIGS[..n_configs].to_vec(),
                        stacking: StackingStyle::ALL[..n_styles].to_vec(),
                        corners: Corner::ALL[..n_corners].to_vec(),
                        freq_min_ghz: ghz,
                        freq_max_ghz: ghz * 1.5,
                        freq_steps: steps,
                    },
                },
            },
        )
}

fn arb_request() -> impl Strategy<Value = FlowRequest> {
    (
        (
            0..MAX_EXACT_JSON_INT,
            0..4usize,
            0.001..0.5f64,
            0..MAX_EXACT_JSON_INT,
        ),
        arb_options(),
        arb_command(),
        0..120_000u64,
        0..2u64,
    )
        .prop_map(
            |((id, bench, scale, seed), options, command, deadline, v2)| FlowRequest {
                id,
                netlist: NetlistSpec {
                    benchmark: BENCHMARKS[bench],
                    scale,
                    seed,
                },
                options,
                // Sweeps only exist on v2; other commands exercise both
                // the omitted-proto (v1) and explicit `"proto":2` paths.
                proto: if v2 == 1 || matches!(command, FlowCommand::Sweep { .. }) {
                    Proto::V2
                } else {
                    Proto::V1
                },
                command,
                // Exercise both the present and absent deadline encodings.
                deadline_ms: (deadline % 2 == 0).then_some(deadline),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The full request — scalars, nested option structs, enums,
    // optional fields — survives render → parse → decode bit for bit.
    #[test]
    fn flow_requests_round_trip_losslessly(request in arb_request()) {
        let line = request.to_json().render();
        let back = decode_request(&line).expect("own encoding must decode");
        prop_assert_eq!(&back, &request, "lossy round-trip: {}", line);
        // Scale and every other float came back bit-identical, so a
        // re-render is byte-identical too.
        prop_assert_eq!(back.to_json().render(), line);
    }

    // Chopping a valid request line at any byte can only produce a
    // typed error or (for prefix-closed truncations) a valid value —
    // never a panic or a hang.
    #[test]
    fn truncated_requests_yield_typed_errors(request in arb_request(), cut in 0.0..1.0f64) {
        let line = request.to_json().render();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let mut at = (line.len() as f64 * cut) as usize;
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        let truncated = &line[..at];
        match decode_request(truncated) {
            Err(JsonError::Parse(msg)) => prop_assert!(!msg.is_empty()),
            Err(JsonError::Decode(e)) => prop_assert!(!e.path.is_empty() || !e.expected.is_empty()),
            Ok(_) => prop_assert!(false, "a strict parser cannot accept a strict prefix: {truncated}"),
        }
    }

    // Corrupting one byte leaves the decoder total: it returns either
    // a typed error or a (different or equal) valid request.
    #[test]
    fn corrupted_requests_never_panic(request in arb_request(), pos in 0.0..1.0f64, byte in 0..128u8) {
        let line = request.to_json().render();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let mut at = (line.len() as f64 * pos) as usize % line.len();
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        let mut corrupted = line.clone();
        corrupted.replace_range(at..at + line[at..].chars().next().map_or(1, char::len_utf8), &char::from(byte % 127).to_string());
        // Must return, one way or the other.
        let _ = decode_request(&corrupted);
        let _ = salvage_id(&corrupted);
    }
}

fn sample_request() -> FlowRequest {
    FlowRequest {
        id: 7,
        netlist: NetlistSpec {
            benchmark: Benchmark::Aes,
            scale: 0.05,
            seed: 31,
        },
        options: FlowOptions::default(),
        command: FlowCommand::CompareConfigs,
        deadline_ms: None,
        proto: Proto::V1,
    }
}

// An id at or above 2^53 cannot survive the f64 wire representation
// exactly, so the decoder refuses it rather than silently correlating
// the response to a different id — and `salvage_id` refuses to echo it
// into a rejection for the same reason.
#[test]
fn ids_at_or_above_2_pow_53_are_rejected_not_rounded() {
    let mut request = sample_request();
    request.id = (1 << 53) + 1; // rounds to exactly 2^53 on the wire
    let line = request.to_json().render();
    match decode_request(&line) {
        Err(JsonError::Decode(e)) => assert_eq!(e.path, "id"),
        other => panic!("expected a decode error on `id`, got {other:?}"),
    }
    assert_eq!(salvage_id(&line), None);
}

// A netlist scale outside (0, MAX_SCALE] is refused at decode — before
// it can reach a worker and saturate buffer-sizing arithmetic.
#[test]
fn out_of_range_scales_are_rejected_at_decode() {
    let mut request = sample_request();
    request.netlist.scale = 1e18;
    let line = request.to_json().render();
    match decode_request(&line) {
        Err(JsonError::Decode(e)) => assert_eq!(e.path, "netlist/scale"),
        other => panic!("expected a decode error on `netlist/scale`, got {other:?}"),
    }
    // The id itself is fine, so a server can still echo it.
    assert_eq!(salvage_id(&line), Some(7));
}

#[test]
fn responses_round_trip_through_their_lines() {
    use m3d_serve::{RejectKind, Response};
    let rejected = Response::reject(Some(17), RejectKind::Overloaded, "queue full");
    let line = rejected.to_json().render();
    assert_eq!(decode_response(&line), Ok(rejected));

    let anonymous = Response::reject(None, RejectKind::Protocol, "not json");
    let line = anonymous.to_json().render();
    let back = decode_response(&line).expect("decode");
    assert_eq!(back, anonymous);
    assert_eq!(back.id(), None);

    // Shape errors keep their `path: expected ...` text on the client side.
    assert_eq!(
        decode_response(&line.replace("\"protocol\"", "\"teapot\"")),
        Err("kind: expected a reject kind (protocol|flow|overloaded|deadline|shutdown)".into())
    );
    assert_eq!(
        decode_response(&line.replace("\"rejected\"", "\"maybe\"")),
        Err("status: expected a status (ok|rejected)".into())
    );
    assert_eq!(
        decode_response(&line.replace("\"message\"", "\"note\"")),
        Err("document root: expected member `message`".into())
    );
}
