//! Property tests for the service protocol codec, over both frame
//! versions: arbitrary messages round-trip exactly, strict prefixes and
//! oversized bodies are rejected with typed errors, and any single flipped
//! bit anywhere in a frame — header or body — is detected, never misparsed.

use proptest::prelude::*;
use pulsar_fabric::fnv1a;
use pulsar_fabric::frame::{encode_header, FrameHeader, FrameKind, HEADER_LEN};
use pulsar_linalg::Matrix;
use pulsar_server::proto::{
    decode_msg, encode_msg, read_msg, ErrCode, JobState, Msg, ProtoError, Version, MAX_SERVICE_BODY,
};

/// A v1 frame of `msg`, built by hand the way older peers write it: the
/// same payload under a `Data` header, checked with FNV-1a mixed with the
/// verb and request id. Mirrors the codec rather than calling it, so a
/// change to the v1 layout fails here.
fn encode_v1(msg: &Msg, seq: u64) -> Vec<u8> {
    let payload = &encode_msg(msg, seq)[HEADER_LEN + 4..];
    let verb = msg.verb();
    let crc = fnv1a(payload) ^ verb.wrapping_mul(0x9e37_79b9) ^ (seq as u32) ^ ((seq >> 32) as u32);
    let header = FrameHeader {
        kind: FrameKind::Data { wire_id: verb },
        seq,
        ack: 0,
        len: 4 + payload.len() as u64,
    };
    [&encode_header(&header)[..], &crc.to_le_bytes(), payload].concat()
}

/// `msg` framed as v1 or as v2 (what this crate sends).
fn encode(msg: &Msg, seq: u64, v1: bool) -> Vec<u8> {
    if v1 {
        encode_v1(msg, seq)
    } else {
        encode_msg(msg, seq)
    }
}

/// Finite doubles only: the round-trip property compares with `==`, and
/// NaN would make a faithfully-decoded matrix compare unequal.
fn finite_f64() -> BoxedStrategy<f64> {
    let magnitude = -1e12..1e12;
    prop_oneof![
        magnitude,
        Just(0.0),
        Just(-0.0),
        Just(f64::MIN_POSITIVE),
        Just(f64::MAX),
    ]
    .boxed()
}

fn matrix_strategy() -> BoxedStrategy<Matrix> {
    (1usize..6, 1usize..6)
        .prop_flat_map(|(m, n)| {
            proptest::collection::vec(finite_f64(), m * n)
                .prop_map(move |data| Matrix::from_col_major(m, n, data))
        })
        .boxed()
}

/// ASCII strings drawn from the characters tree specs and stats JSON use.
fn string_strategy(max: usize) -> BoxedStrategy<String> {
    proptest::collection::vec(0x20u8..0x7f, 0..max)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
        .boxed()
}

fn job_state_strategy() -> BoxedStrategy<JobState> {
    prop_oneof![
        Just(JobState::Queued),
        Just(JobState::Running),
        Just(JobState::Done),
        Just(JobState::Failed),
        Just(JobState::Cancelled),
        Just(JobState::Expired),
    ]
    .boxed()
}

fn err_code_strategy() -> BoxedStrategy<ErrCode> {
    prop_oneof![
        Just(ErrCode::Failed),
        Just(ErrCode::DeadlineExpired),
        Just(ErrCode::Cancelled),
        Just(ErrCode::UnknownJob),
        Just(ErrCode::Invalid),
        Just(ErrCode::HandleExpired),
        Just(ErrCode::StoreFull),
        Just(ErrCode::Panicked),
        Just(ErrCode::NodeLost),
    ]
    .boxed()
}

fn msg_strategy() -> BoxedStrategy<Msg> {
    let submit = (
        (1u32..512, 1u32..128, any::<u32>()),
        (any::<bool>(), any::<u64>()),
        string_strategy(16),
        matrix_strategy(),
    )
        .prop_map(
            |((nb, ib, deadline_ms), (keep, idem), tree, a)| Msg::Submit {
                nb,
                ib,
                deadline_ms,
                keep,
                idem,
                tree,
                a,
            },
        );
    let reject = (any::<bool>(), any::<u32>(), any::<u32>()).prop_map(
        |(draining, retry_after_ms, queued)| Msg::Reject {
            draining,
            retry_after_ms,
            queued,
        },
    );
    let state =
        (any::<u64>(), job_state_strategy(), any::<u32>()).prop_map(|(job, state, queue_pos)| {
            Msg::State {
                job,
                state,
                queue_pos,
            }
        });
    let rfactor = (any::<u64>(), matrix_strategy()).prop_map(|(job, r)| Msg::RFactor { job, r });
    let cancel_ok =
        (any::<u64>(), any::<bool>()).prop_map(|(job, cancelled)| Msg::CancelOk { job, cancelled });
    let error = (any::<u64>(), err_code_strategy(), string_strategy(32))
        .prop_map(|(job, code, msg)| Msg::Error { job, code, msg });
    let solve = (any::<u64>(), matrix_strategy()).prop_map(|(handle, b)| Msg::Solve { handle, b });
    let solution =
        (any::<u64>(), matrix_strategy()).prop_map(|(handle, x)| Msg::Solution { handle, x });
    let apply_q =
        (any::<u64>(), any::<bool>(), matrix_strategy()).prop_map(|(handle, transpose, b)| {
            Msg::ApplyQ {
                handle,
                transpose,
                b,
            }
        });
    let q_applied =
        (any::<u64>(), matrix_strategy()).prop_map(|(handle, c)| Msg::QApplied { handle, c });
    let update =
        (any::<u64>(), matrix_strategy()).prop_map(|(handle, e)| Msg::Update { handle, e });
    let updated =
        (any::<u64>(), any::<u64>()).prop_map(|(handle, rows)| Msg::Updated { handle, rows });
    let released = (any::<u64>(), any::<bool>())
        .prop_map(|(handle, released)| Msg::Released { handle, released });
    let join = (
        string_strategy(24),
        any::<u32>(),
        any::<u64>(),
        string_strategy(8),
    )
        .prop_map(|(addr, threads, store_bytes, gemm_tier)| Msg::Join {
            addr,
            threads,
            store_bytes,
            gemm_tier,
        });
    let leave_ok =
        (any::<u32>(), any::<bool>()).prop_map(|(node_id, left)| Msg::LeaveOk { node_id, left });
    let pong =
        (any::<u64>(), any::<u32>(), any::<u32>()).prop_map(|(nonce, queued, running)| Msg::Pong {
            nonce,
            queued,
            running,
        });
    prop_oneof![
        submit,
        any::<u64>().prop_map(|job| Msg::SubmitOk { job }),
        reject,
        any::<u64>().prop_map(|job| Msg::Status { job }),
        state,
        any::<u64>().prop_map(|job| Msg::Result { job }),
        rfactor,
        any::<u64>().prop_map(|job| Msg::Cancel { job }),
        cancel_ok,
        Just(Msg::Drain),
        string_strategy(64).prop_map(|stats| Msg::Drained { stats }),
        error,
        solve,
        solution,
        apply_q,
        q_applied,
        update,
        updated,
        any::<u64>().prop_map(|handle| Msg::Release { handle }),
        released,
        join,
        any::<u32>().prop_map(|node_id| Msg::JoinOk { node_id }),
        any::<u32>().prop_map(|node_id| Msg::Leave { node_id }),
        leave_ok,
        any::<u64>().prop_map(|nonce| Msg::Ping { nonce }),
        pong,
    ]
    .boxed()
}

proptest! {
    #[test]
    fn messages_round_trip(msg in msg_strategy(), seq in any::<u64>(), v1 in any::<bool>()) {
        let wire = encode(&msg, seq, v1);
        let version = if v1 { Version::V1 } else { Version::V2 };
        prop_assert_eq!(read_msg(&mut &wire[..]).ok(), Some((msg.clone(), seq, version)));
        let (back, rseq) = decode_msg(&wire).expect("encoded frame decodes");
        prop_assert_eq!(back, msg);
        prop_assert_eq!(rseq, seq);
    }

    #[test]
    fn strict_prefixes_are_typed_truncations(
        msg in msg_strategy(),
        seq in any::<u64>(),
        v1 in any::<bool>(),
        cut in any::<usize>(),
    ) {
        let wire = encode(&msg, seq, v1);
        let cut = cut % wire.len(); // 0..len, strictly short of the end
        match decode_msg(&wire[..cut]) {
            Err(ProtoError::Truncated) => {}
            // Cuts inside the 33-byte header surface as frame-level
            // truncation instead.
            Err(ProtoError::Frame(e)) => prop_assert!(
                format!("{e:?}").contains("Truncated"),
                "header cut at {} gave {:?}", cut, e
            ),
            other => prop_assert!(false, "prefix of {} bytes gave {:?}", cut, other),
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected(
        msg in msg_strategy(),
        seq in any::<u64>(),
        v1 in any::<bool>(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        // Every byte is covered: magic, kind, verb, request id (bound into
        // the checksum), the unused ack (required to be zero), the length,
        // the checksum itself, and the payload.
        let mut wire = encode(&msg, seq, v1);
        let pos = pos % wire.len();
        wire[pos] ^= 1 << bit;
        prop_assert!(
            decode_msg(&wire).is_err(),
            "flipping bit {} of byte {} went undetected", bit, pos
        );
    }

    #[test]
    fn trailing_garbage_is_rejected(
        msg in msg_strategy(),
        seq in any::<u64>(),
        v1 in any::<bool>(),
        extra in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let mut wire = encode(&msg, seq, v1);
        wire.extend_from_slice(&extra);
        prop_assert_eq!(decode_msg(&wire), Err(ProtoError::Trailing(extra.len())));
    }

    #[test]
    fn oversized_declared_bodies_are_rejected(
        msg in msg_strategy(),
        seq in any::<u64>(),
        over in 1u64..=1 << 20,
    ) {
        // Grow the declared length past the service cap; the decoder must
        // refuse before attempting to buffer the body.
        let mut wire = encode_msg(&msg, seq);
        wire[25..33].copy_from_slice(&(MAX_SERVICE_BODY as u64 + over).to_le_bytes());
        prop_assert!(matches!(decode_msg(&wire), Err(ProtoError::Oversized(_))));
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        // Raw socket garbage must always yield a typed verdict. A success
        // on random bytes would require forging the magic, a valid verb,
        // and a matching checksum.
        let _ = decode_msg(&bytes);
    }
}

#[test]
fn every_kind_byte_flip_is_a_typed_error() {
    // Neither data kind is one bit away from the other, so no flip can
    // change which checksum verifies the body. `Leave` has the 8-byte body
    // a barrier header accepts, `Drain` the shortest body there is.
    let a = Matrix::from_col_major(2, 1, vec![1.5, -2.0]);
    let msgs = [
        Msg::Leave { node_id: 3 },
        Msg::Drain,
        Msg::Solve { handle: 9, b: a },
    ];
    for msg in &msgs {
        for v1 in [true, false] {
            for bit in 0..8 {
                let mut wire = encode(msg, 77, v1);
                wire[4] ^= 1 << bit;
                assert!(
                    decode_msg(&wire).is_err(),
                    "{msg:?} (v1: {v1}) survived a flip of kind bit {bit}"
                );
            }
        }
    }
}
