//! Integration tests for PRT semantics: firing rules, counters, channel
//! state control, multi-node proxies, scheduling schemes, and termination.

use pulsar_runtime::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn exit_values_i64(out: &mut RunOutput, tuple: Tuple, slot: usize) -> Vec<i64> {
    out.take_exit(tuple, slot)
        .into_iter()
        .map(|p| p.take::<i64>())
        .collect()
}

/// A linear chain of VDPs incrementing a counter; checks basic dataflow.
#[test]
fn chain_increments() {
    let n = 16;
    let mut vsa = Vsa::new();
    for i in 0..n {
        vsa.add_vdp(VdpSpec::new(
            Tuple::new1(i),
            1,
            1,
            1,
            |ctx: &mut VdpContext| {
                let x: i64 = ctx.pop(0).take();
                ctx.push(0, Packet::new(x + 1, 8));
            },
        ));
        vsa.add_channel(ChannelSpec::new(
            8,
            Tuple::new1(i),
            0,
            Tuple::new1(i + 1),
            0,
        ));
    }
    vsa.seed(Tuple::new1(0), 0, Packet::new(0i64, 8));
    let mut out = vsa.run(&RunConfig::smp(4)).expect("run failed");
    assert_eq!(exit_values_i64(&mut out, Tuple::new1(n), 0), vec![n as i64]);
    assert_eq!(out.stats.fired, n as usize);
}

/// Multi-fire VDP: counter > 1 with a stream of packets, preserving FIFO
/// order, and persistent local state across firings.
#[test]
fn multifire_preserves_order_and_state() {
    struct Accumulate {
        sum: i64, // persistent local variable (the paper's local store)
    }
    impl VdpLogic for Accumulate {
        fn fire(&mut self, ctx: &mut VdpContext) {
            let x: i64 = ctx.pop(0).take();
            self.sum += x;
            ctx.push(0, Packet::new(self.sum, 8));
        }
    }

    let k = 10;
    let mut vsa = Vsa::new();
    vsa.add_vdp(VdpSpec::new(Tuple::new1(0), k, 1, 1, Accumulate { sum: 0 }));
    vsa.add_channel(ChannelSpec::new(8, Tuple::new1(0), 0, Tuple::new1(1), 0));
    for i in 1..=k as i64 {
        vsa.seed(Tuple::new1(0), 0, Packet::new(i, 8));
    }
    let mut out = vsa.run(&RunConfig::smp(2)).expect("run failed");
    let prefix_sums = exit_values_i64(&mut out, Tuple::new1(1), 0);
    let want: Vec<i64> = (1..=k as i64).map(|i| i * (i + 1) / 2).collect();
    assert_eq!(prefix_sums, want, "FIFO order or local state broken");
}

/// A VDP fires only when *all* active input channels hold packets.
#[test]
fn fires_only_when_all_inputs_ready() {
    let fired_at = Arc::new(AtomicUsize::new(0));
    let f = fired_at.clone();
    let mut vsa = Vsa::new();
    vsa.add_vdp(VdpSpec::new(
        Tuple::new1(0),
        1,
        2,
        1,
        move |ctx: &mut VdpContext| {
            let a: i64 = ctx.pop(0).take();
            let b: i64 = ctx.pop(1).take();
            f.store(1, Ordering::SeqCst);
            ctx.push(0, Packet::new(a * b, 8));
        },
    ));
    vsa.add_channel(ChannelSpec::new(8, Tuple::new1(0), 0, Tuple::new1(9), 0));
    vsa.seed(Tuple::new1(0), 0, Packet::new(6i64, 8));
    vsa.seed(Tuple::new1(0), 1, Packet::new(7i64, 8));
    let mut out = vsa.run(&RunConfig::smp(1)).expect("run failed");
    assert_eq!(exit_values_i64(&mut out, Tuple::new1(9), 0), vec![42]);
}

/// The paper's disabled-channel pattern: a VDP ignores a disabled input, and
/// only after enabling it does that channel gate (and feed) the firing —
/// also when the feeder sits on another node and its packet arrives
/// through the proxies (the QR array's dashed channel often does).
#[test]
fn disabled_channel_is_ignored_until_enabled() {
    let feeder_remote: MappingFn = Arc::new(|t: &Tuple| Place {
        node: usize::from(t.id(0) == 7),
        thread: 0,
    });
    for config in [RunConfig::smp(1), RunConfig::cluster(2, 1, feeder_remote)] {
        let mut out = disabled_channel_array().run(&config).expect("run failed");
        assert_eq!(
            exit_values_i64(&mut out, Tuple::new1(9), 0),
            vec![1, 2, 105]
        );
    }
}

fn disabled_channel_array() -> Vsa {
    // VDP 0 fires 3 times. Firings 0 and 1 consume slot 0 only (slot 1 is
    // disabled). At the end of firing 1 it enables slot 1, so firing 2
    // requires and consumes the packet waiting there.
    let mut vsa = Vsa::new();
    vsa.add_vdp(VdpSpec::new(
        Tuple::new1(0),
        3,
        2,
        1,
        |ctx: &mut VdpContext| {
            match ctx.firing() {
                0 | 1 => {
                    // Slot 1 is disabled: the VDP fires on slot 0 alone even
                    // though the feeder's packet may already be waiting.
                    let x: i64 = ctx.pop(0).take();
                    ctx.push(0, Packet::new(x, 8));
                    if ctx.firing() == 1 {
                        // Switch gating channels: slot 0 is exhausted, the
                        // final firing waits on slot 1 (Section V-C pattern).
                        ctx.disable_input(0);
                        ctx.enable_input(1);
                    }
                }
                _ => {
                    let y: i64 = ctx.pop(1).take();
                    ctx.push(0, Packet::new(y + 100, 8));
                }
            }
        },
    ));
    // Feeder VDP that sends one packet into the (initially disabled) slot 1.
    vsa.add_vdp(VdpSpec::new(
        Tuple::new1(7),
        1,
        1,
        1,
        |ctx: &mut VdpContext| {
            let x: i64 = ctx.pop(0).take();
            ctx.push(0, Packet::new(x, 8));
        },
    ));
    vsa.add_channel(ChannelSpec::new(8, Tuple::new1(7), 0, Tuple::new1(0), 1).disabled());
    vsa.add_channel(ChannelSpec::new(8, Tuple::new1(0), 0, Tuple::new1(9), 0));
    vsa.seed(Tuple::new1(7), 0, Packet::new(5i64, 8));
    vsa.seed(Tuple::new1(0), 0, Packet::new(1i64, 8));
    vsa.seed(Tuple::new1(0), 0, Packet::new(2i64, 8));
    // One worker thread per node: without the disable, VDP 0 could not fire
    // twice on slot 0 alone.
    vsa
}

/// Multi-node ring: a token visits every node twice (tests proxy routing,
/// wire ids, and cross-node notification).
#[test]
fn multinode_ring_token() {
    let nodes = 4;
    let laps = 2;
    let mut vsa = Vsa::new();
    for i in 0..nodes as i32 {
        vsa.add_vdp(VdpSpec::new(
            Tuple::new1(i),
            laps,
            1,
            1,
            |ctx: &mut VdpContext| {
                let x: i64 = ctx.pop(0).take();
                ctx.push(0, Packet::new(x + 1, 8));
            },
        ));
    }
    for i in 0..nodes as i32 {
        let next = (i + 1) % nodes as i32;
        // The channel out of the last VDP's final lap also exits the array.
        vsa.add_channel(ChannelSpec::new(8, Tuple::new1(i), 0, Tuple::new1(next), 0));
    }
    // Exit: intercept at a sink VDP is complex in a pure ring; instead count
    // total firings and verify the token value via a tap VDP.
    let mapping: MappingFn = Arc::new(move |t: &Tuple| Place {
        node: t.id(0) as usize,
        thread: 0,
    });
    let config = RunConfig::cluster(nodes, 1, mapping);
    // Seed the token.
    vsa.seed(Tuple::new1(0), 0, Packet::new(0i64, 8));
    let out = vsa.run(&config).expect("run failed");
    assert_eq!(out.stats.fired, nodes * laps as usize);
    assert!(out.stats.remote_msgs >= nodes * laps as usize - 1);
}

/// Cross-node pipeline with an interconnect model: results are identical,
/// and the modeled latency shows up in the wall clock.
#[test]
fn net_model_delays_but_preserves_results() {
    let hops = 6;
    let build = |net: Option<NetModel>| {
        let mut vsa = Vsa::new();
        for i in 0..hops {
            vsa.add_vdp(VdpSpec::new(
                Tuple::new1(i),
                1,
                1,
                1,
                |ctx: &mut VdpContext| {
                    let x: i64 = ctx.pop(0).take();
                    ctx.push(0, Packet::new(x * 3, 8));
                },
            ));
            vsa.add_channel(ChannelSpec::new(
                8,
                Tuple::new1(i),
                0,
                Tuple::new1(i + 1),
                0,
            ));
        }
        vsa.seed(Tuple::new1(0), 0, Packet::new(1i64, 8));
        let mapping: MappingFn = Arc::new(|t: &Tuple| Place {
            node: (t.id(0) % 2) as usize,
            thread: 0,
        });
        let mut config = RunConfig::cluster(2, 1, mapping);
        config.net = net;
        let mut out = vsa.run(&config).expect("run failed");
        (
            exit_values_i64(&mut out, Tuple::new1(hops), 0),
            out.stats.wall,
        )
    };
    let (fast, _) = build(None);
    let model = NetModel {
        latency_us: 3000.0,
        bytes_per_us: 1000.0,
    };
    let (slow, wall) = build(Some(model));
    assert_eq!(fast, vec![3i64.pow(hops as u32)]);
    assert_eq!(fast, slow);
    // hops-1 inter-VDP channels cross nodes (the last one is an exit):
    // >= (hops-1) * 3ms of modeled latency in series.
    assert!(
        wall >= Duration::from_millis(3 * (hops as u64 - 1)),
        "modeled latency not applied: {wall:?}"
    );
}

/// Lazy and aggressive scheduling both drain the array and agree on results.
#[test]
fn lazy_and_aggressive_agree() {
    for scheme in [SchedScheme::Lazy, SchedScheme::Aggressive] {
        let mut vsa = Vsa::new();
        let k = 20;
        vsa.add_vdp(VdpSpec::new(
            Tuple::new1(0),
            k,
            1,
            1,
            |ctx: &mut VdpContext| {
                let x: i64 = ctx.pop(0).take();
                ctx.push(0, Packet::new(x * x, 8));
            },
        ));
        vsa.add_channel(ChannelSpec::new(8, Tuple::new1(0), 0, Tuple::new1(1), 0));
        for i in 0..k as i64 {
            vsa.seed(Tuple::new1(0), 0, Packet::new(i, 8));
        }
        let mut out = vsa
            .run(&RunConfig::smp(3).with_scheme(scheme))
            .expect("run failed");
        let got = exit_values_i64(&mut out, Tuple::new1(1), 0);
        let want: Vec<i64> = (0..k as i64).map(|i| i * i).collect();
        assert_eq!(got, want, "{scheme:?}");
    }
}

/// The bypass pattern: a packet is forwarded downstream *before* the local
/// compute uses it; the downstream VDP sees the identical aliased payload.
#[test]
fn bypass_forwards_before_compute() {
    let mut vsa = Vsa::new();
    vsa.add_vdp(VdpSpec::new(
        Tuple::new1(0),
        1,
        1,
        2,
        |ctx: &mut VdpContext| {
            let p = ctx.pop(0);
            ctx.push(0, p.clone()); // bypass: forward immediately
            let x: i64 = *p.get::<i64>().unwrap();
            ctx.push(1, Packet::new(x + 1, 8)); // then compute
        },
    ));
    vsa.add_channel(ChannelSpec::new(8, Tuple::new1(0), 0, Tuple::new1(8), 0));
    vsa.add_channel(ChannelSpec::new(8, Tuple::new1(0), 1, Tuple::new1(9), 0));
    vsa.seed(Tuple::new1(0), 0, Packet::new(7i64, 8));
    let mut out = vsa.run(&RunConfig::smp(1)).expect("run failed");
    assert_eq!(exit_values_i64(&mut out, Tuple::new1(8), 0), vec![7]);
    assert_eq!(exit_values_i64(&mut out, Tuple::new1(9), 0), vec![8]);
}

/// A VSA that can never fire trips the stall watchdog, which returns a typed
/// error naming the stuck VDP and the input slot it starves on.
#[test]
fn deadlock_watchdog_fires() {
    let mut vsa = Vsa::new();
    vsa.add_vdp(VdpSpec::new(
        Tuple::new1(0),
        1,
        1,
        0,
        |_ctx: &mut VdpContext| {},
    ));
    // Entry channel exists but nothing ever arrives.
    vsa.add_channel(ChannelSpec::new(8, Tuple::new1(99), 0, Tuple::new1(0), 0));
    let mut config = RunConfig::smp(1);
    config.deadlock_timeout = Some(Duration::from_millis(100));
    let err = vsa.run(&config).map(|_| ()).unwrap_err();
    match &err {
        RunError::Stalled { waited, stuck } => {
            assert_eq!(*waited, Duration::from_millis(100));
            assert_eq!(stuck.len(), 1);
            assert_eq!(stuck[0].tuple, Tuple::new1(0));
            assert_eq!(stuck[0].empty_inputs, vec![0]);
            let text = err.to_string();
            assert!(text.contains("waiting on in0"), "diagnostic: {text}");
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
}

/// Many VDPs spread over many threads: an all-to-one reduction tree.
#[test]
fn wide_reduction_tree() {
    let leaves: i32 = 64;
    let mut vsa = Vsa::new();
    // Level 1: pairwise adders; level 2: ...; binary tree of depth 6.
    // VDP (level, idx) sums its two children.
    let mut level = 0;
    let mut width = leaves;
    while width > 1 {
        let next_width = width / 2;
        for i in 0..next_width {
            vsa.add_vdp(VdpSpec::new(
                Tuple::new2(level + 1, i),
                1,
                2,
                1,
                |ctx: &mut VdpContext| {
                    let a: i64 = ctx.pop(0).take();
                    let b: i64 = ctx.pop(1).take();
                    ctx.push(0, Packet::new(a + b, 8));
                },
            ));
            // Children outputs wired below (or seeds at level 0).
            if level > 0 {
                vsa.add_channel(ChannelSpec::new(
                    8,
                    Tuple::new2(level, 2 * i),
                    0,
                    Tuple::new2(level + 1, i),
                    0,
                ));
                vsa.add_channel(ChannelSpec::new(
                    8,
                    Tuple::new2(level, 2 * i + 1),
                    0,
                    Tuple::new2(level + 1, i),
                    1,
                ));
            }
        }
        width = next_width;
        level += 1;
    }
    let top_level = level;
    vsa.add_channel(ChannelSpec::new(
        8,
        Tuple::new2(top_level, 0),
        0,
        Tuple::new1(-1),
        0,
    ));
    // Seed the leaves (level-1 VDPs read seeds directly).
    for i in 0..leaves / 2 {
        vsa.seed(Tuple::new2(1, i), 0, Packet::new((2 * i) as i64, 8));
        vsa.seed(Tuple::new2(1, i), 1, Packet::new((2 * i + 1) as i64, 8));
    }
    let mut out = vsa.run(&RunConfig::smp(8)).expect("run failed");
    let total: i64 = (0..leaves as i64).sum();
    assert_eq!(exit_values_i64(&mut out, Tuple::new1(-1), 0), vec![total]);
}

/// Tracing captures one span per firing with labels.
#[test]
fn trace_records_firings() {
    let mut vsa = Vsa::new();
    vsa.add_vdp(VdpSpec::new(
        Tuple::new1(0),
        3,
        1,
        1,
        |ctx: &mut VdpContext| {
            ctx.set_label(|c| format!("step{}", c.firing()));
            let x: i64 = ctx.pop(0).take();
            let y = ctx.kernel("double", || x * 2);
            ctx.push(0, Packet::new(y, 8));
        },
    ));
    vsa.add_channel(ChannelSpec::new(8, Tuple::new1(0), 0, Tuple::new1(1), 0));
    for i in 0..3 {
        vsa.seed(Tuple::new1(0), 0, Packet::new(i as i64, 8));
    }
    let out = vsa
        .run(&RunConfig::smp(1).with_trace())
        .expect("run failed");
    let trace = out.trace.expect("trace requested");
    let firings = trace.with_label(|l| l.starts_with("step"));
    let kernels = trace.with_label(|l| l == "double");
    assert_eq!(firings.len(), 3);
    assert_eq!(kernels.len(), 3);
    for s in &trace.spans {
        assert!(s.end_us >= s.start_us);
    }
}

/// Packets larger than the channel capacity are rejected loudly: the firing
/// panics, the VDP is quarantined, and the run reports `VdpPanicked`.
#[test]
fn oversized_packet_panics() {
    let mut vsa = Vsa::new();
    vsa.add_vdp(VdpSpec::new(
        Tuple::new1(0),
        1,
        1,
        1,
        |ctx: &mut VdpContext| {
            let _ = ctx.pop(0);
            ctx.push(0, Packet::new([0u8; 64], 64));
        },
    ));
    // The destination must be a real VDP: exit channels have no queue and
    // therefore no capacity to enforce.
    vsa.add_vdp(VdpSpec::new(
        Tuple::new1(1),
        1,
        1,
        0,
        |ctx: &mut VdpContext| {
            let _ = ctx.pop(0);
        },
    ));
    vsa.add_channel(ChannelSpec::new(8, Tuple::new1(0), 0, Tuple::new1(1), 0));
    vsa.seed(Tuple::new1(0), 0, Packet::new(1i64, 8));
    match vsa.run(&RunConfig::smp(1)).map(|_| ()) {
        Err(RunError::VdpPanicked { tuple, payload }) => {
            assert_eq!(tuple, Tuple::new1(0));
            assert!(
                payload.contains("exceeds channel capacity"),
                "payload: {payload}"
            );
        }
        other => panic!("expected VdpPanicked, got {other:?}"),
    }
}

/// `validate` reports every wiring problem at once.
#[test]
fn validate_collects_all_errors() {
    let mut vsa = Vsa::new();
    vsa.add_vdp(VdpSpec::new(
        Tuple::new1(0),
        1,
        1,
        1,
        |_: &mut VdpContext| {},
    ));
    // Both endpoints missing.
    vsa.add_channel(ChannelSpec::new(8, Tuple::new1(7), 0, Tuple::new1(8), 0));
    // Output slot out of range.
    vsa.add_channel(ChannelSpec::new(8, Tuple::new1(0), 5, Tuple::new1(9), 0));
    // Input slot conflict: two channels into (0, slot 0).
    vsa.add_channel(ChannelSpec::new(8, Tuple::new1(9), 0, Tuple::new1(0), 0));
    vsa.add_channel(ChannelSpec::new(8, Tuple::new1(9), 1, Tuple::new1(0), 0));
    // Seed to missing VDP and bad slot.
    vsa.seed(Tuple::new1(42), 0, Packet::new(0i64, 8));
    vsa.seed(Tuple::new1(0), 3, Packet::new(0i64, 8));

    let errs = vsa.validate(&RunConfig::smp(1)).unwrap_err();
    assert!(errs.len() >= 5, "expected many errors, got {errs:?}");
    assert!(errs.iter().any(|e| e.contains("nonexistent VDPs")));
    assert!(errs
        .iter()
        .any(|e| e.contains("output slot 5 out of range")));
    assert!(errs
        .iter()
        .any(|e| e.contains("input slot 0 wired by channels")));
    assert!(errs.iter().any(|e| e.contains("seed targets nonexistent")));
    assert!(errs.iter().any(|e| e.contains("out-of-range input slot 3")));
}

/// `validate` accepts a well-formed array and catches bad mappings.
#[test]
fn validate_checks_mapping_range() {
    let build = || {
        let mut vsa = Vsa::new();
        vsa.add_vdp(VdpSpec::new(
            Tuple::new1(0),
            1,
            1,
            1,
            |ctx: &mut VdpContext| {
                let _ = ctx.pop(0);
            },
        ));
        vsa.add_channel(ChannelSpec::new(8, Tuple::new1(0), 0, Tuple::new1(1), 0));
        vsa.seed(Tuple::new1(0), 0, Packet::new(1i64, 8));
        vsa
    };
    assert!(build().validate(&RunConfig::smp(2)).is_ok());
    let bad: MappingFn = Arc::new(|_: &Tuple| Place { node: 9, thread: 0 });
    let errs = build()
        .validate(&RunConfig::cluster(2, 1, bad))
        .unwrap_err();
    assert!(errs[0].contains("outside 2 nodes"));
}

/// Stress: thousands of independent two-VDP pipelines across nodes/threads.
#[test]
fn stress_many_vdps_multinode() {
    let n = 500i32;
    let mut vsa = Vsa::new();
    for i in 0..n {
        vsa.add_vdp(VdpSpec::new(
            Tuple::new2(0, i),
            1,
            1,
            1,
            |ctx: &mut VdpContext| {
                let x: i64 = ctx.pop(0).take();
                ctx.push(0, Packet::new(x + 1, 8));
            },
        ));
        vsa.add_vdp(VdpSpec::new(
            Tuple::new2(1, i),
            1,
            1,
            1,
            |ctx: &mut VdpContext| {
                let x: i64 = ctx.pop(0).take();
                ctx.push(0, Packet::new(x * 2, 8));
            },
        ));
        vsa.add_channel(ChannelSpec::new(
            8,
            Tuple::new2(0, i),
            0,
            Tuple::new2(1, i),
            0,
        ));
        vsa.add_channel(ChannelSpec::new(
            8,
            Tuple::new2(1, i),
            0,
            Tuple::new2(2, i),
            0,
        ));
        vsa.seed(Tuple::new2(0, i), 0, Packet::new(i as i64, 8));
    }
    let mapping: MappingFn = Arc::new(|t: &Tuple| Place {
        node: (t.id(1) % 3) as usize,
        thread: (t.id(1) % 2) as usize,
    });
    let mut out = vsa
        .run(&RunConfig::cluster(3, 2, mapping))
        .expect("run failed");
    for i in 0..n {
        let got = exit_values_i64(&mut out, Tuple::new2(2, i), 0);
        assert_eq!(got, vec![(i as i64 + 1) * 2]);
    }
}

/// A queue fed faster than it drains: the producer pushes five packets and
/// then five "go" tokens in one firing; the five-fire consumer, on another
/// thread, is gated on a token, so its data queue holds all five (one in
/// the inline slot, four spilled) before it first fires. Order survives,
/// the high-water mark is exact, and both schemes exit the same packets.
#[test]
fn burst_spills_past_the_inline_slot_in_order() {
    let mut per_scheme = Vec::new();
    for scheme in [SchedScheme::Lazy, SchedScheme::Aggressive] {
        let mut vsa = Vsa::new();
        vsa.add_vdp(VdpSpec::new(
            Tuple::new1(0),
            1,
            1,
            2,
            |ctx: &mut VdpContext| {
                let base: i64 = ctx.pop(0).take();
                for k in 0..5 {
                    ctx.push(0, Packet::new(base + k, 8));
                }
                for _ in 0..5 {
                    ctx.push(1, Packet::new((), 0));
                }
            },
        ));
        vsa.add_vdp(VdpSpec::new(
            Tuple::new1(1),
            5,
            2,
            1,
            |ctx: &mut VdpContext| {
                // The burst is fully queued behind the first token.
                assert_eq!(ctx.input_len(0), 5 - ctx.firing() as usize);
                let _ = ctx.pop(1);
                let x: i64 = ctx.pop(0).take();
                ctx.push(0, Packet::new(x * 10, 8));
            },
        ));
        vsa.add_channel(ChannelSpec::new(8, Tuple::new1(0), 0, Tuple::new1(1), 0));
        vsa.add_channel(ChannelSpec::new(8, Tuple::new1(0), 1, Tuple::new1(1), 1));
        vsa.add_channel(ChannelSpec::new(8, Tuple::new1(1), 0, Tuple::new1(9), 0));
        vsa.seed(Tuple::new1(0), 0, Packet::new(100i64, 8));
        let mapping: MappingFn = Arc::new(|t: &Tuple| Place {
            node: 0,
            thread: t.id(0) as usize,
        });
        let config = RunConfig::cluster(1, 2, mapping).with_scheme(scheme);
        let mut out = vsa.run(&config).expect("run failed");
        assert_eq!(out.stats.peak_channel_depth, 5, "{scheme:?}");
        assert_eq!(out.stats.fired_per_thread, vec![1, 5], "{scheme:?}");
        per_scheme.push(exit_values_i64(&mut out, Tuple::new1(9), 0));
    }
    assert_eq!(per_scheme[0], vec![1000, 1010, 1020, 1030, 1040]);
    assert_eq!(per_scheme[0], per_scheme[1]);
}

/// `destroy_input` removes a channel from the readiness rule for good and
/// `disable_input` until further notice: slots 1 and 2 feed the first
/// firing only, and the other two firings must not wait on them (the run
/// would stall, and the watchdog would say so).
#[test]
fn destroyed_and_disabled_inputs_stop_gating() {
    let mut vsa = Vsa::new();
    vsa.add_vdp(VdpSpec::new(
        Tuple::new1(0),
        3,
        3,
        1,
        |ctx: &mut VdpContext| {
            let x: i64 = ctx.pop(0).take();
            let y = if ctx.firing() == 0 {
                let y = ctx.pop(1).take::<i64>() + ctx.pop(2).take::<i64>();
                ctx.destroy_input(1);
                ctx.enable_input(1); // must not resurrect it
                ctx.disable_input(2);
                y
            } else {
                assert_eq!((ctx.input_len(1), ctx.input_len(2)), (0, 0));
                0
            };
            ctx.push(0, Packet::new(x + y, 8));
        },
    ));
    vsa.add_channel(ChannelSpec::new(8, Tuple::new1(0), 0, Tuple::new1(9), 0));
    for x in [1i64, 2, 3] {
        vsa.seed(Tuple::new1(0), 0, Packet::new(x, 8));
    }
    vsa.seed(Tuple::new1(0), 1, Packet::new(40i64, 8));
    vsa.seed(Tuple::new1(0), 2, Packet::new(500i64, 8));
    let mut config = RunConfig::smp(1);
    config.deadlock_timeout = Some(Duration::from_millis(500));
    let mut out = vsa.run(&config).expect("run failed");
    assert_eq!(
        exit_values_i64(&mut out, Tuple::new1(9), 0),
        vec![541, 2, 3]
    );
}

/// A firing's label is only built when someone will read it: the closure
/// given to `set_label` runs under `with_trace()` and not otherwise.
#[test]
fn label_closure_runs_only_when_tracing() {
    for traced in [false, true] {
        let labelled = Arc::new(AtomicUsize::new(0));
        let seen = labelled.clone();
        let mut vsa = Vsa::new();
        vsa.add_vdp(VdpSpec::new(
            Tuple::new2(3, 4),
            2,
            1,
            0,
            move |ctx: &mut VdpContext| {
                let _ = ctx.pop(0);
                ctx.set_label(|c| {
                    seen.fetch_add(1, Ordering::SeqCst);
                    format!("work{:?}#{}", c.tuple(), c.firing())
                });
            },
        ));
        for _ in 0..2 {
            vsa.seed(Tuple::new2(3, 4), 0, Packet::new((), 0));
        }
        let mut config = RunConfig::smp(1);
        config.trace = traced;
        let out = vsa.run(&config).expect("run failed");
        assert_eq!(labelled.load(Ordering::SeqCst), if traced { 2 } else { 0 });
        let labels: Vec<String> = out
            .trace
            .map(|t| t.spans.into_iter().map(|s| s.label).collect())
            .unwrap_or_default();
        let want: &[&str] = if traced {
            &["work(3,4)#0", "work(3,4)#1"]
        } else {
            &[]
        };
        assert_eq!(labels, want);
    }
}
