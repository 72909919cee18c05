//! Property tests for the network substrate.

use bytes::{BufMut, BytesMut};
use proptest::collection::vec;
use proptest::prelude::*;

use naplet_core::tracectx::TraceCtx;
use naplet_net::{Bandwidth, EventQueue, Fabric, Frame, LatencyModel, TrafficClass};

fn class_strategy() -> impl Strategy<Value = TrafficClass> {
    prop_oneof![
        Just(TrafficClass::Migration),
        Just(TrafficClass::Code),
        Just(TrafficClass::Message),
        Just(TrafficClass::Control),
        Just(TrafficClass::Snmp),
        Just(TrafficClass::Other),
    ]
}

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_.-]{0,12}"
}

fn trace_ctx() -> impl Strategy<Value = TraceCtx> {
    (ident(), ident(), any::<u32>(), any::<u64>()).prop_map(|(journey, origin, hop, seq)| {
        TraceCtx {
            journey,
            origin,
            hop,
            seq,
        }
    })
}

/// An arbitrary frame, with or without a trace context.
fn frame() -> impl Strategy<Value = Frame> {
    (
        ident(),
        ident(),
        class_strategy(),
        vec(any::<u8>(), 0..512),
        proptest::option::of(trace_ctx()),
    )
        .prop_map(|(from, to, class, payload, ctx)| Frame {
            from,
            to,
            class,
            payload: payload.into(),
            ctx,
        })
}

proptest! {
    /// Appending via `encode_into` writes exactly the bytes `encode`
    /// produces, `wire_len` predicts them, and they decode back.
    #[test]
    fn frame_encode_into_is_byte_identical(f in frame(), junk in vec(any::<u8>(), 0..32)) {
        let fresh = f.encode();
        prop_assert_eq!(fresh.len() as u64, f.wire_len());
        let mut buf = BytesMut::new();
        buf.put_slice(&junk);
        f.encode_into(&mut buf);
        prop_assert_eq!(&buf[junk.len()..], fresh.as_ref());
        let mut stream = BytesMut::from(fresh.as_ref());
        let back = Frame::decode(&mut stream).unwrap().unwrap();
        prop_assert_eq!(back, f);
        prop_assert!(stream.is_empty());
    }

    /// Attaching a trace context must cost nothing when it is absent:
    /// a ctx-less frame encodes byte-for-byte like the pre-tracing
    /// format, and stripping the ctx from a stamped frame recovers
    /// exactly that encoding.
    #[test]
    fn ctx_free_frames_are_byte_stable(f in frame()) {
        let mut bare = f.clone();
        bare.ctx = None;
        let bare_bytes = bare.encode();
        // the class tag byte never carries the ctx flag when absent
        prop_assert_eq!(bare_bytes[4] & 0x80, 0);
        if let Some(ctx) = &f.ctx {
            let stamped = f.encode();
            prop_assert_eq!(stamped[4] & 0x80, 0x80);
            // ctx block size is exactly what wire_len predicts
            let ctx_len = 2 + ctx.journey.len() + 2 + ctx.origin.len() + 4 + 8;
            prop_assert_eq!(stamped.len(), bare_bytes.len() + ctx_len);
        }
    }

    #[test]
    fn frame_encode_decode_round_trip(
        from in "[a-z0-9.-]{1,24}",
        to in "[a-z0-9.-]{1,24}",
        class in class_strategy(),
        payload in vec(any::<u8>(), 0..512),
    ) {
        let frame = Frame::new(&from, &to, class, payload);
        let encoded = frame.encode();
        prop_assert_eq!(encoded.len() as u64, frame.wire_len());
        let mut buf = BytesMut::from(&encoded[..]);
        let decoded = Frame::decode(&mut buf).unwrap().unwrap();
        prop_assert_eq!(decoded, frame);
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn frame_stream_reassembly(
        frames in vec(
            ("[a-z]{1,8}", "[a-z]{1,8}", vec(any::<u8>(), 0..64)),
            1..8,
        ),
        split_at in any::<u16>(),
    ) {
        // concatenate all frames, then feed in two arbitrary chunks
        let frames: Vec<Frame> = frames
            .into_iter()
            .map(|(f, t, p)| Frame::new(&f, &t, TrafficClass::Message, p))
            .collect();
        let mut stream = BytesMut::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let split = (split_at as usize) % (stream.len() + 1);
        let mut buf = BytesMut::from(&stream[..split]);
        let mut out = Vec::new();
        while let Some(f) = Frame::decode(&mut buf).unwrap() {
            out.push(f);
        }
        buf.extend_from_slice(&stream[split..]);
        while let Some(f) = Frame::decode(&mut buf).unwrap() {
            out.push(f);
        }
        prop_assert_eq!(out, frames);
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn fabric_meters_exactly_what_it_delivers(
        transfers in vec((0usize..3, 0usize..3, class_strategy(), 1u64..10_000), 1..50),
    ) {
        let fabric = Fabric::new(LatencyModel::Constant(1), Bandwidth(Some(1000)), 9);
        let hosts = ["a", "b", "c"];
        for h in hosts {
            fabric.add_host(h);
        }
        let mut expect_bytes = 0u64;
        let mut expect_msgs = 0u64;
        for (f, t, class, bytes) in transfers {
            let (from, to) = (hosts[f], hosts[t]);
            let delivered = fabric.transfer(from, to, class, bytes).unwrap();
            if from != to {
                prop_assert!(delivered.is_some());
                expect_bytes += bytes;
                expect_msgs += 1;
                // delay = propagation + serialization
                prop_assert_eq!(delivered.unwrap(), 1 + bytes.div_ceil(1000));
            } else {
                prop_assert_eq!(delivered, Some(0));
            }
        }
        let snap = fabric.stats().snapshot();
        prop_assert_eq!(snap.total_bytes(), expect_bytes);
        prop_assert_eq!(snap.total_messages(), expect_msgs);
        prop_assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn event_queue_is_a_stable_priority_queue(
        events in vec((0u64..1000, any::<u32>()), 0..100),
    ) {
        let mut q = EventQueue::new();
        for (i, (t, v)) in events.iter().enumerate() {
            q.push_at(*t, (i, *v));
        }
        let mut last_time = 0u64;
        let mut seen = Vec::new();
        let mut by_time: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
        while let Some((t, (i, _))) = q.pop() {
            prop_assert!(t >= last_time, "time order");
            last_time = t;
            by_time.entry(t).or_default().push(i);
            seen.push(i);
        }
        prop_assert_eq!(seen.len(), events.len());
        // FIFO among equal times: insertion indexes ascend
        for (_, idxs) in by_time {
            let mut sorted = idxs.clone();
            sorted.sort();
            prop_assert_eq!(idxs, sorted);
        }
    }

    #[test]
    fn loss_rate_statistically_close(p in 0.0f64..0.9) {
        let fabric = Fabric::new(LatencyModel::Constant(0), Bandwidth(None), 123);
        fabric.add_host("a");
        fabric.add_host("b");
        fabric.set_loss(p);
        let n = 2000;
        let mut lost = 0;
        for _ in 0..n {
            if fabric.transfer("a", "b", TrafficClass::Other, 1).unwrap().is_none() {
                lost += 1;
            }
        }
        let observed = lost as f64 / n as f64;
        prop_assert!((observed - p).abs() < 0.06, "observed {observed} vs p {p}");
    }
}
