//! Wire framing for the threaded transport.
//!
//! A [`Frame`] is what actually crosses a link: source, destination,
//! traffic class and an opaque payload. Frames encode to a
//! length-prefixed binary layout over [`bytes::Bytes`] so a stream
//! transport can delimit them; [`Frame::wire_len`] is the byte count
//! the fabric meters.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use naplet_core::error::{NapletError, Result};
use naplet_core::tracectx::TraceCtx;

use crate::stats::TrafficClass;

/// High bit of the class-tag byte: set when a [`TraceCtx`] extension
/// block follows it. Frames without context encode byte-identically to
/// the pre-tracing layout (class tags only use the low 3 bits).
const CTX_FLAG: u8 = 0x80;

/// One transport frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sending host.
    pub from: String,
    /// Destination host.
    pub to: String,
    /// Traffic class for metering.
    pub class: TrafficClass,
    /// Opaque payload (already codec-encoded by the caller).
    pub payload: Bytes,
    /// Optional wire-propagated trace context (absent unless the
    /// sending node has tracing or its flight recorder on).
    pub ctx: Option<TraceCtx>,
}

fn class_tag(c: TrafficClass) -> u8 {
    match c {
        TrafficClass::Migration => 0,
        TrafficClass::Code => 1,
        TrafficClass::Message => 2,
        TrafficClass::Control => 3,
        TrafficClass::Snmp => 4,
        TrafficClass::Other => 5,
    }
}

fn tag_class(t: u8) -> Result<TrafficClass> {
    Ok(match t {
        0 => TrafficClass::Migration,
        1 => TrafficClass::Code,
        2 => TrafficClass::Message,
        3 => TrafficClass::Control,
        4 => TrafficClass::Snmp,
        5 => TrafficClass::Other,
        other => return Err(NapletError::Codec(format!("bad traffic class tag {other}"))),
    })
}

/// Encoded length of a frame from `from` to `to` with `payload_len`
/// payload bytes and no trace context: what a driver that moves wire
/// values without encoding them meters.
pub fn bare_len(from: &str, to: &str, payload_len: usize) -> u64 {
    // 4 (frame len) + 1 (class) + 2×(2 + name) + payload
    (4 + 1 + 2 + from.len() + 2 + to.len() + payload_len) as u64
}

impl Frame {
    /// Build a frame (no trace context).
    pub fn new(from: &str, to: &str, class: TrafficClass, payload: impl Into<Bytes>) -> Frame {
        Frame {
            from: from.to_string(),
            to: to.to_string(),
            class,
            payload: payload.into(),
            ctx: None,
        }
    }

    /// Attach (or clear) the trace-context extension.
    pub fn with_ctx(mut self, ctx: Option<TraceCtx>) -> Frame {
        self.ctx = ctx;
        self
    }

    /// Total encoded length in bytes (what the fabric meters).
    pub fn wire_len(&self) -> u64 {
        let ctx_len = match &self.ctx {
            Some(ctx) => 2 + ctx.journey.len() + 2 + ctx.origin.len() + 4 + 8,
            None => 0,
        };
        bare_len(&self.from, &self.to, self.payload.len()) + ctx_len as u64
    }

    /// Encode to a self-delimiting byte string.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len() as usize);
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encode by appending to a caller-supplied buffer, so batch
    /// senders reuse one allocation across many frames instead of a
    /// fresh `BytesMut` each. Bytes appended are exactly
    /// [`Frame::encode`].
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        let body_len = self.wire_len() as u32 - 4;
        buf.put_u32(body_len);
        match &self.ctx {
            None => buf.put_u8(class_tag(self.class)),
            Some(ctx) => {
                buf.put_u8(class_tag(self.class) | CTX_FLAG);
                buf.put_u16(ctx.journey.len() as u16);
                buf.put_slice(ctx.journey.as_bytes());
                buf.put_u16(ctx.origin.len() as u16);
                buf.put_slice(ctx.origin.as_bytes());
                buf.put_u32(ctx.hop);
                buf.put_u64(ctx.seq);
            }
        }
        buf.put_u16(self.from.len() as u16);
        buf.put_slice(self.from.as_bytes());
        buf.put_u16(self.to.len() as u16);
        buf.put_slice(self.to.as_bytes());
        buf.put_slice(&self.payload);
    }

    /// Decode one frame from the start of `buf`, consuming it.
    /// Returns `Ok(None)` when `buf` does not yet hold a full frame
    /// (stream reassembly).
    pub fn decode(buf: &mut BytesMut) -> Result<Option<Frame>> {
        Frame::decode_limited(buf, u32::MAX as usize)
    }

    /// [`Frame::decode`] with a frame-size ceiling: a length prefix
    /// claiming a body larger than `max_frame_bytes` is rejected
    /// immediately instead of making a stream reader buffer (or wait
    /// for) gigabytes that will never arrive. Socket transports use
    /// this so a malformed or hostile peer costs one counted drop, not
    /// a hang or an allocation bomb.
    pub fn decode_limited(buf: &mut BytesMut, max_frame_bytes: usize) -> Result<Option<Frame>> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let body_len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if body_len > max_frame_bytes {
            return Err(NapletError::Codec(format!(
                "frame body of {body_len} bytes exceeds the {max_frame_bytes}-byte limit"
            )));
        }
        if buf.len() < 4 + body_len {
            return Ok(None);
        }
        buf.advance(4);
        let mut body = buf.split_to(body_len);
        let tag = get_u8(&mut body)?;
        let class = tag_class(tag & !CTX_FLAG)?;
        let ctx = if tag & CTX_FLAG != 0 {
            let journey = get_string(&mut body)?;
            let origin = get_string(&mut body)?;
            let hop = get_u32(&mut body)?;
            let seq = get_u64(&mut body)?;
            Some(TraceCtx {
                journey,
                origin,
                hop,
                seq,
            })
        } else {
            None
        };
        let from = get_string(&mut body)?;
        let to = get_string(&mut body)?;
        let payload = body.freeze();
        Ok(Some(Frame {
            from,
            to,
            class,
            payload,
            ctx,
        }))
    }
}

fn get_u8(b: &mut BytesMut) -> Result<u8> {
    if b.is_empty() {
        return Err(NapletError::Codec("frame truncated (u8)".into()));
    }
    Ok(b.get_u8())
}

fn get_u32(b: &mut BytesMut) -> Result<u32> {
    if b.len() < 4 {
        return Err(NapletError::Codec("frame truncated (u32)".into()));
    }
    Ok(b.get_u32())
}

fn get_u64(b: &mut BytesMut) -> Result<u64> {
    if b.len() < 8 {
        return Err(NapletError::Codec("frame truncated (u64)".into()));
    }
    Ok(b.get_u64())
}

fn get_string(b: &mut BytesMut) -> Result<String> {
    if b.len() < 2 {
        return Err(NapletError::Codec("frame truncated (len)".into()));
    }
    let n = b.get_u16() as usize;
    if b.len() < n {
        return Err(NapletError::Codec("frame truncated (name)".into()));
    }
    // validate on the borrowed bytes; only a valid name pays for the
    // owned String
    let name = std::str::from_utf8(&b[..n])
        .map_err(|e| NapletError::Codec(format!("bad utf8: {e}")))?
        .to_string();
    b.advance(n);
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let f = Frame::new("alpha", "beta", TrafficClass::Migration, vec![1u8, 2, 3]);
        let mut buf = BytesMut::from(&f.encode()[..]);
        let back = Frame::decode(&mut buf).unwrap().unwrap();
        assert_eq!(back, f);
        assert!(buf.is_empty());
    }

    #[test]
    fn wire_len_matches_encoding() {
        for payload_len in [0usize, 1, 100, 4096] {
            let f = Frame::new("a", "bb", TrafficClass::Snmp, vec![0u8; payload_len]);
            assert_eq!(f.encode().len() as u64, f.wire_len());
        }
    }

    #[test]
    fn partial_frames_wait_for_more() {
        let f = Frame::new("x", "y", TrafficClass::Message, vec![9u8; 50]);
        let encoded = f.encode();
        let mut buf = BytesMut::from(&encoded[..10]);
        assert_eq!(Frame::decode(&mut buf).unwrap(), None);
        buf.extend_from_slice(&encoded[10..]);
        assert_eq!(Frame::decode(&mut buf).unwrap(), Some(f));
    }

    #[test]
    fn two_frames_in_one_buffer() {
        let a = Frame::new("a", "b", TrafficClass::Control, vec![1u8]);
        let b = Frame::new("b", "a", TrafficClass::Other, vec![2u8, 2]);
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&a.encode());
        buf.extend_from_slice(&b.encode());
        assert_eq!(Frame::decode(&mut buf).unwrap(), Some(a));
        assert_eq!(Frame::decode(&mut buf).unwrap(), Some(b));
        assert_eq!(Frame::decode(&mut buf).unwrap(), None);
    }

    #[test]
    fn all_classes_round_trip() {
        for &c in TrafficClass::all() {
            let f = Frame::new("s", "d", c, vec![]);
            let mut buf = BytesMut::from(&f.encode()[..]);
            assert_eq!(Frame::decode(&mut buf).unwrap().unwrap().class, c);
        }
    }

    #[test]
    fn encode_into_appends_identical_bytes() {
        let a = Frame::new("alpha", "beta", TrafficClass::Migration, vec![7u8; 32]);
        let b = Frame::new("beta", "alpha", TrafficClass::Message, vec![1u8, 2]);
        let mut buf = BytesMut::new();
        a.encode_into(&mut buf);
        b.encode_into(&mut buf);
        let mut expected = Vec::new();
        expected.extend_from_slice(&a.encode());
        expected.extend_from_slice(&b.encode());
        assert_eq!(&buf[..], expected.as_slice());
        assert_eq!(Frame::decode(&mut buf).unwrap(), Some(a));
        assert_eq!(Frame::decode(&mut buf).unwrap(), Some(b));
    }

    #[test]
    fn invalid_utf8_name_rejected() {
        let f = Frame::new("ab", "cd", TrafficClass::Control, vec![]);
        let mut raw = BytesMut::from(&f.encode()[..]);
        raw[7] = 0xff; // first byte of `from`
        assert!(Frame::decode(&mut raw).is_err());
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        // a malformed prefix claiming a 64 MiB body must error at once,
        // not wait for 64 MiB that will never arrive
        let mut buf = BytesMut::new();
        buf.put_u32(64 * 1024 * 1024);
        buf.put_slice(&[0u8; 16]);
        let err = Frame::decode_limited(&mut buf, 1024 * 1024).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn limit_boundary_is_inclusive() {
        let f = Frame::new("a", "b", TrafficClass::Message, vec![3u8; 100]);
        let body = f.wire_len() as usize - 4;
        let mut buf = BytesMut::from(&f.encode()[..]);
        assert_eq!(Frame::decode_limited(&mut buf, body).unwrap(), Some(f));
        let g = Frame::new("a", "b", TrafficClass::Message, vec![3u8; 101]);
        let mut buf = BytesMut::from(&g.encode()[..]);
        assert!(Frame::decode_limited(&mut buf, body).is_err());
    }

    fn sample_ctx() -> TraceCtx {
        TraceCtx {
            journey: "naplet://czxu@home/1".into(),
            origin: "home".into(),
            hop: 3,
            seq: 17,
        }
    }

    #[test]
    fn ctx_extension_round_trips() {
        let f = Frame::new("alpha", "beta", TrafficClass::Migration, vec![1u8, 2, 3])
            .with_ctx(Some(sample_ctx()));
        assert_eq!(f.encode().len() as u64, f.wire_len());
        let mut buf = BytesMut::from(&f.encode()[..]);
        let back = Frame::decode(&mut buf).unwrap().unwrap();
        assert_eq!(back, f);
        assert_eq!(back.ctx.as_ref().unwrap().seq, 17);
        assert!(buf.is_empty());
    }

    #[test]
    fn ctx_free_encoding_is_byte_stable() {
        // a frame without context must encode exactly as it did before
        // the extension existed: no flag bit, no extra bytes
        let f = Frame::new("alpha", "beta", TrafficClass::Code, vec![9u8; 8]);
        let encoded = f.encode();
        assert_eq!(encoded[4], 1, "bare class tag, no CTX_FLAG");
        assert_eq!(
            encoded.len(),
            4 + 1 + 2 + 5 + 2 + 4 + 8,
            "pre-extension layout"
        );
        let with = f.clone().with_ctx(Some(sample_ctx()));
        assert!(with.encode()[4] & CTX_FLAG != 0);
        assert!(with.wire_len() > f.wire_len());
    }

    #[test]
    fn truncated_ctx_block_rejected() {
        let f = Frame::new("a", "b", TrafficClass::Message, vec![]).with_ctx(Some(sample_ctx()));
        let encoded = f.encode();
        // lie about the body length so the ctx block runs off the end
        let mut raw = BytesMut::from(&encoded[..12]);
        let short = (raw.len() - 4) as u32;
        raw[..4].copy_from_slice(&short.to_be_bytes());
        assert!(Frame::decode(&mut raw).is_err());
    }

    #[test]
    fn corrupt_class_tag_rejected() {
        let f = Frame::new("s", "d", TrafficClass::Other, vec![]);
        let mut raw = BytesMut::from(&f.encode()[..]);
        raw[4] = 99; // class byte
        assert!(Frame::decode(&mut raw).is_err());
    }
}
