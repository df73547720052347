//! Send/receive endpoints pairing encoding with format registration,
//! caching and conversion-plan reuse.

use crate::format::FormatDesc;
use crate::plan::{encode, encode_into, ConversionPlan};
use crate::server::{FormatDirectory, FormatServer};
use crate::wire::{write_frame_header, WireFrame, WireMessage, MSG_DATA, MSG_FORMAT_REG};
use crate::PbioError;
use sbq_model::Value;
use std::collections::hash_map::DefaultHasher;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Statistics an endpoint accumulates — the quantities §IV's experiments
/// report (bytes moved, first-message registration overhead, plan-cache
/// effectiveness).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EndpointStats {
    /// Data-message bytes produced by `send`.
    pub data_bytes_sent: u64,
    /// Registration-message bytes produced by `send` (first use only).
    pub reg_bytes_sent: u64,
    /// Data messages sent.
    pub messages_sent: u64,
    /// Data messages received.
    pub messages_received: u64,
    /// Formats learned from registrations or server consultations.
    pub formats_cached: u64,
    /// Times a data message's format was missing locally and the format
    /// server had to be consulted.
    pub server_consultations: u64,
    /// Conversion plans compiled (cache misses).
    pub plans_compiled: u64,
}

/// One side of a PBIO exchange.
///
/// A sender endpoint registers each format with the shared
/// [`FormatServer`] the first time it sends it, and prefixes the first
/// data message with a [`WireMessage::FormatReg`] so the peer can cache
/// the description without a round trip. A receiver endpoint caches
/// formats and compiled [`ConversionPlan`]s.
pub struct PbioEndpoint {
    server: Arc<dyn FormatDirectory>,
    /// Formats this endpoint has announced (sender side).
    announced: HashSet<u32>,
    /// Formats this endpoint knows (receiver side).
    known: HashMap<u32, FormatDesc>,
    /// Compiled plans keyed by (wire format id, native format hash).
    plans: HashMap<(u32, u64), ConversionPlan>,
    stats: EndpointStats,
}

impl PbioEndpoint {
    /// Creates an endpoint attached to an in-process format server.
    pub fn new(server: Arc<FormatServer>) -> Self {
        PbioEndpoint::with_directory(server)
    }

    /// Creates an endpoint attached to any format directory — including a
    /// remote one ([`crate::remote::RemoteFormatServer`]).
    pub fn with_directory(server: Arc<dyn FormatDirectory>) -> Self {
        PbioEndpoint {
            server,
            announced: HashSet::new(),
            known: HashMap::new(),
            plans: HashMap::new(),
            stats: EndpointStats::default(),
        }
    }

    /// The format directory this endpoint registers with.
    pub fn directory(&self) -> &Arc<dyn FormatDirectory> {
        &self.server
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// Resets statistics (between benchmark phases).
    pub fn reset_stats(&mut self) {
        self.stats = EndpointStats::default();
    }

    /// Encodes `value` against `desc` and returns the wire messages to
    /// transmit: a registration message first if this endpoint has not
    /// announced the format yet, then the data message.
    pub fn send(
        &mut self,
        value: &Value,
        desc: &FormatDesc,
    ) -> Result<Vec<WireMessage>, PbioError> {
        let id = self.server.register(desc)?;
        // The format counts as announced only once a data frame that
        // carries the registration has been produced.
        let payload = encode(value, desc)?;
        let mut out = Vec::with_capacity(2);
        if self.announced.insert(id) {
            let reg = WireMessage::FormatReg {
                id,
                desc: desc.to_bytes(),
            };
            self.stats.reg_bytes_sent += reg.wire_len() as u64;
            out.push(reg);
        }
        let data = WireMessage::Data {
            format_id: id,
            payload,
        };
        self.stats.data_bytes_sent += data.wire_len() as u64;
        self.stats.messages_sent += 1;
        out.push(data);
        Ok(out)
    }

    /// Like [`PbioEndpoint::send`], but frames and encodes directly into
    /// `out` (typically a pooled body buffer): the payload is written in
    /// place behind a reserved length header, eliminating the
    /// encode-then-copy of assembling [`WireMessage`]s. On error `out` is
    /// left as it was passed in.
    pub fn send_into(
        &mut self,
        value: &Value,
        desc: &FormatDesc,
        out: &mut Vec<u8>,
    ) -> Result<(), PbioError> {
        let id = self.server.register(desc)?;
        let start = out.len();
        let announce = !self.announced.contains(&id);
        let data_len = match frame_into(value, desc, id, announce, out) {
            Ok(payload_len) => 9 + payload_len,
            Err(e) => {
                // Drop the registration frame with the failed data frame:
                // the id stays unannounced, so the next send carries it.
                out.truncate(start);
                return Err(e);
            }
        };
        if announce {
            self.announced.insert(id);
            // Everything written before the data frame.
            self.stats.reg_bytes_sent += (out.len() - start - data_len) as u64;
        }
        self.stats.data_bytes_sent += data_len as u64;
        self.stats.messages_sent += 1;
        Ok(())
    }

    /// Consumes one wire message. Registration messages update the format
    /// cache and yield `None`; data messages decode (converting to
    /// `native` layout when given, or the wire layout when `None`) and
    /// yield the value.
    pub fn receive(
        &mut self,
        msg: &WireMessage,
        native: Option<&FormatDesc>,
    ) -> Result<Option<Value>, PbioError> {
        self.receive_frame(&msg.as_frame(), native)
    }

    /// Borrowed-frame variant of [`PbioEndpoint::receive`]: the payload
    /// stays in the receive buffer and is decoded in place, so the only
    /// copies are the ones materializing the returned [`Value`].
    pub fn receive_frame(
        &mut self,
        frame: &WireFrame<'_>,
        native: Option<&FormatDesc>,
    ) -> Result<Option<Value>, PbioError> {
        match *frame {
            WireFrame::FormatReg { id, desc } => {
                let desc = FormatDesc::from_bytes(desc)?;
                if self.known.insert(id, desc).is_none() {
                    self.stats.formats_cached += 1;
                }
                Ok(None)
            }
            WireFrame::Data { format_id, payload } => {
                let wire = match self.known.entry(format_id) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        // "Whenever a new type is encountered, the
                        // application consults the format server."
                        self.stats.server_consultations += 1;
                        let d = self
                            .server
                            .lookup(format_id)?
                            .ok_or(PbioError::UnknownFormat(format_id))?;
                        self.stats.formats_cached += 1;
                        e.insert(d)
                    }
                };
                let native = native.unwrap_or(wire);
                let plan = match self.plans.entry((format_id, hash_desc(native))) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        self.stats.plans_compiled += 1;
                        e.insert(ConversionPlan::compile(wire, native)?)
                    }
                };
                let v = plan.execute(payload)?;
                self.stats.messages_received += 1;
                Ok(Some(v))
            }
        }
    }
}

/// Writes the registration frame (when `announce`) and the data frame for
/// `value` to `out`; returns the data payload length.
fn frame_into(
    value: &Value,
    desc: &FormatDesc,
    id: u32,
    announce: bool,
    out: &mut Vec<u8>,
) -> Result<usize, PbioError> {
    if announce {
        let desc_bytes = desc.to_bytes();
        write_frame_header(out, MSG_FORMAT_REG, id, desc_bytes.len())?;
        out.extend_from_slice(&desc_bytes);
    }
    // Reserve the data header, encode the payload in place, then patch
    // the length once it is known.
    write_frame_header(out, MSG_DATA, id, 0)?;
    let body_start = out.len();
    encode_into(value, desc, out)?;
    let payload_len = out.len() - body_start;
    let len = u32::try_from(payload_len).map_err(|_| PbioError::TooLarge(payload_len))?;
    out[body_start - 4..body_start].copy_from_slice(&len.to_le_bytes());
    Ok(payload_len)
}

fn hash_desc(d: &FormatDesc) -> u64 {
    let mut h = DefaultHasher::new();
    d.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{ByteOrder, FormatOptions};
    use sbq_model::workload;

    fn pair() -> (PbioEndpoint, PbioEndpoint) {
        let server = Arc::new(FormatServer::new());
        (
            PbioEndpoint::new(Arc::clone(&server)),
            PbioEndpoint::new(server),
        )
    }

    #[test]
    fn first_send_includes_registration_then_cached() {
        let (mut tx, mut rx) = pair();
        let ty = workload::nested_struct_type(2);
        let desc = FormatDesc::from_type(&ty, FormatOptions::default()).unwrap();
        let v = workload::nested_struct(2, 42);

        let msgs = tx.send(&v, &desc).unwrap();
        assert_eq!(msgs.len(), 2, "first send carries registration");
        assert!(matches!(msgs[0], WireMessage::FormatReg { .. }));
        let mut got = None;
        for m in &msgs {
            if let Some(val) = rx.receive(m, None).unwrap() {
                got = Some(val);
            }
        }
        assert_eq!(got.unwrap(), v);

        let msgs2 = tx.send(&v, &desc).unwrap();
        assert_eq!(msgs2.len(), 1, "later sends skip registration");
        assert_eq!(rx.receive(&msgs2[0], None).unwrap().unwrap(), v);
        assert_eq!(rx.stats().plans_compiled, 1, "plan compiled once");
        assert_eq!(rx.stats().messages_received, 2);
        assert!(tx.stats().reg_bytes_sent > 0);
    }

    #[test]
    fn receiver_without_registration_consults_server() {
        let (mut tx, mut rx) = pair();
        let desc =
            FormatDesc::from_type(&workload::nested_struct_type(1), FormatOptions::default())
                .unwrap();
        let v = workload::nested_struct(1, 7);
        let msgs = tx.send(&v, &desc).unwrap();
        // Drop the registration message: simulate a receiver that joined
        // late and must ask the format server.
        let data = msgs.last().unwrap();
        let got = rx.receive(data, None).unwrap().unwrap();
        assert_eq!(got, v);
        assert_eq!(rx.stats().server_consultations, 1);
    }

    #[test]
    fn unknown_format_everywhere_errors() {
        let (_, mut rx) = pair();
        let msg = WireMessage::Data {
            format_id: 777,
            payload: vec![],
        };
        assert_eq!(
            rx.receive(&msg, None).unwrap_err(),
            PbioError::UnknownFormat(777)
        );
    }

    #[test]
    fn heterogeneous_sender_converted_to_native() {
        let server = Arc::new(FormatServer::new());
        let mut sparc_tx = PbioEndpoint::new(Arc::clone(&server));
        let mut x86_rx = PbioEndpoint::new(server);
        let ty = workload::nested_struct_type(1);
        let sparc = FormatDesc::from_type(
            &ty,
            FormatOptions {
                byte_order: ByteOrder::Big,
                int_width: 4,
                float_width: 8,
            },
        )
        .unwrap();
        let native = FormatDesc::from_type(&ty, FormatOptions::default()).unwrap();
        let v = workload::nested_struct(1, 3);
        for m in sparc_tx.send(&v, &sparc).unwrap() {
            if let Some(got) = x86_rx.receive(&m, Some(&native)).unwrap() {
                assert_eq!(got, v);
            }
        }
    }

    #[test]
    fn send_into_writes_the_same_bytes_as_send() {
        let server = Arc::new(FormatServer::new());
        let mut a = PbioEndpoint::new(Arc::clone(&server));
        let mut b = PbioEndpoint::new(Arc::clone(&server));
        let mut rx = PbioEndpoint::new(server);
        let ty = workload::nested_struct_type(2);
        let desc = FormatDesc::from_type(&ty, FormatOptions::default()).unwrap();
        let v = workload::nested_struct(2, 17);
        for round in 0..2 {
            // Reference: message-based framing.
            let mut expect = Vec::new();
            for m in a.send(&v, &desc).unwrap() {
                expect.extend_from_slice(&m.to_bytes());
            }
            // In-place framing must produce byte-identical output, both on
            // the registration-carrying first send and steady state.
            let mut got = Vec::new();
            b.send_into(&v, &desc, &mut got).unwrap();
            assert_eq!(got, expect, "round {round}");
            assert_eq!(b.stats(), a.stats(), "round {round}");
            // And the borrowed-frame receive path decodes it.
            let mut pos = 0;
            let mut val = None;
            while pos < got.len() {
                let (frame, used) = WireFrame::parse(&got[pos..]).unwrap();
                if let Some(x) = rx.receive_frame(&frame, None).unwrap() {
                    val = Some(x);
                }
                pos += used;
            }
            assert_eq!(val.unwrap(), v, "round {round}");
        }
    }

    #[test]
    fn stats_track_bytes() {
        let (mut tx, _) = pair();
        let desc = FormatDesc::from_type(
            &sbq_model::TypeDesc::list_of(sbq_model::TypeDesc::Int),
            FormatOptions::default(),
        )
        .unwrap();
        let v = workload::int_array(100, 1);
        tx.send(&v, &desc).unwrap();
        let s = tx.stats();
        assert_eq!(s.messages_sent, 1);
        assert_eq!(s.data_bytes_sent, (9 + 4 + 800) as u64);
        tx.reset_stats();
        assert_eq!(tx.stats(), EndpointStats::default());
    }

    #[test]
    fn failed_encode_keeps_the_format_unannounced() {
        let (mut tx, mut rx) = pair();
        let desc = FormatDesc::from_type(
            &sbq_model::TypeDesc::list_of(sbq_model::TypeDesc::Int),
            FormatOptions::default(),
        )
        .unwrap();
        let bad = Value::Str("not an array".into());
        assert!(tx.send(&bad, &desc).is_err());
        let mut out = b"prefix".to_vec();
        assert!(tx.send_into(&bad, &desc, &mut out).is_err());
        assert_eq!(out, b"prefix", "partial frames are dropped");
        assert_eq!(tx.stats(), EndpointStats::default());

        let v = Value::IntArray(vec![1, 2, 3]);
        let msgs = tx.send(&v, &desc).unwrap();
        assert!(matches!(msgs[0], WireMessage::FormatReg { .. }));
        let got: Vec<_> = msgs
            .iter()
            .filter_map(|m| rx.receive(m, None).unwrap())
            .collect();
        assert_eq!(got, vec![v]);
    }
}
