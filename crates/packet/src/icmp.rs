//! ICMP echo / echo-reply codec — the carrier of the paper's known
//! workload (a modified `ping` sending small/large ECHO triplets).

use crate::checksum::checksum;
use crate::error::{ParseError, Result};
use crate::frame::FrameBuf;

/// An ICMP message. Only the types the tracing workload needs are given
/// structure; everything else is preserved raw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcmpMessage {
    /// Echo request (type 8). `ident` is the sending process id in the
    /// paper's collection format; the payload carries the send timestamp.
    Echo {
        /// Identifier (process id of the pinger).
        ident: u16,
        /// Sequence number, used by the loss estimator.
        seq: u16,
        /// Opaque payload (timestamp + padding to the probe size).
        payload: Vec<u8>,
    },
    /// Echo reply (type 0), mirroring the request's fields.
    EchoReply {
        /// Identifier copied from the request.
        ident: u16,
        /// Sequence copied from the request.
        seq: u16,
        /// Payload copied from the request.
        payload: Vec<u8>,
    },
    /// Any other ICMP message, kept verbatim.
    Other {
        /// ICMP type byte.
        icmp_type: u8,
        /// ICMP code byte.
        code: u8,
        /// Rest-of-header plus body.
        body: Vec<u8>,
    },
}

/// Fixed part of an echo/echo-reply message.
pub const ICMP_ECHO_HEADER_LEN: usize = 8;

impl IcmpMessage {
    /// Parse an ICMP message, verifying its checksum.
    pub fn parse(data: &[u8]) -> Result<IcmpMessage> {
        if data.len() < ICMP_ECHO_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: ICMP_ECHO_HEADER_LEN,
                got: data.len(),
            });
        }
        let computed = checksum(data);
        if computed != 0 {
            return Err(ParseError::BadChecksum {
                expected: u16::from_be_bytes([data[2], data[3]]),
                computed,
            });
        }
        let icmp_type = data[0];
        let code = data[1];
        let ident = u16::from_be_bytes([data[4], data[5]]);
        let seq = u16::from_be_bytes([data[6], data[7]]);
        let payload = data[8..].to_vec();
        Ok(match (icmp_type, code) {
            (8, 0) => IcmpMessage::Echo {
                ident,
                seq,
                payload,
            },
            (0, 0) => IcmpMessage::EchoReply {
                ident,
                seq,
                payload,
            },
            _ => IcmpMessage::Other {
                icmp_type,
                code,
                body: data[4..].to_vec(),
            },
        })
    }

    /// Serialize, computing the checksum.
    pub fn emit(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write(&mut out);
        out
    }

    /// Serialize behind frame headroom, computing the checksum.
    pub fn emit_frame(&self) -> FrameBuf {
        FrameBuf::build(self.wire_len(), |out| self.write(out))
    }

    /// Length of the serialized message.
    fn wire_len(&self) -> usize {
        match self {
            IcmpMessage::Echo { payload, .. } | IcmpMessage::EchoReply { payload, .. } => {
                ICMP_ECHO_HEADER_LEN + payload.len()
            }
            IcmpMessage::Other { body, .. } => 4 + body.len(),
        }
    }

    /// Append the message to `out` and fill in the checksum.
    fn write(&self, out: &mut Vec<u8>) {
        let start = out.len();
        match self {
            IcmpMessage::Echo {
                ident,
                seq,
                payload,
            } => {
                out.push(8);
                out.push(0);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&ident.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(payload);
            }
            IcmpMessage::EchoReply {
                ident,
                seq,
                payload,
            } => {
                out.push(0);
                out.push(0);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&ident.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(payload);
            }
            IcmpMessage::Other {
                icmp_type,
                code,
                body,
            } => {
                out.push(*icmp_type);
                out.push(*code);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(body);
            }
        }
        let msg = &mut out[start..];
        let ck = checksum(msg);
        msg[2..4].copy_from_slice(&ck.to_be_bytes());
    }

    /// Build the reply this message demands, or `None` if it isn't an echo
    /// request.
    pub fn reply(&self) -> Option<IcmpMessage> {
        match self {
            IcmpMessage::Echo {
                ident,
                seq,
                payload,
            } => Some(IcmpMessage::EchoReply {
                ident: *ident,
                seq: *seq,
                payload: payload.clone(),
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_round_trip() {
        let m = IcmpMessage::Echo {
            ident: 1234,
            seq: 9,
            payload: vec![7u8; 56],
        };
        let wire = m.emit();
        assert_eq!(IcmpMessage::parse(&wire).unwrap(), m);
    }

    #[test]
    fn reply_mirrors_request() {
        let m = IcmpMessage::Echo {
            ident: 42,
            seq: 3,
            payload: b"timestamp".to_vec(),
        };
        let r = m.reply().unwrap();
        match r {
            IcmpMessage::EchoReply {
                ident,
                seq,
                payload,
            } => {
                assert_eq!((ident, seq), (42, 3));
                assert_eq!(payload, b"timestamp");
            }
            _ => panic!("expected reply"),
        }
        assert!(m.reply().unwrap().reply().is_none());
    }

    #[test]
    fn corrupted_rejected() {
        let mut wire = IcmpMessage::Echo {
            ident: 1,
            seq: 1,
            payload: vec![0; 8],
        }
        .emit();
        wire[9] ^= 0x55;
        assert!(matches!(
            IcmpMessage::parse(&wire),
            Err(ParseError::BadChecksum { .. })
        ));
    }

    #[test]
    fn other_types_preserved() {
        let m = IcmpMessage::Other {
            icmp_type: 3,
            code: 1,
            body: vec![0, 0, 0, 0, 0xde, 0xad],
        };
        let wire = m.emit();
        assert_eq!(IcmpMessage::parse(&wire).unwrap(), m);
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            IcmpMessage::parse(&[8, 0, 0]),
            Err(ParseError::Truncated { .. })
        ));
    }
}
