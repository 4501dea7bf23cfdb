//! UDP codec with pseudo-header checksums.

use crate::checksum::Checksum;
use crate::error::{ParseError, Result};
use crate::frame::FrameBuf;
use std::net::Ipv4Addr;

/// UDP header length.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpHeader {
    /// Parse a UDP datagram, verifying length and (if nonzero) checksum
    /// against the given pseudo-header addresses. Returns header + payload.
    pub fn parse(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<(UdpHeader, &[u8])> {
        if data.len() < UDP_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: UDP_HEADER_LEN,
                got: data.len(),
            });
        }
        let len = u16::from_be_bytes([data[4], data[5]]) as usize;
        if len < UDP_HEADER_LEN || len > data.len() {
            return Err(ParseError::BadLength {
                declared: len,
                available: data.len(),
            });
        }
        let wire_ck = u16::from_be_bytes([data[6], data[7]]);
        if wire_ck != 0 {
            let mut c = Checksum::new();
            c.add_pseudo_header(src, dst, 17, len as u16);
            c.add_bytes(&data[..len]);
            let computed = c.finish();
            if computed != 0 {
                return Err(ParseError::BadChecksum {
                    expected: wire_ck,
                    computed,
                });
            }
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
            },
            &data[UDP_HEADER_LEN..len],
        ))
    }

    /// Serialize header + payload, computing the checksum over the
    /// pseudo-header.
    pub fn emit(&self, payload: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let mut out = Vec::with_capacity(UDP_HEADER_LEN + payload.len());
        self.write(&mut out, payload, src, dst);
        out
    }

    /// Serialize header + payload behind frame headroom, computing the
    /// checksum over the pseudo-header.
    pub fn emit_frame(&self, payload: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> FrameBuf {
        FrameBuf::build(UDP_HEADER_LEN + payload.len(), |out| {
            self.write(out, payload, src, dst)
        })
    }

    /// Append header + payload to `out` and fill in the checksum.
    fn write(&self, out: &mut Vec<u8>, payload: &[u8], src: Ipv4Addr, dst: Ipv4Addr) {
        let len = UDP_HEADER_LEN + payload.len();
        assert!(len <= u16::MAX as usize, "UDP datagram too large");
        let start = out.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&(len as u16).to_be_bytes());
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(payload);
        let dgram = &mut out[start..];
        let mut c = Checksum::new();
        c.add_pseudo_header(src, dst, 17, len as u16);
        c.add_bytes(dgram);
        let mut ck = c.finish();
        if ck == 0 {
            ck = 0xffff; // RFC 768: zero means "no checksum"
        }
        dgram[6..8].copy_from_slice(&ck.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn round_trip() {
        let h = UdpHeader {
            src_port: 5000,
            dst_port: 2049,
        };
        let wire = h.emit(b"rpc call", SRC, DST);
        let (parsed, payload) = UdpHeader::parse(&wire, SRC, DST).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(payload, b"rpc call");
    }

    #[test]
    fn wrong_pseudo_header_rejected() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
        };
        let wire = h.emit(b"x", SRC, DST);
        assert!(matches!(
            UdpHeader::parse(&wire, SRC, Ipv4Addr::new(10, 0, 0, 3)),
            Err(ParseError::BadChecksum { .. })
        ));
    }

    #[test]
    fn corrupted_payload_rejected() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
        };
        let mut wire = h.emit(b"abcdef", SRC, DST);
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert!(matches!(
            UdpHeader::parse(&wire, SRC, DST),
            Err(ParseError::BadChecksum { .. })
        ));
    }

    #[test]
    fn zero_checksum_skips_verification() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
        };
        let mut wire = h.emit(b"abc", SRC, DST);
        wire[6] = 0;
        wire[7] = 0;
        assert!(UdpHeader::parse(&wire, SRC, DST).is_ok());
    }

    #[test]
    fn bad_length_rejected() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
        };
        let mut wire = h.emit(b"abc", SRC, DST);
        wire[4..6].copy_from_slice(&100u16.to_be_bytes());
        assert!(matches!(
            UdpHeader::parse(&wire, SRC, DST),
            Err(ParseError::BadLength { .. })
        ));
    }

    #[test]
    fn empty_payload_ok() {
        let h = UdpHeader {
            src_port: 9,
            dst_port: 10,
        };
        let wire = h.emit(b"", SRC, DST);
        let (_, payload) = UdpHeader::parse(&wire, SRC, DST).unwrap();
        assert!(payload.is_empty());
    }
}
