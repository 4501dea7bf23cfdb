//! In-place frame building. A transport codec writes its segment behind
//! zeroed headroom for the Ethernet and IPv4 headers, and the network
//! layer then fills those headers in place: the frame is one allocation
//! and its payload is copied once, from wherever it lived into the frame.

use crate::ether::{EtherHeader, ETHER_HEADER_LEN};
use crate::ipv4::{Ipv4Header, IPV4_HEADER_LEN};

/// Bytes reserved in front of a transport segment for the Ethernet and
/// IPv4 headers.
pub const FRAME_HEADROOM: usize = ETHER_HEADER_LEN + IPV4_HEADER_LEN;

/// An IP payload (a transport segment) behind [`FRAME_HEADROOM`] bytes of
/// headroom, in the allocation that becomes its frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameBuf(Vec<u8>);

impl FrameBuf {
    /// Build an IP payload of `payload_len` bytes by appending it behind
    /// the headroom.
    pub(crate) fn build(payload_len: usize, write: impl FnOnce(&mut Vec<u8>)) -> FrameBuf {
        let mut buf = Vec::with_capacity(FRAME_HEADROOM + payload_len);
        buf.resize(FRAME_HEADROOM, 0);
        write(&mut buf);
        debug_assert_eq!(buf.len(), FRAME_HEADROOM + payload_len);
        FrameBuf(buf)
    }

    /// Copy an already serialized IP payload behind fresh headroom.
    pub fn from_payload(payload: &[u8]) -> FrameBuf {
        FrameBuf::build(payload.len(), |buf| buf.extend_from_slice(payload))
    }

    /// The IP payload.
    pub fn payload(&self) -> &[u8] {
        &self.0[FRAME_HEADROOM..]
    }

    /// Write the IPv4 header (total length and checksum computed here) and
    /// the Ethernet header into the headroom; returns the finished frame.
    pub fn into_frame(mut self, ip: &Ipv4Header, ether: &EtherHeader) -> Vec<u8> {
        let payload_len = self.0.len() - FRAME_HEADROOM;
        let (eth, rest) = self.0.split_at_mut(ETHER_HEADER_LEN);
        ether.write(eth);
        ip.write(&mut rest[..IPV4_HEADER_LEN], payload_len);
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EtherType, IpProtocol, MacAddr};
    use std::net::Ipv4Addr;

    #[test]
    fn into_frame_matches_layered_emit() {
        let ip = Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            protocol: IpProtocol::Udp,
            ttl: 64,
            ident: 7,
            total_len: 0,
            more_fragments: true,
            frag_offset: 3,
        };
        let ether = EtherHeader {
            dst: MacAddr::local(2),
            src: MacAddr::local(1),
            ethertype: EtherType::Ipv4,
        };
        let payload: Vec<u8> = (0..=255).collect();
        let frame = FrameBuf::from_payload(&payload).into_frame(&ip, &ether);
        assert_eq!(frame, ether.emit(&ip.emit(&payload)));
        assert_eq!(FrameBuf::from_payload(&payload).payload(), &payload[..]);
    }
}
