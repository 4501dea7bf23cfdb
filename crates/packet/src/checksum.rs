//! The Internet checksum (RFC 1071) used by IPv4, ICMP, UDP, and TCP.

use std::net::Ipv4Addr;

/// Incremental ones-complement sum accumulator.
///
/// Sums 8 bytes per step into a `u64` with end-around carry. Ones-complement
/// addition is associative and 2^16 ≡ 1 (mod 2^16 − 1), so summing four
/// big-endian 16-bit words at once and folding at the end gives the same
/// result as RFC 1071's word-pair sum, bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    sum: u64,
}

impl Checksum {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Checksum { sum: 0 }
    }

    fn add_u64(&mut self, v: u64) {
        let (s, carry) = self.sum.overflowing_add(v);
        self.sum = s + u64::from(carry);
    }

    /// Fold a byte slice into the sum. Odd-length slices are padded with a
    /// trailing zero byte, per RFC 1071. Slices must be fed on the same
    /// 16-bit alignment they occupy in the packet (all our callers feed
    /// even-length prefixes, so this holds).
    pub fn add_bytes(&mut self, data: &[u8]) {
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            self.add_u64(u64::from_be_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.add_u64(u64::from_be_bytes(last));
        }
    }

    /// Fold the TCP/UDP pseudo-header: src, dst, zero+protocol, length.
    pub fn add_pseudo_header(&mut self, src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, len: u16) {
        self.add_u64(u64::from(u32::from(src)) << 32 | u64::from(u32::from(dst)));
        self.add_u64(u64::from(protocol) << 16 | u64::from(len));
    }

    /// Finish: fold carries and complement.
    pub fn finish(self) -> u16 {
        let mut s = self.sum;
        while s >> 16 != 0 {
            s = (s & 0xffff) + (s >> 16);
        }
        !(s as u16)
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

/// Verify a buffer whose checksum field is already in place: summing the
/// whole buffer must produce zero.
pub fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let mut c = Checksum::new();
        c.add_bytes(&data);
        assert_eq!(c.finish(), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), checksum(&[0xab, 0x00]));
    }

    #[test]
    fn verify_round_trip() {
        let mut pkt = vec![
            0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        pkt.extend_from_slice(&[10, 0, 0, 1, 10, 0, 0, 2]);
        let c = checksum(&pkt);
        pkt[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&pkt));
        pkt[4] ^= 0xff;
        assert!(!verify(&pkt));
    }

    #[test]
    fn pseudo_header_contributes() {
        let mut a = Checksum::new();
        a.add_pseudo_header(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            17,
            8,
        );
        let mut b = Checksum::new();
        b.add_pseudo_header(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 3),
            17,
            8,
        );
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn all_zeros_checksums_to_ffff() {
        assert_eq!(checksum(&[0u8; 20]), 0xffff);
    }
}
