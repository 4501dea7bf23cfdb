//! Differential tests of the word-wide Internet checksum against RFC 1071's
//! byte-pair sum: every length from 0 to 4 KiB, odd tails, slices fed in
//! pieces, pseudo-headers, and carry-heavy inputs must give the same 16
//! bits.

use packet::checksum::{checksum, Checksum};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// RFC 1071 reference: sum big-endian 16-bit words into a u32, pad an odd
/// tail with a zero byte, fold the carries, complement.
#[derive(Default)]
struct Reference {
    sum: u32,
}

impl Reference {
    fn add_bytes(&mut self, data: &[u8]) {
        let mut pairs = data.chunks_exact(2);
        for p in &mut pairs {
            self.sum += u32::from(u16::from_be_bytes([p[0], p[1]]));
        }
        if let [last] = pairs.remainder() {
            self.sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
    }

    fn add_pseudo_header(&mut self, src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, len: u16) {
        self.add_bytes(&src.octets());
        self.add_bytes(&dst.octets());
        self.sum += u32::from(protocol);
        self.sum += u32::from(len);
    }

    fn finish(self) -> u16 {
        let mut s = self.sum;
        while s >> 16 != 0 {
            s = (s & 0xffff) + (s >> 16);
        }
        !(s as u16)
    }
}

fn reference(data: &[u8]) -> u16 {
    let mut r = Reference::default();
    r.add_bytes(data);
    r.finish()
}

/// Random bytes, or runs of 0xff / 0x00 that stress end-around carries and
/// the all-zero corner.
fn arb_data(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        6 => proptest::collection::vec(any::<u8>(), 0..max + 1),
        1 => (0..max + 1).prop_map(|n| vec![0xff; n]),
        1 => (0..max + 1).prop_map(|n| vec![0x00; n]),
        1 => (0..max + 1, any::<u8>()).prop_map(|(n, b)| vec![b; n]),
    ]
}

#[test]
fn every_length_to_4k_matches_reference() {
    let data: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    let ones = vec![0xffu8; 4096];
    for len in 0..=4096 {
        assert_eq!(checksum(&data[..len]), reference(&data[..len]), "len {len}");
        assert_eq!(
            checksum(&ones[..len]),
            reference(&ones[..len]),
            "0xff len {len}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_shot_matches_reference(data in arb_data(4096)) {
        prop_assert_eq!(checksum(&data), reference(&data), "len {}", data.len());
    }

    #[test]
    fn pieces_at_even_offsets_match_reference(
        data in arb_data(4096),
        cuts in proptest::collection::vec(any::<u16>(), 0..6),
    ) {
        // Feed the buffer in pieces that start on 16-bit boundaries, as a
        // header followed by payload pieces is fed.
        let mut cuts: Vec<usize> = cuts
            .iter()
            .map(|&c| (usize::from(c) % (data.len() + 1)) & !1)
            .collect();
        cuts.push(data.len());
        cuts.sort_unstable();
        let mut c = Checksum::new();
        let mut from = 0;
        for to in cuts {
            c.add_bytes(&data[from..to]);
            from = to;
        }
        prop_assert_eq!(c.finish(), reference(&data));
    }

    #[test]
    fn pseudo_header_matches_reference(
        src in any::<u32>(),
        dst in any::<u32>(),
        protocol in any::<u8>(),
        data in arb_data(1600),
    ) {
        let (src, dst) = (Ipv4Addr::from(src), Ipv4Addr::from(dst));
        let len = data.len() as u16;
        let mut c = Checksum::new();
        c.add_pseudo_header(src, dst, protocol, len);
        c.add_bytes(&data);
        let mut r = Reference::default();
        r.add_pseudo_header(src, dst, protocol, len);
        r.add_bytes(&data);
        prop_assert_eq!(c.finish(), r.finish());
    }

    #[test]
    fn stored_checksum_verifies_under_both(
        data in arb_data(2048),
        at in any::<u16>(),
    ) {
        // Place the checksum at an even offset of an even-length buffer;
        // the whole buffer must then sum to zero under both algorithms.
        let mut buf = data;
        if buf.len() % 2 == 1 {
            buf.push(0);
        }
        buf.extend_from_slice(&[0, 0]);
        let at = (usize::from(at) % (buf.len() - 1)) & !1;
        buf[at] = 0;
        buf[at + 1] = 0;
        let ck = checksum(&buf);
        prop_assert_eq!(ck, reference(&buf));
        buf[at..at + 2].copy_from_slice(&ck.to_be_bytes());
        prop_assert!(packet::checksum::verify(&buf));
        prop_assert_eq!(reference(&buf), 0);
    }
}
