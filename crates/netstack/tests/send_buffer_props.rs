//! The TCP send path against a reference model that keeps unsent and
//! unacknowledged bytes in two `VecDeque`s. Under random write sizes,
//! partial, duplicate and window-closing ACKs, fast retransmit, RTO and
//! zero-window probes, with the initial sequence number often just below
//! the 32-bit wrap, every segment the connection emits must carry exactly
//! the header fields and bytes the model predicts, and every accepted byte
//! must end up acknowledged.

use netsim::{SimDuration, SimTime};
use netstack::tcp::{seq_le, seq_lt, ConnEvent, Out, TcpConn, TcpState};
use netstack::TcpConfig;
use packet::{TcpFlags, TcpHeader};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

const LOCAL: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 40_000);
const PEER: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 21);
const PEER_ISS: u32 = 77_000;

#[derive(Debug, Clone)]
enum Op {
    /// The application offers this many bytes.
    Write(usize),
    /// The peer acknowledges `pct`% of the bytes in flight and advertises
    /// `window` (0 closes it).
    Ack { pct: u32, window: u16 },
    /// The peer repeats its last ACK this many times.
    DupAcks(u8),
    /// The earliest connection timer fires.
    Timer,
    /// Time passes.
    Wait(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0usize..20_000).prop_map(Op::Write),
        4 => (0u32..=100, prop_oneof![1 => Just(0u16), 4 => 1u16..=65_535])
            .prop_map(|(pct, window)| Op::Ack { pct, window }),
        1 => (1u8..=5).prop_map(Op::DupAcks),
        2 => Just(Op::Timer),
        1 => (1u64..3_000).prop_map(Op::Wait),
    ]
}

/// Initial sequence numbers, mostly close enough to `u32::MAX` that the
/// transfer wraps.
fn arb_iss() -> impl Strategy<Value = u32> {
    prop_oneof![
        3 => (0u32..200_000).prop_map(|k| u32::MAX - k),
        1 => any::<u32>(),
    ]
}

/// The byte the application writes at stream offset `i`.
fn stream_byte(i: usize) -> u8 {
    ((i as u32).wrapping_mul(2_654_435_761) >> 24) as u8
}

/// Reference send side: unsent bytes in `send_q`, bytes in flight in
/// `rtx_q` (front at `snd_una`).
struct Model {
    send_buf: usize,
    snd_una: u32,
    snd_nxt: u32,
    send_q: VecDeque<u8>,
    rtx_q: VecDeque<u8>,
    /// Bytes accepted from the application.
    written: usize,
    /// Bytes acknowledged by the peer.
    acked: usize,
}

impl Model {
    fn space(&self) -> usize {
        self.send_buf - self.send_q.len() - self.rtx_q.len()
    }

    fn on_ack(&mut self, ack: u32) {
        if seq_lt(self.snd_una, ack) && seq_le(ack, self.snd_nxt) {
            let n = ack.wrapping_sub(self.snd_una) as usize;
            self.rtx_q.drain(..n);
            self.acked += n;
            self.snd_una = ack;
        }
    }

    /// Check one emitted segment against the model and advance it.
    fn on_segment(&mut self, h: &TcpHeader, payload: &[u8]) -> Result<(), TestCaseError> {
        prop_assert_eq!((h.src_port, h.dst_port), (LOCAL.1, PEER.1));
        prop_assert_eq!(h.ack, PEER_ISS.wrapping_add(1));
        prop_assert!(
            h.flags.ack && !h.flags.syn && !h.flags.rst,
            "flags {}",
            h.flags
        );
        prop_assert_eq!(h.mss, None);
        if h.flags.fin {
            prop_assert!(payload.is_empty() && self.send_q.is_empty());
            prop_assert!(
                h.seq == self.snd_nxt || h.seq == self.snd_nxt.wrapping_sub(1),
                "FIN at {} with snd_nxt {}",
                h.seq,
                self.snd_nxt
            );
            return Ok(());
        }
        if payload.is_empty() {
            prop_assert_eq!(h.seq, self.snd_nxt, "pure ACK sequence");
            return Ok(());
        }
        if h.seq == self.snd_nxt {
            // New data: the front of the unsent queue moves into flight.
            prop_assert!(payload.len() <= self.send_q.len(), "sent unwritten bytes");
            let want: Vec<u8> = self.send_q.drain(..payload.len()).collect();
            prop_assert_eq!(payload, &want[..], "new data at {}", h.seq);
            prop_assert_eq!(h.flags.psh, self.send_q.is_empty(), "PSH");
            self.rtx_q.extend(want);
            self.snd_nxt = self.snd_nxt.wrapping_add(payload.len() as u32);
        } else {
            // Retransmission: always from the oldest unacknowledged byte.
            prop_assert_eq!(h.seq, self.snd_una, "retransmission start");
            prop_assert!(payload.len() <= self.rtx_q.len(), "resent unsent bytes");
            let want: Vec<u8> = self.rtx_q.iter().take(payload.len()).copied().collect();
            prop_assert_eq!(payload, &want[..], "retransmitted data at {}", h.seq);
            prop_assert!(!h.flags.psh);
        }
        Ok(())
    }
}

struct Harness {
    conn: TcpConn,
    model: Model,
    now: SimTime,
    mss: usize,
    /// Last ACK the peer sent (repeated by `DupAcks`).
    last_ack: u32,
    last_window: u16,
    reset: bool,
}

impl Harness {
    fn new(iss: u32, send_buf: usize, peer_mss: u16) -> Result<Harness, TestCaseError> {
        let cfg = TcpConfig {
            send_buf,
            ..TcpConfig::default()
        };
        let now = SimTime::from_millis(1);
        let mut out = Out::default();
        let mut conn = TcpConn::connect(cfg, LOCAL, PEER, iss, now, &mut out);
        prop_assert_eq!(out.segs.len(), 1);
        let synack = TcpHeader {
            src_port: PEER.1,
            dst_port: LOCAL.1,
            seq: PEER_ISS,
            ack: iss.wrapping_add(1),
            flags: TcpFlags {
                syn: true,
                ack: true,
                ..Default::default()
            },
            window: 32_768,
            mss: Some(peer_mss),
        };
        let mut out = Out::default();
        conn.on_segment(&synack, &[], now, &mut out);
        prop_assert_eq!(conn.state(), TcpState::Established);
        let snd = iss.wrapping_add(1);
        Ok(Harness {
            conn,
            model: Model {
                send_buf,
                snd_una: snd,
                snd_nxt: snd,
                send_q: VecDeque::new(),
                rtx_q: VecDeque::new(),
                written: 0,
                acked: 0,
            },
            now,
            mss: usize::from(peer_mss).clamp(64, 1460),
            last_ack: snd,
            last_window: 32_768,
            reset: false,
        })
    }

    /// Check everything the connection emitted for one input.
    fn check(&mut self, out: Out) -> Result<(), TestCaseError> {
        for f in &out.segs {
            let (h, payload) = TcpHeader::parse(f.payload(), LOCAL.0, PEER.0)
                .map_err(|e| TestCaseError::fail(format!("bad segment: {e:?}")))?;
            prop_assert!(payload.len() <= self.mss, "segment over MSS");
            self.model.on_segment(&h, payload)?;
        }
        if out.events.iter().any(|e| matches!(e, ConnEvent::Reset(_))) {
            self.reset = true;
        }
        prop_assert_eq!(self.conn.send_space(), self.model.space(), "send space");
        Ok(())
    }

    fn write(&mut self, n: usize) -> Result<(), TestCaseError> {
        let data: Vec<u8> = (self.model.written..self.model.written + n)
            .map(stream_byte)
            .collect();
        let space = self.model.space();
        let mut out = Out::default();
        let took = self.conn.send(&data, self.now, &mut out);
        prop_assert_eq!(took, space.min(n), "bytes accepted");
        self.model.send_q.extend(&data[..took]);
        self.model.written += took;
        self.check(out)
    }

    fn ack(&mut self, ack: u32, window: u16) -> Result<(), TestCaseError> {
        if self.reset {
            return Ok(());
        }
        let h = TcpHeader {
            src_port: PEER.1,
            dst_port: LOCAL.1,
            seq: PEER_ISS.wrapping_add(1),
            ack,
            flags: TcpFlags::ACK,
            window,
            mss: None,
        };
        self.last_ack = ack;
        self.last_window = window;
        self.model.on_ack(ack);
        let mut out = Out::default();
        self.conn.on_segment(&h, &[], self.now, &mut out);
        self.check(out)
    }

    fn timer(&mut self) -> Result<(), TestCaseError> {
        let Some(due) = self.conn.next_deadline() else {
            return Ok(());
        };
        self.now = self.now.max(due);
        let mut out = Out::default();
        self.conn.on_timer(self.now, &mut out);
        self.check(out)
    }

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match *op {
            Op::Write(n) => self.write(n),
            Op::Ack { pct, window } => {
                let flight = self.model.snd_nxt.wrapping_sub(self.model.snd_una);
                let n = (u64::from(flight) * u64::from(pct) / 100) as u32;
                self.ack(self.model.snd_una.wrapping_add(n), window)
            }
            Op::DupAcks(k) => {
                for _ in 0..k {
                    self.ack(self.last_ack, self.last_window)?;
                }
                Ok(())
            }
            Op::Timer => self.timer(),
            Op::Wait(ms) => {
                self.now += SimDuration::from_millis(ms);
                Ok(())
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn segment_stream_matches_two_queue_model(
        iss in arb_iss(),
        send_buf in prop_oneof![Just(64 * 1024), 1_000usize..70_000],
        peer_mss in prop_oneof![Just(1460u16), Just(536u16), 64u16..1460],
        ops in proptest::collection::vec(arb_op(), 1..150),
    ) {
        let mut hx = Harness::new(iss, send_buf, peer_mss)?;
        for op in &ops {
            hx.apply(op)?;
            if hx.reset {
                // Retransmission limit hit: nothing more will be sent.
                prop_assert!(hx.conn.is_closed());
                return Ok(());
            }
        }
        // Drain: the peer acknowledges everything with an open window
        // until every accepted byte is acknowledged.
        let mut rounds = 0;
        while hx.model.acked < hx.model.written {
            rounds += 1;
            prop_assert!(rounds < 10_000, "transfer stalled");
            let before = hx.model.snd_nxt;
            hx.ack(hx.model.snd_nxt, 65_535)?;
            if hx.model.snd_nxt == before && hx.model.rtx_q.is_empty() {
                hx.timer()?;
            }
            hx.now += SimDuration::from_millis(10);
        }
        prop_assert!(hx.model.send_q.is_empty() && hx.model.rtx_q.is_empty());
        prop_assert_eq!(hx.conn.send_space(), send_buf);
        // Close: the FIN follows the last data byte, and its ACK moves the
        // connection to FIN-WAIT-2.
        let mut out = Out::default();
        hx.conn.close(hx.now, &mut out);
        prop_assert_eq!(out.segs.len(), 1);
        let (fin, _) = TcpHeader::parse(out.segs[0].payload(), LOCAL.0, PEER.0).unwrap();
        prop_assert!(fin.flags.fin);
        prop_assert_eq!(fin.seq, hx.model.snd_nxt);
        hx.ack(hx.model.snd_nxt.wrapping_add(1), 65_535)?;
        prop_assert_eq!(hx.conn.state(), TcpState::FinWait2);
    }
}
