//! IP fragmentation/reassembly: large UDP datagrams must cross the
//! MTU-limited link intact, survive fragment reordering and duplication,
//! and vanish cleanly (not corrupt anything) when a fragment is lost.

use netsim::{Context, EventKind, LinkParams, Node, PortId, SimDuration, SimTime, Simulator};
use netstack::{start_host, App, AppEvent, Host, HostApi, HostConfig, NIC_PORT};
use packet::MacAddr;
use std::net::Ipv4Addr;

const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Sends one UDP datagram of `size` bytes at start.
struct BigSender {
    dst: (Ipv4Addr, u16),
    size: usize,
}
impl App for BigSender {
    fn on_event(&mut self, event: AppEvent, api: &mut HostApi<'_, '_>) {
        if matches!(event, AppEvent::Start) {
            let port = api.udp_bind_ephemeral();
            let payload: Vec<u8> = (0..self.size).map(|i| (i % 251) as u8).collect();
            api.udp_send(port, self.dst, &payload);
        }
    }
}

/// Records datagrams received on a port.
struct BigReceiver {
    port: u16,
    got: Vec<Vec<u8>>,
}
impl App for BigReceiver {
    fn on_event(&mut self, event: AppEvent, api: &mut HostApi<'_, '_>) {
        match event {
            AppEvent::Start => {
                api.udp_bind(self.port);
            }
            AppEvent::UdpDatagram { data, .. } => self.got.push(data),
            _ => {}
        }
    }
}

/// A relay that reorders (swaps pairs, or replays held frames in a
/// scripted order with repeats) or drops the nth frame.
struct Meddler {
    mode: MeddleMode,
    held: Option<(PortId, netsim::Frame)>,
    count: usize,
    stash: Vec<netsim::Frame>,
}
enum MeddleMode {
    Passthrough,
    SwapPairs,
    DropNth(usize),
    /// Hold frames until every index in the script has arrived, then send
    /// them in script order (an index may repeat).
    Replay(Vec<usize>),
}
impl Node for Meddler {
    fn on_event(&mut self, ev: EventKind, ctx: &mut Context<'_>) {
        if let EventKind::Deliver { port, frame } = ev {
            let out = PortId(1 - port.0);
            self.count += 1;
            match self.mode {
                MeddleMode::Passthrough => {
                    ctx.send(out, frame);
                }
                MeddleMode::SwapPairs => {
                    if let Some((o, held)) = self.held.take() {
                        // Send the newer frame first, then the held one.
                        ctx.send(out, frame);
                        ctx.send(PortId(1 - o.0), held);
                    } else {
                        self.held = Some((port, frame));
                    }
                }
                MeddleMode::DropNth(n) => {
                    if self.count != n {
                        ctx.send(out, frame);
                    }
                }
                MeddleMode::Replay(ref order) => {
                    self.stash.push(frame);
                    if self.stash.len() == order.iter().max().map_or(0, |&m| m + 1) {
                        for &i in order {
                            ctx.send(out, self.stash[i].clone());
                        }
                    }
                }
            }
        }
    }
}

fn run(size: usize, mode: MeddleMode) -> (Vec<Vec<u8>>, u64) {
    run_with_mtu(size, mode, 1500)
}

fn run_with_mtu(size: usize, mode: MeddleMode, mtu: usize) -> (Vec<Vec<u8>>, u64) {
    let mut cfg_a = HostConfig::new("a", IP_A, MacAddr::local(1)).with_arp(IP_B, MacAddr::local(2));
    cfg_a.mtu = mtu;
    let mut a = Host::new(cfg_a);
    a.add_app(Box::new(BigSender {
        dst: (IP_B, 9000),
        size,
    }));
    let mut b =
        Host::new(HostConfig::new("b", IP_B, MacAddr::local(2)).with_arp(IP_A, MacAddr::local(1)));
    let rx = b.add_app(Box::new(BigReceiver {
        port: 9000,
        got: Vec::new(),
    }));
    let mut sim = Simulator::new(3);
    let na = sim.add_node(Box::new(a));
    let nb = sim.add_node(Box::new(b));
    let relay = sim.add_node(Box::new(Meddler {
        mode,
        held: None,
        count: 0,
        stash: Vec::new(),
    }));
    let link = LinkParams::new(10_000_000, SimDuration::from_micros(50), 64);
    sim.connect_sym(na, NIC_PORT, relay, PortId(0), link);
    sim.connect_sym(nb, NIC_PORT, relay, PortId(1), link);
    start_host(&mut sim, nb, SimTime::ZERO);
    start_host(&mut sim, na, SimTime::from_millis(1));
    sim.run_until(SimTime::from_secs(5));
    let frames_in = sim.node::<Host>(nb).core().stats().frames_in;
    let got = sim.node::<Host>(nb).app::<BigReceiver>(rx).got.clone();
    (got, frames_in)
}

fn expected(size: usize) -> Vec<u8> {
    (0..size).map(|i| (i % 251) as u8).collect()
}

#[test]
fn small_datagram_is_not_fragmented() {
    let (got, frames) = run(1000, MeddleMode::Passthrough);
    assert_eq!(got, vec![expected(1000)]);
    assert_eq!(frames, 1);
}

#[test]
fn nfs_sized_datagram_crosses_in_fragments() {
    // 8 KB + UDP header → 6 fragments at a 1500-byte MTU.
    let (got, frames) = run(8192, MeddleMode::Passthrough);
    assert_eq!(got.len(), 1, "datagram not reassembled");
    assert_eq!(got[0], expected(8192));
    assert_eq!(frames, 6, "unexpected fragment count");
}

#[test]
fn reordered_fragments_still_reassemble() {
    let (got, _) = run(8192, MeddleMode::SwapPairs);
    assert_eq!(got.len(), 1, "reordering broke reassembly");
    assert_eq!(got[0], expected(8192));
}

#[test]
fn lost_fragment_drops_whole_datagram_cleanly() {
    for n in 1..=6 {
        let (got, _) = run(8192, MeddleMode::DropNth(n));
        assert!(
            got.is_empty(),
            "datagram delivered despite losing fragment {n}"
        );
    }
}

#[test]
fn max_size_datagram() {
    // Near the 64 KB IP limit: 44 fragments.
    let size = 60_000;
    let (got, frames) = run(size, MeddleMode::Passthrough);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].len(), size);
    assert_eq!(got[0], expected(size));
    assert!(frames > 40);
}

#[test]
fn scrambled_and_duplicated_fragments_reassemble_once() {
    // Six fragments arrive last-first, with repeats before and after the
    // one that completes the datagram. The datagram is delivered exactly
    // once, byte for byte; the late duplicates start a partial datagram
    // that never completes.
    let order = vec![5, 2, 5, 0, 4, 2, 3, 1, 0, 3];
    let (got, frames) = run(8192, MeddleMode::Replay(order));
    assert_eq!(frames, 10);
    assert_eq!(got, vec![expected(8192)]);
}

#[test]
fn smallest_mtu_sends_eight_byte_fragments() {
    // MTU 28 leaves one 8-byte fragment unit per frame: 108 bytes of UDP
    // datagram cross as 14 fragments.
    let (got, frames) = run_with_mtu(100, MeddleMode::Passthrough, 28);
    assert_eq!(got, vec![expected(100)]);
    assert_eq!(frames, 14);
}

#[test]
#[should_panic(expected = "below the minimum of 28 bytes")]
fn mtu_without_room_for_a_fragment_is_rejected() {
    // Below 28 bytes a fragment has no room for data, so fragmenting a
    // datagram could never make progress: the host refuses the MTU.
    run_with_mtu(100, MeddleMode::Passthrough, 27);
}
