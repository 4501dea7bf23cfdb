//! Criterion benchmarks for the packet codecs and trace formats — the
//! per-packet costs every traced/modulated frame pays.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use packet::{
    EtherHeader, EtherType, IcmpMessage, IpProtocol, Ipv4Header, MacAddr, TcpFlags, TcpHeader,
};
use std::net::Ipv4Addr;

const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// One full-size data frame, built the way the stack builds it: the TCP
/// segment behind frame headroom in one allocation, then the IPv4 and
/// Ethernet headers written in place.
fn full_tcp_frame(payload: &[u8]) -> Vec<u8> {
    TcpHeader {
        src_port: 20,
        dst_port: 40000,
        seq: 12345,
        ack: 67890,
        flags: TcpFlags::ACK,
        window: 32768,
        mss: None,
    }
    .emit_frame(&[payload], SRC, DST)
    .into_frame(
        &Ipv4Header {
            src: SRC,
            dst: DST,
            protocol: IpProtocol::Tcp,
            ttl: 64,
            ident: 99,
            total_len: 0,
            more_fragments: false,
            frag_offset: 0,
        },
        &EtherHeader {
            dst: MacAddr::local(2),
            src: MacAddr::local(1),
            ethertype: EtherType::Ipv4,
        },
    )
}

fn bench_emit_parse(c: &mut Criterion) {
    let payload = vec![0xABu8; 1460];
    let frame = full_tcp_frame(&payload);

    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Bytes(frame.len() as u64));
    g.bench_function("emit_tcp_frame_1460", |b| {
        b.iter(|| full_tcp_frame(std::hint::black_box(&payload)));
    });
    g.bench_function("parse_tcp_frame_1460", |b| {
        b.iter(|| {
            let (eh, l3) = EtherHeader::parse(std::hint::black_box(&frame)).unwrap();
            assert_eq!(eh.ethertype, EtherType::Ipv4);
            let (ih, l4) = Ipv4Header::parse(l3).unwrap();
            let (th, body) = TcpHeader::parse(l4, ih.src, ih.dst).unwrap();
            assert_eq!(th.dst_port, 40000);
            assert_eq!(body.len(), 1460);
        });
    });
    g.bench_function("icmp_echo_round", |b| {
        let msg = IcmpMessage::Echo {
            ident: 7,
            seq: 3,
            payload: vec![0u8; 500],
        };
        b.iter(|| {
            let wire = std::hint::black_box(&msg).emit();
            IcmpMessage::parse(&wire).unwrap()
        });
    });
    g.finish();
}

fn bench_trace_format(c: &mut Criterion) {
    use tracekit::{Dir, PacketRecord, ProtoInfo, Trace, TraceRecord};
    let mut trace = Trace::new("thinkpad", "porter", 1);
    for i in 0..10_000u64 {
        trace.records.push(TraceRecord::Packet(PacketRecord {
            timestamp_ns: i * 1000,
            dir: if i % 2 == 0 { Dir::Out } else { Dir::In },
            wire_len: 542,
            proto: ProtoInfo::IcmpEchoReply {
                ident: 7,
                seq: (i % 65536) as u16,
                payload_len: 500,
                rtt_ns: 5_000_000,
            },
        }));
    }
    let encoded = tracekit::format::encode_trace(&trace);

    let mut g = c.benchmark_group("trace_format");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("encode_10k_records", |b| {
        b.iter(|| tracekit::format::encode_trace(std::hint::black_box(&trace)));
    });
    g.bench_function("decode_10k_records", |b| {
        b.iter(|| tracekit::format::decode_trace(std::hint::black_box(&encoded)).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench_emit_parse, bench_trace_format);
criterion_main!(benches);
