//! The replay workloads inside the benchmark process: `vids replay`'s own
//! set-up and replay call, for alert details and set-up time, and a
//! traced twin of the same loop for the per-layer ledger.

use std::path::Path;
use std::time::Instant;

use vids_core::alert::Alert;
use vids_core::classify::{classify_wire, Classified, WireProto};
use vids_core::pool::{route_hint, VidsPool, WireEvent};
use vids_core::sink::CollectSink;
use vids_core::Config;
use vids_efsm::Sym;
use vids_ingest::demux::{demux, WireClass};
use vids_ingest::pcap::PcapReader;
use vids_ingest::record_tap::{recorded_class, RecordTap};
use vids_ingest::replay::replay_pcap_parallel;
use vids_record::{Recorder, TeeSink};
use vids_rtp::packet::RtpHeader;
use vids_sip::view::parse_view;

use crate::trace::Tracer;

/// What `vids replay` builds before the first datagram, exactly as its
/// CLI does it: the capture bytes, a 4-shard pool with telemetry, and the
/// recorder when `--record` is given.
pub struct Setup {
    pub capture: Vec<u8>,
    pub pool: VidsPool,
    pub recorder: Option<Recorder>,
}

pub fn set_up(capture: &Path, record: bool) -> Result<Setup, String> {
    let cfg = Config::builder()
        .shards(4)
        .build()
        .map_err(|e| e.to_string())?;
    let capture = std::fs::read(capture).map_err(|e| format!("{}: {e}", capture.display()))?;
    let mut pool = VidsPool::new(cfg);
    let registry = pool.enable_telemetry(256);
    let recorder = record.then(|| {
        let mut rec = Recorder::with_defaults(1);
        rec.attach_telemetry(registry.pool_slab());
        rec.set_telemetry_ring(256);
        rec
    });
    Ok(Setup {
        capture,
        pool,
        recorder,
    })
}

pub struct RunOut {
    pub alerts: Vec<Alert>,
    pub datagrams: u64,
    pub wall_s: f64,
    pub pool: VidsPool,
    pub dumps: usize,
}

/// The replay call `vids replay` makes, untimed by spans.
pub fn run_plain(setup: Setup, dump_dir: Option<&Path>) -> Result<RunOut, String> {
    let Setup {
        capture,
        mut pool,
        mut recorder,
    } = setup;
    let flush = pool.config().batch_flush_packets;
    let mut tap = recorder.as_mut().map(|rec| RecordTap::new(rec, dump_dir));
    let mut sink = CollectSink::new();
    let t = Instant::now();
    let report = replay_pcap_parallel(capture, &mut pool, flush, 1, None, tap.as_mut(), &mut sink)
        .map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    let dumps = tap.map_or(0, |t| t.written.len());
    Ok(RunOut {
        alerts: sink.alerts().to_vec(),
        datagrams: report.datagrams,
        wall_s,
        pool,
        dumps,
    })
}

/// The same sequential replay loop as `vids_ingest::replay::replay`, with
/// a span around every public call, one span per stage per batch so the
/// timer reads stay a small share of the work.
pub fn run_traced(
    setup: Setup,
    dump_dir: Option<&Path>,
    tr: &mut Tracer,
) -> Result<RunOut, String> {
    let Setup {
        capture,
        mut pool,
        mut recorder,
    } = setup;
    let flush = pool.config().batch_flush_packets.max(1);
    let grace = pool.config().replay_grace;
    let mut sink = CollectSink::new();
    let mut dumps = 0usize;
    let mut datagrams = 0u64;
    let mut last_at = vids_netsim::time::SimTime::ZERO;
    let mut chunk = Vec::with_capacity(flush);
    let mut classes = Vec::with_capacity(flush);
    let mut events: Vec<WireEvent> = Vec::with_capacity(flush);
    let t = Instant::now();
    let root = tr.open("replay");
    let mut reader = PcapReader::new(&capture).map_err(|e| e.to_string())?;
    loop {
        chunk.clear();
        let s = tr.open("ingest.pcap");
        while chunk.len() < flush {
            match reader.next_datagram().map_err(|e| e.to_string())? {
                Some(d) => chunk.push(d),
                None => break,
            }
        }
        tr.close(s);
        if chunk.is_empty() {
            break;
        }
        classes.clear();
        tr.time("ingest.demux", || {
            for d in &chunk {
                let class = match d.engine_addrs() {
                    Some(addrs) => (demux(d.src.port(), d.dst.port(), d.payload), Some(addrs)),
                    None => (WireClass::Ipv6, None),
                };
                classes.push(class);
            }
        });
        let mut classified: Vec<Classified> = vec![Classified::Ignored; chunk.len()];
        for (proto, want, name) in [
            (WireProto::Sip, WireClass::Sip, "core.classify_sip"),
            (WireProto::Rtp, WireClass::Rtp, "core.classify_rtp"),
        ] {
            tr.time(name, || {
                for (i, d) in chunk.iter().enumerate() {
                    if let (class, Some((src, dst))) = classes[i] {
                        if class == want {
                            classified[i] = classify_wire(proto, d.payload, src, dst);
                        }
                    }
                }
            });
        }
        if let Some(rec) = recorder.as_mut() {
            tr.time("record.tap", || {
                for (d, (class, _)) in chunk.iter().zip(&classes) {
                    rec.record(0, d.at, d.src, d.dst, recorded_class(*class), d.payload);
                }
            });
        }
        for (d, c) in chunk.iter().zip(classified) {
            datagrams += 1;
            last_at = last_at.max(d.at);
            events.push(WireEvent {
                classified: c,
                at: d.at,
            });
        }
        let now = events[0].at;
        let mut seen = Vec::new();
        tr.time("core.engine", || {
            let mut tee = TeeSink::new(&mut sink, &mut seen);
            pool.process_wire_batch(&mut events, now, &mut tee);
        });
        events.clear();
        if let Some(rec) = recorder.as_mut() {
            rec.mark_batch();
            dumps += dump(tr, rec, &pool, dump_dir, &seen)?;
        }
    }
    let mut seen = Vec::new();
    tr.time("core.tick", || {
        let mut tee = TeeSink::new(&mut sink, &mut seen);
        pool.tick(last_at + grace, &mut tee);
    });
    if let Some(rec) = recorder.as_mut() {
        dumps += dump(tr, rec, &pool, dump_dir, &seen)?;
    }
    tr.close(root);
    Ok(RunOut {
        alerts: sink.alerts().to_vec(),
        datagrams,
        wall_s: t.elapsed().as_secs_f64(),
        pool,
        dumps,
    })
}

fn dump(
    tr: &mut Tracer,
    rec: &mut Recorder,
    pool: &VidsPool,
    dir: Option<&Path>,
    seen: &[Alert],
) -> Result<usize, String> {
    let (Some(dir), false) = (dir, seen.is_empty()) else {
        return Ok(0);
    };
    tr.time("record.dump", || {
        for a in seen {
            rec.note_alert(a);
        }
        rec.dump_pending(pool, dir)
            .map(|w| w.len())
            .map_err(|e| e.to_string())
    })
}

/// Nested parsers and the router, timed in a side pass over the same
/// payloads (inside the replay they run within classification).
pub struct SidePass {
    pub sip_parse_ns: f64,
    pub rtp_decode_ns: f64,
    pub route_ns: f64,
}

pub fn side_pass(capture: &[u8]) -> Result<SidePass, String> {
    let mut reader = PcapReader::new(capture).map_err(|e| e.to_string())?;
    let mut sip: Vec<&[u8]> = Vec::new();
    let mut rtp: Vec<&[u8]> = Vec::new();
    let mut classified = Vec::new();
    while let Some(d) = reader.next_datagram().map_err(|e| e.to_string())? {
        let Some((src, dst)) = d.engine_addrs() else {
            continue;
        };
        match demux(d.src.port(), d.dst.port(), d.payload) {
            WireClass::Sip => {
                sip.push(d.payload);
                classified.push(classify_wire(WireProto::Sip, d.payload, src, dst));
            }
            WireClass::Rtp => {
                rtp.push(d.payload);
                classified.push(classify_wire(WireProto::Rtp, d.payload, src, dst));
            }
            _ => {}
        }
    }
    let per = |ns: u128, n: usize| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let t = Instant::now();
    let mut ok = 0usize;
    for p in &sip {
        if let Ok(text) = std::str::from_utf8(p) {
            ok += usize::from(std::hint::black_box(parse_view(text)).is_ok());
        }
    }
    let sip_parse_ns = per(t.elapsed().as_nanos(), sip.len());
    let t = Instant::now();
    for p in &rtp {
        ok += usize::from(std::hint::black_box(RtpHeader::parse(p)).is_ok());
    }
    let rtp_decode_ns = per(t.elapsed().as_nanos(), rtp.len());
    let t = Instant::now();
    for c in &classified {
        std::hint::black_box(route_hint(c));
    }
    let route_ns = per(t.elapsed().as_nanos(), classified.len());
    if ok != sip.len() + rtp.len() {
        return Err(format!(
            "side pass: {} of {} payloads failed to parse",
            sip.len() + rtp.len() - ok,
            sip.len() + rtp.len()
        ));
    }
    Ok(SidePass {
        sip_parse_ns,
        rtp_decode_ns,
        route_ns,
    })
}

/// The id the interner hands a never-seen string: the symbol count so far.
pub fn symbol_probe(tag: &str) -> u32 {
    Sym::intern(&format!("perfbench-probe-{}-{tag}", std::process::id())).id()
}
