//! The live workload: an open-loop sender for a `vids serve --tenants`
//! daemon, and a traced in-process twin of the daemon's serve loop.

use std::collections::{BTreeMap, BTreeSet};
use std::io::BufRead;
use std::net::{SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vids_cluster::{Cluster, ClusterEvent, TenantMap};
use vids_core::alert::Alert;
use vids_core::classify::{classify_wire, WireProto};
use vids_core::pool::route_hint;
use vids_core::sink::AlertSink;
use vids_core::{Config, CostModel};
use vids_ingest::batch::Batcher;
use vids_ingest::demux::{classify_datagram, demux, WireClass};
use vids_ingest::server::ServeOptions;
use vids_ingest::udp::UdpPool;
use vids_netsim::packet::Address;
use vids_netsim::time::SimTime;

use crate::check::{detail_scope, Observed};
use crate::gen::{LiveSchedule, LIVE_TENANTS};
use crate::trace::Tracer;

/// How long after the last send the sender waits for the sentinels.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The sender's own record of a round.
pub struct SendStats {
    pub sent: u64,
    /// How late each send ran behind its due time, in ns.
    pub lateness_ns: Vec<u64>,
}

/// One socket per tenant, bound to the tenant's address and a fixed port
/// so the daemon's SO_REUSEPORT spread is the same in every round.
pub fn bind_senders(src_port: u16) -> Result<Vec<UdpSocket>, String> {
    LIVE_TENANTS
        .iter()
        .map(|t| {
            UdpSocket::bind(SocketAddrV4::new(t.ip, src_port))
                .map_err(|e| format!("bind {}:{src_port}: {e}", t.ip))
        })
        .collect()
}

/// Sends the schedule open-loop: each datagram leaves when it is due,
/// whether or not the daemon keeps up.
pub fn send_all(
    sched: &LiveSchedule,
    socks: &[UdpSocket],
    dst: SocketAddr,
    t0: Instant,
) -> Result<SendStats, String> {
    let mut stats = SendStats {
        sent: 0,
        lateness_ns: Vec::with_capacity(sched.datagrams.len()),
    };
    for d in &sched.datagrams {
        let due = t0 + Duration::from_nanos(d.due_ns);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > Duration::from_micros(300) {
                std::thread::sleep(left - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        stats
            .lateness_ns
            .push((Instant::now() - due).as_nanos() as u64);
        socks[d.tenant]
            .send_to(&d.payload, dst)
            .map_err(|e| format!("send: {e}"))?;
        stats.sent += 1;
    }
    Ok(stats)
}

/// Alert lines as `vids serve` prints them:
/// `[      1234 ms] Attack sip — spoofed-bye (scope CALL-ID)`.
pub fn parse_alert_line(line: &str) -> Option<(String, String)> {
    let rest = line.trim_start().strip_prefix('[')?;
    let (_, rest) = rest.split_once("ms] ")?;
    let (_, rest) = rest.split_once(" — ")?;
    let (label, detail) = match rest.split_once(" (") {
        Some((l, d)) => (l, d.strip_suffix(')').unwrap_or(d)),
        None => (rest, ""),
    };
    Some((label.to_owned(), detail_scope(detail).to_owned()))
}

/// Arrival bookkeeping shared by both live paths: every alert with its
/// arrival time, and the moment the last sentinel showed up.
pub struct Arrivals {
    t0: Instant,
    pending: BTreeSet<String>,
    pub alerts: Vec<(String, String, u64)>,
    pub drained_ns: Option<u64>,
}

impl Arrivals {
    pub fn new(sched: &LiveSchedule, t0: Instant) -> Self {
        let pending = sched
            .sentinels
            .iter()
            .map(|&i| sentinel_scope(sched, i))
            .collect();
        Arrivals {
            t0,
            pending,
            alerts: Vec::new(),
            drained_ns: None,
        }
    }

    pub fn note(&mut self, label: String, scope: String) {
        let at = self.t0.elapsed().as_nanos() as u64;
        if self.pending.remove(&scope) && self.pending.is_empty() {
            self.drained_ns = Some(at);
        }
        self.alerts.push((label, scope, at));
    }

    pub fn observed(&self, tenants: Option<&BTreeMap<(String, String), String>>) -> Vec<Observed> {
        self.alerts
            .iter()
            .map(|(label, scope, at)| Observed {
                label: label.clone(),
                scope: scope.clone(),
                tenant: tenants.and_then(|m| m.get(&(scope.clone(), label.clone())).cloned()),
                time: *at,
            })
            .collect()
    }
}

fn sentinel_scope(sched: &LiveSchedule, idx: usize) -> String {
    let due = sched.datagrams[idx].due_ns;
    sched
        .truth
        .iter()
        .find(|e| e.first_ns == due && e.tenant == LIVE_TENANTS[sched.datagrams[idx].tenant].name)
        .map(|e| e.scope.clone())
        .expect("every sentinel is an injected attack")
}

/// Reads a daemon's alert lines from `input` until the sentinels arrive
/// (then `drained` fires) and on to end of input.
pub fn read_alerts(input: impl BufRead, arrivals: &Mutex<Arrivals>, drained: mpsc::Sender<()>) {
    let mut told = false;
    for line in input.lines() {
        let Ok(line) = line else { break };
        if let Some((label, scope)) = parse_alert_line(&line) {
            let mut a = arrivals.lock().expect("arrivals lock poisoned");
            a.note(label, scope);
            if !told && a.drained_ns.is_some() {
                told = true;
                let _ = drained.send(());
            }
        }
    }
}

pub fn wait_drained(rx: &mpsc::Receiver<()>) -> bool {
    rx.recv_timeout(DRAIN_TIMEOUT).is_ok()
}

/// Per-layer figures from the traced serve twin.
pub struct LiveTrace {
    pub observed: Vec<Observed>,
    pub sent: SendStats,
    pub drained_ns: Option<u64>,
    pub datagrams_rx: u64,
    pub counters_sum: u64,
    pub recv_ns: f64,
    pub dgrams_per_recv: f64,
    pub dgrams_per_batch: f64,
    pub classify_sip_ns: f64,
    pub engine_ns: f64,
    pub batch_us: Vec<f64>,
    pub route_ns: f64,
    pub tenant_ns: f64,
    pub tracked_calls: usize,
    pub state_bytes: usize,
    pub spans: String,
}

struct ArrivalSink<'a>(&'a Mutex<Arrivals>);

impl AlertSink for ArrivalSink<'_> {
    fn accept(&mut self, alert: Alert) {
        let scope = detail_scope(&alert.detail).to_owned();
        self.0
            .lock()
            .expect("arrivals lock poisoned")
            .note(alert.label, scope);
    }
}

/// `vids serve --shards N --tenants FILE` rebuilt from the same public
/// calls (`UdpPool`, `UdpSource::poll_batch`, `classify_datagram`,
/// `Batcher`, `Cluster::process_batch`, `Cluster::tick`), with spans, fed
/// by the same open-loop sender.
pub fn traced_serve(
    sched: &LiveSchedule,
    tenant_text: &str,
    listen: SocketAddr,
    shards: usize,
    src_port: u16,
) -> Result<LiveTrace, String> {
    let cfg = Config::builder()
        .shards(shards)
        .listen(listen)
        .build()
        .map_err(|e| e.to_string())?;
    let tenants = TenantMap::parse(tenant_text, cfg)?;
    let mut cluster = Cluster::with_cost(tenants, 1, CostModel::free());
    cluster.enable_telemetry(256);
    let opts = ServeOptions::from_config(&cfg);
    let udp = UdpPool::bind(listen, opts.receivers).map_err(|e| format!("bind {listen}: {e}"))?;
    let epoch = Instant::now();
    let sources = udp.into_sources(epoch, opts.read_timeout);
    let socks = bind_senders(src_port)?;
    let stop = AtomicBool::new(false);
    let t0 = Instant::now() + Duration::from_millis(50);
    let arrivals = Mutex::new(Arrivals::new(sched, t0));
    let (tx, rx) = mpsc::channel::<Vec<ClusterEvent>>();
    let mut coord = Tracer::new(0);
    let mut batch_us = Vec::new();
    let mut batched = 0u64;

    let (recv_tracers, sent) = std::thread::scope(|scope| -> Result<_, String> {
        let mut receivers = Vec::new();
        for (i, mut source) in sources.into_iter().enumerate() {
            let tx = tx.clone();
            let stop = &stop;
            receivers.push(scope.spawn(move || {
                let mut tr = Tracer::new(i as u32 + 1);
                let mut batcher =
                    Batcher::new(opts.flush_packets, opts.flush_interval.as_nanos() as u64);
                let (mut polls, mut got) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let mut due = false;
                    let s = tr.open("ingest.recv");
                    let polled = source.poll_batch(&mut |d| {
                        let class = demux(d.src.port(), d.dst.port(), d.payload);
                        let name = if class == WireClass::Sip {
                            "core.classify_sip"
                        } else {
                            "core.classify_other"
                        };
                        let c = tr.open(name);
                        let (_, classified) = classify_datagram(&d);
                        let src_ip = d.engine_addrs().map(|(src, _)| src.ip).unwrap_or(0);
                        tr.close(c);
                        due |= batcher.push(ClusterEvent {
                            classified,
                            at: d.at,
                            src_ip,
                        });
                    });
                    tr.close(s);
                    match polled {
                        Ok(0) => due = batcher.overdue(Instant::now()),
                        Ok(n) => {
                            polls += 1;
                            got += n as u64;
                        }
                        Err(_) => break,
                    }
                    if due && tx.send(batcher.take(Vec::new())).is_err() {
                        break;
                    }
                }
                if !batcher.is_empty() {
                    let _ = tx.send(batcher.take(Vec::new()));
                }
                (tr, polls, got)
            }));
        }
        drop(tx);
        let sender = scope.spawn(|| send_all(sched, &socks, listen, t0));
        let mut sink = ArrivalSink(&arrivals);
        let mut last_tick = Instant::now();
        let mut deadline: Option<Instant> = None;
        loop {
            match rx.recv_timeout(opts.tick_interval) {
                Ok(mut events) => {
                    let now = events.first().map(|e| e.at).unwrap_or(SimTime::ZERO);
                    let n = events.len() as u64;
                    let t = Instant::now();
                    coord.time("cluster.engine", || {
                        cluster.process_batch(&mut events, now, &mut sink)
                    });
                    batch_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                    batched += n;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            if last_tick.elapsed() >= opts.tick_interval {
                last_tick = Instant::now();
                let now = SimTime::from_nanos(epoch.elapsed().as_nanos() as u64);
                coord.time("core.tick", || cluster.tick(now, &mut sink));
            }
            if sender.is_finished() && deadline.is_none() {
                deadline = Some(Instant::now() + DRAIN_TIMEOUT);
            }
            let drained = arrivals
                .lock()
                .expect("arrivals lock poisoned")
                .drained_ns
                .is_some();
            if drained || deadline.is_some_and(|d| Instant::now() > d) {
                stop.store(true, Ordering::Relaxed);
            }
        }
        let now = SimTime::from_nanos(epoch.elapsed().as_nanos() as u64);
        cluster.tick(now, &mut sink);
        let sent = sender.join().map_err(|_| "sender panicked".to_owned())??;
        let tracers: Vec<_> = receivers
            .into_iter()
            .map(|h| h.join().map_err(|_| "receiver panicked".to_owned()))
            .collect::<Result<_, _>>()?;
        Ok((tracers, sent))
    })?;

    let mut tenant_of = BTreeMap::new();
    for ca in cluster.alerts() {
        let scope = detail_scope(&ca.alert.detail).to_owned();
        tenant_of.insert(
            (scope, ca.alert.label.clone()),
            cluster.tenants().get(ca.tenant).name.clone(),
        );
    }
    let arrivals = arrivals.into_inner().expect("arrivals lock poisoned");
    let counters = cluster.counters();
    let (mut recv_ns, mut classify_ns, mut sip_n, mut polls, mut got) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut spans = coord.dump();
    for (tr, p, g) in &recv_tracers {
        let st = tr.self_times();
        recv_ns += st.get("ingest.recv").map_or(0, |v| v.0);
        if let Some(&(ns, n)) = st.get("core.classify_sip") {
            classify_ns += ns;
            sip_n += n;
        }
        polls += p;
        got += g;
        spans.push_str(tr.dump().split_once('\n').map_or("", |x| x.1));
    }
    let engine_ns = coord.self_times().get("cluster.engine").map_or(0, |v| v.0);
    let (route_ns, tenant_ns) = side_pass_live(sched, cluster.tenants(), listen)?;
    Ok(LiveTrace {
        observed: arrivals.observed(Some(&tenant_of)),
        sent,
        drained_ns: arrivals.drained_ns,
        datagrams_rx: got,
        counters_sum: counters.sip_packets
            + counters.rtp_packets
            + counters.malformed
            + counters.ignored,
        recv_ns: ratio(recv_ns, got),
        dgrams_per_recv: ratio(got, polls),
        dgrams_per_batch: ratio(batched, batch_us.len() as u64),
        classify_sip_ns: ratio(classify_ns, sip_n),
        engine_ns: ratio(engine_ns, batched),
        batch_us,
        route_ns,
        tenant_ns,
        tracked_calls: cluster.monitored_calls(),
        state_bytes: (0..cluster.tenants().len())
            .map(|t| cluster.pool(t as u16, 0).memory_bytes())
            .sum(),
        spans,
    })
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// `route_hint` and `TenantMap::tenant_of` over the schedule's datagrams,
/// outside the daemon loop (the gateway calls them internally).
fn side_pass_live(
    sched: &LiveSchedule,
    tenants: &TenantMap,
    listen: SocketAddr,
) -> Result<(f64, f64), String> {
    let SocketAddr::V4(dst) = listen else {
        return Err("listen address must be IPv4".to_owned());
    };
    let dst = Address {
        ip: u32::from(*dst.ip()),
        port: dst.port(),
    };
    let mut classified = Vec::with_capacity(sched.datagrams.len());
    let mut srcs = Vec::with_capacity(sched.datagrams.len());
    for d in &sched.datagrams {
        let src = Address {
            ip: u32::from(LIVE_TENANTS[d.tenant].ip),
            port: 5060,
        };
        classified.push(classify_wire(WireProto::Sip, &d.payload, src, dst));
        srcs.push(src.ip);
    }
    let n = classified.len().max(1) as f64;
    let t = Instant::now();
    for c in &classified {
        std::hint::black_box(route_hint(c));
    }
    let route_ns = t.elapsed().as_nanos() as f64 / n;
    let t = Instant::now();
    for &ip in &srcs {
        std::hint::black_box(tenants.tenant_of(std::hint::black_box(ip)));
    }
    let tenant_ns = t.elapsed().as_nanos() as f64 / n;
    Ok((route_ns, tenant_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_serve_alert_lines() {
        let line = "[      1234 ms] Attack sip — spoofed-bye (scope lt1-alpha-5)";
        assert_eq!(
            parse_alert_line(line),
            Some(("spoofed-bye".to_owned(), "lt1-alpha-5".to_owned()))
        );
        let flood = "[         9 ms] Attack flood — invite-flood (scope dst:127.0.0.1)";
        assert_eq!(parse_alert_line(flood).unwrap().1, "dst:127.0.0.1");
        assert_eq!(parse_alert_line("listening on 127.0.0.1:5060"), None);
    }
}
