//! `perfbench`: the Rust half of the vids benchmark. `run.py` drives the
//! `vids` CLI and calls these subcommands for everything that needs the
//! library: seeded inputs, ground truth, the open-loop live sender and the
//! traced twins of `vids replay` and `vids serve`.
//!
//! ```text
//! perfbench gen        --workload W --seed S --dir D
//! perfbench setup      --workload W --dir D
//! perfbench replay     --workload W --dir D [--trace RUN --spans DIR]
//! perfbench dumps      --dir D
//! perfbench tenants
//! perfbench send       --seed S --rate R --seconds T --port P --src-port Q
//! perfbench live-trace --seed S --rate R --seconds T --port P --src-port Q --shards N --dir DIR
//! ```

mod check;
mod gen;
mod live;
mod replay;
mod rng;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vids_core::report::AlertReport;
use vids_core::Config;

use check::{check, percentile, Clock, Observed, Verdict};

/// calls_mixed: 2,000 overlapping calls, 100 RTP packets each way.
const CALLS: usize = 2_000;
const RTP_PER_DIR: u64 = 100;
/// invite_flood: 150 victims × 400 INVITEs over 100 clean calls.
const VICTIMS: usize = 150;
const INVITES_PER_VICTIM: usize = 400;
const BACKGROUND_CALLS: usize = 100;
/// live_tenants: each tenant's INVITE-flood threshold, far above its
/// clean INVITE rate.
const LIVE_FLOOD_N: u64 = 5_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&Args(&args[1..])),
        Some("setup") => cmd_setup(&Args(&args[1..])),
        Some("replay") => cmd_replay(&Args(&args[1..])),
        Some("dumps") => cmd_dumps(&Args(&args[1..])),
        Some("tenants") => {
            print!("{}", gen::tenant_file(LIVE_FLOOD_N));
            Ok(())
        }
        Some("send") => cmd_send(&Args(&args[1..])),
        Some("live-trace") => cmd_live_trace(&Args(&args[1..])),
        _ => Err("usage: perfbench gen|setup|replay|dumps|tenants|send|live-trace ...".to_owned()),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

struct Args<'a>(&'a [String]);

impl Args<'_> {
    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn req(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing {name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.req(name)?
            .parse()
            .map_err(|_| format!("bad number for {name}"))
    }
}

/// A JSON object built by hand (the workspace has no JSON crate).
#[derive(Default)]
struct Json(Vec<(String, String)>);

impl Json {
    fn num(&mut self, k: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() { v } else { 0.0 };
        self.0.push((k.to_owned(), format!("{v}")));
        self
    }

    fn raw(&mut self, k: &str, v: String) -> &mut Self {
        self.0.push((k.to_owned(), v));
        self
    }

    fn str(&mut self, k: &str, v: &str) -> &mut Self {
        let escaped = v
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', " ");
        self.0.push((k.to_owned(), format!("\"{escaped}\"")));
        self
    }

    fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn verdict_json(j: &mut Json, v: &Verdict) {
    j.num("expected", v.expected as f64)
        .num("detected", v.detected as f64)
        .raw("ok", v.ok().to_string())
        .str("problems", &v.problems())
        .num("detect_n", v.detect_ms.len() as f64)
        .num("detect_ms_p50", percentile(&v.detect_ms, 0.5))
        .num("detect_ms_p90", percentile(&v.detect_ms, 0.9));
}

fn cmd_gen(a: &Args) -> Result<(), String> {
    let seed: u64 = a.num("--seed")?;
    let dir = PathBuf::from(a.req("--dir")?);
    let cfg = Config::default();
    let cap = match a.req("--workload")? {
        "calls_mixed" => gen::calls_mixed(seed, CALLS, RTP_PER_DIR, &cfg),
        "invite_flood" => {
            gen::invite_flood(seed, VICTIMS, INVITES_PER_VICTIM, BACKGROUND_CALLS, &cfg)
        }
        w => return Err(format!("no capture for workload {w}")),
    };
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let io = |r: std::io::Result<()>| r.map_err(|e| e.to_string());
    io(std::fs::write(dir.join("capture.pcap"), cap.pcap()))?;
    io(std::fs::write(
        dir.join("truth.tsv"),
        check::write_truth(&cap.truth),
    ))?;
    let mut j = Json::default();
    j.num("datagrams", cap.datagrams.len() as f64)
        .num("attacks", cap.truth.len() as f64);
    println!("{}", j.render());
    Ok(())
}

fn observed_replay(alerts: &[vids_core::alert::Alert]) -> Vec<Observed> {
    alerts
        .iter()
        .map(|a| Observed {
            label: a.label.clone(),
            scope: a
                .call_id
                .clone()
                .unwrap_or_else(|| check::detail_scope(&a.detail).to_owned()),
            tenant: Some("-".to_owned()),
            time: a.time_ms,
        })
        .collect()
}

fn fresh_dir(p: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(p);
    std::fs::create_dir_all(p).map_err(|e| format!("{}: {e}", p.display()))
}

fn cmd_replay(a: &Args) -> Result<(), String> {
    let dir = PathBuf::from(a.req("--dir")?);
    let workload = a.req("--workload")?;
    let record = workload == "calls_mixed";
    let trace_run: Option<u32> = a.get("--trace").map(|r| r.parse().unwrap_or(0));
    let capture = dir.join("capture.pcap");
    let truth = check::read_truth(
        &std::fs::read_to_string(dir.join("truth.tsv")).map_err(|e| e.to_string())?,
    )?;

    let probe_before = replay::symbol_probe("before");
    let setup = replay::set_up(&capture, record)?;
    let dump_dir = dir.join(match trace_run {
        Some(r) => format!("dumps-trace-{r}"),
        None => "dumps-lib".to_owned(),
    });
    if record {
        fresh_dir(&dump_dir)?;
    }
    let dumps = record.then_some(dump_dir.as_path());
    let mut tracer = trace::Tracer::new(trace_run.unwrap_or(0));
    let out = match trace_run {
        Some(_) => replay::run_traced(setup, dumps, &mut tracer)?,
        None => replay::run_plain(setup, dumps)?,
    };
    let symbols = replay::symbol_probe("after") - probe_before - 1;
    let verdict = check(&truth, &observed_replay(&out.alerts), Clock::CaptureMs);
    let c = out.pool.counters();
    let report = AlertReport::from_alerts(&out.alerts).to_string();
    let report_name = match trace_run {
        Some(r) => format!("report-trace-{r}.txt"),
        None => "report-lib.txt".to_owned(),
    };
    std::fs::write(dir.join(report_name), &report).map_err(|e| e.to_string())?;

    let mut j = Json::default();
    j.num("wall_s", out.wall_s)
        .num("datagrams", out.datagrams as f64)
        .num(
            "counted",
            (c.sip_packets + c.rtp_packets + c.malformed + c.ignored) as f64,
        )
        .str("counters", &format!("counters: {c:?}"))
        .num("alerts", out.alerts.len() as f64)
        .num("dumps", out.dumps as f64)
        .num("tracked_calls", out.pool.monitored_calls() as f64)
        .num(
            "state_mib",
            out.pool.memory_bytes() as f64 / (1 << 20) as f64,
        )
        .num("symbols", f64::from(symbols));
    verdict_json(&mut j, &verdict);
    if let Some(run) = trace_run {
        let st = tracer.self_times();
        let mut stages = Json::default();
        for (name, (ns, calls)) in &st {
            stages.raw(name, format!("[{ns}, {calls}]"));
        }
        j.raw("stages", stages.render());
        let bytes = std::fs::read(&capture).map_err(|e| e.to_string())?;
        let side = replay::side_pass(&bytes)?;
        j.num("sip_parse_ns", side.sip_parse_ns)
            .num("rtp_decode_ns", side.rtp_decode_ns)
            .num("route_ns", side.route_ns);
        let spans = PathBuf::from(a.req("--spans")?).join(format!("spans-{workload}-{run}.tsv"));
        std::fs::write(spans, tracer.dump()).map_err(|e| e.to_string())?;
    }
    println!("{}", j.render());
    Ok(())
}

/// One set-up of `vids replay` in a fresh process, as the CLI pays it.
fn cmd_setup(a: &Args) -> Result<(), String> {
    let capture = PathBuf::from(a.req("--dir")?).join("capture.pcap");
    let record = a.req("--workload")? == "calls_mixed";
    let t = Instant::now();
    let setup = replay::set_up(&capture, record)?;
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(&setup);
    println!("{secs}");
    Ok(())
}

/// The alerts frozen in a directory of `.vdump` files, one per line:
/// time_ms, label, scope.
fn cmd_dumps(a: &Args) -> Result<(), String> {
    let dir = PathBuf::from(a.req("--dir")?);
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    for p in paths {
        let dump =
            vids_record::Vdump::read_from(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        let o = &observed_replay(std::slice::from_ref(&dump.alert))[0];
        println!("{}\t{}\t{}", o.time, o.label, o.scope);
    }
    Ok(())
}

fn live_args(a: &Args) -> Result<(gen::LiveSchedule, SocketAddr, u16), String> {
    let seed: u64 = a.num("--seed")?;
    let rate: u64 = a.num("--rate")?;
    let seconds: u64 = a.num("--seconds")?;
    let port: u16 = a.num("--port")?;
    let src_port: u16 = a.num("--src-port")?;
    let sched = gen::live_schedule(seed, rate, seconds);
    Ok((sched, SocketAddr::from(([127, 0, 0, 1], port)), src_port))
}

fn live_json(
    j: &mut Json,
    sched: &gen::LiveSchedule,
    sent: &live::SendStats,
    drained_ns: Option<u64>,
) {
    let late: Vec<f64> = sent.lateness_ns.iter().map(|&n| n as f64 / 1e3).collect();
    let mut per_tenant = String::new();
    for (name, n) in check::per_tenant(&sched.truth) {
        let _ = write!(
            per_tenant,
            "{}\"{name}\": {n}",
            if per_tenant.is_empty() { "" } else { ", " }
        );
    }
    let first_due = sched.datagrams.first().map_or(0, |d| d.due_ns);
    j.num("sent", sent.sent as f64)
        .num("first_due_s", first_due as f64 / 1e9)
        .num("drained_s", drained_ns.map_or(0.0, |n| n as f64 / 1e9))
        .raw("drained", drained_ns.is_some().to_string())
        .num("late_us_p50", percentile(&late, 0.5))
        .num("late_us_p99", percentile(&late, 0.99))
        .raw("expected_per_tenant", format!("{{{per_tenant}}}"));
}

/// The open-loop sender for a `vids serve` daemon whose standard output
/// is this process's standard input.
fn cmd_send(a: &Args) -> Result<(), String> {
    let (sched, listen, src_port) = live_args(a)?;
    let socks = live::bind_senders(src_port)?;
    let t0 = Instant::now() + Duration::from_millis(50);
    let arrivals = Mutex::new(live::Arrivals::new(&sched, t0));
    let (tx, rx) = std::sync::mpsc::channel();
    let (sent, drained) = std::thread::scope(|scope| -> Result<_, String> {
        let arrivals = &arrivals;
        scope.spawn(move || live::read_alerts(std::io::stdin().lock(), arrivals, tx));
        let sent = live::send_all(&sched, &socks, listen, t0)?;
        let drained = live::wait_drained(&rx);
        // Tell run.py to stop the daemon; its exit closes our stdin
        // and ends the reader.
        println!("drained {drained}");
        Ok((sent, drained))
    })?;
    let arrivals = arrivals.into_inner().expect("arrivals lock poisoned");
    let verdict = check(&sched.truth, &arrivals.observed(None), Clock::WallNs);
    let mut j = Json::default();
    live_json(
        &mut j,
        &sched,
        &sent,
        arrivals.drained_ns.filter(|_| drained),
    );
    verdict_json(&mut j, &verdict);
    println!("{}", j.render());
    Ok(())
}

fn cmd_live_trace(a: &Args) -> Result<(), String> {
    let (sched, listen, src_port) = live_args(a)?;
    let shards: usize = a.num("--shards")?;
    let tenants = gen::tenant_file(LIVE_FLOOD_N);
    let probe_before = replay::symbol_probe("before");
    let t = live::traced_serve(&sched, &tenants, listen, shards, src_port)?;
    let symbols = replay::symbol_probe("after") - probe_before - 1;
    let verdict = check(&sched.truth, &t.observed, Clock::WallNs);
    let mut j = Json::default();
    live_json(&mut j, &sched, &t.sent, t.drained_ns);
    verdict_json(&mut j, &verdict);
    let mut per_tenant: BTreeMap<String, u64> = BTreeMap::new();
    for o in &t.observed {
        *per_tenant
            .entry(o.tenant.clone().unwrap_or_default())
            .or_insert(0) += 1;
    }
    j.num("datagrams_rx", t.datagrams_rx as f64)
        .num("counted", t.counters_sum as f64)
        .num("recv_ns", t.recv_ns)
        .num("dgrams_per_recv", t.dgrams_per_recv)
        .num("dgrams_per_batch", t.dgrams_per_batch)
        .num("classify_sip_ns", t.classify_sip_ns)
        .num("engine_ns", t.engine_ns)
        .num("batch_us_p50", percentile(&t.batch_us, 0.5))
        .num("batch_us_p99", percentile(&t.batch_us, 0.99))
        .num("route_ns", t.route_ns)
        .num("tenant_ns", t.tenant_ns)
        .num("tracked_calls", t.tracked_calls as f64)
        .num("state_mib", t.state_bytes as f64 / (1 << 20) as f64)
        .num("symbols", f64::from(symbols));
    let spans = PathBuf::from(a.req("--dir")?).join("spans-live_tenants.tsv");
    std::fs::write(spans, &t.spans).map_err(|e| e.to_string())?;
    println!("{}", j.render());
    Ok(())
}
