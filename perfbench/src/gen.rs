//! Seeded workload generators. Each returns the datagrams the program
//! will see and the ground truth the schedule implies; nothing here runs
//! the engine.

use std::net::{Ipv4Addr, SocketAddrV4};

use vids_attacks::craft::flood_invite;
use vids_core::alert::labels;
use vids_core::Config;
use vids_ingest::pcap::PcapWriter;
use vids_netsim::packet::Address;
use vids_netsim::time::SimTime;
use vids_rtp::packet::RtpPacket;
use vids_sdp::{Codec, SessionDescription};
use vids_sip::{Method, Request, SipUri, StatusCode};

use crate::check::Expected;
use crate::rng::Rng;

const MS: u64 = 1_000_000;
/// G.729 at 20 ms packetization: 20 payload bytes, 160 timestamp ticks.
const PTIME_NS: u64 = 20 * MS;
const G729_PT: u8 = 18;

/// One datagram on the wire.
pub struct Dgram {
    pub at_ns: u64,
    pub src: SocketAddrV4,
    pub dst: SocketAddrV4,
    pub payload: Vec<u8>,
}

/// A generated replay workload.
pub struct Capture {
    pub datagrams: Vec<Dgram>,
    pub truth: Vec<Expected>,
}

impl Capture {
    pub fn pcap(&self) -> Vec<u8> {
        let mut w = PcapWriter::new();
        for d in &self.datagrams {
            w.push_udp(SimTime::from_nanos(d.at_ns), d.src, d.dst, &d.payload);
        }
        w.into_bytes()
    }

    fn sorted(mut self) -> Self {
        // Stable: datagrams stamped alike keep their schedule order.
        self.datagrams.sort_by_key(|d| d.at_ns);
        self
    }
}

fn v4(ip: u32, port: u16) -> SocketAddrV4 {
    SocketAddrV4::new(Ipv4Addr::from(ip), port)
}

fn dotted(ip: u32) -> String {
    Ipv4Addr::from(ip).to_string()
}

/// The per-call message set of one monitored call.
struct CallMsgs {
    invite: Request,
    ok: String,
    ringing: String,
    ack: String,
    bye: String,
    bye_ok: String,
}

fn call_msgs(call_id: &str, caller: &SipUri, callee: &SipUri, sdp: Option<(u32, u32)>) -> CallMsgs {
    let mut invite = Request::invite(caller, callee, call_id);
    if let Some((caller_ip, _)) = sdp {
        let offer = SessionDescription::audio_offer(
            caller.user().unwrap_or("a"),
            &dotted(caller_ip),
            20_000,
            &[Codec::G729],
        );
        invite = invite.with_body(vids_sdp::MIME_TYPE, offer.to_string());
    }
    let to_tag = format!("tt-{call_id}");
    let ringing = invite
        .response(StatusCode::RINGING)
        .with_to_tag(&to_tag)
        .to_string();
    let mut ok = invite.response(StatusCode::OK).with_to_tag(&to_tag);
    if let Some((_, callee_ip)) = sdp {
        let answer = SessionDescription::audio_offer(
            callee.user().unwrap_or("b"),
            &dotted(callee_ip),
            30_000,
            &[Codec::G729],
        );
        ok = ok.with_body(vids_sdp::MIME_TYPE, answer.to_string());
    }
    let ack = Request::in_dialog(Method::Ack, &invite, 1, Some(&to_tag)).to_string();
    let bye_req = Request::in_dialog(Method::Bye, &invite, 2, Some(&to_tag));
    let bye_ok = bye_req.response(StatusCode::OK).to_string();
    CallMsgs {
        ok: ok.to_string(),
        ringing,
        ack,
        bye: bye_req.to_string(),
        bye_ok,
        invite,
    }
}

/// A BYE for `call_id` whose dialog tags belong to no party of the call:
/// the spoofed-BYE attack, complete in one datagram.
fn spoofed_bye(call: &CallMsgs) -> String {
    let forger = Request::invite(
        &SipUri::new("mallory", "evil.example"),
        &call.invite.uri,
        call.invite.call_id(),
    );
    Request::in_dialog(Method::Bye, &forger, 2, Some("forged-to")).to_string()
}

#[derive(Clone, Copy, PartialEq)]
enum CallKind {
    Clean,
    ByeDos,
    MediaSpam,
}

/// `calls_mixed`: `calls` overlapping complete calls with bidirectional
/// G.729 RTP (`rtp_per_dir` packets each way); a fixed 6% of them are a
/// BYE DoS / billing fraud (media keeps flowing from the BYE's sender),
/// another 4% a media spam injection. Half of `rtp_per_dir` packets must
/// outlast the configured `bye_dos_t`, or the BYE DoS could not show.
pub fn calls_mixed(seed: u64, calls: usize, rtp_per_dir: u64, cfg: &Config) -> Capture {
    let mut rng = Rng::new(seed);
    let mut kinds = vec![CallKind::Clean; calls];
    // Unequal shares keep the detection median inside one attack class.
    let (bye_dos, spam) = (calls * 6 / 100, calls * 4 / 100);
    for k in kinds.iter_mut().take(bye_dos) {
        *k = CallKind::ByeDos;
    }
    for k in kinds.iter_mut().skip(bye_dos).take(spam) {
        *k = CallKind::MediaSpam;
    }
    rng.shuffle(&mut kinds);
    let bye_t = cfg.bye_dos_t.as_nanos();
    let mut out = Capture {
        datagrams: Vec::new(),
        truth: Vec::new(),
    };
    let span_ns = 2_000 * MS;
    for (i, kind) in kinds.into_iter().enumerate() {
        let (hi, lo) = ((i / 250) as u8, (i % 250 + 1) as u8);
        let caller_ip = u32::from_be_bytes([10, 1, hi, lo]);
        let callee_ip = u32::from_be_bytes([10, 2, hi, lo]);
        let call_id = format!("cm{seed:x}-{i}");
        let msgs = call_msgs(
            &call_id,
            &SipUri::new(format!("a{i}"), dotted(caller_ip)),
            &SipUri::new(format!("b{i}"), dotted(callee_ip)),
            Some((caller_ip, callee_ip)),
        );
        let (caller, callee) = (v4(caller_ip, 5060), v4(callee_ip, 5060));
        let (caller_m, callee_m) = (v4(caller_ip, 20_000), v4(callee_ip, 30_000));
        let t0 = rng.below(span_ns);
        let mut push = |at_ns: u64, src, dst, payload: Vec<u8>| {
            out.datagrams.push(Dgram {
                at_ns,
                src,
                dst,
                payload,
            })
        };
        push(t0, caller, callee, msgs.invite.to_string().into_bytes());
        push(t0 + 15 * MS, callee, caller, msgs.ringing.into_bytes());
        push(t0 + 40 * MS, callee, caller, msgs.ok.into_bytes());
        push(t0 + 45 * MS, caller, callee, msgs.ack.into_bytes());
        let media0 = t0 + 50 * MS;
        // The BYE DoS tears the call down halfway through the media.
        let bye_at = match kind {
            CallKind::ByeDos => media0 + (rtp_per_dir / 2) * PTIME_NS + 5 * MS,
            _ => media0 + rtp_per_dir * PTIME_NS + 5 * MS,
        };
        let spam_k = rtp_per_dir / 2;
        let (ssrc_a, ssrc_b) = (0x1000_0000 | i as u32, 0x2000_0000 | i as u32);
        let mut first_late: Option<u64> = None;
        for k in 0..rtp_per_dir {
            let jitter_a = rng.below(2 * MS);
            let jitter_b = rng.below(2 * MS);
            let at_a = media0 + k * PTIME_NS + jitter_a;
            let at_b = media0 + 10 * MS + k * PTIME_NS + jitter_b;
            let pkt = |ssrc: u32, seq: u64| {
                RtpPacket::new(G729_PT, (1000 + seq) as u16, (seq * 160) as u32, ssrc)
                    .with_payload(vec![0x5a; 20])
                    .to_bytes()
            };
            push(at_a, caller_m, callee_m, pkt(ssrc_a, k));
            if kind == CallKind::ByeDos && at_a > bye_at + bye_t && first_late.is_none() {
                first_late = Some(at_a);
            }
            // After a BYE DoS the victim (callee) hangs up its media; the
            // caller, who never sent that BYE, keeps talking.
            if kind != CallKind::ByeDos || at_b < bye_at {
                push(at_b, callee_m, caller_m, pkt(ssrc_b, k));
            }
            if kind == CallKind::MediaSpam && k == spam_k {
                // Injected packet on the caller's SSRC, far ahead in
                // sequence and timestamp: media spam (Fig. 6).
                let at = at_a + 5 * MS;
                push(at, caller_m, callee_m, pkt(ssrc_a, k + 1000));
                out.truth.push(Expected {
                    label: labels::MEDIA_SPAM.to_owned(),
                    scope: call_id.clone(),
                    tenant: "-".to_owned(),
                    first_ns: at,
                    lo_ms: at / MS,
                    hi_ms: at / MS + 1,
                });
            }
        }
        push(bye_at, caller, callee, msgs.bye.into_bytes());
        push(bye_at + 3 * MS, callee, caller, msgs.bye_ok.into_bytes());
        if kind == CallKind::ByeDos {
            let late = first_late.expect("media outlasts the BYE DoS timer");
            out.truth.push(Expected {
                label: labels::RTP_AFTER_BYE.to_owned(),
                scope: call_id.clone(),
                tenant: "-".to_owned(),
                first_ns: bye_at,
                lo_ms: late / MS,
                hi_ms: late / MS + 1,
            });
        }
    }
    out.sorted()
}

/// `invite_flood`: `victims` destinations each flooded with `per_victim`
/// unique-Call-ID INVITEs (with SDP, built by `flood_invite`) every ~2 ms,
/// over `background` clean signaling-only calls. Every victim must alert
/// at the (N+1)-th INVITE inside T1.
pub fn invite_flood(
    seed: u64,
    victims: usize,
    per_victim: usize,
    background: usize,
    cfg: &Config,
) -> Capture {
    let mut rng = Rng::new(seed ^ 0xf100d);
    let mut out = Capture {
        datagrams: Vec::new(),
        truth: Vec::new(),
    };
    let n = cfg.invite_flood_n as usize;
    let t1 = cfg.invite_flood_t1.as_nanos();
    for v in 0..victims {
        let victim_ip = u32::from_be_bytes([10, 9, (v / 200) as u8, (v % 200 + 1) as u8]);
        let victim = v4(victim_ip, 5060);
        let target = SipUri::new(format!("v{v}"), dotted(victim_ip));
        let mut at = v as u64 * 5 * MS + rng.below(MS);
        let mut times = Vec::with_capacity(per_victim);
        for k in 0..per_victim {
            let atk = rng.below(64) as u32;
            let attacker = Address::new(10, 66, (atk / 8) as u8, (atk % 8 + 1) as u8, 5060);
            let call_id = format!("fl{seed:x}-{v}-{k}");
            let invite = flood_invite(&target, attacker, &format!("bot{atk}"), &call_id);
            out.datagrams.push(Dgram {
                at_ns: at,
                src: v4(attacker.ip, 5060),
                dst: victim,
                payload: invite.into_bytes(),
            });
            times.push(at);
            at += 2 * MS - 100_000 + rng.below(200_000);
        }
        // The window opens at the first INVITE; the (N+1)-th inside T1
        // crosses the threshold.
        if times.len() > n && times[n] - times[0] < t1 {
            out.truth.push(Expected {
                label: labels::INVITE_FLOOD.to_owned(),
                // The engine names a flood scope by the numeric address.
                scope: format!("dst:{victim_ip}"),
                tenant: "-".to_owned(),
                first_ns: times[0],
                lo_ms: times[n] / MS,
                hi_ms: times[n] / MS + 1,
            });
        }
    }
    for i in 0..background {
        let caller_ip = u32::from_be_bytes([10, 1, 200, (i % 250 + 1) as u8]);
        let callee_ip = u32::from_be_bytes([10, 2, 200, (i % 250 + 1) as u8]);
        let call_id = format!("bg{seed:x}-{i}");
        let msgs = call_msgs(
            &call_id,
            &SipUri::new(format!("a{i}"), dotted(caller_ip)),
            &SipUri::new(format!("b{i}"), dotted(callee_ip)),
            Some((caller_ip, callee_ip)),
        );
        let (caller, callee) = (v4(caller_ip, 5060), v4(callee_ip, 5060));
        let t0 = rng.below(1_000 * MS);
        for (dt, src, dst, text) in [
            (0, caller, callee, msgs.invite.to_string()),
            (15, callee, caller, msgs.ringing),
            (40, callee, caller, msgs.ok),
            (45, caller, callee, msgs.ack),
            (400, caller, callee, msgs.bye),
            (403, callee, caller, msgs.bye_ok),
        ] {
            out.datagrams.push(Dgram {
                at_ns: t0 + dt * MS,
                src,
                dst,
                payload: text.into_bytes(),
            });
        }
    }
    out.sorted()
}

/// One tenant of the live workload.
pub struct LiveTenant {
    pub name: &'static str,
    pub ip: Ipv4Addr,
}

pub const LIVE_TENANTS: [LiveTenant; 2] = [
    LiveTenant {
        name: "alpha",
        ip: Ipv4Addr::new(127, 0, 0, 2),
    },
    LiveTenant {
        name: "beta",
        ip: Ipv4Addr::new(127, 0, 0, 3),
    },
];

/// The tenant file `vids serve --tenants` reads: one /32 per tenant, with
/// the INVITE-flood threshold well above each tenant's clean call rate
/// (on loopback every INVITE reaches the same destination address).
pub fn tenant_file(flood_n: u64) -> String {
    let mut out = String::from("# live_tenants benchmark tenants\n");
    for t in &LIVE_TENANTS {
        out.push_str(&format!(
            "tenant {} {}/32 invite_flood_n={flood_n}\n",
            t.name, t.ip
        ));
    }
    out
}

/// A datagram of the live schedule: due time (ns after the start),
/// sending tenant, payload.
pub struct LiveDgram {
    pub due_ns: u64,
    pub tenant: usize,
    pub payload: Vec<u8>,
}

pub struct LiveSchedule {
    pub datagrams: Vec<LiveDgram>,
    pub truth: Vec<Expected>,
    /// Index into `datagrams` of each tenant's final datagram, a spoofed
    /// BYE whose alert shows the daemon has drained that tenant's socket.
    pub sentinels: Vec<usize>,
}

/// `live_tenants`: per tenant, clean signaling-only calls (INVITE, 180,
/// 200, ACK, BYE, 200) started at `rate / 6 / tenants` calls per second
/// for `seconds`; every tenth call is cut short by a spoofed BYE.
pub fn live_schedule(seed: u64, rate: u64, seconds: u64) -> LiveSchedule {
    let mut rng = Rng::new(seed ^ 0x11fe);
    let tenants = LIVE_TENANTS.len() as u64;
    let calls_per_tenant = rate * seconds / 6 / tenants;
    let gap_ns = 1_000_000_000 * 6 * tenants / rate;
    let mut dgrams = Vec::new();
    let mut truth = Vec::new();
    let mut last_attack: Vec<(u64, usize)> = Vec::new();
    for (ti, t) in LIVE_TENANTS.iter().enumerate() {
        let mut latest = (0u64, 0usize);
        for i in 0..calls_per_tenant {
            let call_id = format!("lt{seed:x}-{}-{i}", t.name);
            let msgs = call_msgs(
                &call_id,
                &SipUri::new(format!("a{i}"), format!("{}.example", t.name)),
                &SipUri::new(format!("b{i}"), format!("{}.example", t.name)),
                None,
            );
            let t0 = i * gap_ns + rng.below(gap_ns / 2) + ti as u64 * gap_ns / 2;
            let step = 40 * MS;
            let attack = i % 10 == 5;
            let forged = attack.then(|| spoofed_bye(&msgs));
            let mut texts = vec![msgs.invite.to_string(), msgs.ringing, msgs.ok, msgs.ack];
            if let Some(forged) = forged {
                texts.push(forged);
            } else {
                texts.push(msgs.bye);
                texts.push(msgs.bye_ok);
            }
            let n = texts.len();
            for (j, text) in texts.into_iter().enumerate() {
                let due = t0 + j as u64 * step;
                if attack && j + 1 == n {
                    truth.push(Expected {
                        label: labels::SPOOFED_BYE.to_owned(),
                        scope: call_id.clone(),
                        tenant: t.name.to_owned(),
                        first_ns: due,
                        lo_ms: 0,
                        hi_ms: u64::MAX,
                    });
                    if due >= latest.0 {
                        latest = (due, dgrams.len());
                    }
                }
                dgrams.push(LiveDgram {
                    due_ns: due,
                    tenant: ti,
                    payload: text.into_bytes(),
                });
            }
        }
        last_attack.push(latest);
    }
    // Each tenant's last datagram must be its sentinel attack: push every
    // later datagram of that tenant's unfinished calls behind it.
    for (ti, &(due, idx)) in last_attack.iter().enumerate() {
        let mut shift_to = due;
        for (k, d) in dgrams.iter_mut().enumerate() {
            if d.tenant == ti && k != idx && d.due_ns >= due {
                shift_to = shift_to.max(d.due_ns);
            }
        }
        if shift_to > due {
            let late = shift_to + MS;
            dgrams[idx].due_ns = late;
            if let Some(e) = truth
                .iter_mut()
                .find(|e| e.first_ns == due && e.tenant == LIVE_TENANTS[ti].name)
            {
                e.first_ns = late;
            }
        }
    }
    let mut order: Vec<usize> = (0..dgrams.len()).collect();
    order.sort_by_key(|&i| (dgrams[i].due_ns, i));
    let mut rank = vec![0usize; dgrams.len()];
    for (pos, &i) in order.iter().enumerate() {
        rank[i] = pos;
    }
    let sentinels = last_attack.iter().map(|&(_, idx)| rank[idx]).collect();
    let mut slots: Vec<Option<LiveDgram>> = dgrams.into_iter().map(Some).collect();
    let datagrams = order
        .iter()
        .map(|&i| slots[i].take().expect("each index once"))
        .collect();
    LiveSchedule {
        datagrams,
        truth,
        sentinels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_captures() {
        let cfg = Config::default();
        assert_eq!(
            calls_mixed(3, 40, 40, &cfg).pcap(),
            calls_mixed(3, 40, 40, &cfg).pcap()
        );
        assert_ne!(
            calls_mixed(3, 40, 40, &cfg).pcap(),
            calls_mixed(4, 40, 40, &cfg).pcap()
        );
        assert_eq!(
            invite_flood(3, 4, 30, 5, &cfg).pcap(),
            invite_flood(3, 4, 30, 5, &cfg).pcap()
        );
    }

    #[test]
    fn flood_truth_names_every_victim() {
        let cfg = Config::default();
        let cap = invite_flood(1, 7, 40, 3, &cfg);
        assert_eq!(cap.truth.len(), 7);
        assert_eq!(cap.datagrams.len(), 7 * 40 + 3 * 6);
    }

    #[test]
    fn live_sentinels_close_each_tenant() {
        let s = live_schedule(9, 3000, 2);
        assert_eq!(s.sentinels.len(), LIVE_TENANTS.len());
        for (ti, &idx) in s.sentinels.iter().enumerate() {
            assert_eq!(s.datagrams[idx].tenant, ti);
            assert!(s.datagrams[idx + 1..].iter().all(|d| d.tenant != ti));
        }
        assert!(s.datagrams.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }
}
