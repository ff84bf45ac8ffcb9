//! Ground truth and the checker that holds the program's alerts to it.
//!
//! The truth is computed from the generator's schedule and the configured
//! detection thresholds, never from a stored copy of an earlier run: each
//! injected attack names the label it must raise, the scope it must raise
//! it on (a Call-ID or a flood victim), the tenant whose traffic carried
//! it, and the capture-clock window its alert must fall in. Everything
//! else — clean calls, flood background — must stay silent.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One alert the schedule demands.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub label: String,
    /// `Call-ID` for call-scoped attacks, `dst:<u32 address>` for floods
    /// (the engine names a flood scope by the numeric address).
    pub scope: String,
    /// Tenant name on the live workload, `-` elsewhere.
    pub tenant: String,
    /// When the attack's first datagram is on the wire, in nanoseconds of
    /// the capture clock (replay) or of the sender's schedule (live).
    pub first_ns: u64,
    /// Inclusive capture-clock window, in ms, the alert time must fall in
    /// (replay only; live alerts carry wall-clock arrival instead).
    pub lo_ms: u64,
    pub hi_ms: u64,
}

/// One alert the program raised.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    pub label: String,
    pub scope: String,
    /// Tenant name when the output names one per alert, else `None`.
    pub tenant: Option<String>,
    /// Replay: the alert's engine time in ms. Live: arrival at the
    /// benchmark, in ns of the sender's schedule clock.
    pub time: u64,
}

/// How the observed alert times are read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Engine ms on the capture clock; checked against each window.
    CaptureMs,
    /// Arrival ns on the sender's clock; must not precede the attack.
    WallNs,
}

/// What the checker found.
#[derive(Debug, Default)]
pub struct Verdict {
    pub expected: usize,
    pub detected: usize,
    pub missing: Vec<String>,
    pub extra: Vec<String>,
    pub mistimed: Vec<String>,
    pub wrong_tenant: Vec<String>,
    /// Detection latency of each detected attack, in ms.
    pub detect_ms: Vec<f64>,
}

impl Verdict {
    pub fn ok(&self) -> bool {
        self.missing.is_empty()
            && self.extra.is_empty()
            && self.mistimed.is_empty()
            && self.wrong_tenant.is_empty()
    }

    pub fn problems(&self) -> String {
        let mut out = String::new();
        for (what, list) in [
            ("missing", &self.missing),
            ("extra", &self.extra),
            ("mistimed", &self.mistimed),
            ("wrong tenant", &self.wrong_tenant),
        ] {
            if !list.is_empty() {
                let shown: Vec<&str> = list.iter().take(5).map(String::as_str).collect();
                let _ = write!(out, "{} {what}: {}; ", list.len(), shown.join(", "));
            }
        }
        out
    }
}

/// Holds `observed` to `truth`: every expected alert raised exactly once
/// with its label on its scope (and tenant), inside its window, and no
/// alert anywhere else. A mislabelled alert shows as one missing plus one
/// extra.
pub fn check(truth: &[Expected], observed: &[Observed], clock: Clock) -> Verdict {
    let mut v = Verdict {
        expected: truth.len(),
        ..Verdict::default()
    };
    let mut by_key: BTreeMap<(&str, &str), Vec<&Observed>> = BTreeMap::new();
    for o in observed {
        by_key
            .entry((o.scope.as_str(), o.label.as_str()))
            .or_default()
            .push(o);
    }
    for e in truth {
        let key = (e.scope.as_str(), e.label.as_str());
        let Some(hits) = by_key.remove(&key) else {
            v.missing.push(format!("{} on {}", e.label, e.scope));
            continue;
        };
        if hits.len() > 1 {
            v.extra.push(format!(
                "{} on {} raised {} times",
                e.label,
                e.scope,
                hits.len()
            ));
        }
        let o = hits[0];
        if let Some(t) = &o.tenant {
            if *t != e.tenant {
                v.wrong_tenant
                    .push(format!("{} on {}: {t}, not {}", e.label, e.scope, e.tenant));
            }
        }
        let detect_ms = match clock {
            Clock::CaptureMs => {
                if o.time < e.lo_ms || o.time > e.hi_ms {
                    v.mistimed.push(format!(
                        "{} on {} at {} ms, not in {}..={}",
                        e.label, e.scope, o.time, e.lo_ms, e.hi_ms
                    ));
                }
                o.time as f64 - e.first_ns as f64 / 1e6
            }
            Clock::WallNs => {
                if o.time < e.first_ns {
                    v.mistimed
                        .push(format!("{} on {} before its attack", e.label, e.scope));
                }
                (o.time as f64 - e.first_ns as f64) / 1e6
            }
        };
        v.detected += 1;
        v.detect_ms.push(detect_ms);
    }
    for ((scope, label), hits) in by_key {
        v.extra
            .push(format!("{label} on {scope} (x{}) not injected", hits.len()));
    }
    v
}

/// The scope an alert's detail names (`scope <Call-ID>`, `scope
/// dst:<addr>`), or the whole detail when it names none. The detail is all
/// `vids serve` prints of an alert's scope.
pub fn detail_scope(detail: &str) -> &str {
    detail.strip_prefix("scope ").unwrap_or(detail)
}

/// Per-tenant alert totals as the expected list implies them.
pub fn per_tenant(truth: &[Expected]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for e in truth {
        *out.entry(e.tenant.clone()).or_insert(0) += 1;
    }
    out
}

/// Linear-interpolated percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Truth file: one tab-separated line per expected alert.
pub fn write_truth(truth: &[Expected]) -> String {
    let mut out = String::new();
    for e in truth {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            e.label, e.scope, e.tenant, e.first_ns, e.lo_ms, e.hi_ms
        );
    }
    out
}

pub fn read_truth(text: &str) -> Result<Vec<Expected>, String> {
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 6 {
                return Err(format!("bad truth line: {line}"));
            }
            let num = |s: &str| s.parse::<u64>().map_err(|e| format!("{s}: {e}"));
            Ok(Expected {
                label: f[0].to_owned(),
                scope: f[1].to_owned(),
                tenant: f[2].to_owned(),
                first_ns: num(f[3])?,
                lo_ms: num(f[4])?,
                hi_ms: num(f[5])?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> Vec<Expected> {
        vec![
            Expected {
                label: "spoofed-bye".into(),
                scope: "call-1".into(),
                tenant: "alpha".into(),
                first_ns: 1_000_000,
                lo_ms: 1,
                hi_ms: 2,
            },
            Expected {
                label: "invite-flood".into(),
                scope: "dst:10.9.0.1".into(),
                tenant: "beta".into(),
                first_ns: 5_000_000,
                lo_ms: 25,
                hi_ms: 26,
            },
        ]
    }

    fn observed() -> Vec<Observed> {
        vec![
            Observed {
                label: "spoofed-bye".into(),
                scope: "call-1".into(),
                tenant: Some("alpha".into()),
                time: 1,
            },
            Observed {
                label: "invite-flood".into(),
                scope: "dst:10.9.0.1".into(),
                tenant: Some("beta".into()),
                time: 25,
            },
        ]
    }

    #[test]
    fn exact_match_passes_with_latencies() {
        let v = check(&truth(), &observed(), Clock::CaptureMs);
        assert!(v.ok(), "{}", v.problems());
        assert_eq!(v.detected, 2);
        assert_eq!(v.detect_ms, vec![0.0, 20.0]);
    }

    #[test]
    fn rejects_a_missing_alert() {
        let mut obs = observed();
        obs.remove(0);
        let v = check(&truth(), &obs, Clock::CaptureMs);
        assert!(!v.ok());
        assert_eq!(v.missing.len(), 1);
    }

    #[test]
    fn rejects_an_extra_alert() {
        let mut obs = observed();
        obs.push(Observed {
            label: "spoofed-bye".into(),
            scope: "clean-7".into(),
            tenant: Some("alpha".into()),
            time: 3,
        });
        let v = check(&truth(), &obs, Clock::CaptureMs);
        assert!(!v.ok());
        assert_eq!(v.extra.len(), 1);
    }

    #[test]
    fn rejects_a_duplicate_alert() {
        let mut obs = observed();
        obs.push(obs[0].clone());
        assert!(!check(&truth(), &obs, Clock::CaptureMs).ok());
    }

    #[test]
    fn rejects_a_mislabelled_alert() {
        let mut obs = observed();
        obs[0].label = "spoofed-cancel".into();
        let v = check(&truth(), &obs, Clock::CaptureMs);
        assert!(!v.ok());
        assert_eq!((v.missing.len(), v.extra.len()), (1, 1));
    }

    #[test]
    fn rejects_a_wrongly_tenanted_alert() {
        let mut obs = observed();
        obs[1].tenant = Some("alpha".into());
        let v = check(&truth(), &obs, Clock::CaptureMs);
        assert!(!v.ok());
        assert_eq!(v.wrong_tenant.len(), 1);
    }

    #[test]
    fn rejects_an_alert_outside_its_window() {
        let mut obs = observed();
        obs[1].time = 40;
        let v = check(&truth(), &obs, Clock::CaptureMs);
        assert_eq!(v.mistimed.len(), 1);
        // On the wall clock an alert may not arrive before its attack.
        let mut early = observed();
        early[0].time = 999_999;
        let v = check(&truth()[..1], &early[..1], Clock::WallNs);
        assert_eq!(v.mistimed.len(), 1);
    }

    #[test]
    fn truth_file_round_trips() {
        let t = truth();
        assert_eq!(read_truth(&write_truth(&t)).unwrap(), t);
    }

    #[test]
    fn percentile_interpolates() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.5), 2.5);
        assert_eq!(percentile(&s, 1.0), 4.0);
    }
}
