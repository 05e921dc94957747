//! `psm-telemetry` — the live telemetry plane, with **zero external
//! dependencies**.
//!
//! PR 1's `psm-obs` explains a run *after the fact* (Chrome traces,
//! JSONL events). This crate makes the same registry observable
//! **while the engine runs**, which is what the ROADMAP's
//! production-scale north star requires: a scrape endpoint, a health
//! endpoint, and live "why did rule X fire" answers without stopping
//! the matcher.
//!
//! | Endpoint    | Serves                                               |
//! |-------------|------------------------------------------------------|
//! | `/metrics`  | Prometheus text exposition of the registry snapshot (plus `profile.node.*` families when the profiler is on) |
//! | `/healthz`  | Engine + supervisor state (degradation tier, last-cycle deadline miss, recoveries) |
//! | `/snapshot` | Full JSON [`psm_obs::MetricsSnapshot`] + recent event ring + flight-ring status + profile table |
//! | `/explain`  | Flight-recorder queries: `?rule=R&instance=N` or `?cycle=N` |
//! | `/profile`  | Per-node join profile (JSON, hottest first): activations, pairs compared, measured selectivity, latency summary |
//! | `/interference` | Parallel-firing compatibility summary (rules, conflicting pairs, density) published by `psm-analyze`, plus live write-set sanitizer counters |
//! | `/timeseries`   | Metric time-series from the [`psm_obs::HistoryRing`]: `?metric=M&window=N` serves delta-decoded windows of a metric or labeled family, no query serves the series index |
//! | `/replicate/*`  | Replication artifacts (manifest, checkpoints, WAL segments) when a [`replicate::ReplicaSource`] is attached — see [`TelemetryServer::start_with_replication`] |
//!
//! The whole plane is optional: don't start a [`TelemetryServer`] and
//! no listener thread exists; build the [`psm_obs::Obs`] without flight
//! capacity and provenance recording is a single relaxed atomic load
//! per would-be record. Likewise the per-node profiler: without
//! profile capacity, `/profile` reports an empty table and no
//! `profile.node.*` family reaches `/metrics`. The profile families
//! are projected from the profiler at scrape time — nothing is
//! formatted or written into the registry on the matcher's hot path.

pub mod client;
pub mod http;
pub mod prom;
pub mod replicate;

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use psm_obs::{MetricsSnapshot, Obs};

use http::{Request, Response};

/// How the listener is bound and provisioned.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Handler threads (connections beyond `2 × workers` queued get an
    /// immediate 503).
    pub workers: usize,
    /// Per-connection read/write timeout.
    pub timeout: Duration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            timeout: Duration::from_secs(5),
        }
    }
}

/// The running telemetry plane: an [`http::HttpServer`] routing into a
/// shared [`Obs`] handle.
#[derive(Debug)]
pub struct TelemetryServer {
    server: http::HttpServer,
}

impl TelemetryServer {
    /// Binds the listener and starts serving `obs`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (port in use, bad address).
    pub fn start(obs: Arc<Obs>, config: &TelemetryConfig) -> io::Result<TelemetryServer> {
        let handler: Arc<dyn Fn(&Request) -> Response + Send + Sync> =
            Arc::new(move |req| route(&obs, req));
        let server = http::HttpServer::bind(&config.addr, config.workers, config.timeout, handler)?;
        Ok(TelemetryServer { server })
    }

    /// Like [`TelemetryServer::start`], but also serves the
    /// `/replicate/*` endpoints from `source` so a warm standby can
    /// pull checkpoint and WAL artifacts off the same listener.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (port in use, bad address).
    pub fn start_with_replication(
        obs: Arc<Obs>,
        config: &TelemetryConfig,
        source: Arc<dyn replicate::ReplicaSource>,
    ) -> io::Result<TelemetryServer> {
        let handler: Arc<dyn Fn(&Request) -> Response + Send + Sync> =
            Arc::new(move |req| route_full(&obs, Some(source.as_ref()), req));
        let server = http::HttpServer::bind(&config.addr, config.workers, config.timeout, handler)?;
        Ok(TelemetryServer { server })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the listener and joins all serving threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Routes one request against `obs`. Public (and pure) so tests and
/// tools can exercise the endpoints without sockets. Equivalent to
/// [`route_full`] without a replication source.
pub fn route(obs: &Obs, req: &Request) -> Response {
    route_full(obs, None, req)
}

/// Routes one request against `obs`, optionally serving `/replicate/*`
/// from `source`.
pub fn route_full(
    obs: &Obs,
    source: Option<&dyn replicate::ReplicaSource>,
    req: &Request,
) -> Response {
    if req.method != "GET" {
        return Response::error(405, "only GET is supported");
    }
    if let Some(source) = source {
        if let Some(resp) = replicate::route_replication(source, req) {
            return resp;
        }
    }
    match req.path.as_str() {
        "/metrics" => {
            let mut snap = obs.metrics.snapshot();
            if obs.profile.enabled() {
                snap.merge(&profile_families(&obs.profile.snapshot()));
            }
            Response::exposition(prom::render(&snap))
        }
        "/healthz" => Response::json(healthz_json(&obs.metrics.snapshot())),
        "/snapshot" => Response::json(snapshot_json(obs)),
        "/explain" => explain(obs, req),
        "/profile" => Response::json(obs.profile.snapshot().to_json()),
        "/interference" => Response::json(interference_json(&obs.metrics.snapshot())),
        "/timeseries" => timeseries(obs, req),
        "/" => Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: "psm-telemetry: /metrics /healthz /snapshot /explain /profile \
                   /interference /timeseries /replicate/manifest \
                   /replicate/checkpoint/{id} /replicate/wal/{seg}\n"
                .to_string(),
            raw: None,
        },
        _ => Response::error(404, "unknown path"),
    }
}

/// Projects a profile snapshot into `profile.node.*{node="K",kind="join"}`
/// metric families, using the registry's embedded-label name
/// convention so [`prom::render`] groups and escapes them like any
/// other family. Called at scrape time only.
pub fn profile_families(snap: &psm_obs::ProfileSnapshot) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::default();
    for r in &snap.rows {
        let l = format!("{{node=\"{}\",kind=\"{}\"}}", r.node, r.kind);
        out.counters
            .insert(format!("profile.node.left_activations{l}"), r.left);
        out.counters
            .insert(format!("profile.node.right_activations{l}"), r.right);
        out.counters
            .insert(format!("profile.node.tokens_in{l}"), r.tokens_in);
        out.counters
            .insert(format!("profile.node.tokens_out{l}"), r.tokens_out);
        out.counters
            .insert(format!("profile.node.pairs_compared{l}"), r.pairs);
        // Gauges are integral; selectivity is exported in parts per
        // million.
        out.gauges.insert(
            format!("profile.node.selectivity_ppm{l}"),
            (r.selectivity * 1e6).round() as i64,
        );
        if r.latency.count > 0 {
            out.histograms
                .insert(format!("profile.node.latency_ns{l}"), r.latency.clone());
        }
    }
    out
}

/// `/timeseries` — the metric time-series endpoint over
/// [`psm_obs::HistoryRing`].
///
/// * `/timeseries` — index of every tracked series (name, kind,
///   retained points) plus ring status.
/// * `/timeseries?metric=M[&window=N]` — the last `N` windows (all
///   retained when omitted or 0) of every series whose name equals `M`
///   or belongs to the labeled family `M{…}`; `M` may be a
///   comma-separated list.
///
/// Always 200: a capacity-0 ring answers `{"enabled":false,…}` so
/// pollers can distinguish "history off" from "no data yet".
fn timeseries(obs: &Obs, req: &Request) -> Response {
    let window = match req.param("window") {
        None => 0usize,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Response::error(400, "window must be an integer"),
        },
    };
    let h = &obs.history;
    let head = format!(
        "{{\"enabled\":{},\"capacity\":{},\"samples\":{},\"interval_ms\":{}",
        h.enabled(),
        h.capacity(),
        h.samples(),
        h.interval_ms(),
    );
    match req.param("metric") {
        None => {
            let mut body = head;
            body.push_str(",\"series\":[");
            for (i, (name, kind, len)) in h.index().iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str("{\"name\":");
                psm_obs::json::push_escaped(&mut body, name);
                body.push_str(&format!(",\"kind\":\"{}\",\"len\":{len}}}", kind.label()));
            }
            body.push_str("]}");
            Response::json(body)
        }
        Some(metric) => {
            let mut body = head;
            body.push_str(&format!(",\"window\":{window},\"series\":["));
            for (i, s) in h.series_matching(metric, window).iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&s.to_json());
            }
            body.push_str("]}");
            Response::json(body)
        }
    }
}

/// Health summary derived purely from the metrics snapshot, so the
/// server needs nothing beyond the shared `Obs` handle. Tier numbering
/// follows `psm-fault`: 0 = parallel, 1 = sequential, 2 = naive,
/// 3 = promoted (a standby that took over after a primary kill); a run
/// without a supervisor has no `fault.tier` gauge and reports
/// `"unsupervised"`.
pub fn healthz_json(snap: &MetricsSnapshot) -> String {
    let tier = snap.gauges.get("fault.tier").copied();
    let tier_name = match tier {
        None => "unsupervised",
        Some(0) => "parallel",
        Some(1) => "sequential",
        Some(2) => "naive",
        Some(3) => "promoted",
        Some(_) => "unknown",
    };
    let last_miss = snap
        .gauges
        .get("fault.last_cycle_deadline_miss")
        .copied()
        .unwrap_or(0);
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    let degraded = tier.unwrap_or(0) > 0 || last_miss != 0;
    // Replication state: the `replica.*` gauges a pulling standby
    // publishes, plus the promotions counter. `present` distinguishes
    // "no standby attached" from "standby fully caught up" — a
    // promoted or lagging standby is visible here without scraping
    // `/metrics`.
    let rep_gauge = |k: &str| snap.gauges.get(k).copied();
    let replicating = ["lag", "applied_cycle", "polls", "segments_fetched"]
        .iter()
        .any(|g| rep_gauge(&format!("replica.{g}")).is_some())
        || snap.counters.contains_key("replica.promotions");
    let opt = |v: Option<i64>| v.map_or("null".to_string(), |x| x.to_string());
    let replication = format!(
        concat!(
            "{{\"present\":{},\"lag\":{},\"applied_cycle\":{},",
            "\"segments_fetched\":{},\"rebases\":{},\"promotions\":{}}}"
        ),
        replicating,
        opt(rep_gauge("replica.lag")),
        opt(rep_gauge("replica.applied_cycle")),
        opt(rep_gauge("replica.segments_fetched")),
        opt(rep_gauge("replica.rebases")),
        counter("replica.promotions"),
    );
    format!(
        concat!(
            "{{\"status\":\"{}\",\"tier\":{},\"tier_name\":\"{}\",",
            "\"last_cycle_deadline_miss\":{},\"deadline_misses\":{},",
            "\"recoveries\":{},\"fallbacks\":{},\"checkpoints\":{},",
            "\"engine_faults\":{},\"firings\":{},\"replication\":{}}}"
        ),
        if degraded { "degraded" } else { "ok" },
        match tier {
            Some(t) => t.to_string(),
            None => "null".to_string(),
        },
        tier_name,
        last_miss,
        counter("fault.deadline_misses"),
        counter("fault.recoveries"),
        counter("fault.fallbacks"),
        counter("fault.checkpoints"),
        counter("fault.engine"),
        counter("interp.firings"),
        replication,
    )
}

/// Interference/act-phase summary derived purely from the metrics
/// snapshot: the `interference.*` gauges that
/// `psm_analyze::InterferenceAnalysis::publish` sets (density is
/// exported in parts per million and converted back here) and the
/// `sanitizer.*` counters the runtime write-set sanitizer maintains. A
/// run that never published reports `"analyzed":false` with null
/// fields, so dashboards can distinguish "no analysis" from "fully
/// compatible".
pub fn interference_json(snap: &MetricsSnapshot) -> String {
    let gauge = |k: &str| snap.gauges.get(k).copied();
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    let rules = gauge("interference.rules");
    let pairs = gauge("interference.conflicting_pairs");
    let density = gauge("interference.density_ppm").map(|ppm| ppm as f64 / 1e6);
    let opt = |v: Option<i64>| v.map_or("null".to_string(), |x| x.to_string());
    format!(
        concat!(
            "{{\"analyzed\":{},\"rules\":{},\"conflicting_pairs\":{},",
            "\"density\":{},\"sanitizer\":{{\"checks\":{},\"violations\":{},",
            "\"firings\":{}}}}}"
        ),
        rules.is_some(),
        opt(rules),
        opt(pairs),
        density.map_or("null".to_string(), |d| format!("{d:.6}")),
        counter("sanitizer.checks"),
        counter("sanitizer.violations"),
        counter("sanitizer.firings"),
    )
}

/// `/snapshot`: metrics + buffered events (not drained) + flight-ring
/// status.
fn snapshot_json(obs: &Obs) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\"metrics\":");
    out.push_str(&obs.metrics.snapshot().to_json());
    out.push_str(",\"events\":[");
    for (i, line) in obs.events.to_jsonl().lines().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(line);
    }
    out.push_str("],\"flight\":{\"capacity\":");
    out.push_str(&obs.flight.capacity().to_string());
    out.push_str(",\"len\":");
    out.push_str(&obs.flight.len().to_string());
    out.push_str(",\"dropped\":");
    out.push_str(&obs.flight.dropped().to_string());
    out.push_str(",\"cycle\":");
    out.push_str(&obs.flight.cycle().to_string());
    out.push_str(",\"max_cycles\":");
    out.push_str(&obs.flight.max_cycles().to_string());
    out.push_str(",\"retained_cycles\":");
    out.push_str(&obs.flight.retained_cycles().to_string());
    out.push_str(",\"evicted_cycles\":");
    out.push_str(&obs.flight.evicted_cycles().to_string());
    out.push_str("},\"profile\":");
    out.push_str(&obs.profile.snapshot().to_json());
    out.push_str(",\"history\":");
    out.push_str(&obs.history.summary_json());
    out.push('}');
    out
}

/// `{"node":"kind", ...}` for every profiled node, in node-id order —
/// spliced into `/explain` responses so causal traces and profiles use
/// the same node naming.
fn node_kinds_json(obs: &Obs) -> String {
    let mut rows = obs.profile.snapshot().rows;
    rows.sort_by_key(|r| r.node);
    let mut out = String::from("{");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&r.node.to_string());
        out.push_str("\":\"");
        out.push_str(r.kind);
        out.push('"');
    }
    out.push('}');
    out
}

/// Appends `"node_kinds":{...}` to a JSON object body.
fn with_node_kinds(mut body: String, obs: &Obs) -> String {
    debug_assert!(body.ends_with('}'));
    body.truncate(body.len() - 1);
    body.push_str(",\"node_kinds\":");
    body.push_str(&node_kinds_json(obs));
    body.push('}');
    body
}

/// `/explain?rule=R&instance=N` (instance defaults to 0) or
/// `/explain?cycle=N`.
fn explain(obs: &Obs, req: &Request) -> Response {
    if let Some(cycle) = req.param("cycle") {
        let Ok(n) = cycle.parse::<u64>() else {
            return Response::error(400, "cycle must be an integer");
        };
        let records = obs.flight.explain_cycle(n);
        let mut body = format!("{{\"cycle\":{n},\"records\":[");
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&r.to_json());
        }
        body.push_str("]}");
        return Response::json(with_node_kinds(body, obs));
    }
    if let Some(rule) = req.param("rule") {
        let instance = match req.param("instance") {
            None => 0,
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) => n,
                Err(_) => return Response::error(400, "instance must be an integer"),
            },
        };
        return Response::json(with_node_kinds(
            obs.flight.explain_firing(rule, instance).to_json(),
            obs,
        ));
    }
    Response::error(400, "expected ?rule=NAME[&instance=N] or ?cycle=N")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    #[test]
    fn routes_cover_endpoints() {
        let obs = Obs::with_flight(16, 16);
        obs.metrics.counter("interp.firings").add(3);
        obs.metrics.gauge("fault.tier").set(1);
        assert_eq!(route(&obs, &get("/metrics", &[])).status, 200);
        let health = route(&obs, &get("/healthz", &[]));
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"tier_name\":\"sequential\""));
        assert!(health.body.contains("\"status\":\"degraded\""));
        assert_eq!(route(&obs, &get("/snapshot", &[])).status, 200);
        assert_eq!(route(&obs, &get("/interference", &[])).status, 200);
        assert!(route(&obs, &get("/", &[])).body.contains("/interference"));
        assert_eq!(route(&obs, &get("/nope", &[])).status, 404);
        assert_eq!(route(&obs, &get("/explain", &[])).status, 400);
        assert_eq!(route(&obs, &get("/explain", &[("cycle", "0")])).status, 200);
        let mut bad = get("/metrics", &[]);
        bad.method = "POST".to_string();
        assert_eq!(route(&obs, &bad).status, 405);
    }

    #[test]
    fn healthz_unsupervised_is_ok() {
        let snap = MetricsSnapshot::default();
        let body = healthz_json(&snap);
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains("\"tier\":null"));
        assert!(body.contains("\"tier_name\":\"unsupervised\""));
        assert!(client::Json::parse(&body).is_some(), "healthz must be JSON");
    }

    #[test]
    fn healthz_reports_replication_state() {
        use client::Json;
        // No standby attached: the block is present but marked absent.
        let body = healthz_json(&MetricsSnapshot::default());
        let j = client::Json::parse(&body).expect("healthz is JSON");
        let rep = j.get("replication").expect("replication block");
        assert_eq!(rep.get("present").and_then(Json::as_bool), Some(false));
        assert_eq!(rep.get("lag"), Some(&Json::Null));

        // A lagging standby and a promotion are visible without
        // scraping /metrics.
        let mut snap = MetricsSnapshot::default();
        snap.gauges.insert("replica.lag".into(), 7);
        snap.gauges.insert("replica.applied_cycle".into(), 41);
        snap.gauges.insert("replica.segments_fetched".into(), 3);
        snap.gauges.insert("replica.rebases".into(), 1);
        snap.counters.insert("replica.promotions".into(), 1);
        snap.gauges.insert("fault.tier".into(), 3);
        let body = healthz_json(&snap);
        let j = client::Json::parse(&body).expect("healthz is JSON");
        assert_eq!(
            j.get("tier_name").and_then(Json::as_str),
            Some("promoted"),
            "the Tier::Promoted rung reaches health"
        );
        assert_eq!(j.get("status").and_then(Json::as_str), Some("degraded"));
        let rep = j.get("replication").unwrap();
        assert_eq!(rep.get("present").and_then(Json::as_bool), Some(true));
        assert_eq!(rep.get("lag").and_then(Json::as_u64), Some(7));
        assert_eq!(rep.get("applied_cycle").and_then(Json::as_u64), Some(41));
        assert_eq!(rep.get("promotions").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn timeseries_endpoint_serves_index_and_series() {
        use client::Json;
        // History off: 200 with enabled:false, never an error.
        let off = Obs::with_flight(8, 8);
        let resp = route(&off, &get("/timeseries", &[]));
        assert_eq!(resp.status, 200);
        let j = Json::parse(&resp.body).expect("timeseries is JSON");
        assert_eq!(j.get("enabled").and_then(Json::as_bool), Some(false));
        assert!(j.get("series").unwrap().items().is_empty());

        // With a sampled ring: index lists series, metric query decodes
        // deltas, families group by prefix, windows trim.
        let on = Obs::with_history(8, 8, 0, 16);
        let c = on.metrics.counter("interp.firings");
        let w0 = on.metrics.counter("engine.worker.tasks{worker=\"0\"}");
        let w1 = on.metrics.counter("engine.worker.tasks{worker=\"1\"}");
        c.add(5);
        w0.add(2);
        w1.add(3);
        on.history.sample_at(100, &on.metrics);
        c.add(1);
        on.history.sample_at(200, &on.metrics);

        let j = Json::parse(&route(&on, &get("/timeseries", &[])).body).unwrap();
        assert_eq!(j.get("enabled").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("samples").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("series").unwrap().items().len(), 3);

        let j = Json::parse(&route(&on, &get("/timeseries", &[("metric", "interp.firings")])).body)
            .unwrap();
        let s = &j.get("series").unwrap().items()[0];
        assert_eq!(s.get("kind").and_then(Json::as_str), Some("counter"));
        let pts = s.get("points").unwrap().items();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].idx(1).and_then(Json::as_u64), Some(5));
        assert_eq!(pts[1].idx(1).and_then(Json::as_u64), Some(1));

        let j = Json::parse(
            &route(
                &on,
                &get(
                    "/timeseries",
                    &[("metric", "engine.worker.tasks"), ("window", "1")],
                ),
            )
            .body,
        )
        .unwrap();
        let family = j.get("series").unwrap().items();
        assert_eq!(family.len(), 2, "family prefix matches both workers");
        for s in family {
            assert_eq!(s.get("points").unwrap().items().len(), 1, "window trims");
        }

        assert_eq!(
            route(&on, &get("/timeseries", &[("window", "x")])).status,
            400
        );
        assert!(route(&on, &get("/", &[])).body.contains("/timeseries"));
    }

    #[test]
    fn profile_endpoint_and_metric_families() {
        // Capacity 0: the endpoint answers but reports nothing, and no
        // profile family leaks into the exposition text.
        let off = Obs::with_flight(16, 16);
        off.metrics.counter("interp.firings").inc();
        let resp = route(&off, &get("/profile", &[]));
        assert_eq!(resp.status, 200);
        let j = client::Json::parse(&resp.body).expect("profile is JSON");
        assert_eq!(j.get("capacity").unwrap().as_u64(), Some(0));
        assert!(j.get("rows").unwrap().items().is_empty());
        let text = route(&off, &get("/metrics", &[])).body;
        assert!(
            !text.contains("profile_node_"),
            "capacity 0 keeps profile families out of /metrics"
        );

        // With capacity and recorded activity, the labeled families
        // appear and the table is sorted hottest-first.
        let on = Obs::with_profile(16, 16, 8);
        let one = |right, pairs, tokens_out| {
            let mut d = psm_obs::NodeDelta::default();
            d.record(right, pairs, tokens_out);
            d
        };
        on.profile
            .add(1, psm_obs::ProfileKind::Join, &one(true, 100, 25));
        on.profile
            .add(2, psm_obs::ProfileKind::Negative, &one(false, 10, 1));
        let resp = route(&on, &get("/profile", &[]));
        let j = client::Json::parse(&resp.body).expect("profile is JSON");
        let rows = j.get("rows").unwrap().items();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].get("node").unwrap().as_u64(),
            Some(1),
            "hottest first"
        );
        assert_eq!(rows[0].get("kind").unwrap().as_str(), Some("join"));
        let text = route(&on, &get("/metrics", &[])).body;
        assert!(text.contains("profile_node_pairs_compared{node=\"1\",kind=\"join\"} 100"));
        assert!(text.contains("profile_node_selectivity_ppm{node=\"1\",kind=\"join\"} 250000"));
        assert!(text.contains("profile_node_right_activations{node=\"1\",kind=\"join\"} 1"));
        assert!(text.contains("{node=\"2\",kind=\"neg\"}"));

        // /snapshot carries the same table plus retention status.
        let snap = client::Json::parse(&route(&on, &get("/snapshot", &[])).body).unwrap();
        let p = snap.get("profile").unwrap();
        assert_eq!(p.get("retained").unwrap().as_u64(), Some(2));
        assert_eq!(p.get("overflow").unwrap().as_u64(), Some(0));

        // /explain reports the profiler's node kinds alongside records.
        let ex =
            client::Json::parse(&route(&on, &get("/explain", &[("cycle", "0")])).body).unwrap();
        let kinds = ex.get("node_kinds").unwrap();
        assert_eq!(kinds.get("1").unwrap().as_str(), Some("join"));
        assert_eq!(kinds.get("2").unwrap().as_str(), Some("neg"));
    }

    #[test]
    fn profile_overflow_reported() {
        let obs = Obs::with_profile(16, 0, 2);
        let delta = psm_obs::NodeDelta::default();
        obs.profile.add(7, psm_obs::ProfileKind::Join, &delta);
        let j = client::Json::parse(&route(&obs, &get("/profile", &[])).body).unwrap();
        assert_eq!(j.get("overflow").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("retained").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn interference_endpoint_reports_gauges_and_sanitizer() {
        // Nothing published yet: analyzed=false, null fields, zeroed
        // sanitizer counters — still valid JSON.
        let obs = Obs::with_flight(8, 8);
        let body = route(&obs, &get("/interference", &[])).body;
        assert!(body.contains("\"analyzed\":false"));
        assert!(body.contains("\"rules\":null"));
        assert!(body.contains("\"violations\":0"));
        assert!(client::Json::parse(&body).is_some(), "must be JSON");

        // After a publish + sanitizer activity, the numbers flow through
        // (density round-trips from parts per million).
        obs.metrics.gauge("interference.rules").set(20);
        obs.metrics.gauge("interference.conflicting_pairs").set(3);
        obs.metrics.gauge("interference.density_ppm").set(984_211);
        obs.metrics.counter("sanitizer.checks").add(57);
        obs.metrics.counter("sanitizer.violations").inc();
        obs.metrics.counter("sanitizer.firings").add(12);
        let body = route(&obs, &get("/interference", &[])).body;
        assert!(body.contains("\"analyzed\":true"));
        assert!(body.contains("\"rules\":20"));
        assert!(body.contains("\"conflicting_pairs\":3"));
        assert!(body.contains("\"density\":0.984211"));
        assert!(body.contains("\"checks\":57"));
        assert!(body.contains("\"violations\":1"));
        assert!(body.contains("\"firings\":12"));
    }

    #[test]
    fn snapshot_is_valid_json() {
        let obs = Obs::with_flight(8, 8);
        obs.set_detail(true);
        obs.events.emit("tick", &[("n", 1u64.into())]);
        obs.metrics.counter("c").inc();
        obs.metrics.histogram("h").record(42);
        let body = snapshot_json(&obs);
        let j = client::Json::parse(&body).expect("valid JSON");
        assert_eq!(j.get("events").unwrap().items().len(), 1);
        assert!(j.get("metrics").unwrap().get("counters").is_some());
        assert_eq!(
            j.get("flight").unwrap().get("capacity").unwrap().as_u64(),
            Some(8)
        );
        assert!(
            j.get("flight")
                .unwrap()
                .get("retained_cycles")
                .unwrap()
                .as_u64()
                .is_some(),
            "snapshot reports per-cycle retention"
        );
        assert!(j.get("flight").unwrap().get("evicted_cycles").is_some());
    }
}
