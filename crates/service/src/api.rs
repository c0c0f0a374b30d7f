//! The tenant-facing HTTP/JSON API.
//!
//! Built on the `dx-telemetry` router, so handlers are plain closures
//! over an `Arc<Service>` and unit-testable via [`Router::respond`]
//! without a socket. Surface:
//!
//! | Method | Path                     | Body / query      | Returns |
//! |--------|--------------------------|-------------------|---------|
//! | GET    | `/healthz`               | —                 | `ok` |
//! | GET    | `/metrics`               | —                 | Prometheus text, per-tenant series labeled `tenant="<name>"` |
//! | POST   | `/campaigns`             | [`CampaignSpec`] JSON | status document |
//! | GET    | `/campaigns`             | —                 | array of status documents |
//! | GET    | `/campaigns/<id>`        | —                 | status document |
//! | GET    | `/campaigns/<id>/report` | —                 | rendered campaign report (text) |
//! | GET    | `/campaigns/<id>/events` | `?from=N`         | JSONL event feed from line `N` |
//! | POST   | `/campaigns/<id>/pause`  | —                 | status document |
//! | POST   | `/campaigns/<id>/resume` | —                 | status document |
//! | POST   | `/campaigns/<id>/cancel` | —                 | status document |
//!
//! Errors are plain-text bodies with the obvious statuses: `400`
//! invalid spec or body, `404` unknown campaign, `409` invalid
//! transition or duplicate name, `429` over the live-tenant cap.

use std::sync::Arc;

use dx_campaign::json::parse_doc;
use dx_telemetry::http::{Request, Response, Router};

use crate::{ApiError, CampaignSpec, Service};

fn fail(e: ApiError) -> Response {
    Response::text(e.reason).status(e.status)
}

fn ok_json(doc: &dx_campaign::json::Json) -> Response {
    Response::json(doc.to_string())
}

/// The campaign id and trailing action from a `/campaigns/<id>[/...]`
/// path, e.g. `/campaigns/3/pause` → `(3, "pause")`; no trailing
/// segment yields an empty action.
fn id_and_action(path: &str) -> Option<(u64, &str)> {
    let rest = path.strip_prefix("/campaigns/")?;
    let (id, action) = match rest.split_once('/') {
        Some((id, action)) => (id, action),
        None => (rest, ""),
    };
    Some((id.parse().ok()?, action))
}

fn get_campaign(svc: &Service, req: &Request) -> Response {
    let Some((id, action)) = id_and_action(&req.path) else { return Response::not_found() };
    let result = match action {
        "" => svc.status(id).map(|doc| ok_json(&doc)),
        "report" => svc.report(id).map(Response::text),
        "events" => {
            let from = req.query_param("from").and_then(|v| v.parse().ok()).unwrap_or(0);
            svc.events(id, from).map(Response::text)
        }
        _ => return Response::not_found(),
    };
    result.unwrap_or_else(fail)
}

fn post_campaign(svc: &Service, req: &Request) -> Response {
    let Some((id, action)) = id_and_action(&req.path) else { return Response::not_found() };
    let result = match action {
        "pause" => svc.pause(id),
        "resume" => svc.resume(id),
        "cancel" => svc.cancel(id),
        _ => return Response::not_found(),
    };
    result.map(|doc| ok_json(&doc)).unwrap_or_else(fail)
}

fn submit(svc: &Service, req: &Request) -> Response {
    let doc = match parse_doc(&req.body) {
        Ok(doc) => doc,
        Err(e) => return Response::text(format!("invalid JSON: {e}")).status(400),
    };
    let spec = match CampaignSpec::from_json(&doc) {
        Ok(spec) => spec,
        Err(reason) => return Response::text(reason.to_string()).status(400),
    };
    svc.submit(spec).map(|doc| ok_json(&doc)).unwrap_or_else(fail)
}

/// The service's full route table over a shared daemon handle. Serve it
/// with [`Router::serve`]; tests drive it directly via
/// [`Router::respond`].
pub fn router(svc: Arc<Service>) -> Router {
    let (metrics, post, list) = (Arc::clone(&svc), Arc::clone(&svc), Arc::clone(&svc));
    let (get_one, post_one) = (Arc::clone(&svc), svc);
    Router::new()
        .route("GET", "/healthz", |_| Response::text("ok"))
        .route("GET", "/metrics", move |_| Response::text(metrics.render_metrics()))
        .route("POST", "/campaigns", move |req| submit(&post, req))
        .route("GET", "/campaigns", move |_| ok_json(&list.list()))
        .route_prefix("GET", "/campaigns/", move |req| get_campaign(&get_one, req))
        .route_prefix("POST", "/campaigns/", move |req| post_campaign(&post_one, req))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use deepxplore::constraints::Constraint;
    use deepxplore::generator::TaskKind;
    use deepxplore::Hyperparams;
    use dx_campaign::json::Json;
    use dx_campaign::ModelSuite;
    use dx_coverage::{CoverageConfig, SignalSpec};
    use dx_nn::layer::Layer;
    use dx_nn::Network;
    use dx_tensor::rng;

    fn suite() -> ModelSuite {
        let mut base = Network::new(
            &[16],
            vec![Layer::dense(16, 14), Layer::relu(), Layer::dense(14, 3), Layer::softmax()],
        );
        base.init_weights(&mut rng::rng(0xdead));
        ModelSuite {
            models: vec![base.clone(), base.perturbed(0.1, 1), base.perturbed(0.1, 2)],
            kind: TaskKind::Classification,
            hp: Hyperparams { step: 0.25, max_iters: 10, ..Default::default() },
            constraint: Constraint::Clip,
            signal: SignalSpec::neuron(CoverageConfig::scaled(0.25)),
        }
    }

    fn service(max_tenants: usize) -> Arc<Service> {
        let pool = rng::uniform(&mut rng::rng(0xbeef), &[10, 16], 0.2, 0.8);
        let cfg = ServiceConfig { max_tenants, ..Default::default() };
        Arc::new(Service::new(&suite(), "api@test", &pool, cfg).unwrap())
    }

    fn hit(router: &Router, method: &str, path: &str, body: &str) -> (u16, String) {
        let resp = router.respond(&Request::new(method, path, body));
        (resp.status, resp.body)
    }

    fn parse(body: &str) -> Json {
        parse_doc(body).unwrap()
    }

    #[test]
    fn submit_then_drive_the_full_lifecycle() {
        let router = router(service(8));
        let (status, body) = hit(&router, "POST", "/campaigns", r#"{"name":"acme","seeds":4}"#);
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body);
        let id = doc.get("id").and_then(Json::as_u64).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("running"));

        let (status, body) = hit(&router, "GET", "/campaigns", "");
        assert_eq!(status, 200);
        let Json::Arr(all) = parse(&body) else { panic!("list must be an array: {body}") };
        assert_eq!(all.len(), 1);

        let (status, _) = hit(&router, "GET", &format!("/campaigns/{id}"), "");
        assert_eq!(status, 200);

        let (status, body) = hit(&router, "POST", &format!("/campaigns/{id}/pause"), "");
        assert_eq!(status, 200);
        assert_eq!(parse(&body).get("status").and_then(Json::as_str), Some("paused"));
        let (status, body) = hit(&router, "POST", &format!("/campaigns/{id}/pause"), "");
        assert_eq!(status, 409, "double pause must conflict: {body}");
        let (status, _) = hit(&router, "POST", &format!("/campaigns/{id}/resume"), "");
        assert_eq!(status, 200);

        let (status, body) = hit(&router, "GET", &format!("/campaigns/{id}/report"), "");
        assert_eq!(status, 200);
        assert!(body.contains("acme"), "{body}");

        let (status, body) = hit(&router, "POST", &format!("/campaigns/{id}/cancel"), "");
        assert_eq!(status, 200);
        assert_eq!(parse(&body).get("status").and_then(Json::as_str), Some("cancelled"));
        let (status, _) = hit(&router, "POST", &format!("/campaigns/{id}/cancel"), "");
        assert_eq!(status, 409, "cancel is terminal");
        let (status, _) = hit(&router, "POST", &format!("/campaigns/{id}/resume"), "");
        assert_eq!(status, 409, "no resume out of cancelled");
    }

    #[test]
    fn malformed_bodies_and_unknown_ids() {
        let router = router(service(8));
        let deep = "[".repeat(20_000);
        for (body, why) in [
            ("{not json", "unparseable"),
            (deep.as_str(), "nested past the parser's cap"),
            (r#"{"seeds":4}"#, "missing name"),
            (r#"{"name":"x","quota":7}"#, "quota out of range"),
            (r#"{"name":"x","seeds":999}"#, "slice beyond the pool"),
            (r#"{"name":"x","metric":"multisection"}"#, "metric mismatch"),
        ] {
            let (status, b) = hit(&router, "POST", "/campaigns", body);
            assert_eq!(status, 400, "{why}: {b}");
        }
        for path in
            ["/campaigns/99", "/campaigns/acme", "/campaigns/99/report", "/campaigns/99/events"]
        {
            let (status, _) = hit(&router, "GET", path, "");
            assert_eq!(status, 404, "{path}");
        }
        let (status, _) = hit(&router, "POST", "/campaigns/99/pause", "");
        assert_eq!(status, 404);
        let (status, _) = hit(&router, "POST", "/campaigns/0/explode", "");
        assert_eq!(status, 404, "unknown action");
        let (status, _) = hit(&router, "DELETE", "/campaigns", "");
        assert_eq!(status, 405, "known path, wrong method");
    }

    #[test]
    fn duplicate_names_conflict_and_the_tenant_cap_throttles() {
        let router = router(service(2));
        let (status, _) = hit(&router, "POST", "/campaigns", r#"{"name":"a","seeds":2}"#);
        assert_eq!(status, 200);
        let (status, body) = hit(&router, "POST", "/campaigns", r#"{"name":"a","seeds":2}"#);
        assert_eq!(status, 409, "duplicate name: {body}");
        let (status, _) = hit(&router, "POST", "/campaigns", r#"{"name":"b","seeds":2}"#);
        assert_eq!(status, 200);
        let (status, body) = hit(&router, "POST", "/campaigns", r#"{"name":"c","seeds":2}"#);
        assert_eq!(status, 429, "cap of 2 live tenants: {body}");
        // Cancelling frees a live slot — but the dead name stays taken
        // (metric labels and state directories are keyed by it).
        let (status, _) = hit(&router, "POST", "/campaigns/0/cancel", "");
        assert_eq!(status, 200);
        let (status, _) = hit(&router, "POST", "/campaigns", r#"{"name":"c","seeds":2}"#);
        assert_eq!(status, 200);
        let (status, _) = hit(&router, "POST", "/campaigns", r#"{"name":"a","seeds":2}"#);
        assert_eq!(status, 409, "names are daemon-lifetime unique");
    }

    #[test]
    fn pause_then_cancel_is_legal_and_terminal_wins() {
        let router = router(service(8));
        let (_, body) = hit(&router, "POST", "/campaigns", r#"{"name":"t","seeds":2}"#);
        let id = parse(&body).get("id").and_then(Json::as_u64).unwrap();
        let (status, _) = hit(&router, "POST", &format!("/campaigns/{id}/pause"), "");
        assert_eq!(status, 200);
        // Cancel must work from paused (the common "wind it down" path)...
        let (status, body) = hit(&router, "POST", &format!("/campaigns/{id}/cancel"), "");
        assert_eq!(status, 200);
        assert_eq!(parse(&body).get("status").and_then(Json::as_str), Some("cancelled"));
        // ...and afterwards every transition loses to the terminal state.
        for action in ["pause", "resume", "cancel"] {
            let (status, _) = hit(&router, "POST", &format!("/campaigns/{id}/{action}"), "");
            assert_eq!(status, 409, "{action} after cancel");
        }
    }

    #[test]
    fn events_feed_pages_with_the_from_cursor() {
        let router = router(service(8));
        let (_, body) = hit(&router, "POST", "/campaigns", r#"{"name":"ev","seeds":2}"#);
        let id = parse(&body).get("id").and_then(Json::as_u64).unwrap();
        hit(&router, "POST", &format!("/campaigns/{id}/pause"), "");
        hit(&router, "POST", &format!("/campaigns/{id}/resume"), "");
        let (status, body) = hit(&router, "GET", &format!("/campaigns/{id}/events"), "");
        assert_eq!(status, 200);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3, "{body}");
        assert!(lines[0].contains("submitted") && lines[2].contains("resumed"), "{body}");
        // The cursor is "lines already consumed".
        let (_, rest) = hit(&router, "GET", &format!("/campaigns/{id}/events?from=2"), "");
        assert_eq!(rest.lines().count(), 1);
        assert!(rest.contains("resumed"), "{rest}");
    }

    #[test]
    fn health_and_metrics_expose_the_tenant_label() {
        let svc = service(8);
        let router = router(Arc::clone(&svc));
        let (status, body) = hit(&router, "GET", "/healthz", "");
        assert_eq!((status, body.as_str()), (200, "ok"));
        hit(&router, "POST", "/campaigns", r#"{"name":"m1","seeds":2}"#);
        hit(&router, "POST", "/campaigns", r#"{"name":"m2","seeds":2}"#);
        let (status, body) = hit(&router, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(body.contains("dx_service_tenants 2"), "{body}");
        assert!(body.contains(r#"dx_seeds_total{tenant="m1"} 0"#), "{body}");
        assert!(body.contains(r#"dx_seeds_total{tenant="m2"} 0"#), "{body}");
    }
}
